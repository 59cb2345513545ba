"""The package carries no output that only tests read.

Every function, class and dataclass field defined in `src/uavrelay` must
be named in the code of `src/`, `scripts/` or `perfbench/` more often
than it is defined there.  Code means identifiers, plus string literals
that are one identifier (what `getattr` and perfbench's hooks look up),
not comments or docstrings: prose that mentions a name keeps nothing
alive.  The check is by name, so a definition shares its uses with
every other name spelled the same."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src", "scripts", "perfbench")

# name: why it stays although only tests name it
ALLOWED = {
    "los_probability": "the closed-form LoS probability that test_channel "
                       "checks gain_matrices' vectorized one against",
    "of": "GameView.of scores any matching under its equal split; the swap "
          "game's tests build their games with it, the package through "
          "init_matching",
}


def definitions(path):
    """Names of the functions, classes and dataclass fields in `path`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            yield from (s.target.id for s in node.body
                        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))


def code_names(path):
    """Identifiers in `path`, and string literals that are one identifier."""
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME:
            yield tok.string
        elif tok.type == tokenize.STRING and re.fullmatch(r"(['\"])\w+\1", tok.string):
            yield tok.string[1:-1]


def unused() -> set[str]:
    """Defined names that the code names no more often than it defines them."""
    defined = Counter(name for path in (ROOT / "src" / "uavrelay").glob("*.py")
                      for name in definitions(path))
    named = Counter(name for user in USERS for path in (ROOT / user).rglob("*.py")
                    for name in code_names(path))
    return {name for name, count in defined.items()
            if named[name] <= count and not re.fullmatch(r"__\w+__", name)}


def test_every_definition_is_used_outside_tests():
    assert sorted(unused() - ALLOWED.keys()) == []


def test_every_allowed_name_is_still_test_only():
    assert sorted(ALLOWED.keys() - unused()) == []

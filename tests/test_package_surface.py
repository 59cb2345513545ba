"""The package carries no output that only tests read.

Every function, class and dataclass field defined in `src/uavrelay` must
be named in the code of `src/`, `scripts/` or `perfbench/` more often
than it is defined there.  Code means identifiers, plus string literals
that are one identifier (what `getattr` and perfbench's hooks look up),
not comments or docstrings: prose that mentions a name keeps nothing
alive.  That check is by name, so a definition shares its uses with
every other name spelled the same.  Two more checks hold dataclass
fields and methods to reads: each must be read as an attribute
(`obj.name` in load context, or a one-identifier string for `getattr`),
so a local, a keyword argument or a module-level function that shares
its name keeps none alive."""

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
}
# Class.field: why it stays although nothing reads it as an attribute
ALLOWED_FIELDS = {
    "StageLog.stage": "names the stage a log belongs to; solve_altitude, which "
                      "perfbench's trajectory.altitude hook binds, builds one, "
                      "and ROADMAP item 8's per-stage record would read it",
}


def sources(users):
    return (path for user in users for path in (ROOT / user).rglob("*.py"))


def fields(path):
    """(class, field) of every dataclass field defined in `path`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            yield from ((node.name, s.target.id) for s in node.body
                        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))


def methods(path):
    """(class, method) of every function defined in a class body in
    `path`, dunder methods aside."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, f.name) for f in node.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not re.fullmatch(r"__\w+__", f.name))


def definitions(path):
    """Names of the functions, classes and dataclass fields in `path`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    yield from (name for _, name in fields(path))


def code_names(path):
    """Identifiers in `path`, and string literals that are one identifier."""
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME:
            yield tok.string
        elif tok.type == tokenize.STRING and re.fullmatch(r"(['\"])\w+\1", tok.string):
            yield tok.string[1:-1]


def attribute_reads(path):
    """Attributes read in `path`, and string constants that are one
    identifier."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_]\w*", node.value)):
            yield node.value


def unused() -> set[str]:
    """Defined names that the code names no more often than it defines them."""
    defined = Counter(name for path in sources(["src/uavrelay"])
                      for name in definitions(path))
    named = Counter(name for path in sources(USERS) for name in code_names(path))
    return {name for name, count in defined.items()
            if named[name] <= count and not re.fullmatch(r"__\w+__", name)}


def unread(members) -> set[str]:
    """`Class.name` of the members that `members` (`fields` or `methods`)
    finds and no code reads as an attribute."""
    read = {name for path in sources(USERS) for name in attribute_reads(path)}
    return {f"{cls}.{name}" for path in sources(["src/uavrelay"])
            for cls, name in members(path) if name not in read}


def test_every_definition_is_used_outside_tests():
    assert sorted(unused() - ALLOWED.keys()) == []


def test_every_allowed_name_is_still_test_only():
    assert sorted(ALLOWED.keys() - unused()) == []


def test_every_dataclass_field_is_read_outside_tests():
    assert sorted(unread(fields) - ALLOWED_FIELDS.keys()) == []


def test_every_allowed_field_is_still_unread():
    assert sorted(ALLOWED_FIELDS.keys() - unread(fields)) == []


def test_every_method_is_read_outside_tests():
    assert sorted(unread(methods)) == []

"""The benchmark's tracer (perfbench/tracer.py) wraps package functions
where their callers look them up.  A renamed or moved target is only
noted on stderr there and its metrics read 0, so check that every hook
finds its target."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_every_hook_target_exists():
    t = tracer.Tracer()
    tracer.instrument(t)
    try:
        assert t.missing == []
    finally:
        t.unpatch()

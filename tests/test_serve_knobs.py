"""The knob census, as a standing test: nothing configurable that nobody sets.

Every keyword parameter of ``JobService.__init__`` and every field of
``AdaptiveConfig`` must be passed by keyword in at least one file under
``src/``, ``perfbench/``, ``benchmarks/``, ``examples/`` or ``tests/``
other than the file that defines it.  A knob no caller sets is a
constant with a configuration matrix attached; this fails the suite the
day one appears instead of leaving it for a re-anchor to find (PR 13
deleted ``evict_to_admit`` that way, PR 24 eleven more).  Pure AST — no
import of the callers, no timing.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.serve import AdaptiveConfig, JobService

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "perfbench", "benchmarks", "examples", "tests")


def keywords_passed_to(callee: str, defined_in: str) -> set[str]:
    """Keyword names some call of ``callee`` passes, outside ``defined_in``."""
    seen: set[str] = set()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path == ROOT / defined_in:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None
                )
                if name == callee:
                    seen.update(k.arg for k in node.keywords if k.arg)
    return seen


CENSUS = [
    (
        "JobService", "src/repro/serve/service.py",
        [p for p in inspect.signature(JobService.__init__).parameters
         if p != "self"],
    ),
    (
        "AdaptiveConfig", "src/repro/serve/adaptive.py",
        [f.name for f in dataclasses.fields(AdaptiveConfig)],
    ),
]


@pytest.mark.parametrize("callee, defined_in, knobs", CENSUS)
def test_every_knob_is_set_by_some_caller(callee, defined_in, knobs):
    unset = sorted(set(knobs) - keywords_passed_to(callee, defined_in))
    assert not unset, (
        f"{callee} knob(s) {unset} are passed by keyword nowhere under "
        f"{TREES}: make each a constant, or add the caller that needs it"
    )


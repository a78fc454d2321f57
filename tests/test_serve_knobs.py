"""The knob census, as a standing test: nothing configurable that nobody sets.

The census finds its own scope: every public top-level function, and
every public class's ``__init__`` (or, for a dataclass without one, its
defaulted fields), under ``repro.serve``, ``repro.resilience`` and
``repro.parallel``.  Each defaulted parameter must be passed by some
call outside the callee's own body, anywhere under ``src/``,
``perfbench/``, ``benchmarks/``, ``examples/`` or ``tests/``: by
keyword, by position (dataclass fields count in declaration order), or
through a ``**mapping`` splat, which passes the keys of every dict
display whose keys are all parameters of the callee.  A knob no caller
sets is a constant with a configuration matrix attached; this fails the
suite the day one appears instead of leaving it for a re-anchor to find.

The command-line flags are held to the same rule from both sides: every
``--flag`` of ``python -m repro.serve`` and ``repro.serve.chaos`` is
passed to that CLI by a CI step or a test, and every flag a CI step
passes exists in the parser, so a deleted flag fails here rather than
in a soak job.

Pure AST and text — no import of the callers, no timing.
"""

from __future__ import annotations

import ast
import re
import shlex
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "perfbench", "benchmarks", "examples", "tests")
PACKAGES = ("serve", "resilience", "parallel")
CI = ROOT / ".github" / "workflows" / "ci.yml"
#: Each CLI's parser, and the module names a command line reaches it by.
CLIS = {
    "repro.serve": ("src/repro/serve/__main__.py",
                    ("repro.serve", "repro.serve.__main__")),
    "repro.serve.chaos": ("src/repro/serve/chaos.py", ("repro.serve.chaos",)),
}
FLAG = re.compile(r"--[a-z][\w-]*")

#: Records the code fills in, not settings a caller chooses.
EXEMPT = {
    "SoakReport": "the soak's result record, filled in by the soak",
    "WatchdogReport": "verify_variants_bitwise's result record",
    "JobOutcome": "a ticket's settled result, filled in by the service",
    "Rejected": "the admission refusal record the service returns",
    "TaskFailure": "a failure record call_with_retry fills in",
    "ParallelResult": "run_plan's result record",
    "Fault": "one fired fault, recorded by the plan that fired it",
    "FaultSpec.fired": "a counter the plan increments, not a setting",
    "TaskGroup": "build_plan's per-thread work list",
}


@cache
def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


@cache
def sources() -> tuple[Path, ...]:
    return tuple(sorted(p for t in TREES for p in (ROOT / t).rglob("*.py")))


def _name(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _params(fn: ast.FunctionDef, skip_self: bool) -> tuple[list[str], set[str]]:
    """(positional parameter order, defaulted parameter names) of ``fn``."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args][skip_self:]
    defaulted = set(positional[len(positional) - len(a.defaults):]
                    if a.defaults else ())
    defaulted |= {p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None}
    return positional, defaulted


def _signature(node: ast.stmt) -> tuple[list[str], set[str]] | None:
    """Positional order and defaulted knobs of one public callee, if any."""
    if isinstance(node, ast.FunctionDef):
        return _params(node, skip_self=False)
    if not isinstance(node, ast.ClassDef) or node.name in EXEMPT:
        return None
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return _params(item, skip_self=True)
    if not any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list):
        return None
    fields = [f for f in node.body
              if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
              and "ClassVar" not in ast.unparse(f.annotation)]
    exempt = {k.split(".", 1)[1] for k in EXEMPT
              if k.startswith(node.name + ".")}
    return ([f.target.id for f in fields],
            {f.target.id for f in fields if f.value is not None} - exempt)


def census_scope() -> list[tuple]:
    """``(name, path, lineno, end_lineno, positional, defaulted)`` per callee."""
    scope = []
    for pkg in PACKAGES:
        for path in sorted((ROOT / "src" / "repro" / pkg).glob("*.py")):
            for node in parsed(path).body:
                if getattr(node, "name", "_").startswith("_"):
                    continue
                sig = _signature(node)
                if sig and sig[1]:
                    scope.append((node.name, path, node.lineno,
                                  node.end_lineno, *sig))
    return scope


@cache
def call_index() -> tuple[dict, tuple[frozenset, ...]]:
    """Every call by callee name, and the string keys of every dict
    display, over the files that call some callee in scope (parsing
    only those keeps the census well under two seconds)."""
    names = re.compile(r"\b(%s)\s*\(" % "|".join({e[0] for e in SCOPE}))
    calls: dict[str, list[tuple[Path, ast.Call]]] = {}
    dicts = []
    for path in sources():
        if not names.search(path.read_text(encoding="utf-8")):
            continue
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Call) and _name(node.func):
                calls.setdefault(_name(node.func), []).append((path, node))
            elif isinstance(node, ast.Dict):
                keys = {k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)}
                if keys:
                    dicts.append(frozenset(keys))
    return calls, tuple(dicts)


def set_by_callers(name, path, lineno, end_lineno, positional) -> set[str]:
    """Parameters of ``name`` some call outside its own body passes."""
    calls, dicts = call_index()
    seen: set[str] = set()
    for where, call in calls.get(name, ()):
        if where == path and lineno <= call.lineno <= end_lineno:
            continue
        n_pos = 0
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                break
            n_pos += 1
        seen.update(positional[:n_pos])
        seen.update(k.arg for k in call.keywords if k.arg)
        if any(k.arg is None for k in call.keywords):
            seen.update(*(keys for keys in dicts if keys <= set(positional)))
    return seen


SCOPE = census_scope()


def test_census_finds_its_scope():
    # One callee from each corner the census must reach, as a floor.
    assert {"JobService", "AdaptiveConfig", "ShardPool", "MemoStore",
            "RetryPolicy", "RandomFaultPlan", "WALJournal", "run_soak",
            "run_schedule_parallel"} <= {entry[0] for entry in SCOPE}


@pytest.mark.parametrize(
    "name, path, lineno, end_lineno, positional, defaulted",
    SCOPE, ids=[f"{e[0]}-{e[1].relative_to(ROOT)}-knobs" for e in SCOPE],
)
def test_every_knob_is_set_by_some_caller(
    name, path, lineno, end_lineno, positional, defaulted
):
    unset = sorted(
        defaulted - set_by_callers(name, path, lineno, end_lineno, positional)
    )
    assert not unset, (
        f"{name} ({path.relative_to(ROOT)}) knob(s) {unset} are passed by no "
        f"call under {TREES}: make each a constant, or add the caller that "
        f"needs it"
    )


@cache
def parser_flags(cli: str) -> frozenset[str]:
    flags = set()
    for node in ast.walk(parsed(ROOT / CLIS[cli][0])):
        if isinstance(node, ast.Call) and _name(node.func) == "add_argument":
            flags.update(a.value for a in node.args
                         if isinstance(a, ast.Constant)
                         and str(a.value).startswith("--"))
    return frozenset(flags)


def _cli_of(module: str) -> str | None:
    return next((cli for cli, (_, names) in CLIS.items() if module in names),
                None)


def ci_command_lines() -> list[tuple[str, list[str]]]:
    """``(cli, argv)`` of each ``python -m repro.serve[.chaos]`` in ci.yml."""
    text = CI.read_text(encoding="utf-8").replace("\\\n", " ")
    return [(_cli_of(m.group(1)), shlex.split(m.group(2)))
            for m in re.finditer(r"python -m (repro\.serve\S*)(.*)", text)]


def flags_passed_by_tests(cli: str) -> set[str]:
    """Flags a test passes to ``cli``: the ``--flag`` strings of any list
    or tuple display under ``tests/`` that also names the CLI's module."""
    flags = set()
    for path in sources():
        if (not path.is_relative_to(ROOT / "tests")
                or not any(f'"{n}"' in path.read_text(encoding="utf-8")
                           for n in CLIS[cli][1])):
            continue
        for node in ast.walk(parsed(path)):
            if not isinstance(node, (ast.List, ast.Tuple)):
                continue
            strings = [c.value for c in ast.walk(node)
                       if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            if any(_cli_of(s) == cli for s in strings):
                flags.update(s.split("=", 1)[0] for s in strings
                             if FLAG.fullmatch(s.split("=", 1)[0]))
    return flags


@pytest.mark.parametrize("cli", sorted(CLIS))
def test_every_cli_flag_is_passed_by_ci_or_a_test(cli):
    used = flags_passed_by_tests(cli)
    for ci_cli, argv in ci_command_lines():
        if ci_cli == cli:
            used.update(a.split("=", 1)[0] for a in argv if a.startswith("--"))
    unused = sorted(parser_flags(cli) - used)
    assert not unused, (
        f"python -m {cli} flag(s) {unused} are passed by no CI step and no "
        f"test: delete each, or add the step that needs it"
    )


def test_ci_runs_both_serve_clis():
    assert {cli for cli, _ in ci_command_lines()} == set(CLIS)


@pytest.mark.parametrize("cli, argv", ci_command_lines())
def test_every_ci_flag_exists_in_the_parser(cli, argv):
    passed = {a.split("=", 1)[0] for a in argv if a.startswith("--")}
    unknown = sorted(passed - parser_flags(cli))
    assert not unknown, (
        f"ci.yml passes {unknown} to python -m {cli}, which has no such flag"
    )

#!/usr/bin/env python3
"""Compare two perfbench result files under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py A.json B.json

A is the base (the parent commit, or the first set of an A/A run), B the
candidate.  One row per (end-to-end metric, workload): both medians,
the ratio B/A, the run-to-run spread and a verdict:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``worse``       it is, and the spread is narrow enough to say so;
* ``unresolved``  the spread is wider than the bound, so neither can be
                  said (unless every run of B reads better than every
                  run of A, which is ``ok``).

``failed_frac`` is compared too: any increase is ``worse``, and so is a
workload A measured and B did not.  Exit status 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import quartile_spread  # noqa: E402


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(median A, median B, ratio B/A, spread, verdict) for one metric."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread = max(quartile_spread(a), quartile_spread(b))
    if spread <= bound:
        word = "worse" if worse_by > bound else "ok"
    elif all(sign * (y - x) <= 0 for x in a for y in b):
        word = "ok"
    elif worse_by > bound and all(sign * (y - x) > 0 for x in a for y in b):
        word = "worse"
    else:
        word = "unresolved"
    ratio = med_b / med_a if med_a else float("nan")
    return med_a, med_b, ratio, spread, word


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        run_a, run_b = a["runs"].get(workload), b["runs"].get(workload)
        if run_a is None:
            continue  # A did not measure it: nothing to be worse than
        if run_b is None:
            nan = float("nan")
            rows.append(("(no runs in B)", workload, "", 0.0, nan, nan, nan, 0.0, "worse"))
            continue
        for m in spec["end_to_end"]:
            cells = [run["end_to_end"][m["name"]]["values"] for run in (run_a, run_b)]
            rows.append((m["name"], workload, m["unit"], m["bound"])
                        + verdict(cells[0], cells[1], m["better"], m["bound"]))
        frac_a = run_a["failed"] / run_a["attempted"]
        frac_b = run_b["failed"] / run_b["attempted"]
        rows.append(("failed_frac", workload, "ratio", 0.0, frac_a, frac_b,
                     frac_b / frac_a if frac_a else float("nan"), 0.0,
                     "worse" if frac_b > frac_a else "ok"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    rows = compare(results[0], results[1], spec)
    print(f"{'metric':16s} {'workload':16s} {'median A':>12s} {'median B':>12s} "
          f"{'unit':6s} {'B/A (base A)':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for name, workload, unit, bound, med_a, med_b, ratio, spread, word in rows:
        print(f"{name:16s} {workload:16s} {med_a:12.5g} {med_b:12.5g} {unit:6s} "
              f"{ratio:12.4f} {spread:8.4f} {bound:6.2f}  {word}")
    worse = [r for r in rows if r[-1] == "worse"]
    unresolved = [r for r in rows if r[-1] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""perfbench: the repo's benchmark, seven workloads behind one command.

Two ways to run it:

* one measurement, the form ``BENCHMARK.json`` names::

      python3 perfbench/run.py --workload W --seed S --seconds N --trace 0|1

  ``--trace 0`` measures the end-to-end metrics with tracing off;
  ``--trace 1`` is the separate traced pass that yields the per-layer
  metrics and the tracing overhead.  The last line of standard output
  is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

* the whole benchmark, for a person or ``compare.py``::

      python3 perfbench/run.py [--seed S] [--workload W] [--smoke]
                               [--repeat N] [--out PATH] [--append]

  runs every workload (each measurement in a fresh interpreter), both
  passes, prints every metric by name and unit, writes one result JSON
  and exits non-zero if any correctness check failed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from harness import OUT_DIR, Tracer, peak_rss_mib, percentile, timed_round  # noqa: E402

DEFAULT_SEED = 2014
WORKLOADS = {
    "kernel_level": ("kernel_level", "KernelLevel"),
    "model_cold": ("model_cold", "ModelCold"),
    "cluster_sweep": ("cluster_sweep", "ClusterSweep"),
    "serve_plain": ("serve_loads", "ServePlain"),
    "serve_memo_miss": ("serve_loads", "ServeMemoMiss"),
    "serve_memo_hit": ("serve_loads", "ServeMemoHit"),
    "serve_shards": ("serve_loads", "ServeShards"),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def idle_layers(workload: str) -> set[str]:
    """Per-layer metrics ``layers.json`` says this workload leaves idle."""
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    return {name for name, row in layers.items()
            if row["workloads"] != "all" and workload not in row["workloads"]}


def make_workload(name: str, seed: int, smoke: bool):
    import importlib

    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)(seed, smoke)


# ------------------------------------------------------------------ one measurement
def _rounds_until(workload, seconds: float, tracer, alternate: bool = False):
    """Fixed-size rounds until another would overrun ``seconds``.

    With ``alternate`` rounds run untraced, traced, traced, untraced and
    so on: both kinds share one process state, and a slow drift falls on
    each alike, so their wall times can be compared.
    """
    rounds = []
    floor = max(workload.min_rounds, 2) if alternate else workload.min_rounds
    t0 = time.perf_counter()
    while len(rounds) < workload.max_rounds:
        if alternate:
            tracer.enabled = len(rounds) % 4 in (1, 2)
        rnd = timed_round(workload, tracer)
        rnd.extra["traced"] = tracer.enabled
        rounds.append(rnd)
        elapsed = time.perf_counter() - t0
        due = len(rounds) >= floor and (not alternate or len(rounds) % 2 == 0)
        if due and elapsed + rnd.wall_s * (2 if alternate else 1) > seconds:
            break
    return rounds


def measure_end_to_end(workload, seconds: float, import_s: float, smoke: bool) -> dict:
    """The untraced pass: set up, run rounds for ``seconds``, check outputs."""
    setups = []
    for i in range(1 if smoke else workload.setup_repeats):
        if i:
            workload.teardown()
        t = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t)
    try:
        rounds = _rounds_until(workload, seconds, Tracer(False))
        failed = sum(r.failed for r in rounds) + workload.verify()
    finally:
        workload.teardown()
    attempted = sum(r.attempted for r in rounds)
    if hasattr(workload, "throughput"):
        ops_per_s = workload.throughput(rounds)
    else:
        ops_per_s = statistics.median((r.attempted - r.failed) / r.wall_s for r in rounds)
    # Rounds hold the same calls, so a percentile is taken per round and
    # the median round reported: one disturbed round then moves nothing,
    # where it would own the tail of a pooled percentile.
    calls = [sorted(r.calls) for r in rounds]
    values = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": ops_per_s,
        "latency_p50_ms": statistics.median(percentile(c, 0.50) for c in calls) * 1e3,
        "latency_p95_ms": statistics.median(percentile(c, 0.95) for c in calls) * 1e3,
        "cpu_s": statistics.median(r.cpu_s for r in rounds),
        "peak_rss_mb": peak_rss_mib(),
    }
    notes = {"rounds": len(rounds), "latency_samples_per_round": len(rounds[0].calls),
             "setup_samples": len(setups)}
    return {"attempted": attempted, "failed": min(failed, attempted),
            "values": values, "notes": notes}


def measure_layers(workload, seconds: float, seed: int, smoke: bool) -> dict:
    """The traced pass: alternate untraced and traced rounds, then the probes."""
    import probes

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer(True)
    workload.setup()
    try:
        workload.instrument(tracer)
        if not getattr(workload, "cold", False):
            # A process's first round pays first-touch costs; left in, it
            # would sit on the untraced side of the overhead ratio.
            tracer.enabled = False
            timed_round(workload, tracer)
        rounds = _rounds_until(workload, seconds, tracer, alternate=True)
        tracer.enabled = False
        traced = [r for r in rounds if r.extra["traced"]]
        plain = [r for r in rounds if not r.extra["traced"]]
        # Layers first: the probes below reset and refill the perf counters.
        values = workload.layers(tracer, traced)
        values.update(probes.run_all(seed, smoke, OUT_DIR))
        if hasattr(workload, "cost_shares"):
            values.update(workload.cost_shares(traced, values, tracer))
        failed = sum(r.failed for r in rounds) + workload.verify()
    finally:
        workload.teardown()
    traced_wall = statistics.median(r.wall_s for r in traced)
    values["perfbench.trace_overhead_ratio"] = traced_wall / statistics.median(
        r.wall_s for r in plain)
    values["perfbench.traced_round_s"] = traced_wall
    ops = statistics.median(r.attempted for r in traced)
    values["perfbench.cpu_us_per_op"] = statistics.median(
        r.cpu_s for r in traced) / ops * 1e6
    if getattr(workload, "coverage", None):
        values["perfbench.span_coverage"] = statistics.median(workload.coverage)
    else:
        inside = sum(e - s for _, s, e, parent, _ in tracer.spans
                     if parent >= 0 and tracer.spans[parent][0] == "round")
        values["perfbench.span_coverage"] = inside / sum(r.wall_s for r in traced)
    spans = getattr(workload, "child_spans", None) or tracer.to_rows()
    with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "spans": spans}, fh)
    attempted = sum(r.attempted for r in rounds)
    return {"attempted": attempted, "failed": min(failed, attempted),
            "values": values, "notes": {"rounds": len(rounds), "spans": len(spans)}}


def declared_metrics(declared: list, values: dict, idle: set, workload: str) -> dict:
    """``values`` as the result line's ``metrics``: every declared metric, no other.

    Only a layer the workload leaves idle reads 0 (no work done, no share
    of the time); a metric the workload should have computed and did not
    is an error, as is one it computed that nothing declares.
    """
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            if m["name"] not in idle:
                raise SystemExit(f"{workload} did not report {m['name']}")
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    return metrics


def run_one(args) -> int:
    """One measurement; prints the metrics and, last, the result line."""
    spec = load_spec()
    workload = make_workload(args.workload, args.seed, args.smoke)
    import_s = time.perf_counter() - _STARTED
    if args.trace:
        result = measure_layers(workload, args.seconds, args.seed, args.smoke)
        metrics = declared_metrics(spec["per_layer"], result["values"],
                                   idle_layers(args.workload), args.workload)
    else:
        result = measure_end_to_end(workload, args.seconds, import_s, args.smoke)
        metrics = declared_metrics(spec["end_to_end"], result["values"], set(),
                                   args.workload)
    for name, cell in metrics.items():
        print(f"{args.workload:16s} {name:48s} {cell['value']:16.6g} {cell['unit']}")
    for key, value in result["notes"].items():
        print(f"{args.workload:16s} ({key} = {value})")
    failed = int(result["failed"])
    print(f"{args.workload:16s} attempted = {result['attempted']}  "
          f"ok = {result['attempted'] - failed}  failed = {failed}  "
          f"failed_frac = {failed / result['attempted']:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": int(result["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0


# ------------------------------------------------------------------ the whole benchmark
def host_facts() -> dict:
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10
                                ).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "commit": commit}


def _measure_in_child(name: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} (trace {trace}, seed {seed}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _previous_result(path: str, result: dict) -> dict:
    """The result file ``--append`` adds to; it must hold comparable runs."""
    with open(path, encoding="utf-8") as fh:
        previous = json.load(fh)
    for key in ("seconds", "smoke"):
        if previous[key] != result[key]:
            raise SystemExit(f"--append: {path} has {key} = {previous[key]}, "
                             f"this run {result[key]}")
    if previous["host"]["commit"] != result["host"]["commit"]:
        raise SystemExit(f"--append: {path} was measured at another commit")
    return previous


def run_all(args) -> int:
    """Every workload, both passes, each measurement in a fresh interpreter.

    Repeats are the outer loop and workloads the inner one, so a slow
    stretch of the host falls on one repeat of every workload and not on
    every repeat of one.
    """
    spec = load_spec()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else (
        1 if args.smoke else spec["run_seconds"])
    result = {"host": host_facts(), "seed": args.seed, "seconds": seconds,
              "smoke": args.smoke, "runs": {}}
    out_path = args.out or os.path.join(OUT_DIR, "result.json")
    if args.append and os.path.exists(out_path):
        result = _previous_result(out_path, result)
    correct = True
    for i in range(max(args.repeat, args.trace_repeat)):
        for name in names:
            run = result["runs"].setdefault(
                name, {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0})
            for trace, section, repeat in ((0, "end_to_end", args.repeat),
                                           (1, "per_layer", args.trace_repeat)):
                if i >= repeat:
                    continue
                out = _measure_in_child(name, args.seed + i, seconds, trace, args.smoke)
                print(f"{name} seed {args.seed + i} trace {trace}: "
                      f"attempted {out['attempted']}, failed {out['failed']}", flush=True)
                correct &= out["correct"]
                run["attempted"] += out["attempted"]
                run["failed"] += out["failed"]
                for metric, cell in out["metrics"].items():
                    row = run[section].setdefault(
                        metric, {"unit": cell["unit"], "values": []})
                    row["values"].append(cell["value"])
    for name in names:
        run = result["runs"][name]
        frac = run["failed"] / run["attempted"]
        print(f"\n== {name}: attempted {run['attempted']}, ok "
              f"{run['attempted'] - run['failed']}, failed {run['failed']}, "
              f"failed_frac {frac:.6g}")
        for section in ("end_to_end", "per_layer"):
            for metric, row in run[section].items():
                med = statistics.median(row["values"])
                print(f"  {section:10s} {metric:48s} {med:16.6g} {row['unit']}")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"\nresult written to {out_path}; correct = {correct}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tenth of its size or less")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced measurements per workload (seeds S, S+1, ...)")
    parser.add_argument("--trace-repeat", type=int, default=1)
    parser.add_argument("--out", help="result JSON path (default perfbench/out/result.json)")
    parser.add_argument("--append", action="store_true",
                        help="add this run's values to those already in --out, so "
                             "that two sides can be measured turn by turn")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.seconds is None:
            args.seconds = 1 if args.smoke else load_spec()["run_seconds"]
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""CI gate: harness overhead budgets and the fig9 fast-path speedup.

Compares the ``observability`` section of a freshly produced
``BENCH_harness.json`` against the committed baseline, checks the
serving-layer overhead bar, and requires the recorded cold-fig9
speedups over the frozen pre-fast-path anchor to clear
``--fig9-min-speedup`` (default 5x)::

    python benchmarks/check_overhead_regression.py \
        --baseline /tmp/BENCH_harness.baseline.json \
        --current BENCH_harness.json --tolerance 0.05

A metric fails when it exceeds ``baseline * (1 + tolerance) +
grace``.  The per-call costs sit in the tens-to-hundreds of
nanoseconds, where 5% is below timer and scheduler noise on shared CI
runners, so a small absolute grace (default 200 ns) keeps the gate
meaningful without flapping: a real regression — an extra dict lookup,
an accidental allocation on the disabled path — costs far more than
the grace, while run-to-run jitter costs less.

Exit status: 0 = within budget (or no baseline section to compare),
1 = regression, 2 = bad invocation.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Disabled-path metrics the gate protects (the hot ones).
GATED_METRICS = (
    "noop_span_ns",
    "add_event_disabled_ns",
    "counter_inc_ns",
)


#: A memoized result must cost less to store than to recompute, with
#: room: 1.47 with JSON-dict entries, ~0.07 with packed ones.
MEMO_MAX_PUT_RATIO = 0.5


def load_section(path: str, name: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{path}: {name!r} must be an object")
    return section


def load_observability(path: str) -> dict:
    return load_section(path, "observability")


def check(
    baseline: dict, current: dict, tolerance: float, grace_ns: float
) -> list[str]:
    """Regression messages for every gated metric over budget."""
    problems: list[str] = []
    for name in GATED_METRICS:
        base = baseline.get(name)
        cur = current.get(name)
        if base is None or cur is None:
            continue
        limit = base * (1.0 + tolerance) + grace_ns
        if cur > limit:
            problems.append(
                f"{name}: {cur:.1f} ns > limit {limit:.1f} ns "
                f"(baseline {base:.1f} ns, tolerance {tolerance:.0%} "
                f"+ {grace_ns:.0f} ns grace)"
            )
    return problems


def check_serve(
    serve: dict, tolerance: float, grace_s: float
) -> list[str]:
    """The serving-overhead bar, absolute against the current run.

    Unlike the observability gate this needs no baseline: the criterion
    is intrinsic — routing a grid through ``repro.serve`` must cost
    within ``tolerance`` of direct ``run_grid``, plus ``grace_s`` of
    absolute slack for scheduler noise at the millisecond scale.
    """
    direct = serve.get("direct_run_grid_s")
    served = serve.get("served_batch_s")
    if direct is None or served is None:
        return []
    problems: list[str] = []
    limit = direct * (1.0 + tolerance) + grace_s
    if served > limit:
        problems.append(
            f"serve overhead: served {served * 1e3:.2f} ms > limit "
            f"{limit * 1e3:.2f} ms (direct {direct * 1e3:.2f} ms, "
            f"tolerance {tolerance:.0%} + {grace_s * 1e3:.0f} ms grace)"
        )
    # Armed-but-idle adaptive overload control (limiter + latency
    # tracking + retry budgets + hedging with nothing to do) pays the
    # same thin-front envelope: its per-job cost is pure bookkeeping.
    adaptive = serve.get("served_adaptive_s")
    if adaptive is not None:
        if adaptive > limit:
            problems.append(
                f"adaptive-idle overhead: served {adaptive * 1e3:.2f} ms "
                f"> limit {limit * 1e3:.2f} ms (direct "
                f"{direct * 1e3:.2f} ms, tolerance {tolerance:.0%} + "
                f"{grace_s * 1e3:.0f} ms grace)"
            )
        if serve.get("adaptive_idle") is False:
            problems.append(
                "adaptive-idle leg was not idle: the loop backed off, "
                "hedged, or spent budget during the overhead measurement"
            )
    # Process shards: per-point pipe round-trips through two child
    # processes, gated at 10% + 20 ms — wider than the thread bar
    # because each point pays a pickle/pipe hop, but still thin.
    shards = serve.get("served_shards_s")
    if shards is not None:
        shard_limit = direct * 1.10 + 0.020
        if shards > shard_limit:
            problems.append(
                f"shard overhead: served {shards * 1e3:.2f} ms > limit "
                f"{shard_limit * 1e3:.2f} ms (direct {direct * 1e3:.2f} ms, "
                f"tolerance 10% + 20 ms grace)"
            )
    return problems


def check_cluster(cluster: dict) -> list[str]:
    """The served multi-node scaling bar, absolute against the run.

    A ``cluster`` job routes only its per-rank-shape engine evaluations
    through the service — the decomposition and halo plan are built
    parent-side — so the served step must stay within the shard bar:
    10% of the direct ``ClusterPoint.evaluate``, plus 20 ms grace.
    """
    direct = cluster.get("direct_step_s")
    served = cluster.get("served_step_s")
    if direct is None or served is None:
        return []
    limit = direct * 1.10 + 0.020
    if served > limit:
        return [
            f"cluster overhead: served {served * 1e3:.2f} ms > limit "
            f"{limit * 1e3:.2f} ms (direct {direct * 1e3:.2f} ms, "
            f"tolerance 10% + 20 ms grace)"
        ]
    return []


def check_memo(memo: dict, tolerance: float, min_speedup: float) -> list[str]:
    """The memo-path bars, absolute against the current run.

    The cold (miss) leg pays the thin-front envelope against an equally
    cold direct ``run_grid`` — within ``tolerance`` plus 10 ms grace —
    so keying + encoding + the LRU put stay invisible next to the grid
    evaluation they front.  The warm (100% hit) leg must repay at least
    ``min_speedup`` over cold with a bitwise-identical grid hash; a
    hit that is fast but different is a correctness bug, not a win.
    Storing must cost less than recomputing: the put leg's ratio (time
    to ``put`` the design space's results / time to evaluate them cold)
    stays under ``MEMO_MAX_PUT_RATIO``.
    """
    direct = memo.get("direct_cold_s")
    cold = memo.get("served_cold_s")
    if direct is None or cold is None:
        return []
    problems: list[str] = []
    limit = direct * (1.0 + tolerance) + 0.010
    if cold > limit:
        problems.append(
            f"memo cold overhead: served {cold * 1e3:.2f} ms > limit "
            f"{limit * 1e3:.2f} ms (direct {direct * 1e3:.2f} ms, "
            f"tolerance {tolerance:.0%} + 10 ms grace)"
        )
    speedup = memo.get("warm_speedup")
    if speedup is not None and speedup < min_speedup:
        problems.append(
            f"memo warm speedup: {speedup:.1f}x < required "
            f"{min_speedup:.1f}x (cold {cold * 1e3:.2f} ms, warm "
            f"{memo.get('served_warm_s', 0) * 1e3:.2f} ms)"
        )
    if memo.get("bitwise_equal") is False:
        problems.append(
            "memo warm grid is not bitwise-identical to the cold grid"
        )
    ratio = memo.get("put_over_evaluate_ratio")
    if ratio is not None and ratio >= MEMO_MAX_PUT_RATIO:
        problems.append(
            f"memo put: storing the design space's results costs "
            f"{ratio:.2f}x evaluating them cold (put "
            f"{memo.get('design_put_s', 0) * 1e3:.2f} ms, evaluate "
            f"{memo.get('design_evaluate_cold_s', 0) * 1e3:.2f} ms); "
            f"must stay < {MEMO_MAX_PUT_RATIO}"
        )
    return problems


def check_fig9(fig9: dict, min_speedup: float) -> list[str]:
    """The fast-path speedup bar, absolute against the frozen anchor.

    ``bench_harness_overhead.py`` records cold fig9 wall time under each
    engine mode together with the frozen pre-fast-path anchor; every
    recorded speedup must clear ``min_speedup``.
    """
    problems: list[str] = []
    frozen = fig9.get("frozen_cold_s")
    for name, value in sorted(fig9.items()):
        if not name.startswith("speedup_"):
            continue
        if value < min_speedup:
            problems.append(
                f"fig9 {name}: {value:.1f}x < required {min_speedup:.1f}x "
                f"(frozen anchor {frozen} s)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_harness.json")
    parser.add_argument("--current", required=True,
                        help="freshly produced BENCH_harness.json")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed relative growth (default 0.05)")
    parser.add_argument("--grace-ns", type=float, default=200.0,
                        help="absolute noise allowance per metric (ns)")
    parser.add_argument("--serve-grace-s", type=float, default=0.010,
                        help="absolute allowance for the serve gate (s)")
    parser.add_argument("--fig9-min-speedup", type=float, default=5.0,
                        help="required cold-fig9 speedup over the frozen "
                        "pre-fast-path anchor (default 5.0)")
    parser.add_argument("--memo-min-speedup", type=float, default=5.0,
                        help="required 100%%-hit memo speedup over the "
                        "cold serve leg (default 5.0)")
    args = parser.parse_args(argv)

    try:
        baseline = load_observability(args.baseline)
        current = load_observability(args.current)
        serve = load_section(args.current, "serve")
        cluster = load_section(args.current, "cluster")
        fig9 = load_section(args.current, "fig9_fast_path")
        memo = load_section(args.current, "memo")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems: list[str] = []
    if not baseline:
        print(
            f"{args.baseline}: no observability baseline yet; obs gate skipped"
        )
    elif not current:
        print(f"error: {args.current} has no observability section",
              file=sys.stderr)
        return 1
    else:
        problems.extend(check(baseline, current, args.tolerance, args.grace_ns))
        for name in GATED_METRICS:
            if name in baseline and name in current:
                print(
                    f"{name}: baseline {baseline[name]:.1f} ns -> "
                    f"current {current[name]:.1f} ns"
                )

    if serve:
        problems.extend(check_serve(serve, args.tolerance, args.serve_grace_s))
        print(
            f"serve: direct {serve.get('direct_run_grid_s', 0) * 1e3:.2f} ms "
            f"-> served {serve.get('served_batch_s', 0) * 1e3:.2f} ms "
            f"(ratio {serve.get('overhead_ratio', 0):.3f})"
        )
        if serve.get("served_adaptive_s") is not None:
            print(
                f"serve --adaptive (idle): "
                f"{serve['served_adaptive_s'] * 1e3:.2f} ms "
                f"(ratio {serve.get('adaptive_overhead_ratio', 0):.3f}, "
                f"idle={serve.get('adaptive_idle')})"
            )
        if serve.get("served_shards_s") is not None:
            print(
                f"serve --shards 2: "
                f"{serve['served_shards_s'] * 1e3:.2f} ms "
                f"(ratio {serve.get('shards_overhead_ratio', 0):.3f})"
            )
    else:
        print(f"{args.current}: no serve section yet; serve gate skipped")

    if cluster:
        problems.extend(check_cluster(cluster))
        print(
            f"cluster ({cluster.get('nodes')} nodes): direct "
            f"{cluster.get('direct_step_s', 0) * 1e3:.2f} ms -> served "
            f"{cluster.get('served_step_s', 0) * 1e3:.2f} ms "
            f"(ratio {cluster.get('overhead_ratio', 0):.3f})"
        )
    else:
        print(f"{args.current}: no cluster section yet; cluster gate skipped")

    if memo:
        problems.extend(
            check_memo(memo, args.tolerance, args.memo_min_speedup)
        )
        print(
            f"memo: cold {memo.get('served_cold_s', 0) * 1e3:.2f} ms "
            f"(direct {memo.get('direct_cold_s', 0) * 1e3:.2f} ms) -> "
            f"warm {memo.get('served_warm_s', 0) * 1e3:.2f} ms "
            f"({memo.get('warm_speedup', 0)}x, bitwise_equal="
            f"{memo.get('bitwise_equal')}); put/evaluate "
            f"{memo.get('put_over_evaluate_ratio')}"
        )
    else:
        print(f"{args.current}: no memo section yet; memo gate skipped")

    if fig9:
        problems.extend(check_fig9(fig9, args.fig9_min_speedup))
        print(
            f"fig9 fast path: frozen {fig9.get('frozen_cold_s')} s -> "
            f"exact {fig9.get('cold_exact_s')} s "
            f"({fig9.get('speedup_exact_vs_frozen')}x), "
            f"fast {fig9.get('cold_fast_s')} s "
            f"({fig9.get('speedup_fast_vs_frozen')}x)"
        )
    else:
        print(f"{args.current}: no fig9_fast_path section yet; gate skipped")

    if problems:
        print("overhead regression:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("harness overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

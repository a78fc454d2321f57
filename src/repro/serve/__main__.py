"""CLI: route a paper experiment grid through the serving layer.

``python -m repro.serve`` stands up a :class:`JobService`, submits the
grid behind one of the scaling figures (Figs. 2-4) point by point —
so admission, deadlines, budgets, and breakers are exercised per job —
and prints the accounting summary plus every serving decision the
service made (sheds by reason, degradations by rung, breaker states,
queue/budget high-water marks).

``--chaos-seed`` installs a seeded random fault plan over the serve
scope first, turning the run into a quick interactive fault drill; the
full invariant-checked soak lives in ``python -m repro.serve.chaos``.
"""

from __future__ import annotations

import argparse
import sys

from ..bench.experiments import FIG2_TO_4, scaling_grid_points
from ..resilience.faults import RandomFaultPlan, inject_faults, set_fault_plan
from .adaptive import AdaptiveConfig
from .service import JobService, serve_grid

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a paper experiment grid through repro.serve.",
    )
    parser.add_argument(
        "--figure", choices=sorted(FIG2_TO_4), default="fig2",
        help="which scaling figure's grid to serve (default fig2)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--shards", type=int, default=0,
        help="run point jobs on N supervised process shards",
    )
    parser.add_argument(
        "--shard-wal", default="",
        help="write-ahead log path for shard leases (requires --shards)",
    )
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument(
        "--byte-budget", type=int, default=None,
        help="admission byte budget over the arena probe (bytes)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-job deadline in milliseconds",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=None,
        help="install a seeded random fault plan over the serve scope",
    )
    parser.add_argument(
        "--chaos-rate", type=float, default=0.05,
        help="per-site fault rate when --chaos-seed is set",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="submit the grid as one job instead of one job per point",
    )
    parser.add_argument(
        "--memo", default="",
        help="content-addressed result cache: a JSONL path for a "
             "persistent store, or 'mem' for in-memory",
    )
    parser.add_argument(
        "--memo-bytes", type=int, default=None,
        help="LRU byte budget for the memo store (requires --memo)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="serve the grid N times (repeats exercise memo hits)",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="enable adaptive overload control (AIMD limiter, latency "
             "tracking, brownout shedding)",
    )
    parser.add_argument(
        "--slo-ms", type=float, default=None,
        help="latency SLO in milliseconds driving the adaptive limiter "
             "(implies --adaptive)",
    )
    parser.add_argument(
        "--retry-budget", type=float, default=None,
        help="retry-budget token ratio per (machine, engine) scope "
             "(implies --adaptive; bounds attempts at 1 + ratio)",
    )
    parser.add_argument(
        "--hedge", action="store_true",
        help="hedge stragglers past the observed p95 service time "
             "(implies --adaptive)",
    )
    args = parser.parse_args(argv)
    if args.shard_wal and args.shards < 1:
        parser.error("--shard-wal requires --shards >= 1")
    if args.memo_bytes is not None and not args.memo:
        parser.error("--memo-bytes requires --memo")
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")

    points = scaling_grid_points(args.figure)
    deadline_s = None if args.deadline_ms is None else args.deadline_ms / 1000.0
    try:
        # Numeric ranges (--shards, --chaos-rate, --byte-budget, ...) are
        # checked once, by the constructors; only flag relationships are
        # checked above.
        plan = None
        if args.chaos_seed is not None:
            plan = RandomFaultPlan(
                args.chaos_seed, rate=args.chaos_rate,
                scopes=("serve",), stall_s=0.01,
            )
        adaptive = None
        if (
            args.adaptive or args.hedge or args.slo_ms is not None
            or args.retry_budget is not None
        ):
            kw = {"hedge": args.hedge, "retry_budget_ratio": args.retry_budget}
            if args.slo_ms is not None:
                kw["slo_ms"] = args.slo_ms
            adaptive = AdaptiveConfig(**kw)
        service = JobService(
            workers=args.workers,
            queue_limit=args.queue_limit,
            byte_budget=args.byte_budget,
            default_deadline_s=deadline_s,
            seed=args.chaos_seed or 0,
            shards=args.shards,
            wal=args.shard_wal or None,
            memo=(
                True if args.memo == "mem" else args.memo or None
            ),
            memo_limit_bytes=args.memo_bytes,
            adaptive=adaptive,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    old_plan = set_fault_plan(plan) if plan is not None else None
    try:
        with service:
            for _ in range(args.repeat):
                gr = serve_grid(points, service, batch=args.batch)
    finally:
        if plan is not None:
            set_fault_plan(old_plan)
    stats = service.stats()
    counts = stats["counts"]
    completed = sum(1 for r in gr if r is not None)
    print(
        f"served {args.figure} grid ({len(points)} points) through "
        f"{args.workers} worker(s), queue limit {args.queue_limit}"
    )
    print(
        f"  jobs: submitted={counts['submitted']} ok={counts['ok']} "
        f"shed={counts['shed']} degraded={counts['degraded']} "
        f"failed={counts['failed']} coalesced={counts['coalesced']}"
    )
    print(f"  grid: {completed}/{len(points)} points completed")
    if stats["shed_reasons"]:
        print(f"  shed by reason: {stats['shed_reasons']}")
    if stats["degraded_to"]:
        print(f"  degraded to: {stats['degraded_to']}")
    q = stats["queue"]
    print(
        f"  queue: high_water={q['high_water']}/{q['limit']} "
        f"offered={q['offered']} refused={q['refused']}"
    )
    if stats["budget"] is not None:
        b = stats["budget"]
        print(
            f"  budget: source={b['source']} limit={b['limit_bytes']} "
            f"high_water={b['high_water']} rejections={b['rejections']}"
        )
    for key, br in sorted(stats["breakers"].items()):
        print(
            f"  breaker {key}: state={br['state']} "
            f"transitions={br['transitions']}"
        )
    w = stats["workers"]
    print(f"  workers: active={w['active']} replaced={w['replaced']}")
    if stats.get("memo"):
        m = stats["memo"]
        print(
            f"  memo: entries={m['entries']} bytes={m['bytes']} "
            f"hits={m['hits']} misses={m['misses']} "
            f"evictions={m['evictions']}"
        )
    co = stats.get("coalesce") or {}
    if co.get("coalesced") or co.get("promotions"):
        print(
            f"  coalesce: coalesced={co['coalesced']} "
            f"promotions={co['promotions']} "
            f"max_live_per_key={co['max_live_per_key']}"
        )
    if stats.get("adaptive"):
        ad = stats["adaptive"]
        lim = ad.get("limiter")
        if lim:
            print(
                f"  adaptive: limit={lim['limit']}/{lim['max_limit']} "
                f"probes={lim['probes']} backoffs={lim['backoffs']} "
                f"last_rtt_ms={lim['last_rtt_ms']}"
            )
        hg = ad.get("hedges") or {}
        if hg.get("launched") or hg.get("denied"):
            print(
                f"  hedges: launched={hg['launched']} won={hg['won']} "
                f"lost={hg['lost']} denied={hg['denied']}"
            )
        for scope, rb in sorted((ad.get("retry_budgets") or {}).items()):
            print(
                f"  retry budget {scope}: tokens={rb['tokens']:.1f} "
                f"units={rb['units']} spent={rb['spent']} "
                f"denied={rb['denied']}"
            )
        print(
            f"  attempts: total={ad['attempts']} "
            f"first={ad['attempt_units']} hedge={ad['hedge_attempts']} "
            f"amplification_ok={ad['amplification_ok']}"
        )
    if stats.get("shards"):
        sh = stats["shards"]
        print(
            f"  shards: alive={sh['alive']}/{sh['target']} "
            f"({sh['start_method']}) restarts={sh['restarts_total']} "
            f"leases granted={sh['leases']['granted']} "
            f"orphaned={sh['leases']['orphaned']}"
        )
    return 0 if stats["accounted"] else 1


if __name__ == "__main__":
    sys.exit(main())

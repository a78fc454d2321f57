"""cluster_sweep: weak and strong scaling sweeps, every rep in a fresh interpreter.

``repro.cluster.decompose`` keeps its base layouts in a cache with no
public clear hook, so the only honest cold rep is a new process.  This
file is both the parent-side workload and, run as a script, the child
that performs one rep and prints its timings as one JSON line.  One op
is one cluster step (variant x node count x fabric).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

if __name__ == "__main__":
    _HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [_HERE, os.path.join(os.path.dirname(_HERE), "src")]

from harness import Round, Tracer, cache_hit_rates

WEAK_NODES = (1, 2, 4, 8, 16, 32, 64, 128)
STRONG_NODES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
STRONG_DOMAIN = (256, 192, 128)
SMOKE_NODES = (1, 2, 4, 8)
SMOKE_DOMAIN = (64, 64, 32)
BOX = 16
BOXES_PER_NODE = 8
FLIP_AT = 8  # weak-scaling winner turns from series to overlapped here on GEMINI
LAYERS = ("decompose", "halo_plan", "nodegraph", "engine", "assemble")


# ------------------------------------------------------------------ child
def _sweep_plan(smoke: bool):
    from repro.cluster import GEMINI, HDR, near_cubic_grid

    weak = SMOKE_NODES if smoke else WEAK_NODES
    strong = SMOKE_NODES if smoke else STRONG_NODES
    strong_domain = SMOKE_DOMAIN if smoke else STRONG_DOMAIN
    plan = []
    for fabric in (GEMINI, HDR):  # the HDR repeat finds the halo plans warm
        for n in weak:
            domain = tuple(g * BOX for g in near_cubic_grid(n * BOXES_PER_NODE, 3))
            plan.append(("weak", fabric, n, domain))
        for n in strong:
            plan.append(("strong", fabric, n, strong_domain))
    return plan


def _public_sweep(plan) -> tuple[list, list[float]]:
    """The sweeps through ``weak_scaling`` / ``strong_scaling``, one node
    count per call so every call a caller waits for is timed."""
    from repro.cluster import strong_scaling, weak_scaling
    from repro.machine.spec import MAGNY_COURS

    rows, calls = [], []
    for kind, fabric, n, domain in plan:
        t = time.perf_counter()
        if kind == "weak":
            row = weak_scaling([n], machine=MAGNY_COURS, interconnect=fabric,
                               box_size=BOX, boxes_per_node=BOXES_PER_NODE)[0]
        else:
            row = strong_scaling([n], domain_cells=domain, box_size=BOX,
                                 machine=MAGNY_COURS, interconnect=fabric)[0]
        calls.append(time.perf_counter() - t)
        rows.append(row)
    return rows, calls


def _composed_sweep(plan, tracer: Tracer) -> tuple[list, list[float]]:
    """The same steps with the driver calling each cluster layer in turn."""
    from repro.cluster import (
        DEFAULT_VARIANTS, ClusterSpec, NodeGraph, assemble_step, decompose_ranks,
        halo_plan,
    )
    from repro.machine.spec import MAGNY_COURS

    rows, calls = [], []
    for kind, fabric, n, domain in plan:
        t = time.perf_counter()
        warm = "cluster.warm_fabric" if fabric.name == "hdr" else "cluster.cold_fabric"
        with tracer.span(warm, f"{kind}:{n}"):
            cluster = ClusterSpec(MAGNY_COURS, fabric, n)
            per_variant = {}
            # Once per geometry: the NodeGraph of each variant repeats both
            # calls and finds the base layout and the halo plan cached.
            with tracer.span("cluster.decompose"):
                dec = decompose_ranks(domain, BOX, n, "surface")
            with tracer.span("cluster.halo_plan"):
                halo_plan(dec.layout, 2)
            for v in DEFAULT_VARIANTS:
                with tracer.span("cluster.nodegraph"):
                    graph = NodeGraph(cluster, v, BOX, domain)
                with tracer.span("cluster.engine"):
                    costs = graph.evaluate("estimate")
                with tracer.span("cluster.assemble"):
                    step = assemble_step(graph, costs, "estimate")
                per_variant[v.short_name] = step.to_row()
            best = min(per_variant, key=lambda k: per_variant[k]["step_s"])
            rows.append({"nodes": n, "domain_cells": list(domain),
                         "interconnect": fabric.name, "variants": per_variant,
                         "best": best})
        calls.append(time.perf_counter() - t)
    return rows, calls


def _count_failed(plan, rows) -> int:
    """Cluster steps that break conservation, the one-node identity or the flip."""
    from repro.cluster import DEFAULT_VARIANTS, decompose_ranks
    from repro.machine.simulator import estimate_workload
    from repro.machine.spec import MAGNY_COURS
    from repro.machine.workload import build_workload

    failed = 0
    for (kind, fabric, n, domain), row in zip(plan, rows):
        boxes = 1
        for c in domain:
            boxes *= c // BOX
        dec = decompose_ranks(domain, BOX, n)
        conserved = sum(dec.boxes_per_rank()) == boxes == dec.total_boxes()
        one_node = True
        if n == 1:
            for v in DEFAULT_VARIANTS:
                wl = build_workload(v, BOX, domain_cells=domain, ncomp=5, dim=3)
                on_node = estimate_workload(wl, MAGNY_COURS, MAGNY_COURS.cores)
                got = row["variants"][v.short_name]
                one_node &= got["compute_s"] == on_node.time_s == got["step_s"]
        flip = True
        if kind == "weak" and fabric.name == "gemini":
            want = "overlapped" if n >= FLIP_AT else "series"
            flip = row["best"].startswith(want)
        if not (conserved and one_node and flip):
            failed += len(row["variants"])
    return failed


def _count_different(composed, public) -> int:
    """Cluster steps on which the composed sweep and the public one disagree.

    The public strong-scaling rows carry an ``efficiency`` against the
    call's first node count, which the layers themselves do not compute.
    """
    failed = 0
    for ours, theirs in zip(composed, public):
        same = all(ours[k] == theirs[k]
                   for k in ("nodes", "domain_cells", "interconnect", "best"))
        steps = {name: {k: v for k, v in row.items() if k != "efficiency"}
                 for name, row in theirs["variants"].items()}
        if not (same and steps == ours["variants"]):
            failed += len(theirs["variants"])
    return failed


def child_main(argv: list[str]) -> int:
    """One rep.  ``mode`` is ``public`` (the end-to-end pass), ``composed``
    (the traced pass's untraced rounds) or ``traced`` (composed, spans on)."""
    mode = argv[0]
    smoke, sweep = (flag == "1" for flag in argv[1:])
    import repro.cluster  # noqa: F401 - the import is the set-up being timed
    from repro.util import perf

    out = {}
    if sweep:
        plan = _sweep_plan(smoke)
        traced = mode == "traced"
        tracer = Tracer(traced)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.span("sweep"):
            if mode == "public":
                rows, calls = _public_sweep(plan)
            else:
                rows, calls = _composed_sweep(plan, tracer)
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = time.process_time() - cpu0
        counts = perf().snapshot()["counts"]  # before the checks add their own
        out["calls"] = calls
        out["attempted"] = sum(len(r["variants"]) for r in rows)
        out["failed"] = _count_failed(plan, rows)
        if mode != "public":
            # The layer shares must describe the program the end-to-end
            # pass times: same rows, checked after the clock has stopped.
            out["failed"] += _count_different(rows, _public_sweep(plan)[0])
        totals = tracer.totals()
        layers = {
            f"cluster.{k}_share": totals.get(f"cluster.{k}", {}).get("total_s", 0.0)
            / out["wall_s"] for k in LAYERS
        }
        layers["cluster.warm_fabric_share"] = (
            totals.get("cluster.warm_fabric", {}).get("total_s", 0.0) / out["wall_s"]
        )
        layers.update(cache_hit_rates(counts))
        out["layers"] = layers
        covered = sum(e - s for n_, s, e, p, _ in tracer.spans if p == 0)
        out["span_coverage"] = covered / out["wall_s"] if traced else 0.0
        out["spans"] = tracer.to_rows()
    print(json.dumps(out))
    return 0


# ------------------------------------------------------------------ parent
class ClusterSweep:
    name = "cluster_sweep"
    cold = True  # every rep starts from cleared caches: nothing to warm
    setup_repeats = 3
    min_rounds = 2
    max_rounds = 1 << 30

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed  # the sweep has no random inputs
        self.smoke = smoke
        self.composed = False
        self.child_layers: list[dict] = []
        self.child_spans: list = []
        self.coverage: list[float] = []

    def _child(self, mode: str, sweep: bool) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), mode,
             *("1" if flag else "0" for flag in (self.smoke, sweep))],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cluster child failed: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup(self) -> None:
        # Set-up of a rep is a new interpreter importing repro.cluster.
        self._child("public", sweep=False)

    def teardown(self) -> None:
        pass

    def instrument(self, tracer: Tracer) -> None:
        # Every rep of the traced pass calls the cluster layers in turn, with
        # spans or without, so that traced / untraced is the cost of tracing.
        self.composed = True

    def round(self, tracer: Tracer) -> Round:
        mode = "traced" if tracer.enabled else "composed" if self.composed else "public"
        out = self._child(mode, sweep=True)
        if tracer.enabled:
            self.child_layers.append(out["layers"])
            self.child_spans = out["spans"]
            self.coverage.append(out["span_coverage"])
        return Round(out["wall_s"], out["cpu_s"], out["attempted"], out["failed"],
                     out["calls"])

    def verify(self) -> int:
        return 0  # the child checks its own rows

    def layers(self, tracer: Tracer, traced: list) -> dict:
        keys = self.child_layers[0]
        n = len(self.child_layers)
        return {k: sum(row[k] for row in self.child_layers) / n for k in keys}


if __name__ == "__main__":
    raise SystemExit(child_main(sys.argv[1:]))

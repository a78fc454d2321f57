"""Frozen oracle for the machine-model engines.

The ``engines`` verify family compares the closed form with the event
simulation within a tolerance, so a reordered float operation in the
event loop would still pass it.  These digests pin the engines' exact
output bits — (time_s, flops, dram_bytes, phase_times) for every point —
for three engine paths over a small hand-built point set: uniform
phases, heterogeneous ones (wavefronts, ragged tiles, an interleaved
hand-built mix) and thread counts from 1 to ``max_threads``.

Regenerate a digest only for a change that is *meant* to move the
model's numbers, and say so where the change is recorded.
"""

import hashlib

import pytest

from repro.analysis.traffic import ReuseStream, TrafficModel
from repro.machine import (
    IVY_BRIDGE,
    IVY_DESKTOP,
    MAGNY_COURS,
    SANDY_BRIDGE,
    build_workload,
    engine_mode,
    estimate_workload,
    simulate_workload,
)
from repro.machine.simulator import clear_phase_cost_cache
from repro.machine.workload import Phase, WorkItem, Workload
from repro.schedules import Variant

DIGESTS = {
    ("estimate", "exact"): "a0e84f933df8fef5227d2659a5aa6f85fac02a39abbd9cb0764423445ec93609",
    ("simulate", "exact"): "b0ef912fbe9bed336b127fb93279b3f4fe4cc6a556e83df47541904db1a48da2",
    ("simulate", "auto"): "6f715c2775c94a0e385b50d79fdc3aa7a18df2ce2283265181ef3599d4bda895",
}


def _mixed_workload() -> Workload:
    """A compute-bound phase of interleaved, cache-sensitive items, and a
    bandwidth-bound one whose items drain their bytes over many events
    at a fair share that changes as they finish."""
    big = WorkItem("big", 4.0e8, TrafficModel(3.0e6, [ReuseStream("s", 2.0e6, 9.0e6)]))
    mid = WorkItem("mid", 7.5e7, TrafficModel(1.1e6, [ReuseStream("s", 5.0e5, 3.0e6)]))
    small = WorkItem("small", 3.0e6, TrafficModel(2.0e5))
    hog = WorkItem("hog", 1.1e6, TrafficModel(4.1e8, [ReuseStream("s", 7.3e7, 2.2e7)]))
    sip = WorkItem("sip", 3.7e5, TrafficModel(2.9e7))
    gulp = WorkItem("gulp", 4.4e5, TrafficModel(3.1e7))
    compute, stream = Phase("compute"), Phase("stream")
    for item, count in ((big, 1), (small, 9), (mid, 3), (small, 4), (big, 2)):
        compute.add(item, count)
    for item, count in (
        (hog, 2), (sip, 7), (gulp, 3), (mid, 1), (hog, 1), (sip, 11), (gulp, 5)
    ):
        stream.add(item, count)
    wl = Workload(Variant("series"), 16, 1, 5, 3)
    wl.phases = [compute, stream]
    return wl


def _workloads() -> list[Workload]:
    return [
        # Uniform: one box per phase, and every box in one phase.
        build_workload(Variant("series", "P<Box", "CLO"), 16, (32, 32, 32)),
        build_workload(Variant("shift_fuse", "P>=Box", "CLI"), 8, (32, 32, 32)),
        # Heterogeneous: wavefronts of ragged 8-tiles of a 20-box, and
        # ragged 16-tiles of a 24-box.
        build_workload(
            Variant("blocked_wavefront", "P<Box", "CLI", tile_size=8), 20, (20, 20, 20)
        ),
        build_workload(
            Variant("overlapped", "P<Box", "CLO", tile_size=16, intra_tile="basic"),
            24,
            (48, 48, 24),
        ),
        _mixed_workload(),
    ]


POINTS = [
    (machine, threads)
    for machine in (SANDY_BRIDGE, IVY_BRIDGE, MAGNY_COURS, IVY_DESKTOP)
    for threads in sorted({1, 3, 6, 7, machine.max_threads})
    if threads <= machine.max_threads
]


def _digest(engine: str, mode: str) -> str:
    run = estimate_workload if engine == "estimate" else simulate_workload
    h = hashlib.sha256()
    clear_phase_cost_cache()
    with engine_mode(mode):
        for wl in _workloads():
            for machine, threads in POINTS:
                r = run(wl, machine, threads)
                h.update(repr((r.time_s, r.flops, r.dram_bytes, r.phase_times)).encode())
    clear_phase_cost_cache()
    return h.hexdigest()


@pytest.mark.parametrize("engine, mode", sorted(DIGESTS))
def test_engine_output_bits_frozen(engine, mode):
    assert _digest(engine, mode) == DIGESTS[(engine, mode)]

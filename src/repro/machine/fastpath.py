"""NumPy-vectorized fast-path engine (batched phase replay).

The exact estimator costs each distinct phase with a Python loop over
its groups and streams.  This module flattens a workload's *distinct*
phases — typically a handful of cycles shared by thousands of boxes —
into flat arrays once (:class:`WorkloadTable`, cached on the workload
object), then evaluates every phase's closed-form time for a given
(machine, threads) in a few whole-array operations.  A thread sweep or
grid sweep over the same workload reuses the table, so the marginal
cost of another sweep point is a handful of NumPy kernels regardless
of phase count.

Numbers agree with the exact engine to floating-point reduction order
(NumPy sums associate differently than the sequential loop); the
``fast_path`` verify family pins the tolerance.  Results are
bitwise-deterministic run to run: the arrays and the operations on
them are fully determined by workload content.

When NumPy is unavailable the module still imports (``HAVE_NUMPY`` is
False) and the simulator's engine-mode resolution falls back to the
exact engine.
"""

from __future__ import annotations

import threading

try:  # pragma: no cover - numpy is present in the supported environments
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

from ..util.cache import BoundedCache
from .spec import MachineSpec
from .workload import Workload

__all__ = ["HAVE_NUMPY", "WorkloadTable", "estimate_workload_fast"]

_TABLE_LOCK = threading.Lock()
_TABLE_ATTR = "_fastpath_table"


class WorkloadTable:
    """Flat array form of a workload's distinct phases.

    Each phase contributes its ``Phase.merged_groups()`` (the
    canonicalization behind ``Phase.cost_key``), so "uniform" means exactly
    one merged group and two phases holding the same item multiset cost
    identically regardless of insertion order.
    """

    def __init__(self, workload: Workload):
        phases: list = []
        index_of: dict[int, int] = {}
        self.runs: list[tuple[list[int], int]] = []
        for cycle, repeat in workload.phase_runs():
            idxs = []
            for phase in cycle:
                i = index_of.get(id(phase))
                if i is None:
                    i = len(phases)
                    index_of[id(phase)] = i
                    phases.append(phase)
                idxs.append(i)
            self.runs.append((idxs, repeat))
        self.num_phases = len(phases)

        g_phase: list[int] = []
        g_count: list[int] = []
        g_flops: list[float] = []
        g_comp: list[float] = []
        s_group: list[int] = []
        s_bytes: list[float] = []
        s_ws: list[float] = []
        uniform_phase: list[int] = []
        uniform_group: list[int] = []
        for p, phase in enumerate(phases):
            groups = phase.merged_groups()
            if len(groups) == 1:
                uniform_phase.append(p)
                uniform_group.append(len(g_phase))
            for item, count in groups:
                g = len(g_phase)
                g_phase.append(p)
                g_count.append(count)
                g_flops.append(item.flops)
                g_comp.append(item.traffic.compulsory)
                for s in item.traffic.streams:
                    s_group.append(g)
                    s_bytes.append(s.bytes)
                    s_ws.append(s.working_set)

        self.g_phase = np.asarray(g_phase, dtype=np.int64)
        self.g_count = np.asarray(g_count, dtype=np.float64)
        self.g_flops = np.asarray(g_flops, dtype=np.float64)
        self.g_comp = np.asarray(g_comp, dtype=np.float64)
        self.s_group = np.asarray(s_group, dtype=np.int64)
        self.s_bytes = np.asarray(s_bytes, dtype=np.float64)
        self.s_ws = np.asarray(s_ws, dtype=np.float64)
        self.u_phase = np.asarray(uniform_phase, dtype=np.int64)
        self.u_group = np.asarray(uniform_group, dtype=np.int64)
        self.ph_m = np.bincount(
            self.g_phase, weights=self.g_count, minlength=self.num_phases
        )
        #: Per-(machine, threads) evaluations; dies with the table.
        self._evals = BoundedCache("fastpath_cache", 64)

    # -- evaluation ---------------------------------------------------------------
    def _evaluate(
        self, machine: MachineSpec, threads: int
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """(phase time, phase flops, phase bytes) arrays, memoized."""
        return self._evals.get_or_build(
            (machine, threads), lambda: self._compute(machine, threads)
        )

    def _compute(
        self, machine: MachineSpec, threads: int
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        rate = machine.thread_compute_rate(threads)
        cache = machine.cache_per_thread_bytes(threads)
        # Aggregate bandwidth by concurrency level, indexable by k.
        bw = np.empty(threads + 1, dtype=np.float64)
        bw[0] = np.inf  # never drawn from; avoids 0/0 below
        for k in range(1, threads + 1):
            bw[k] = machine.available_bw_gbs(k) * 1e9

        # Per-item DRAM bytes: compulsory + sum of stream bytes * miss.
        if len(self.s_ws):
            miss = np.where(
                self.s_ws <= cache,
                0.0,
                1.0 - cache / np.where(self.s_ws > 0, self.s_ws, 1.0),
            )
            reuse = np.bincount(
                self.s_group,
                weights=self.s_bytes * miss,
                minlength=len(self.g_phase),
            )
        else:
            reuse = np.zeros(len(self.g_phase))
        item_b = self.g_comp + reuse
        item_c = self.g_flops / rate

        ph_flops = np.bincount(
            self.g_phase,
            weights=self.g_flops * self.g_count,
            minlength=self.num_phases,
        )
        ph_bytes = np.bincount(
            self.g_phase, weights=item_b * self.g_count, minlength=self.num_phases
        )

        # Heterogeneous bound for every phase...
        ph_c = np.bincount(
            self.g_phase, weights=item_c * self.g_count, minlength=self.num_phases
        )
        item_t1 = np.maximum(item_c, item_b / bw[1])
        ph_max = np.zeros(self.num_phases)
        np.maximum.at(ph_max, self.g_phase, item_t1)
        k_typ = np.minimum(self.ph_m, threads).astype(np.int64)
        ph_t = np.maximum(
            np.maximum(ph_c / threads, ph_bytes / bw[k_typ]), ph_max
        )
        # ...overridden by the exact round formula for uniform phases.
        if len(self.u_phase):
            m = self.ph_m[self.u_phase].astype(np.int64)
            c = item_c[self.u_group]
            b = item_b[self.u_group]
            full, rem = np.divmod(m, threads)
            t = full * np.maximum(c, b * threads / bw[threads])
            t = t + np.where(rem > 0, np.maximum(c, b * rem / bw[rem]), 0.0)
            ph_t[self.u_phase] = t

        if threads > 1:
            ph_t = ph_t + machine.barrier_seconds(threads)
        return ph_t, ph_flops, ph_bytes


def workload_table(workload: Workload) -> WorkloadTable:
    """The workload's flat-array form, built once and cached on it."""
    table = workload.__dict__.get(_TABLE_ATTR)
    if table is None:
        with _TABLE_LOCK:
            table = workload.__dict__.get(_TABLE_ATTR)
        if table is None:
            table = WorkloadTable(workload)
            with _TABLE_LOCK:
                table = workload.__dict__.setdefault(_TABLE_ATTR, table)
    return table


def estimate_workload_fast(workload: Workload, machine: MachineSpec, threads: int):
    """Vectorized closed-form estimate; drop-in for ``estimate_workload``.

    Only called with the thread bound already validated and fault
    perturbation already applied by the public entry point.
    """
    from .simulator import SimResult

    table = workload_table(workload)
    ph_t, ph_flops, ph_bytes = table._evaluate(machine, threads)
    time = 0.0
    flops = 0.0
    total_bytes = 0.0
    phase_times: list[float] = []
    for idxs, repeat in table.runs:
        times = [float(ph_t[i]) for i in idxs]
        time += sum(times) * repeat
        flops += float(sum(ph_flops[i] for i in idxs)) * repeat
        total_bytes += float(sum(ph_bytes[i] for i in idxs)) * repeat
        phase_times.extend(times * repeat)
    return SimResult(
        machine=machine.name,
        variant=workload.variant.label,
        threads=threads,
        time_s=time,
        flops=flops,
        dram_bytes=total_bytes,
        phase_times=phase_times,
    )

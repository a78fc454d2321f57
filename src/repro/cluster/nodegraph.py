"""Node-level task graphs over the on-node schedule variants.

One simulated step of a distributed run is, per rank: run the on-node
schedule over the rank's boxes (cost from the *real* estimate/simulate
engines — exact|fast|auto modes respected, since those engines resolve
the mode themselves), then exchange the halo with neighbor ranks over
the interconnect.  How the two interleave depends on the schedule
family, mirroring the paper's overlapped schedules:

* bulk-synchronous (``series``, ``shift_fuse``, ``blocked_wavefront``):
  exchange then compute, back to back — the exposed exchange time is
  the whole transfer;
* ``overlapped``: the ghost ring is recomputed into the overlapped
  tiles, so the exchange can be issued ahead and drained while interior
  tiles compute — only the excess of transfer over compute is exposed
  (``max(0, exchange - compute)``).

The compute cost of a rank owning ``k`` boxes uses the key property of
the uniform workload builder: a workload depends on its domain only
through the box *count*, so ``build_workload(variant, b, (b, ..., b*k))``
is bitwise the workload of any ``k``-box sub-domain.  That is what makes
the ``nodes=1`` reduction exact and lets ranks with equal box counts
share one engine evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..machine.simulator import SimResult, estimate_workload, simulate_workload
from ..machine.workload import build_workload
from ..schedules.base import Variant
from .decompose import RankDecomposition, decompose_ranks
from .halo import HaloPlan, RankHalo, halo_plan
from .topology import ClusterSpec

__all__ = ["NodeGraph", "RankCost", "RankTask", "rank_workload_cells"]

#: Schedule categories whose exchange overlaps interior compute.
OVERLAPPED_CATEGORIES = ("overlapped",)


def rank_workload_cells(box_size: int, num_boxes: int, dim: int) -> tuple[int, ...]:
    """A synthetic domain holding exactly ``num_boxes`` boxes of ``box_size``.

    ``build_workload`` depends on the domain only through the box count,
    so this stands in — bitwise — for any rank sub-domain with the same
    number of boxes.
    """
    return (box_size,) * (dim - 1) + (box_size * num_boxes,)


@dataclass(frozen=True)
class RankTask:
    """One rank's node in the task graph: compute load + halo share."""

    rank: int
    num_boxes: int
    workload_cells: tuple[int, ...]
    halo: RankHalo


@dataclass(frozen=True)
class RankCost:
    """Evaluated per-rank step cost."""

    rank: int
    num_boxes: int
    compute_s: float
    exchange_s: float  #: full transfer time for this rank's halo
    exposed_s: float  #: exchange time not hidden behind compute
    exchange_bytes: float
    messages: int

    @property
    def total_s(self) -> float:
        return self.compute_s + self.exposed_s


class NodeGraph:
    """The node-level task graph for one (cluster, variant, domain) step."""

    def __init__(
        self,
        cluster: ClusterSpec,
        variant: Variant,
        box_size: int,
        domain_cells: Sequence[int],
        *,
        ncomp: int = 5,
        ghost: int = 2,
        threads: int | None = None,
        policy: str = "surface",
        periodic: Sequence[bool] | None = None,
    ):
        if not variant.applicable_to_box(box_size):
            raise ValueError(
                f"variant {variant.short_name} not applicable to box {box_size}"
            )
        self.cluster = cluster
        self.variant = variant
        self.box_size = int(box_size)
        self.domain_cells = tuple(int(c) for c in domain_cells)
        self.ncomp = int(ncomp)
        self.ghost = int(ghost)
        self.threads = threads or cluster.node.cores
        self.policy = policy
        self.decomposition: RankDecomposition = decompose_ranks(
            self.domain_cells, self.box_size, cluster.nodes, policy, periodic
        )
        self.plan: HaloPlan = halo_plan(self.decomposition.layout, self.ghost)
        dim = len(self.domain_cells)
        tasks = []
        for r, k in enumerate(self.decomposition.boxes_per_rank()):
            tasks.append(
                RankTask(
                    rank=r,
                    num_boxes=k,
                    workload_cells=rank_workload_cells(self.box_size, k, dim),
                    halo=self.plan.rank(r),
                )
            )
        self.tasks: tuple[RankTask, ...] = tuple(tasks)

    # -- compute side ---------------------------------------------------------------
    def distinct_box_counts(self) -> tuple[int, ...]:
        """Distinct per-rank box counts (uniform decompositions have <= 2)."""
        return tuple(sorted({t.num_boxes for t in self.tasks if t.num_boxes}))

    def compute_results(self, engine: str = "estimate") -> dict[int, SimResult]:
        """Engine results per distinct box count, through the real engines."""
        if engine not in ("estimate", "simulate"):
            raise ValueError(f"unknown engine {engine!r}")
        run = estimate_workload if engine == "estimate" else simulate_workload
        dim = len(self.domain_cells)
        out: dict[int, SimResult] = {}
        for k in self.distinct_box_counts():
            wl = build_workload(
                self.variant,
                self.box_size,
                rank_workload_cells(self.box_size, k, dim),
                ncomp=self.ncomp,
                dim=dim,
            )
            out[k] = run(wl, self.cluster.node, self.threads)
        return out

    # -- exchange side --------------------------------------------------------------
    def _exchange_seconds(self, halo: RankHalo) -> tuple[float, float, int]:
        """(seconds, bytes, messages) for one rank's halo transfer.

        The network is full duplex: the transfer is bound by the larger
        of the send and receive volumes; latency is charged per
        aggregated neighbor message; contention by concurrent peers.
        """
        points = max(halo.send_points, halo.recv_points)
        nbytes = float(points * self.ncomp * 8)
        messages = halo.messages
        seconds = self.cluster.interconnect.transfer_seconds(
            nbytes, messages, peers=max(1, messages)
        )
        return seconds, nbytes, messages

    # -- assembly -------------------------------------------------------------------
    def assemble(self, sims: Mapping[int, SimResult]) -> tuple[RankCost, ...]:
        """Fold engine results + halo plan into per-rank step costs.

        ``sims`` maps box count -> engine result (from
        :meth:`compute_results` or the serving layer's sharded
        evaluation of the same workloads).
        """
        overlapped = self.variant.category in OVERLAPPED_CATEGORIES
        costs = []
        for task in self.tasks:
            if task.num_boxes:
                compute = float(sims[task.num_boxes].time_s)
            else:
                compute = 0.0
            exchange, nbytes, messages = self._exchange_seconds(task.halo)
            exposed = max(0.0, exchange - compute) if overlapped else exchange
            costs.append(
                RankCost(
                    rank=task.rank,
                    num_boxes=task.num_boxes,
                    compute_s=compute,
                    exchange_s=exchange,
                    exposed_s=exposed,
                    exchange_bytes=nbytes,
                    messages=messages,
                )
            )
        return tuple(costs)

    def evaluate(self, engine: str = "estimate") -> tuple[RankCost, ...]:
        """Compute + assemble in one call (the direct, unserved path)."""
        return self.assemble(self.compute_results(engine))

"""Machine specifications for the paper's four testbeds (§VI-A).

Hardware parameters are taken directly from the paper; two *calibration*
parameters per machine — effective flops/cycle for this kernel and the
achievable fraction of peak bandwidth — are fitted once against the
paper's single-thread times and the desktop's measured VTune bandwidth,
then held fixed for every schedule and box size (the model must earn the
relative behaviour, not be tuned per curve).  EXPERIMENTS.md records the
calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MachineSpec",
    "MAGNY_COURS",
    "IVY_BRIDGE",
    "SANDY_BRIDGE",
    "IVY_DESKTOP",
    "PAPER_MACHINES",
    "machine_by_name",
]


@dataclass(frozen=True)
class MachineSpec:
    """A multicore NUMA node.

    Hardware fields follow §VI-A; ``flops_per_cycle`` and
    ``stream_fraction`` are the two fitted calibration constants,
    ``core_bw_cap_gbs`` bounds what one thread can pull by itself, and
    ``smt_speedup`` is the whole-core throughput gain from running two
    hyperthreads (only Ivy Bridge exposes SMT in the paper).
    """

    name: str
    sockets: int
    cores_per_socket: int
    ghz: float
    l1d_kb: int
    l2_kb: int
    l3_mb_per_socket: float
    bw_gbs_per_socket: float
    smt: int = 1
    flops_per_cycle: float = 0.55
    stream_fraction: float = 0.75
    core_bw_cap_gbs: float = 12.0
    smt_speedup: float = 1.2
    #: OpenMP fork/barrier cost: base plus a per-thread term (µs).
    barrier_base_us: float = 4.0
    barrier_per_thread_us: float = 0.25

    def __post_init__(self) -> None:
        # A zero bandwidth would leave the event-driven engine's bytes
        # undrained forever, so out-of-range specs fail here instead.
        for f in ("sockets", "cores_per_socket", "smt", "ghz", "l1d_kb", "l2_kb",
                  "l3_mb_per_socket", "bw_gbs_per_socket", "flops_per_cycle",
                  "core_bw_cap_gbs", "smt_speedup"):
            if not getattr(self, f) > 0:
                raise ValueError(f"{f} must be positive, got {getattr(self, f)!r}")
        if not 0 < self.stream_fraction <= 1:
            raise ValueError(
                f"stream_fraction must be in (0, 1], got {self.stream_fraction!r}")

    # -- derived -------------------------------------------------------------------
    @property
    def cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def max_threads(self) -> int:
        return self.cores * self.smt

    @property
    def peak_bw_gbs(self) -> float:
        return self.sockets * self.bw_gbs_per_socket

    @property
    def effective_bw_gbs(self) -> float:
        """Achievable aggregate bandwidth for this kernel."""
        return self.peak_bw_gbs * self.stream_fraction

    @property
    def core_gflops(self) -> float:
        """Effective single-thread compute rate for this kernel."""
        return self.ghz * self.flops_per_cycle

    def thread_compute_rate(self, threads: int) -> float:
        """Per-thread flop rate (flops/s), accounting for SMT sharing.

        Up to one thread per core, each thread runs at full rate; past
        that, two hyperthreads share a core that delivers
        ``smt_speedup`` times one thread's throughput.
        """
        if threads <= 0:
            raise ValueError("threads must be positive")
        if threads > self.max_threads:
            raise ValueError(
                f"{self.name} supports at most {self.max_threads} threads"
            )
        if threads <= self.cores:
            return self.core_gflops * 1e9
        return self.core_gflops * 1e9 * self.smt_speedup * self.cores / threads

    def threads_per_socket(self, threads: int) -> int:
        """Scatter placement: threads spread evenly across sockets."""
        return math.ceil(threads / self.sockets)

    def cache_per_thread_bytes(self, threads: int) -> float:
        """Effective cache capacity available to one thread.

        The socket's L3 divides among the threads placed on it.  The
        private L2 is *not* added: the reuse windows that reach this
        model are all larger than L2 (the register/L1/L2-scale x- and
        y-stencil windows are already treated as free hits by the
        traffic model), and for streaming kernels an inclusive L2
        contributes no extra plane-scale residency beyond the L3 share.
        """
        tps = max(1, self.threads_per_socket(threads))
        return self.l3_mb_per_socket * 2**20 / tps

    def available_bw_gbs(self, active_threads: int) -> float:
        """Aggregate bandwidth ``active_threads`` can draw together.

        Threads scatter across sockets; each engaged socket contributes
        its share, and a single thread cannot exceed its core cap.
        """
        if active_threads <= 0:
            return 0.0
        engaged = min(self.sockets, active_threads)
        socket_bw = self.bw_gbs_per_socket * self.stream_fraction
        return min(
            engaged * socket_bw, active_threads * self.core_bw_cap_gbs
        )

    def barrier_seconds(self, threads: int) -> float:
        """Synchronization cost charged per barrier phase."""
        return (self.barrier_base_us + self.barrier_per_thread_us * threads) * 1e-6

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.cores} cores ({self.sockets}x"
            f"{self.cores_per_socket} @ {self.ghz} GHz), "
            f"L3 {self.l3_mb_per_socket} MB/socket, "
            f"{self.peak_bw_gbs:.1f} GB/s peak"
        )


#: 24-core Cray XT6m node: two 12-core AMD Magny-Cours at 1.90 GHz,
#: 85.3 GB/s aggregate shared between sockets, 12 MB L3 per socket.
MAGNY_COURS = MachineSpec(
    name="magny_cours",
    sockets=2,
    cores_per_socket=12,
    ghz=1.90,
    l1d_kb=64,
    l2_kb=512,
    l3_mb_per_socket=12.0,
    bw_gbs_per_socket=85.3 / 2,
    flops_per_cycle=0.20,
    stream_fraction=0.13,
    core_bw_cap_gbs=5.0,
)

#: Atlantis: two 10-core Intel Ivy Bridge E5-2670v2 at 2.50 GHz with
#: hyperthreading, 51.2 GB/s and 25 MB L3 per socket.
IVY_BRIDGE = MachineSpec(
    name="ivy_bridge",
    sockets=2,
    cores_per_socket=10,
    ghz=2.50,
    l1d_kb=32,
    l2_kb=256,
    l3_mb_per_socket=25.0,
    bw_gbs_per_socket=51.2,
    smt=2,
    flops_per_cycle=0.55,
    stream_fraction=0.70,
    core_bw_cap_gbs=13.0,
)

#: Cab: two 8-core Intel Sandy Bridge E5-2670 at 2.6 GHz,
#: 51.2 GB/s and 20 MB L3 per socket.
SANDY_BRIDGE = MachineSpec(
    name="sandy_bridge",
    sockets=2,
    cores_per_socket=8,
    ghz=2.60,
    l1d_kb=32,
    l2_kb=256,
    l3_mb_per_socket=20.0,
    bw_gbs_per_socket=51.2,
    flops_per_cycle=0.55,
    stream_fraction=0.70,
    core_bw_cap_gbs=13.0,
)

#: Single-socket 4-core i5-3570K desktop at 3.40 GHz used for the VTune
#: bandwidth measurements: 21.0 GB/s system bandwidth, 6 MB L3.
IVY_DESKTOP = MachineSpec(
    name="ivy_desktop",
    sockets=1,
    cores_per_socket=4,
    ghz=3.40,
    l1d_kb=32,
    l2_kb=256,
    l3_mb_per_socket=6.0,
    bw_gbs_per_socket=21.0,
    flops_per_cycle=0.80,
    stream_fraction=0.87,
    core_bw_cap_gbs=18.5,
)

PAPER_MACHINES = (MAGNY_COURS, IVY_BRIDGE, SANDY_BRIDGE, IVY_DESKTOP)


def machine_by_name(name: str) -> MachineSpec:
    """Look up one of the paper's machines by name."""
    for m in PAPER_MACHINES:
        if m.name == name:
            return m
    raise KeyError(
        f"unknown machine {name!r}; choose from "
        f"{[m.name for m in PAPER_MACHINES]}"
    )

"""Seeded input generation: the design space and the serve job lists.

``--seed`` drives which points a job list and its hot set hold, and the
sample that is verified against direct evaluation.  The program under
test never sees the seed, only the generated inputs.

The seed never changes what a round costs to serve.  Which workloads
(variant, box size, domain) appear, how often, and in what order is
fixed; the seed permutes the (machine, threads) pair each job carries.
A result's size and an engine call's time follow the workload, so ten
seeds give ten different job lists with one cost profile, and the
spread between runs is the machine's.

A job list is a fixed sequence of *slots*; round ``r`` materialises the
slots with every point's (machine, threads) pair rotated ``r`` places
through the paper's 19 pairs.  Rounds therefore share one cost profile
(same variants, box sizes, domains and kinds in the same order) while
every round's keys are new to a memo that has seen the earlier rounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

from repro.bench.runner import GridPoint, machine_thread_points
from repro.cluster import DEFAULT_VARIANTS, INTERCONNECTS, ClusterPoint, near_cubic_grid
from repro.machine.spec import IVY_BRIDGE, MAGNY_COURS, SANDY_BRIDGE
from repro.schedules import practical_variants
from repro.serve import JobSpec

MACHINES = (MAGNY_COURS, IVY_BRIDGE, SANDY_BRIDGE)
BOX_SIZES = (16, 32, 64, 128)
#: 330 workload keys over three domains: inside the 512-entry workload cache.
DOMAINS = ((512, 384, 256), (256, 256, 256), (384, 384, 384))
#: The (machine, threads) pairs the paper plots; a round's rotation axis.
COMBOS = tuple((m, t) for m in MACHINES for t in machine_thread_points(m))
_COMBO_INDEX = {(m.name, t): i for i, (m, t) in enumerate(COMBOS)}
#: Rotations before a job list repeats itself.
MAX_ROUNDS = len(COMBOS) - 1

GRID_BATCH = 24
#: Cluster jobs stay small: node counts 1, 2, 4, ... up to this.
MAX_NODES = 16
#: Exponent of the hot set's rank-frequency law.
ZIPF = 1.1
#: Share of a round's jobs whose values are checked against direct evaluation.
VERIFY_SHARE = 0.05
KIND_MIX = (("estimate", 0.70), ("simulate", 0.20), ("cluster", 0.08), ("grid", 0.02))
POINT_MIX = (("estimate", 0.78), ("simulate", 0.22))


def design_space(domains=DOMAINS[:1]) -> list[GridPoint]:
    """practical variants x machines x thread points x box sizes.

    Tile/box pairs the variant does not apply to are dropped: 2090
    points per domain.
    """
    return [
        GridPoint(v, m, t, b, dom)
        for dom in domains
        for v in practical_variants()
        for m, t in COMBOS
        for b in BOX_SIZES
        if v.applicable_to_box(b) and all(c % b == 0 for c in dom)
    ]


def rotate(point, r: int):
    """``point`` with its (machine, threads) pair moved ``r`` places on."""
    m, t = COMBOS[(_COMBO_INDEX[(point.machine.name, point.threads)] + r) % len(COMBOS)]
    return replace(point, machine=m, threads=t)


def _cluster_space() -> list[ClusterPoint]:
    """Small cluster steps: 8 boxes per node, weak-scaling domains."""
    out = []
    nodes = 1
    while nodes <= MAX_NODES:
        for box in (16, 32):
            domain = tuple(g * box for g in near_cubic_grid(nodes * 8, 3))
            for v in DEFAULT_VARIANTS:
                for ic in INTERCONNECTS:
                    for m, t in COMBOS:
                        out.append(ClusterPoint(v, m, ic, nodes, box, domain, threads=t))
        nodes *= 2
    return out


def _systematic(items: list, n: int, block: int = 1) -> list:
    """``n`` distinct items at a constant stride through ``items``.

    ``items`` is ordered by what an item costs to serve and the sample
    does not depend on the seed, so every seed serves the same workloads
    (variant, box size, domain) the same number of times.  What the seed
    picks is each job's (machine, threads) pair and the order of the
    jobs: run-to-run spread is then the machine's, not the luck of the
    draw.

    With ``block`` = 19 the items come in runs of one workload under
    each (machine, threads) pair; pick ``i`` then takes its run's pair
    number ``i % 19``, so all pairs are used equally often.
    """
    if n > len(items):
        raise ValueError(f"{n} distinct picks from {len(items)} items")
    step = len(items) / n if n else 0.0
    out = []
    for i in range(n):
        at = int((i + 0.5) * step)
        out.append(items[at - at % block + i % block])
    return out


def _interleave(items: list) -> list:
    """``items`` reordered by a golden-ratio stride (no randomness).

    Neighbours in a cost-ordered list end up far apart, so dear and
    cheap jobs alternate the same way under every seed and the queueing
    a round sees does not depend on the luck of a shuffle.
    """
    n = len(items)
    if n < 3:
        return list(items)
    stride = next(g for g in range(int(n * 0.618), 2 * n) if math.gcd(g, n) == 1)
    return [items[(i * stride) % n] for i in range(n)]


def _by_cost(points: list[GridPoint]) -> list[GridPoint]:
    """Points ordered box size, domain, variant, then (machine, threads).

    The first three fix the workload, and with it the engine time and
    the size of the result; each workload's 19 pairs sit side by side,
    so a stride of 19 or more never takes one workload twice, and
    rotating two picks never makes them equal.
    """
    order = {v: i for i, v in enumerate(practical_variants())}
    return sorted(points, key=lambda p: (
        p.box_size, p.domain_cells, order[p.variant],
        _COMBO_INDEX[(p.machine.name, p.threads)]))


def _kind_counts(n: int, mix) -> dict[str, int]:
    counts = {kind: int(round(n * share)) for kind, share in mix}
    counts[mix[0][0]] += n - sum(counts.values())
    return counts


class Traffic:
    """One seeded job list: ``n`` slots per round, ``hot`` of them a hot set.

    ``hot_share`` of a round's slots go to the hot set in Zipf(``ZIPF``)
    proportions (the same slots every round); the rest are cold slots
    that are new in every round.  With ``hot=0`` every slot is cold: no job is
    ever repeated inside one service lifetime.
    """

    def __init__(self, seed: int, n: int, mix=KIND_MIX, hot: int = 0,
                 hot_share: float = 0.0, fresh_rounds: bool = True):
        rng = random.Random(seed)
        self.n = n
        self.mix = mix
        #: False repeats round 0's keys in every round: the engines' caches
        #: stay warm, which is what a workload about dispatch cost wants.
        self.fresh_rounds = fresh_rounds
        n_hot_slots = int(round(n * hot_share)) if hot else 0
        n_cold = n - n_hot_slots
        hot_counts = _kind_counts(hot, mix) if hot else {}
        cold_counts = _kind_counts(n_cold, mix)
        points = _by_cost(design_space(DOMAINS))
        pools = {
            "estimate": points,
            "simulate": points,
            "cluster": _cluster_space(),
            "grid": [tuple(points[i:i + GRID_BATCH])
                     for i in range(0, len(points) - GRID_BATCH + 1, GRID_BATCH)],
        }
        # The seed's part: a permutation of the (machine, threads) pairs.
        pairs = list(range(len(COMBOS)))
        rng.shuffle(pairs)

        def seeded(point):
            m, t = COMBOS[pairs[_COMBO_INDEX[(point.machine.name, point.threads)]]]
            return replace(point, machine=m, threads=t)

        hot_items: list[tuple[str, object]] = []
        self.cold: list[tuple[str, object]] = []
        for kind, _ in mix:
            need_hot = hot_counts.get(kind, 0)
            picks = _systematic(pools[kind], need_hot + cold_counts[kind],
                                block=1 if kind == "grid" else len(COMBOS))
            cold_at = set(_systematic(list(range(len(picks))), cold_counts[kind]))
            for i, pick in enumerate(picks):
                pick = tuple(map(seeded, pick)) if kind == "grid" else seeded(pick)
                (self.cold if i in cold_at else hot_items).append((kind, pick))
        # Zipf rank and slot order by fixed strides through the cost-ordered
        # lists, so the hottest keys cost the same whatever the seed.
        self.hot = _interleave(hot_items)
        self.cold = _interleave(self.cold)
        #: Slot pattern: an index into the hot set, or -1 for "next cold".
        pattern = [-1] * n_cold
        if hot:
            # Each rank gets its expected Zipf share of the slots (largest
            # remainder), not a random draw: every seed repeats each rank
            # equally often and only the order differs.
            weights = [1.0 / (i + 1) ** ZIPF for i in range(hot)]
            shares = [n_hot_slots * w / sum(weights) for w in weights]
            counts = [int(x) for x in shares]
            by_remainder = sorted(range(hot), key=lambda i: shares[i] - counts[i],
                                  reverse=True)
            for i in by_remainder[: n_hot_slots - sum(counts)]:
                counts[i] += 1
            pattern += [i for i in range(hot) for _ in range(counts[i])]
        self.pattern = _interleave(pattern)
        self.duplicate_fraction = n_hot_slots / n
        self._verify_rng_seed = rng.randrange(1 << 30)

    @staticmethod
    def _spec(kind: str, base, r: int) -> JobSpec:
        if kind == "grid":
            return JobSpec("grid", [rotate(p, r) for p in base])
        return JobSpec(kind, rotate(base, r))

    def hot_jobs(self) -> list[JobSpec]:
        """The hot set, each key once (the warm-up fills the memo with it)."""
        return [self._spec(kind, base, 0) for kind, base in self.hot]

    def round(self, r: int) -> list[JobSpec]:
        """The job list of round ``r`` (cold slots rotated ``r + 1`` places,
        so they never collide with the unrotated hot set)."""
        if not self.fresh_rounds:
            r = 0
        if r >= MAX_ROUNDS:
            raise ValueError(f"round {r} would repeat round {r - MAX_ROUNDS}'s keys")
        cold = iter(self.cold)
        out = []
        for slot in self.pattern:
            if slot < 0:
                kind, base = next(cold)
                out.append(self._spec(kind, base, r + 1))
            else:
                kind, base = self.hot[slot]
                out.append(self._spec(kind, base, 0))
        return out

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for spec in self.round(0):
            counts[spec.kind] = counts.get(spec.kind, 0) + 1
        return counts

    def verify_picks(self, r: int) -> list[int]:
        """Seeded positions of round ``r`` to check against direct evaluation."""
        rng = random.Random(self._verify_rng_seed + r)
        return sorted(rng.sample(range(self.n), max(1, int(self.n * VERIFY_SHARE))))

    def fingerprint(self, r: int) -> bytes:
        """Byte form of round ``r``: equal seeds must give equal bytes."""
        return "\n".join(repr(spec) for spec in self.round(r)).encode()

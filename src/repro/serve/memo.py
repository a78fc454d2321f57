"""Content-addressed result memoization for the serving layer.

Grid points, grid sweeps, cluster steps — every job the service
executes is a *pure function of its config*, so identical jobs from
different users should cost exactly one simulation.  This module
supplies the two ingredients the service needs to make that true:

* :func:`canonical_job_key` — one canonical content hash per job,
  covering problem geometry, machine, threads, variant, requested
  engine, *and* the process-wide engine mode (``exact`` and ``fast``
  agree only to ~1e-16, so they must never share a cache slot).  The
  key is built on :func:`repro.resilience.journal.canonical_fragment`:
  dict-insertion-order invariant, repr-stable float formatting
  (``-0.0`` == ``0.0``, ``1e22`` == ``1e+22``), NumPy scalars
  normalized — two semantically identical configs can never hash to
  different cache entries.

* :class:`MemoStore` — a content-addressed LRU result cache, optionally
  persisted as a ``put``/``evict`` record schema over
  :class:`~repro.resilience.journal.AppendLog` (which owns the storage
  discipline: torn-tail recovery, per-path lock, atomic compaction).
  The bytes a store pins are visible to the admission
  :class:`~repro.serve.budget.ByteBudget` through the ``"memo"`` /
  ``"arena+memo"`` probes, so cache growth is charged against the same
  ceiling that sheds oversized submissions.

In memory an entry is *packed*: a result's scalars as they are and its
``phase_times`` as ``array('d')`` bytes through ``zlib`` — no float is
formatted to store a result, and the byte budget counts bytes the store
holds.  On disk a ``put`` record carries the journal's ``SimResult``
JSON codec (floats via ``repr`` — shortest-roundtrip).  Both keep every
bit, so a cache hit is **bitwise identical** to the cold execution it
replaces; the ``memo`` verify family asserts exactly that under every
substrate-toggle combination.

Hit/miss/eviction traffic lands in :mod:`repro.obs` as
``serve.memo.{hits,misses,evictions}`` counters plus
``serve.memo.{bytes,entries}`` gauges (published by the service
supervisor).  See ``docs/serving.md``.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
import zlib
from array import array
from collections import OrderedDict
from functools import lru_cache

from ..bench.runner import GridResult
from ..machine.simulator import SimResult, resolve_engine_mode
from ..obs.metrics import default_registry
from ..resilience.journal import (
    AppendLog,
    canonical_fragment,
    sim_result_from_dict,
    sim_result_to_dict,
)

__all__ = [
    "canonical_job_key",
    "encode_result",
    "decode_result",
    "MemoStore",
    "memo_bytes",
]

_MEMO_VERSION = 1

#: Engine job kinds whose payload is a single GridPoint.
_POINT_KINDS = ("estimate", "simulate")

_UNSET = object()


# ------------------------------------------------------------------ keys
@lru_cache(maxsize=512)
def _spec_fragment(obj) -> str:
    """Memoized canonical fragment of a frozen spec dataclass.

    Variants and machine specs are frozen, interned module constants
    reused across every point of a grid; canonicalizing them once per
    process (equal specs hash equal, so equality — not identity — is
    the cache key) keeps :func:`canonical_job_key` cheap enough for
    the 100%-hit serve path, where it *is* the job.
    """
    return canonical_fragment(obj)


def _spec_frag(obj) -> str:
    try:
        return _spec_fragment(obj)
    except TypeError:  # unhashable custom spec: canonicalize in full
        return canonical_fragment(obj)


def _point_content(p, engine: str) -> dict:
    """The canonical content of one GridPoint-shaped payload.

    The variant and machine enter as whole dataclasses (every field,
    not just the display name — pre-canonicalized to their fragment
    strings), so a custom machine spec or a tiled variant with a
    different inner tile can never alias a cache entry.  ``engine`` is
    passed explicitly: a ``simulate`` *job* over a point whose own
    ``engine`` attribute says ``estimate`` executes the simulator, and
    must key as such.
    """
    return {
        "variant": _spec_frag(p.variant),
        "machine": _spec_frag(p.machine),
        "threads": p.threads,
        "box_size": p.box_size,
        "domain_cells": tuple(p.domain_cells),
        "ncomp": p.ncomp,
        "engine": engine,
    }


@lru_cache(maxsize=4096)
def _point_fragment_cached(p, engine: str) -> str:
    return canonical_fragment(_point_content(p, engine))


def _point_frag(p, engine: str) -> str:
    """Canonical fragment of one point, memoized when the point is
    hashable (``GridPoint`` is frozen, so grid sweeps and repeated
    submissions of the same points pay the canonicalization once)."""
    try:
        return _point_fragment_cached(p, engine)
    except TypeError:  # unhashable point-shaped payload
        return canonical_fragment(_point_content(p, engine))


def canonical_job_key(kind_or_spec, payload=_UNSET) -> str:
    """The canonical content hash of one job, for every job kind.

    Accepts a :class:`~repro.serve.service.JobSpec` or an explicit
    ``(kind, payload)`` pair.  Point jobs key on the full point content
    plus the *requested* engine; grid jobs on the ordered point list
    (a grid's result is an ordered list, so order is content); cluster
    jobs on the whole frozen :class:`~repro.cluster.scaling
    .ClusterPoint`; any other kind (``tune`` and future kinds) on the
    canonical fragment of its JSON-shaped payload.  Every key also
    folds in the resolved process-wide engine mode (``exact`` |
    ``fast``).

    Raises ``TypeError`` for payloads that are not content (objects
    with no canonical encoding) — callers treat that as "not
    memoizable", never as a silent identity key.
    """
    if payload is _UNSET:
        spec = kind_or_spec
        kind, payload = spec.kind, spec.payload
    else:
        kind = kind_or_spec
    try:
        if kind in _POINT_KINDS:
            frag = _point_frag(payload, kind)
        elif kind == "grid":
            frag = canonical_fragment(
                [_point_frag(p, p.engine) for p in payload]
            )
        else:
            # cluster (frozen dataclass), tune and future kinds
            # (JSON-shaped payloads) all encode directly.
            frag = canonical_fragment(payload)
    except AttributeError as exc:
        raise TypeError(
            f"canonical_job_key: {kind!r} payload is not content: {exc}"
        ) from None
    text = f"v{_MEMO_VERSION}|{kind}|mode={resolve_engine_mode()}|{frag}"
    return f"{kind}:{hashlib.sha256(text.encode()).hexdigest()[:32]}"


# ------------------------------------------------------------------ codecs
def _complete_grid(value) -> bool:
    """A partial grid must never be replayed as a hit."""
    return isinstance(value, GridResult) and all(r is not None for r in value)


def encode_result(kind: str, value) -> dict | None:
    """JSON payload of one ``ok`` outcome value's log record, or ``None``.

    ``None`` means the value has no codec (cluster steps carry live
    spec objects, a partial grid is not a result) — the store keeps
    such entries opaque, in memory only.
    """
    if kind in _POINT_KINDS:
        return {"sim": sim_result_to_dict(value)}
    if kind == "grid":
        if not _complete_grid(value):
            return None
        return {
            "grid_hash": value.grid_hash,
            "sims": [sim_result_to_dict(r) for r in value],
        }
    return None


def decode_result(kind: str, payload: dict):
    """Rebuild a value from its log-record payload (fresh objects)."""
    if kind in _POINT_KINDS:
        return sim_result_from_dict(payload["sim"])
    if kind == "grid":
        return GridResult(
            [sim_result_from_dict(d) for d in payload["sims"]],
            grid_hash=payload.get("grid_hash", ""),
        )
    raise KeyError(f"no decoder for memoized kind {kind!r}")


#: Charged per entry for what it holds besides its packed value: the
#: key string, the ``_Entry`` and its ``OrderedDict`` slot.
_ENTRY_OVERHEAD_BYTES = 256

#: Charged per packed result on top of its blob: the tuple, the scalar
#: objects in it and the ``bytes`` header.
_SIM_OVERHEAD_BYTES = 256

#: Byte charge for an entry kept opaque (no codec): the object graph
#: of a cluster step over a few rank shapes.
_OPAQUE_ENTRY_BYTES = 2048


def _pack_sim(r: SimResult) -> tuple:
    """The immutable in-memory form of one result: its scalars as they
    are, then ``phase_times`` as compressed ``array('d')`` bytes (the
    list is a cycle x repeat expansion of a few distinct values, so
    level 1 already packs it ~100x).  Raises ``TypeError`` /
    ``OverflowError`` on a phase time no double holds."""
    return (
        r.machine, r.variant, r.threads, r.time_s, r.flops, r.dram_bytes,
        zlib.compress(array("d", r.phase_times).tobytes(), 1),
    )


def _unpack_sim(packed: tuple) -> SimResult:
    machine, variant, threads, time_s, flops, dram_bytes, blob = packed
    return SimResult(
        machine, variant, int(threads), time_s, flops, dram_bytes,
        array("d", zlib.decompress(blob)).tolist(),
    )


def _sim_bytes(packed: tuple) -> int:
    return _SIM_OVERHEAD_BYTES + len(packed[-1])


def _pack(kind: str, value) -> tuple[object, int] | None:
    """``(packed value, bytes it holds)`` for one ``ok`` outcome value;
    ``None`` exactly where :func:`encode_result` is ``None``."""
    if kind in _POINT_KINDS:
        packed = _pack_sim(value)
        return packed, _sim_bytes(packed)
    if kind == "grid":
        if not _complete_grid(value):
            return None
        sims = tuple(_pack_sim(r) for r in value)
        return (value.grid_hash, sims), sum(map(_sim_bytes, sims))
    return None


def _unpack(kind: str, packed):
    """A fresh value from its packed form."""
    if kind in _POINT_KINDS:
        return _unpack_sim(packed)
    grid_hash, sims = packed  # grid: the only other packed kind
    return GridResult([_unpack_sim(s) for s in sims], grid_hash=grid_hash)


#: Live stores, for the byte-budget probe (weakly held: a dropped
#: store stops charging the budget).
_LIVE_STORES: "weakref.WeakSet[MemoStore]" = weakref.WeakSet()
_LIVE_STORES_GUARD = threading.Lock()


def memo_bytes() -> int:
    """Total bytes pinned by every live MemoStore (budget probe)."""
    with _LIVE_STORES_GUARD:
        stores = list(_LIVE_STORES)
    return sum(s.current_bytes for s in stores)


class _Entry:
    """One cached value; never mutated, so it is read outside the lock."""

    __slots__ = ("kind", "packed", "value", "nbytes")

    def __init__(self, kind, packed, value, nbytes):
        self.kind = kind
        self.packed = packed  # immutable packed form, or None if opaque
        self.value = value  # live object, only for opaque entries
        self.nbytes = nbytes


def _new_entry(kind: str, value) -> _Entry:
    """Pack ``value`` into an entry (opaque where there is no codec)."""
    packed = _pack(kind, value)
    if packed is None:
        return _Entry(kind, None, value, _OPAQUE_ENTRY_BYTES)
    return _Entry(kind, packed[0], None, _ENTRY_OVERHEAD_BYTES + packed[1])


def _put_record(key: str, kind: str, value) -> dict:
    return {"op": "put", "k": key, "kind": kind, "v": encode_result(kind, value)}


def _fold_memo(records) -> "OrderedDict[str, _Entry]":
    """Fold a ``put``/``evict`` record stream into the surviving entries,
    least recently put first, packing each payload in the pass that
    validates it.  A record without a string key, or a ``put`` whose
    payload does not decode and pack, is skipped."""
    entries: "OrderedDict[str, _Entry]" = OrderedDict()
    for rec in records:
        op, key = rec.get("op"), rec.get("k")
        if not isinstance(key, str):
            continue
        if op == "put":
            kind, payload = rec.get("kind"), rec.get("v")
            if not isinstance(payload, dict):
                continue
            try:
                entry = _new_entry(kind, decode_result(kind, payload))
            except (KeyError, TypeError, ValueError, OverflowError):
                continue
            entries.pop(key, None)
            entries[key] = entry
        elif op == "evict":
            entries.pop(key, None)
    return entries


class MemoStore:
    """Content-addressed LRU result cache with optional persistence.

    ``path=None`` keeps the store purely in memory (tests, soaks).
    With a path, every ``put`` appends a record and every eviction a
    tombstone to an :class:`~repro.resilience.journal.AppendLog`;
    ``resume=True`` folds the stream back into the surviving entries
    and ``rotate()`` compacts it.  Entries are held packed (see
    :func:`_pack_sim`); JSON exists only in the log.

    ``limit_bytes`` is the LRU byte budget, in packed bytes held (each
    entry's blobs plus a fixed overhead): a ``put`` that lifts the
    store past the limit evicts least-recently-used entries until it
    fits (the incoming entry is charged too — one entry larger than
    the whole budget is simply not stored).

    Packing and unpacking run outside the store lock, which covers the
    entry table, the counters and — so a ``put`` line always precedes
    its tombstone — the log append.
    """

    _HEADER = {"kind": "memo-header", "version": _MEMO_VERSION}

    def __init__(
        self,
        path: str | None = None,
        limit_bytes: int | None = None,
        resume: bool = True,
    ):
        if limit_bytes is not None and limit_bytes < 0:
            raise ValueError(f"limit_bytes must be >= 0, got {limit_bytes}")
        self.path = str(path) if path else None
        self.limit_bytes = None if limit_bytes is None else int(limit_bytes)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.written = 0
        #: Bytes of torn tail dropped by the last resume (0 = clean).
        self.recovered_bytes = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._registry = default_registry()
        self._log: AppendLog | None = None
        if self.path is not None:
            self._log = AppendLog(
                self.path, self._HEADER, resume=resume, sort_keys=True,
                fsync=False,
            )
            self.recovered_bytes = self._log.recovered_bytes
            self._entries = _fold_memo(self._log.take_recovered())
        self._bytes = sum(e.nbytes for e in self._entries.values())
        # Re-apply the byte budget: the log may hold more live entries
        # than the (possibly newly lowered) limit admits.
        self._evict_to_limit(persist=False)
        with _LIVE_STORES_GUARD:
            _LIVE_STORES.add(self)

    # ----------------------------------------------------------- cache ops
    def get(self, key: str):
        """The cached value for ``key`` (a fresh object), or ``None``.

        A hit unpacks the entry's immutable packed form, so callers can
        never mutate the cache through a returned result; opaque
        (memory-only) entries return the stored frozen object.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._registry.counter_inc("serve.memo.misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._registry.counter_inc("serve.memo.hits")
        if entry.packed is None:
            return entry.value
        return _unpack(entry.kind, entry.packed)

    def _refresh(self, key: str) -> bool:
        """Mark ``key`` most recently used if cached (lock held)."""
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        return True

    def put(self, key: str, kind: str, value) -> bool:
        """Store one result; returns whether the entry is now cached.

        First write wins: results are deterministic functions of the
        key, so a concurrent duplicate put only refreshes recency.  A
        result that does not pack (a phase time that is not a number)
        is not cached.
        """
        with self._lock:
            if self._refresh(key):
                return True
        try:
            entry = _new_entry(kind, value)
        except (TypeError, OverflowError):
            return False
        record = None
        if self._log is not None and entry.packed is not None:
            record = _put_record(key, kind, value)
        with self._lock:
            if self._refresh(key):  # a concurrent put of this key won
                return True
            if (
                self.limit_bytes is not None
                and entry.nbytes > self.limit_bytes
            ):
                return False  # larger than the whole budget
            self._entries[key] = entry
            self._bytes += entry.nbytes
            self.written += 1
            if record is not None:
                self._log.append(record)
            self._evict_to_limit(persist=True)
            return key in self._entries

    def _evict_to_limit(self, persist: bool) -> None:
        """Drop LRU entries until the byte budget holds (lock held)."""
        if self.limit_bytes is None:
            return
        while self._bytes > self.limit_bytes and self._entries:
            key, entry = self._entries.popitem(last=False)
            self._bytes -= entry.nbytes
            self.evictions += 1
            self._registry.counter_inc("serve.memo.evictions")
            if persist and self._log is not None and entry.packed is not None:
                self._log.append({"op": "evict", "k": key})

    # ----------------------------------------------------------- maintenance
    def rotate(self) -> None:
        """Compact the log to one ``put`` per surviving entry: what the
        disk stream folds to (another instance may have put entries this
        one never loaded) overlaid with this instance's live entries,
        each re-encoded from its packed form."""
        if self._log is None:
            return

        def snapshot(disk: list[dict]) -> list[dict]:
            merged = _fold_memo(disk)
            for key, entry in self._entries.items():
                if entry.packed is not None:
                    merged[key] = entry
            return [
                _put_record(key, e.kind, _unpack(e.kind, e.packed))
                for key, e in merged.items()
            ]

        with self._lock:
            self._log.compact(snapshot)

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()

    def __enter__(self) -> "MemoStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------- introspection
    @property
    def current_bytes(self) -> int:
        return self._bytes

    @property
    def epoch(self) -> int:
        """Rotation epoch the log handle is valid for (0 in memory)."""
        return 0 if self._log is None else self._log.epoch

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        with self._lock:
            return {
                "path": self.path,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "limit_bytes": self.limit_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "written": self.written,
            }

    def __repr__(self) -> str:
        return (
            f"MemoStore({self.path!r}, entries={len(self._entries)}, "
            f"bytes={self._bytes}, hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )

"""JSONL append logs: one storage primitive, two record schemas.

:class:`AppendLog` alone decides how a log is stored: a header line,
then one JSON object per line.

* **Append** — whole lines at EOF under a process-global per-path
  lock, flushed (fsync'd if the schema wants durability) on return, so
  instances and threads sharing a path never interleave.
* **Open** — ``resume=False`` truncates; ``resume=True`` keeps every
  complete record, truncates a *torn tail* (a final line with no
  newline or that no longer parses: a crash mid-append) so the next
  append starts on a line boundary, and skips-and-counts a corrupt
  *interior* line instead of cutting the good records after it.
* **Read** — :meth:`AppendLog.read_records` changes no byte: safe on a
  log another process is appending to.
* **Compact** — under the path lock: re-scan the disk, fold, write the
  survivors aside, fsync, ``os.replace`` over the live path, fsync the
  directory, bump the path's *rotation epoch*.  A crash leaves the old
  log or the new one, never a mix; other instances see the epoch move
  and reopen their handle before their next append.

A record schema adds an in-memory index, one ``fold(records)`` used by
both open and compaction, and counters: :class:`GridJournal` and
:class:`WALJournal` here, :class:`repro.serve.memo.MemoStore` in serve.
The canonical content-key encoders the journal and the memo key on
(:func:`canonical_number`, :func:`canonical_fragment`) live here too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import os
import threading
from typing import Callable, Iterable

from ..machine.simulator import SimResult

__all__ = [
    "canonical_number",
    "canonical_fragment",
    "point_key",
    "grid_hash",
    "sim_result_to_dict",
    "sim_result_from_dict",
    "AppendLog",
    "GridJournal",
    "WALJournal",
]


# ------------------------------------------------------------- canonical keys
def canonical_number(x) -> str:
    """repr-stable text for one number (cache-key material).

    The invariant: **equal finite numbers always format identically**
    — regardless of type — or identical configs hash to different
    cache entries:

    * ``-0.0``, ``0.0``, and ``0`` all collapse to ``"0"`` (they
      compare equal);
    * an integral-valued float formats as its exact integer (floats
      convert to ``int`` exactly), so a float-typed thread count
      (``2.0``), a NumPy scalar, and the plain-int twin ``2`` key
      identically — and ``1e22`` spelled any way (``1e+22``,
      ``10.0**22``) yields one string;
    * non-integral floats go through ``repr`` of a genuine Python
      ``float`` — shortest-roundtrip, NumPy scalars lose their
      type-dependent ``repr``;
    * integers (including NumPy integers) format via ``int``; bools
      are kept distinct with ``true``/``false`` tokens;
    * non-finite floats use fixed tokens (``nan``/``inf``/``-inf``).
    """
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    x = float(x)
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    if x == 0.0:
        return "0"
    if x.is_integer():
        return str(int(x))
    return repr(x)


def canonical_fragment(obj) -> str:
    """Deterministic content text for a JSON-shaped object.

    The invariants cache keys need:

    * **dict-order invariance** — mappings serialize sorted by their
      canonically encoded key, so insertion order can never split one
      semantic config into two hashes;
    * **repr-stable numbers** — every number routes through
      :func:`canonical_number`;
    * **unambiguous structure** — strings are JSON-quoted, sequence
      types bracketed, dataclasses tagged with their class name, so no
      two distinct values can collide by concatenation.

    Sets serialize sorted by element encoding.  Anything else raises
    ``TypeError`` — a cache key silently built from ``str(object)``
    (identity-dependent ``repr``) would be a correctness bug.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return canonical_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (numbers.Integral, numbers.Real)):
        return canonical_number(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_fragment(v) for v in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canonical_fragment(v) for v in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted(
            (canonical_fragment(k), canonical_fragment(v))
            for k, v in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        return type(obj).__name__ + canonical_fragment(fields)
    raise TypeError(
        f"canonical_fragment: unsupported type {type(obj).__name__} "
        f"(keys must be built from JSON-shaped content, not object repr)"
    )


# ------------------------------------------------------------- the append log
class _PathState:
    """What every :class:`AppendLog` on one real path shares: the write
    lock and the rotation epoch (read and bumped under that lock)."""

    __slots__ = ("lock", "epoch")

    def __init__(self):
        self.lock = threading.Lock()
        self.epoch = 0


_PATHS: dict[str, _PathState] = {}
_PATHS_GUARD = threading.Lock()


def _path_state(path: str) -> _PathState:
    key = os.path.realpath(path)
    with _PATHS_GUARD:
        return _PATHS.setdefault(key, _PathState())


def _path_lock(path: str) -> threading.Lock:
    """The process-global write lock of ``path`` (one per real path)."""
    return _path_state(path).lock


def _fsync_dir(path: str) -> None:
    """fsync the directory entry so a completed rename survives a crash."""
    dirname = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(dirname, os.O_RDONLY)
    except OSError:  # pragma: no cover - directory not openable (exotic fs)
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on directories
        pass
    finally:
        os.close(fd)


def _scan(path: str) -> tuple[list[dict], int, int, int]:
    """``(records, keep_bytes, size, skipped)`` of one JSONL file.

    ``records`` is every parseable object line in file order;
    ``keep_bytes`` the offset the file ends cleanly at (``< size`` iff
    the tail is torn); ``skipped`` the corrupt interior lines.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    records: list[dict] = []
    keep = len(data)
    skipped = 0
    pos = 0
    for raw in lines[:-1]:
        end = pos + len(raw) + 1
        stripped = raw.strip()
        if stripped:
            try:
                rec = json.loads(stripped.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                rec = None
            if isinstance(rec, dict):
                records.append(rec)
            elif end == len(data):
                keep = pos  # corrupt final record, newline intact: torn
            else:
                skipped += 1
        pos = end
    if lines[-1]:
        keep = pos  # bytes past the final newline: an unterminated tail
    return records, keep, len(data), skipped


class AppendLog:
    """One JSONL log file (see the module docstring for the discipline).

    ``header``, ``sort_keys`` and ``fsync`` are the record schema's
    choices; records whose ``kind`` is the header's never reach a fold.
    """

    def __init__(
        self, path: str, header: dict, *, resume: bool, sort_keys: bool,
        fsync: bool,
    ):
        self.path = str(path)
        self.header = header
        self.sort_keys = sort_keys
        self.fsync = fsync
        #: Lines this instance appended (the header it wrote included).
        self.appended = 0
        #: Bytes of torn tail dropped at open (0 = clean file).
        self.recovered_bytes = 0
        #: Complete-but-corrupt interior lines skipped at open.
        self.skipped_records = 0
        self._recovered: list[dict] = []
        self._shared = _path_state(self.path)
        with self._shared.lock:
            if resume and os.path.exists(self.path):
                records, keep, size, self.skipped_records = _scan(self.path)
                if keep < size:
                    with open(self.path, "r+b") as fh:
                        fh.truncate(keep)
                        fh.flush()
                        os.fsync(fh.fileno())
                    self.recovered_bytes = size - keep
                self._recovered = self._body(records)
            else:
                open(self.path, "w", encoding="utf-8").close()
            self._fh = open(self.path, "a", encoding="utf-8")
            #: Rotation epoch this instance's handle is valid for.
            self.epoch = self._shared.epoch
            if os.path.getsize(self.path) == 0:
                self._append_line(self._line(header))

    def _line(self, record: dict) -> str:
        return json.dumps(record, sort_keys=self.sort_keys) + "\n"

    def _body(self, records: list[dict]) -> list[dict]:
        kind = self.header["kind"]
        return [r for r in records if r.get("kind") != kind]

    def _reopen(self) -> None:
        """Point the handle at the live inode; path lock held."""
        self._fh.close()
        self._fh = open(self.path, "a", encoding="utf-8")
        self.epoch = self._shared.epoch

    def _append_line(self, line: str) -> None:
        """Write one line at EOF; call while holding the path lock."""
        if self._shared.epoch != self.epoch:
            # Another instance compacted the path: this handle points
            # at the unlinked old inode, where appends vanish.
            self._reopen()
        self._fh.write(line)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.appended += 1

    def take_recovered(self) -> list[dict]:
        """The records found at open, handed to the schema's fold once."""
        records, self._recovered = self._recovered, []
        return records

    def append(self, record: dict) -> None:
        """Append one record; flushed (and fsync'd, if the schema says so)
        when this returns."""
        line = self._line(record)
        with self._shared.lock:
            self._append_line(line)

    @staticmethod
    def read_records(path: str) -> list[dict]:
        """Every complete record of ``path`` (header included), read-only."""
        return _scan(path)[0]

    def compact(
        self, fold: Callable[[list[dict]], Iterable[dict]]
    ) -> list[dict]:
        """Atomically replace the log with ``fold(records on disk)``.

        The re-scan sees what *every* instance appended, not only what
        this one loaded; the whole swap happens under the path lock, so
        no append can land between the scan and the reopen.
        """
        tmp = f"{self.path}.rotate"
        with self._shared.lock:
            disk = (
                self._body(self.read_records(self.path))
                if os.path.exists(self.path) else []
            )
            survivors = list(fold(disk))
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self._line(self.header))
                fh.writelines(self._line(rec) for rec in survivors)
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            _fsync_dir(self.path)
            self._shared.epoch += 1
            self._reopen()
        return survivors

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


#: Fields a journaled result payload must carry to rebuild a SimResult.
_RESULT_FIELDS = (
    "machine",
    "variant",
    "threads",
    "time_s",
    "flops",
    "dram_bytes",
    "phase_times",
)


def _valid_result_payload(r) -> bool:
    """Structural check of one record's ``"r"`` payload.

    A payload that would make :func:`sim_result_from_dict` raise —
    missing fields, non-numeric values, a non-list ``phase_times`` — is
    corrupt and must be skipped, not replayed.
    """
    if not isinstance(r, dict):
        return False
    for k in _RESULT_FIELDS:
        if k not in r:
            return False
    if not isinstance(r["threads"], (int, float)):
        return False
    for k in ("time_s", "flops", "dram_bytes"):
        if not isinstance(r[k], (int, float)):
            return False
    if not isinstance(r["phase_times"], list):
        return False
    return all(isinstance(t, (int, float)) for t in r["phase_times"])


def point_key(p) -> str:
    """Content key of one grid point (any GridPoint-shaped object).

    Numeric components route through :func:`canonical_number`, so a
    point built from NumPy scalars (a sweep over ``np.arange``), a
    float-typed thread count, or a ``-0.0`` that leaked into a domain
    extent keys identically to its plain-int twin — the journal must
    never recompute (or, worse, replay the wrong slot for) a point
    because of number formatting.
    """
    return "|".join(
        (
            p.variant.short_name,
            p.machine.name,
            canonical_number(p.threads),
            canonical_number(p.box_size),
            "x".join(canonical_number(c) for c in p.domain_cells),
            canonical_number(p.ncomp),
            p.engine,
        )
    )


def grid_hash(points: Iterable) -> str:
    """Content hash of a whole grid spec (order-sensitive)."""
    h = hashlib.sha256()
    for p in points:
        h.update(point_key(p).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def sim_result_to_dict(r: SimResult) -> dict:
    return {
        "machine": r.machine,
        "variant": r.variant,
        "threads": r.threads,
        "time_s": r.time_s,
        "flops": r.flops,
        "dram_bytes": r.dram_bytes,
        "phase_times": list(r.phase_times),
    }


def sim_result_from_dict(d: dict) -> SimResult:
    return SimResult(
        machine=d["machine"],
        variant=d["variant"],
        threads=int(d["threads"]),
        time_s=d["time_s"],
        flops=d["flops"],
        dram_bytes=d["dram_bytes"],
        phase_times=[float(t) for t in d["phase_times"]],
    )


# ------------------------------------------------------------- record schemas
def _fold_grid(records: Iterable[dict]) -> dict[tuple[str, int], tuple[str, dict]]:
    """``{(grid hash, index): (point key, result payload)}``, last
    record per slot winning.  A record missing its index or carrying a
    payload that cannot rebuild a SimResult is skipped, never fatal:
    the point is simply recomputed."""
    entries: dict[tuple[str, int], tuple[str, dict]] = {}
    for rec in records:
        payload = rec.get("r")
        if "grid" not in rec or not _valid_result_payload(payload):
            continue
        try:
            index = int(rec["i"])
        except (KeyError, TypeError, ValueError):
            continue
        entries[(rec["grid"], index)] = (rec.get("key", ""), payload)
    return entries


class GridJournal:
    """Checkpoint store for grid results, one record per completed point:
    ``{"grid": "<hash>", "i": 3, "key": "<point key>", "r": {...}}``.

    ``resume=True`` is what ``python -m repro.bench --journal PATH
    --resume`` opens; one file can hold many grids.
    """

    _HEADER = {"kind": "header", "version": 1}

    def __init__(self, path: str, resume: bool = False):
        self._log = AppendLog(
            path, self._HEADER, resume=resume, sort_keys=False, fsync=False
        )
        self.path = self._log.path
        self.hits = 0
        self.written = 0
        self.recovered_bytes = self._log.recovered_bytes
        self._lock = threading.Lock()
        self._entries = _fold_grid(self._log.take_recovered())

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def epoch(self) -> int:
        return self._log.epoch

    def lookup(self, ghash: str, index: int, key: str) -> SimResult | None:
        """Replay a journaled result for this exact grid slot, if any."""
        with self._lock:
            entry = self._entries.get((ghash, index))
            if entry is None or entry[0] != key:
                return None
            self.hits += 1
            return sim_result_from_dict(entry[1])

    def record(self, ghash: str, index: int, key: str, result: SimResult) -> None:
        """Checkpoint one completed point."""
        d = sim_result_to_dict(result)
        with self._lock:
            self._entries[(ghash, index)] = (key, d)
            self._log.append({"grid": ghash, "i": index, "key": key, "r": d})
            self.written += 1

    def rotate(self) -> None:
        """Compact to one record per slot: the union of what is on disk
        (other instances' appends included) and this instance's entries."""

        def snapshot(disk: list[dict]) -> list[dict]:
            merged = _fold_grid(disk)
            merged.update(self._entries)
            return [
                {"grid": ghash, "i": index, "key": key, "r": payload}
                for (ghash, index), (key, payload) in merged.items()
            ]

        with self._lock:
            self._log.compact(snapshot)

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "GridJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"GridJournal({self.path!r}, entries={len(self._entries)}, "
            f"hits={self.hits}, written={self.written})"
        )


class WALJournal:
    """Write-ahead log of arbitrary records, for *state machine* replay:
    the shard supervisor leases jobs through one, and recovery is a pure
    fold over the record stream
    (:func:`repro.serve.shards.replay_wal_state`).

    :meth:`commit` is durable (fsync'd) before it returns
    (``fsync=False`` drops the fsync for tests that hammer the log), and
    records are written with sorted keys, so identical state always
    serializes to an identical log suffix and replay comparisons can be
    exact.  Its fold is the identity: every record survives, in commit
    order.
    """

    _HEADER = {"kind": "wal-header", "version": 1}

    def __init__(self, path: str, resume: bool = False, fsync: bool = True):
        self._log = AppendLog(
            path, self._HEADER, resume=resume, sort_keys=True,
            fsync=bool(fsync),
        )
        self.path = self._log.path
        self.fsync = self._log.fsync
        self.recovered_bytes = self._log.recovered_bytes
        self.skipped_records = self._log.skipped_records
        self._lock = threading.Lock()
        self._records = self._log.take_recovered()

    @property
    def committed(self) -> int:
        """Lines this instance committed (a header it wrote included)."""
        return self._log.appended

    @property
    def epoch(self) -> int:
        return self._log.epoch

    def commit(self, record: dict) -> None:
        """Durably append one record; it is on disk when this returns."""
        with self._lock:
            self._log.append(record)
            if record.get("kind") != self._HEADER["kind"]:
                self._records.append(record)

    def replay(self) -> list[dict]:
        """Every committed record in commit order (header excluded)."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def rotate(self, records: Iterable[dict] | None = None) -> None:
        """Atomically replace the log with a compacted snapshot.

        Callers pass the survivor set after folding the state machine;
        the default keeps every record on disk (a no-op compaction that
        still exercises the atomic-replace path).
        """
        with self._lock:
            self._records = self._log.compact(
                (lambda disk: disk) if records is None
                else (lambda _disk: records)
            )

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "WALJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WALJournal({self.path!r}, records={len(self._records)}, "
            f"committed={self.committed}, fsync={self.fsync})"
        )

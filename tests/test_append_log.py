"""AppendLog and the on-disk format contract of its three record schemas.

The golden literals below were captured from the commit *before*
``GridJournal``, ``WALJournal`` and ``MemoStore`` were rewritten over
:class:`~repro.resilience.journal.AppendLog`: a fixed op sequence must
still produce exactly these bytes (header line, key order, tombstones,
post-rotate snapshot), and these bytes must still load.
"""

import json

import pytest

from repro.machine.simulator import SimResult
from repro.resilience.journal import AppendLog, GridJournal, WALJournal
from repro.serve import MemoStore, replay_wal_state
from repro.serve.memo import decode_result


def sim(i: float) -> SimResult:
    return SimResult(
        machine="m", variant="v", threads=1, time_s=float(i),
        flops=1.0, dram_bytes=2.0, phase_times=[float(i), 0.5],
    )


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


GRID_HEADER = b'{"kind": "header", "version": 1}\n'
GRID_SLOT0_OLD = (
    b'{"grid": "g", "i": 0, "key": "k0", "r": {"machine": "m", "variant": "v",'
    b' "threads": 1, "time_s": 1.0, "flops": 1.0, "dram_bytes": 2.0,'
    b' "phase_times": [1.0, 0.5]}}\n'
)
GRID_SLOT1 = (
    b'{"grid": "g", "i": 1, "key": "k1", "r": {"machine": "m", "variant": "v",'
    b' "threads": 1, "time_s": 2.5, "flops": 1.0, "dram_bytes": 2.0,'
    b' "phase_times": [2.5, 0.5]}}\n'
)
GRID_SLOT0_NEW = (
    b'{"grid": "g", "i": 0, "key": "k0", "r": {"machine": "m", "variant": "v",'
    b' "threads": 1, "time_s": 3.0, "flops": 1.0, "dram_bytes": 2.0,'
    b' "phase_times": [3.0, 0.5]}}\n'
)
GRID_LOG = GRID_HEADER + GRID_SLOT0_OLD + GRID_SLOT1 + GRID_SLOT0_NEW
GRID_ROTATED = GRID_HEADER + GRID_SLOT0_NEW + GRID_SLOT1

WAL_HEADER = b'{"kind": "wal-header", "version": 1}\n'
WAL_LOG = (
    WAL_HEADER
    + b'{"lid": "l0", "op": "lease", "seq": 0}\n'
    + b'{"op": "settle", "seq": 0, "status": "ok"}\n'
    + b'{"lid": "l0", "op": "release"}\n'
)
WAL_ROTATED = WAL_HEADER + b'{"op": "settle", "seq": 0, "status": "ok"}\n'

MEMO_HEADER = b'{"kind": "memo-header", "version": 1}\n'
MEMO_K1 = (
    b'{"k": "k1", "kind": "estimate", "op": "put", "v": {"sim": {"dram_bytes":'
    b' 2.0, "flops": 1.0, "machine": "m", "phase_times": [1.0, 0.5],'
    b' "threads": 1, "time_s": 1.0, "variant": "v"}}}\n'
)
MEMO_K2 = (
    b'{"k": "k2", "kind": "simulate", "op": "put", "v": {"sim": {"dram_bytes":'
    b' 2.0, "flops": 1.0, "machine": "m", "phase_times": [2.0, 0.5],'
    b' "threads": 1, "time_s": 2.0, "variant": "v"}}}\n'
)
MEMO_K3 = (
    b'{"k": "k3", "kind": "estimate", "op": "put", "v": {"sim": {"dram_bytes":'
    b' 2.0, "flops": 1.0, "machine": "m", "phase_times": [3.0, 0.5],'
    b' "threads": 1, "time_s": 3.0, "variant": "v"}}}\n'
)
MEMO_LOG = (
    MEMO_HEADER + MEMO_K1 + MEMO_K2 + MEMO_K3 + b'{"k": "k1", "op": "evict"}\n'
)
MEMO_ROTATED = MEMO_HEADER + MEMO_K2 + MEMO_K3


class TestGoldenFormats:
    def test_grid_journal_bytes(self, tmp_path):
        path = str(tmp_path / "g.jsonl")
        with GridJournal(path) as j:
            j.record("g", 0, "k0", sim(1))
            j.record("g", 1, "k1", sim(2.5))
            j.record("g", 0, "k0", sim(3))  # supersedes slot 0
            assert read(path) == GRID_LOG
            j.rotate()
            assert read(path) == GRID_ROTATED

    @pytest.mark.parametrize("literal", [GRID_LOG, GRID_ROTATED])
    def test_grid_journal_loads_literal(self, tmp_path, literal):
        path = tmp_path / "g.jsonl"
        path.write_bytes(literal)
        with GridJournal(str(path), resume=True) as j:
            assert len(j) == 2 and j.recovered_bytes == 0
            assert j.lookup("g", 0, "k0") == sim(3)
            assert j.lookup("g", 1, "k1") == sim(2.5)
            assert j.lookup("g", 1, "other-key") is None
        assert path.read_bytes() == literal  # a clean open changes no byte

    def test_wal_bytes(self, tmp_path):
        path = str(tmp_path / "w.wal")
        with WALJournal(path) as w:
            w.commit({"op": "lease", "lid": "l0", "seq": 0})
            w.commit({"seq": 0, "status": "ok", "op": "settle"})
            w.commit({"op": "release", "lid": "l0"})
            assert w.committed == 4  # three records + the header
            assert read(path) == WAL_LOG
            w.rotate(records=[{"status": "ok", "seq": 0, "op": "settle"}])
            assert w.committed == 4
            assert read(path) == WAL_ROTATED

    def test_wal_loads_literal(self, tmp_path):
        path = tmp_path / "w.wal"
        path.write_bytes(WAL_LOG)
        with WALJournal(str(path), resume=True) as w:
            assert w.committed == 0 and w.recovered_bytes == 0
            assert w.replay() == [
                {"lid": "l0", "op": "lease", "seq": 0},
                {"op": "settle", "seq": 0, "status": "ok"},
                {"lid": "l0", "op": "release"},
            ]
        assert path.read_bytes() == WAL_LOG

    def test_memo_store_bytes(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        with MemoStore(path) as s:
            s.put("k1", "estimate", sim(1))
            s.limit_bytes = s.current_bytes * 2 + 10  # two sims, not three
            s.put("k2", "simulate", sim(2))
            s.put("k3", "estimate", sim(3))  # evicts k1
            assert s.evictions == 1
            assert read(path) == MEMO_LOG
            s.rotate()
            assert read(path) == MEMO_ROTATED

    @pytest.mark.parametrize("literal", [MEMO_LOG, MEMO_ROTATED])
    def test_memo_store_loads_literal(self, tmp_path, literal):
        path = tmp_path / "m.jsonl"
        path.write_bytes(literal)
        with MemoStore(str(path)) as s:
            assert len(s) == 2 and "k1" not in s
            assert s.get("k2") == sim(2)
            assert s.get("k3") == sim(3)
        assert path.read_bytes() == literal


class TestMemoRotateValidates:
    """rotate() folds the disk with the validation open applies."""

    ROTTEN = (
        # a put without its key, and a put whose payload does not decode
        '{"op": "put", "kind": "estimate", "v": {"sim": {}}}\n'
        '{"k": "bad", "kind": "estimate", "op": "put", "v": {"sim": {}}}\n'
    )

    def test_rotten_puts_are_dropped_not_carried(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        MemoStore(path).close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(self.ROTTEN)
        with pytest.raises(KeyError):
            decode_result("estimate", {"sim": {}})
        with MemoStore(path) as s:
            assert len(s) == 0
            s.rotate()  # raised KeyError: 'k' before the single fold
        with MemoStore(path) as s:
            assert len(s) == 0
        assert read(path) == MEMO_HEADER

    def test_rotten_puts_do_not_cost_the_good_ones(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        with MemoStore(path) as s:
            s.put("k2", "simulate", sim(2))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(self.ROTTEN)
        with MemoStore(path) as s:
            s.rotate()
        assert read(path) == MEMO_HEADER + MEMO_K2


class TestReadOnlyReplay:
    def test_replay_wal_state_leaves_a_torn_log_untouched(self, tmp_path):
        path = tmp_path / "w.wal"
        torn = WAL_LOG + b'{"op": "settle", "seq": 1, "sta'  # mid-commit
        path.write_bytes(torn)
        state = replay_wal_state(str(path))
        assert path.read_bytes() == torn
        assert state["counts"]["leases"] == 1
        assert state["counts"]["releases"] == 1
        assert state["settled"] == {
            "0": {"status": "ok", "reason": "", "degraded_to": None}
        }
        assert state["open_leases"] == {}
        # ...whereas opening it for append recovers (truncates) the tail.
        with WALJournal(str(path), resume=True) as w:
            assert w.recovered_bytes == len(torn) - len(WAL_LOG)
        assert path.read_bytes() == WAL_LOG

    def test_read_records_returns_every_complete_record(self, tmp_path):
        path = tmp_path / "w.wal"
        path.write_bytes(WAL_LOG + b"{torn")
        records = AppendLog.read_records(str(path))
        assert [json.dumps(r, sort_keys=True).encode() + b"\n"
                for r in records] == WAL_LOG.splitlines(keepends=True)


class TestAppendLog:
    HEADER = {"kind": "t-header", "version": 1}

    def open(self, path, resume=True):
        return AppendLog(
            str(path), self.HEADER, resume=resume, sort_keys=True, fsync=False
        )

    def test_header_once_and_recovered_handed_over_once(self, tmp_path):
        path = tmp_path / "a.jsonl"
        log = self.open(path, resume=False)
        log.append({"b": 1, "a": 2})
        log.close()
        assert log.appended == 2
        log = self.open(path)
        assert log.appended == 0  # nothing written: the header is there
        assert log.take_recovered() == [{"a": 2, "b": 1}]
        assert log.take_recovered() == []
        log.close()
        assert read(path) == b'{"kind": "t-header", "version": 1}\n' \
                             b'{"a": 2, "b": 1}\n'

    def test_compact_sees_other_instances_and_bumps_their_epoch(self, tmp_path):
        path = tmp_path / "a.jsonl"
        a, b = self.open(path, resume=False), self.open(path)
        a.append({"from": "a"})
        b.append({"from": "b"})
        kept = a.compact(lambda disk: [r for r in disk if r["from"] == "b"])
        assert kept == [{"from": "b"}]
        assert a.epoch == b.epoch + 1
        b.append({"from": "b2"})  # reopens at the live path first
        assert b.epoch == a.epoch
        a.close()
        b.close()
        assert AppendLog.read_records(str(path)) == [
            self.HEADER, {"from": "b"}, {"from": "b2"},
        ]

    def test_path_key_is_resolved_once_at_open(self, tmp_path, monkeypatch):
        import os

        log = self.open(tmp_path / "a.jsonl", resume=False)
        calls = []
        real = os.path.realpath
        monkeypatch.setattr(
            os.path, "realpath", lambda p: calls.append(p) or real(p)
        )
        for i in range(5):
            log.append({"i": i})
        log.close()
        assert calls == []

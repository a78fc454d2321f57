"""Tests of machine specifications and derived quantities."""

from dataclasses import replace

import pytest

from repro.machine import (
    IVY_BRIDGE,
    IVY_DESKTOP,
    MAGNY_COURS,
    PAPER_MACHINES,
    SANDY_BRIDGE,
    machine_by_name,
)


class TestPaperSpecs:
    """The §VI-A hardware parameters, as printed."""

    def test_magny_cours(self):
        m = MAGNY_COURS
        assert m.cores == 24 and m.sockets == 2
        assert m.ghz == 1.90
        assert m.peak_bw_gbs == pytest.approx(85.3)
        assert m.l3_mb_per_socket == 12.0
        assert m.max_threads == 24

    def test_ivy_bridge(self):
        m = IVY_BRIDGE
        assert m.cores == 20
        assert m.peak_bw_gbs == pytest.approx(102.4)
        assert m.l3_mb_per_socket == 25.0
        assert m.max_threads == 40  # hyperthreading

    def test_sandy_bridge(self):
        m = SANDY_BRIDGE
        assert m.cores == 16
        assert m.bw_gbs_per_socket == pytest.approx(51.2)
        assert m.l3_mb_per_socket == 20.0

    def test_desktop(self):
        m = IVY_DESKTOP
        assert m.cores == 4 and m.sockets == 1
        assert m.peak_bw_gbs == pytest.approx(21.0)
        assert m.l3_mb_per_socket == 6.0

    def test_lookup(self):
        for m in PAPER_MACHINES:
            assert machine_by_name(m.name) is m
        with pytest.raises(KeyError):
            machine_by_name("cray")


class TestDerived:
    def test_compute_rate_smt(self):
        m = IVY_BRIDGE
        full = m.thread_compute_rate(20)
        ht = m.thread_compute_rate(40)
        # Two hyperthreads share a core at smt_speedup total throughput.
        assert ht == pytest.approx(full * m.smt_speedup / 2)
        # Aggregate throughput still improves under HT.
        assert 40 * ht > 20 * full

    def test_compute_rate_bounds(self):
        with pytest.raises(ValueError):
            MAGNY_COURS.thread_compute_rate(0)
        with pytest.raises(ValueError):
            MAGNY_COURS.thread_compute_rate(25)

    def test_cache_share_shrinks(self):
        m = MAGNY_COURS
        c1 = m.cache_per_thread_bytes(1)
        c24 = m.cache_per_thread_bytes(24)
        # A lone thread owns the socket's whole L3 (L2 is not counted;
        # see cache_per_thread_bytes' docstring).
        assert c1 == 12 * 2**20
        assert c24 == c1 / 12

    def test_bandwidth_scaling(self):
        m = SANDY_BRIDGE
        one = m.available_bw_gbs(1)
        # One thread is capped by its core, not the socket.
        assert one <= m.core_bw_cap_gbs
        # Two sockets engaged beyond one thread.
        assert m.available_bw_gbs(16) == pytest.approx(
            2 * m.bw_gbs_per_socket * m.stream_fraction
        )
        assert m.available_bw_gbs(0) == 0.0

    def test_barrier_cost_grows_with_threads(self):
        m = IVY_BRIDGE
        assert m.barrier_seconds(20) > m.barrier_seconds(2) > 0

    def test_threads_per_socket(self):
        assert MAGNY_COURS.threads_per_socket(1) == 1
        assert MAGNY_COURS.threads_per_socket(24) == 12
        assert IVY_DESKTOP.threads_per_socket(4) == 4


class TestSpecValidation:
    """Out-of-range specs fail in the constructor.

    A zero bandwidth used to make ``simulate_workload`` spin forever
    (the bytes never drain); only the constructor is exercised here.
    """

    @pytest.mark.parametrize(
        "field, value",
        [
            ("stream_fraction", 0.0),
            ("stream_fraction", 1.5),
            ("stream_fraction", float("nan")),
            ("bw_gbs_per_socket", 0.0),
            ("core_bw_cap_gbs", -1.0),
            ("sockets", 0),
            ("cores_per_socket", 0),
            ("smt", 0),
            ("ghz", float("nan")),
            ("flops_per_cycle", 0.0),
            ("smt_speedup", 0.0),
            ("l1d_kb", 0),
            ("l2_kb", -256),
            ("l3_mb_per_socket", 0.0),
        ],
    )
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(SANDY_BRIDGE, **{field: value})

    def test_edges_accepted(self):
        m = replace(SANDY_BRIDGE, stream_fraction=1.0, barrier_base_us=0.0,
                    barrier_per_thread_us=0.0)
        assert m.effective_bw_gbs == m.peak_bw_gbs
        assert m.barrier_seconds(16) == 0.0

    def test_paper_machines_valid(self):
        for m in PAPER_MACHINES:
            assert replace(m) == m

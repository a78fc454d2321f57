"""The seeded generator: seeds change the jobs, never the shape of the load."""

import pytest

from workloads import KIND_MIX, MAX_ROUNDS, POINT_MIX, Traffic, design_space


def test_design_space_is_the_2090_point_grid():
    points = design_space()
    assert len(points) == 2090
    assert len(set(points)) == 2090


@pytest.mark.parametrize("kwargs", [
    {"n": 1000, "fresh_rounds": False},
    {"n": 300},
    {"n": 2000, "hot": 256, "hot_share": 0.95},
    {"n": 400, "mix": POINT_MIX, "fresh_rounds": False},
])
def test_two_seeds_same_shape_different_jobs(kwargs):
    a, b = Traffic(2014, **kwargs), Traffic(7, **kwargs)
    assert a.fingerprint(0) != b.fingerprint(0)
    assert len(a.round(0)) == len(b.round(0)) == kwargs["n"]
    assert a.duplicate_fraction == b.duplicate_fraction
    counts_a, counts_b = a.kind_counts(), b.kind_counts()
    for kind, share in kwargs.get("mix", KIND_MIX):
        assert abs(counts_a.get(kind, 0) - counts_b.get(kind, 0)) <= 0.01 * kwargs["n"]
        if not kwargs.get("hot"):  # Zipf weights the hot set's kinds unevenly
            assert abs(counts_a.get(kind, 0) / kwargs["n"] - share) <= 0.01


def test_same_seed_reproduces_the_list_byte_for_byte():
    a, b = Traffic(2014, 300), Traffic(2014, 300)
    for r in (0, 1, 5):
        assert a.fingerprint(r) == b.fingerprint(r)
    assert a.verify_picks(3) == b.verify_picks(3)
    assert a.verify_picks(3) != Traffic(7, 300).verify_picks(3)


def test_fresh_rounds_never_repeat_a_key():
    from repro.serve import canonical_job_key

    traffic = Traffic(2014, 300)
    seen = set()
    for r in range(MAX_ROUNDS):
        keys = {canonical_job_key(spec) for spec in traffic.round(r)}
        assert len(keys) == 300
        assert not keys & seen
        seen |= keys
    with pytest.raises(ValueError):
        traffic.round(MAX_ROUNDS)


def test_hot_set_is_shared_and_cold_slots_are_new():
    from repro.serve import canonical_job_key

    traffic = Traffic(2014, 2000, hot=256, hot_share=0.95)
    hot = {canonical_job_key(s) for s in traffic.hot_jobs()}
    assert len(hot) == 256
    for r in (0, 1):
        keys = [canonical_job_key(s) for s in traffic.round(r)]
        assert sum(k in hot for k in keys) == 1900
    cold0 = {k for k in map(canonical_job_key, traffic.round(0))} - hot
    cold1 = {k for k in map(canonical_job_key, traffic.round(1))} - hot
    assert len(cold0) == len(cold1) == 100 and not cold0 & cold1


def test_repeating_rounds_are_identical():
    traffic = Traffic(2014, 200, fresh_rounds=False)
    assert traffic.fingerprint(0) == traffic.fingerprint(9)

"""compare.py's verdicts: ok, worse, unresolved."""

from compare import verdict

STEADY = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]
NOISY = [100.0, 130.0, 75.0, 120.0, 80.0, 110.0, 90.0, 125.0, 70.0, 100.0]


def shifted(values, factor):
    return [v * factor for v in values]


def test_within_bound_is_ok():
    assert verdict(STEADY, shifted(STEADY, 1.05), "lower", 0.10)[-1] == "ok"
    assert verdict(STEADY, shifted(STEADY, 0.95), "higher", 0.10)[-1] == "ok"


def test_beyond_bound_is_worse_in_the_metric_s_direction():
    assert verdict(STEADY, shifted(STEADY, 1.20), "lower", 0.10)[-1] == "worse"
    assert verdict(STEADY, shifted(STEADY, 0.80), "higher", 0.10)[-1] == "worse"
    assert verdict(STEADY, shifted(STEADY, 0.80), "lower", 0.10)[-1] == "ok"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    assert verdict(NOISY, shifted(NOISY, 1.05), "lower", 0.10)[-1] == "unresolved"
    assert verdict(NOISY, shifted(NOISY, 0.30), "lower", 0.10)[-1] == "ok"
    assert verdict(NOISY, shifted(NOISY, 3.00), "lower", 0.10)[-1] == "worse"


def test_a_workload_the_candidate_lost_is_worse():
    from compare import compare

    spec = {"workloads": [{"name": "w1"}, {"name": "w2"}],
            "end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}]}
    run = {"end_to_end": {"m": {"values": STEADY}}, "attempted": 10, "failed": 0}
    rows = compare({"runs": {"w1": run, "w2": run}}, {"runs": {"w1": run}}, spec)
    assert [r[-1] for r in rows if r[1] == "w1"] == ["ok", "ok"]
    assert [r[-1] for r in rows if r[1] == "w2"] == ["worse"]

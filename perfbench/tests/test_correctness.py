"""A wrong output is counted as a failed op, never ignored."""

import pytest

from harness import Tracer
from model_cold import ModelCold
from serve_loads import ServePlain, same_value


def test_wrong_expected_value_counts_as_failed():
    workload = ServePlain(2014, smoke=True)
    workload.setup()
    try:
        good = workload.round(Tracer(False))
        assert good.failed == 0 and workload.checked > 0 and workload.verify() == 0
        # The next round's outputs against a deliberately wrong expectation.
        before = workload.checked
        workload.expect = lambda spec: "not what the engines return"
        bad = workload.round(Tracer(False))
        assert bad.failed == workload.checked - before > 0
    finally:
        workload.teardown()


def test_same_value_is_exact():
    from workloads import design_space

    point = design_space()[0]
    direct = point.evaluate()
    assert same_value("estimate", point.evaluate(), direct)
    nudged = point.evaluate()
    nudged.time_s *= 1.0 + 1e-15
    assert not same_value("estimate", nudged, direct)


def test_wrong_checksum_fails_the_whole_leg():
    workload = ModelCold(2014, smoke=True)
    workload.setup()
    first = workload.round(Tracer(False))
    assert first.failed == 0
    workload.sums["machine.estimate"] = "a checksum these results cannot have"
    second = workload.round(Tracer(False))
    assert second.failed == len(workload.estimate_points)


def test_an_error_every_variant_shares_is_caught_by_the_reference_trajectory():
    from kernel_level import DT, KernelLevel

    workload = KernelLevel(2014, smoke=True)
    workload.setup()
    try:
        workload.round(Tracer(False))
        assert workload.verify() == 0
        # One step too many in every leg: the variants still agree bit for
        # bit and every box still matches reference_kernel.
        for leg in workload.legs:
            leg.integrator.step(DT)
        assert workload.verify() >= sum(leg.cells for leg in workload.legs)
    finally:
        workload.teardown()


def test_composed_cluster_sweep_gives_the_public_sweep_s_rows():
    from cluster_sweep import _composed_sweep, _count_different, _public_sweep, _sweep_plan

    plan = _sweep_plan(smoke=True)
    composed, _ = _composed_sweep(plan, Tracer(True))
    public, _ = _public_sweep(plan)
    assert len(composed) == len(public) == len(plan)
    assert _count_different(composed, public) == 0
    name = next(iter(composed[0]["variants"]))
    composed[0]["variants"][name]["step_s"] *= 2.0
    assert _count_different(composed, public) == len(public[0]["variants"])


def test_only_an_idle_layer_may_read_zero():
    from run import declared_metrics

    declared = [{"name": "a.busy_us", "unit": "us"}, {"name": "b.idle_share", "unit": "ratio"}]
    got = declared_metrics(declared, {"a.busy_us": 3.5}, {"b.idle_share"}, "w")
    assert got == {"a.busy_us": {"value": 3.5, "unit": "us"},
                   "b.idle_share": {"value": 0, "unit": "ratio"}}
    with pytest.raises(SystemExit, match="did not report a.busy_us"):
        declared_metrics(declared, {}, {"b.idle_share"}, "w")
    with pytest.raises(SystemExit, match="not declared"):
        declared_metrics(declared, {"a.busy_us": 1.0, "c.new": 2.0}, {"b.idle_share"}, "w")

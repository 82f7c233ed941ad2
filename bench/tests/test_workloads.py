"""Inputs are a function of the seed; the accounting matches the issue."""

import pytest

import workloads


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in ("fig4_cold", "tiny_tasks_cold"):
        assert workloads.cold_spec(name, 7) == workloads.cold_spec(name, 7)
        assert workloads.cold_spec(name, 7)["seed"] == 7
        assert workloads.cold_spec(name, 7) != workloads.cold_spec(name, 8)
    assert workloads.warm_plan(7) == workloads.warm_plan(7)
    assert workloads.warm_plan(7) != workloads.warm_plan(8)
    assert workloads.cg3d_plan(7)["seed"] == 7
    assert all(spec["seed"] == 7
               for spec in workloads.warm_plan(7)["phase_a"])


def test_sampled_ns_and_task_counts():
    fig4 = workloads.cold_spec("fig4_cold", 2005)
    assert workloads.spec_tasks(fig4) == 48
    assert workloads.spec_sampled_ns(fig4) == pytest.approx(81.6)
    tiny = workloads.cold_spec("tiny_tasks_cold", 2005)
    assert workloads.spec_tasks(tiny) == 1024
    assert workloads.spec_sampled_ns(tiny) == pytest.approx(5.12)
    assert workloads.cg3d_sampled_ns(
        workloads.cg3d_plan(2005)) == pytest.approx(0.36)
    phase_a = workloads.warm_plan(2005)["phase_a"]
    assert [workloads.spec_tasks(s) for s in phase_a] == [512, 256] * 3
    assert sum(workloads.spec_sampled_ns(s)
               for s in phase_a) == pytest.approx(11.52)


def test_phase_a_differs_from_the_prefill_in_estimator_only():
    plan = workloads.warm_plan(2005)
    assert len({(s["estimator"], s["n_samples"])
                for s in plan["phase_a"]}) == 6
    for spec in plan["phase_a"]:
        assert spec["estimator"] != plan["prefill"].get(
            "estimator", "exponential")
        physics = {k: v for k, v in spec.items()
                   if k not in ("estimator", "n_samples")}
        assert physics == {k: v for k, v in plan["prefill"].items()
                           if k != "n_samples"}
        assert spec["n_samples"] <= plan["prefill"]["n_samples"]


def test_smoke_scale_is_smaller_in_size_not_in_shape():
    for name in ("fig4_cold", "tiny_tasks_cold"):
        full = workloads.cold_spec(name, 1)
        smoke = workloads.cold_spec(name, 1, smoke=True)
        assert smoke.keys() == full.keys()
        assert workloads.spec_tasks(smoke) < workloads.spec_tasks(full)
    assert set(workloads.WORKLOADS) == {
        "fig4_cold", "tiny_tasks_cold", "warm_service", "cg3d_pull"}

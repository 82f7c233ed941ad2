"""BENCHMARK.json keeps to the builder's limits; the validator bites."""

import copy
import re

import pytest

import contract
import tracer
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def document():
    return contract.load_benchmark()


def test_document_form(document):
    assert set(document) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert document["paths"] == ["bench"]
    assert document["command"] == ["python3", "bench/run.py"]
    assert isinstance(document["run_seconds"], int)
    assert 1 <= document["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in document["workloads"]} == \
        workloads.WORKLOADS
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in document["workloads"])
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in document[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = contract.metric_table(document, trace=False)["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_budget_fits_the_driver_s_cap(document):
    runs = 4 + 22 * len(document["workloads"])
    # A run may overshoot its budget by the set-up top-ups (a few seconds).
    assert runs * (document["run_seconds"] + 4) <= 3420


def test_every_traced_family_is_declared(document):
    declared = contract.metric_table(document, trace=True)
    for family in tracer.FAMILIES:
        assert f"{family}.calls" in declared
    for name in contract.WARM_ONLY:
        assert declared[name]["unit"] == contract.WARM_ONLY[name]["unit"]


def good_line(document, trace):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": 1.5, "unit": decl["unit"]}
                        for name, decl in
                        contract.metric_table(document, trace).items()}}


@pytest.mark.parametrize("trace", [False, True])
def test_validator_accepts_a_complete_line(document, trace):
    assert contract.validate_result(good_line(document, trace),
                                    document, trace) == []


def test_validator_rejects_missing_metric_unit_and_keys(document):
    line = good_line(document, False)
    broken = copy.deepcopy(line)
    del broken["metrics"]["campaign_s"]
    assert contract.validate_result(broken, document, False) == [
        "metric 'campaign_s' is missing"]
    broken = copy.deepcopy(line)
    del broken["metrics"]["setup_s"]["unit"]
    assert "lacks exactly value and unit" in contract.validate_result(
        broken, document, False)[0]
    broken = copy.deepcopy(line)
    broken["metrics"]["setup_s"]["unit"] = "ms"
    assert "has unit 'ms'" in contract.validate_result(
        broken, document, False)[0]
    broken = copy.deepcopy(line)
    broken["metrics"]["extra"] = {"value": 1.0, "unit": "s"}
    assert contract.validate_result(broken, document, False) == [
        "metric 'extra' is not declared"]
    broken = copy.deepcopy(line)
    broken["metrics"]["setup_s"]["value"] = 0
    assert "is 0" in contract.validate_result(broken, document, False)[0]
    broken = copy.deepcopy(line)
    broken["attempted"] = 0
    assert "'attempted'" in contract.validate_result(
        broken, document, False)[0]
    broken = copy.deepcopy(line)
    broken["workload"] = "fig4_cold"
    assert "keys are" in contract.validate_result(
        broken, document, False)[0]
    # A per-layer line may hold zeros: md.* is 0 on the service workloads.
    traced = good_line(document, True)
    traced["metrics"]["md.simulation.step.calls"]["value"] = 0
    assert contract.validate_result(traced, document, True) == []

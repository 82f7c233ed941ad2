"""Benchmark harness: CLI smoke run, document validation, malformed output.

The BENCH documents are consumed by CI (which fails on malformed output)
and by PERFORMANCE.md readers, so validation must be strict and the CLI
must refuse to write anything that does not validate.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import AnalysisError
from repro.perf import (
    SCHEMA_ADAPTIVE,
    SCHEMA_KERNELS,
    load_bench_document,
    time_call,
    validate_bench_document,
    write_bench_document,
)


def kernels_doc():
    """A minimal valid kernels document."""
    return {
        "schema": SCHEMA_KERNELS,
        "quick": True,
        "seed": 1,
        "system": {"n_particles": 10},
        "step_rate": {
            "reference": {"steps_per_s": 10.0},
            "vectorized": {"steps_per_s": 100.0},
            "speedup": 10.0,
        },
        "neighbor_rebuild": {
            "reference": {"build_s": 1.0},
            "vectorized": {"build_s": 0.1},
            "speedup": 10.0,
            "candidate_pairs": 42,
        },
        "metrics": {},
    }


class TestValidation:
    def test_valid_documents_pass(self):
        assert validate_bench_document(kernels_doc()) is not None

    def test_not_a_dict(self):
        with pytest.raises(AnalysisError, match="not a JSON object"):
            validate_bench_document([1, 2])

    def test_unknown_schema(self):
        doc = kernels_doc()
        doc["schema"] = "repro.bench.gpu/v9"
        with pytest.raises(AnalysisError, match="unknown schema"):
            validate_bench_document(doc)

    def test_missing_key(self):
        doc = kernels_doc()
        del doc["step_rate"]
        with pytest.raises(AnalysisError, match="step_rate"):
            validate_bench_document(doc)

    def test_nonpositive_rate(self):
        doc = kernels_doc()
        doc["step_rate"]["vectorized"]["steps_per_s"] = 0.0
        with pytest.raises(AnalysisError, match="steps_per_s"):
            validate_bench_document(doc)

    def test_rate_wrong_type(self):
        doc = kernels_doc()
        doc["step_rate"]["vectorized"]["steps_per_s"] = "fast"
        with pytest.raises(AnalysisError, match="positive number"):
            validate_bench_document(doc)

    def test_write_refuses_malformed(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        doc = kernels_doc()
        del doc["metrics"]
        with pytest.raises(AnalysisError):
            write_bench_document(str(path), doc)
        assert not path.exists()

    def test_load_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError, match="cannot read"):
            load_bench_document(str(path))

    def test_load_rejects_malformed_document(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps({"schema": SCHEMA_KERNELS}))
        with pytest.raises(AnalysisError):
            load_bench_document(str(path))


class TestTimeCall:
    def test_returns_timing(self):
        t = time_call(lambda: sum(range(100)), repeats=2)
        assert t.best_s > 0.0
        assert t.mean_s >= t.best_s
        assert t.repeats == 2

    def test_bad_repeats(self):
        with pytest.raises(AnalysisError):
            time_call(lambda: None, repeats=0)


class TestCliBench:
    def test_quick_bench_writes_valid_documents(self, tmp_path, capsys):
        out_dir = tmp_path / "fresh"    # --out-dir need not exist yet
        code = main(["bench", "--quick", "--out-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "steps/s" in out and "deterministic: True" in out

        kernels = load_bench_document(str(out_dir / "BENCH_kernels.json"))
        assert kernels["quick"] is True
        # The full-size acceptance floor is 3x; at quick scale the measured
        # margin is ~10x, so >2x here keeps the test robust on loaded CI.
        assert kernels["step_rate"]["speedup"] > 2.0

        adaptive = load_bench_document(str(out_dir / "BENCH_adaptive.json"))
        assert adaptive["schema"] == "repro.bench.adaptive/v1"
        assert adaptive["deterministic"] is True
        for point in adaptive["points"]:
            assert point["adaptive_error"] <= point["uniform_error"]
        assert "adaptive allocation" in out
        assert sorted(os.listdir(out_dir)) == [
            "BENCH_adaptive.json", "BENCH_kernels.json"]


def adaptive_doc():
    """A minimal valid adaptive document."""
    return {
        "schema": SCHEMA_ADAPTIVE,
        "quick": True,
        "seed": 1,
        "workload": {"n_bins": 4, "pilot_per_bin": 4},
        "determinism_budget": 40,
        "points": [{
            "budget": 24,
            "adaptive_error": 3.1,
            "uniform_error": 3.4,
            "adaptive_cpu_hours": 6480.0,
            "uniform_cpu_hours": 6480.0,
            "allocations": [6, 6, 6, 6],
        }],
        "deterministic": True,
        "metrics": {},
    }


class TestAdaptiveValidation:
    def test_valid_document_passes(self):
        assert validate_bench_document(adaptive_doc()) is not None

    def test_losing_to_uniform_is_rejected(self):
        """The cost-to-accuracy claim is enforced by the validator: a
        point where adaptive allocation does worse than uniform at the
        same budget must not be writable."""
        doc = adaptive_doc()
        doc["points"][0]["adaptive_error"] = 3.5
        with pytest.raises(AnalysisError, match="loses to uniform"):
            validate_bench_document(doc)

    def test_exact_tie_is_admissible(self):
        doc = adaptive_doc()
        doc["points"][0]["adaptive_error"] = doc["points"][0][
            "uniform_error"]
        assert validate_bench_document(doc) is not None

    def test_digest_divergence_is_rejected(self):
        doc = adaptive_doc()
        doc["deterministic"] = False
        with pytest.raises(AnalysisError, match="digests diverged"):
            validate_bench_document(doc)

    def test_empty_points_rejected(self):
        doc = adaptive_doc()
        doc["points"] = []
        with pytest.raises(AnalysisError, match="points"):
            validate_bench_document(doc)

    def test_workload_needs_bin_structure(self):
        doc = adaptive_doc()
        del doc["workload"]["n_bins"]
        with pytest.raises(AnalysisError, match="n_bins"):
            validate_bench_document(doc)

"""Benchmark harness: CLI smoke run, document validation, malformed output.

The BENCH document is consumed by CI (which fails on malformed output)
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
    load_bench_document,
    validate_bench_document,
    write_bench_document,
)


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


class TestValidation:
    def test_valid_documents_pass(self, tmp_path):
        path = tmp_path / "BENCH_adaptive.json"
        write_bench_document(str(path), adaptive_doc())
        assert load_bench_document(str(path)) == adaptive_doc()

    def test_not_a_dict(self):
        with pytest.raises(AnalysisError, match="not a JSON object"):
            validate_bench_document([1, 2])

    def test_unknown_schema(self):
        doc = adaptive_doc()
        doc["schema"] = "repro.bench.gpu/v9"
        with pytest.raises(AnalysisError, match="unknown schema"):
            validate_bench_document(doc)

    def test_missing_key(self):
        doc = adaptive_doc()
        del doc["points"]
        with pytest.raises(AnalysisError, match="points"):
            validate_bench_document(doc)

    def test_nonpositive_rate(self):
        doc = adaptive_doc()
        doc["points"][0]["adaptive_cpu_hours"] = 0.0
        with pytest.raises(AnalysisError, match="adaptive_cpu_hours"):
            validate_bench_document(doc)

    def test_rate_wrong_type(self):
        doc = adaptive_doc()
        doc["points"][0]["uniform_cpu_hours"] = "lots"
        with pytest.raises(AnalysisError, match="positive number"):
            validate_bench_document(doc)
        doc = adaptive_doc()
        doc["quick"] = "yes"
        with pytest.raises(AnalysisError, match="'quick' must be"):
            validate_bench_document(doc)

    def test_write_refuses_malformed(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        doc = adaptive_doc()
        del doc["metrics"]
        with pytest.raises(AnalysisError):
            write_bench_document(str(path), doc)
        assert not path.exists()

    def test_load_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "BENCH_adaptive.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError, match="cannot read"):
            load_bench_document(str(path))

    def test_load_rejects_malformed_document(self, tmp_path):
        path = tmp_path / "BENCH_adaptive.json"
        path.write_text(json.dumps({"schema": SCHEMA_ADAPTIVE}))
        with pytest.raises(AnalysisError):
            load_bench_document(str(path))


class TestCliBench:
    def test_quick_bench_writes_valid_documents(self, tmp_path, capsys):
        out_dir = tmp_path / "fresh"    # --out-dir need not exist yet
        code = main(["bench", "--quick", "--out-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "deterministic: True" in out and "adaptive allocation" in out
        assert "steps/s" not in out
        assert sorted(os.listdir(out_dir)) == ["BENCH_adaptive.json"]

        adaptive = load_bench_document(str(out_dir / "BENCH_adaptive.json"))
        assert adaptive["schema"] == "repro.bench.adaptive/v1"
        assert adaptive["quick"] is True
        assert adaptive["deterministic"] is True
        for point in adaptive["points"]:
            assert point["adaptive_error"] <= point["uniform_error"]

    def test_quick_run_keeps_a_full_scale_document(self, tmp_path, capsys):
        """The committed trajectory is a full-scale run; a --quick run
        pointed at it refuses (exit 1, naming the file) and leaves it be."""
        path = tmp_path / "BENCH_adaptive.json"
        path.write_text('{"quick": false, "points": []}\n')
        code = main(["bench", "--quick", "--out-dir", str(tmp_path)])
        assert code == 1
        assert str(path) in capsys.readouterr().err
        assert path.read_text() == '{"quick": false, "points": []}\n'


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

    def test_point_must_be_an_object(self):
        doc = adaptive_doc()
        doc["points"] = [24]
        with pytest.raises(AnalysisError, match="point is not an object"):
            validate_bench_document(doc)

    def test_workload_needs_bin_structure(self):
        doc = adaptive_doc()
        del doc["workload"]["n_bins"]
        with pytest.raises(AnalysisError, match="n_bins"):
            validate_bench_document(doc)

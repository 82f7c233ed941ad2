"""The whole ladder at ``--smoke`` scale, through the real command line."""

import json
import os
import subprocess
import sys
import time

import contract

RUN = os.path.join(contract.BENCH_DIR, "run.py")


def run_bench(tmp_path, *args):
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--scratch", str(tmp_path / "s"),
         *args],
        capture_output=True, text=True, timeout=120, cwd=str(tmp_path))
    return done, time.monotonic() - started


def test_all_four_workloads_smoke(tmp_path):
    out = tmp_path / "out.json"
    done, elapsed = run_bench(tmp_path, "--seconds", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert elapsed < 60
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    benchmark = contract.load_benchmark()
    for workload in benchmark["workloads"]:
        for metric in benchmark["end_to_end"]:
            entry = line["metrics"][f"{workload['name']}.{metric['name']}"]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0
    doc = json.loads(out.read_text())
    assert [r["workload"] for r in doc["runs"]] == [
        w["name"] for w in benchmark["workloads"]]
    assert doc["env"]["nproc"] >= 1 and doc["env"]["scratch_fs"]
    warm = doc["runs"][2]
    assert set(contract.WARM_ONLY) <= set(warm["metrics"])
    assert warm["counts"]["store.writes"] == 0
    assert warm["counts"]["store.hits"] == 3 * (32 + 16)
    assert not os.listdir(tmp_path / "s")  # every store was removed


def test_one_traced_run_prints_the_per_layer_line(tmp_path):
    done, _elapsed = run_bench(tmp_path, "--workload", "tiny_tasks_cold",
                               "--trace", "1", "--seed", "11")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    benchmark = contract.load_benchmark()
    assert contract.validate_result(line, benchmark, trace=True) == []
    value = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert value["smd.ensemble.run_pulling_ensemble.calls"] == 64
    assert value["store.sharded.put.calls"] == 64
    assert value["io.fsync.calls"] >= 3 * 64
    assert value["md.simulation.step.calls"] == 0
    assert value["bench.trace_missing_targets"] == 0
    assert 0.9 <= value["bench.layer_sum_frac"] <= 1.1


def test_refuses_a_directory_without_the_program(tmp_path):
    import shutil

    shutil.copytree(contract.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(contract.REPO_ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig4_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""

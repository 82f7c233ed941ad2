"""The repo's benchmark: submit -> PMF over four workloads, layer by layer.

    python3 bench/run.py --workload fig4_cold --seed 7 --seconds 30 --trace 0

is one *run*: for ``--seconds`` seconds it starts fresh child processes
(``child.py``), one at a time, each doing one repeat of the workload;
checks their outputs; and prints every metric by name and unit, the last
line of stdout being one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, always from untraced repeats; with ``--trace 1`` the
run is one untraced and one traced repeat and the metrics are the
per-layer ones.

Without ``--workload`` all four run, round-robin, ``--repeats`` runs each
on seeds ``--seed``, ``--seed``+1, ...; ``--out`` keeps every run (and,
traced, every span) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

import contract
import stats
import workloads
from hostprobe import CLOCK, HostProbe, wall_s

OUT_SCHEMA = "repro.bench.ladder/v1"
CHILD = os.path.join(contract.BENCH_DIR, "child.py")
EXPECTED_DIR = os.path.join(contract.BENCH_DIR, "expected")

#: Output references are compared like the repo's golden files.
ATOL = 1e-8

#: Set-up samples a run reports the median of; topped up with children
#: that only set up when the repeats were fewer.
SETUP_SAMPLES = 3

#: A child is killed after this long (the driver allows a run 180 s).
CHILD_TIMEOUT_S = 150.0


# -- one child ------------------------------------------------------------------


def spawn_child(workload: str, seed: int, scratch: str, *,
                traced: bool = False, spans: bool = False,
                setup_only: bool = False, smoke: bool = False
                ) -> Dict[str, Any]:
    """Run one child to its end; its document, or ``{"crashed": why}``."""
    command = [sys.executable, CHILD, "--workload", workload,
               "--seed", str(seed), "--scratch", scratch,
               "--traced", str(int(traced)), "--spans", str(int(spans)),
               "--t0", repr(CLOCK())]
    if setup_only:
        command.append("--setup-only")
    if smoke:
        command.append("--smoke")
    started = CLOCK()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"child exceeded {CHILD_TIMEOUT_S:.0f} s",
                "process_s": CLOCK() - started}
    process_s = CLOCK() - started
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"crashed": f"child exited {done.returncode}: {tail[0]}",
                "process_s": process_s}
    try:
        doc = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"crashed": "child printed no result", "process_s": process_s}
    doc["process_s"] = process_s
    return doc


# -- one run --------------------------------------------------------------------


def run_once(workload: str, seed: int, seconds: float, probe: HostProbe, *,
             trace: bool, scratch: str, smoke: bool = False,
             keep_spans: bool = False) -> Dict[str, Any]:
    """One run of one workload: repeats, checks, metrics."""
    started = CLOCK()
    load_before = os.getloadavg()[0]
    children: List[Dict[str, Any]] = []

    def spawn(**options: Any) -> Dict[str, Any]:
        doc = spawn_child(workload, seed, scratch, smoke=smoke, **options)
        children.append(doc)
        return doc

    untraced = [spawn()]
    traced = None
    if trace:
        traced = spawn(traced=True, spans=keep_spans)
    else:
        # Another repeat only while it, and the set-ups still owed, are
        # expected to end within the budget.
        while "crashed" not in untraced[-1]:
            longest = max(c["process_s"] for c in untraced)
            setup = max(wall_s(c["setup"]) for c in untraced)
            owed = max(0, SETUP_SAMPLES - len(untraced) - 1) * setup
            if CLOCK() - started + longest + owed > seconds:
                break
            untraced.append(spawn())
        for _ in range(SETUP_SAMPLES - len(untraced)):
            spawn(setup_only=True)

    failures = [c["crashed"] for c in children if "crashed" in c]
    alive = [c for c in children if "crashed" not in c]
    attempted = len(children) + sum(c.get("attempted", 0) for c in alive)
    for child in alive:
        failures.extend(child.get("failures", []))
    repeats = [c for c in untraced if "crashed" not in c]
    measured = repeats + ([traced] if traced and "crashed" not in traced
                          else [])

    # Same seed, same inputs: every repeat must have produced the same
    # bytes and made the same number of store operations.
    attempted += 1
    if any(c["outputs"] != measured[0]["outputs"]
           or c["counts"] != measured[0]["counts"] for c in measured[1:]):
        failures.append("repeats at one seed disagree on outputs or counts")
    reference = expected_outputs(workload, seed, smoke)
    if reference is not None and measured:
        attempted += 1
        if not close(measured[0]["outputs"], reference):
            failures.append(
                f"outputs differ from bench/expected/{workload}.json")

    run: Dict[str, Any] = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "smoke": smoke, "repeats": len(repeats),
        "attempted": attempted, "failed": len(failures),
        "failures": failures,
        "health": {
            "slowdown": [s for s in (
                probe.slowdown(c["region"]["start"], c["region"]["end"])
                for c in alive if "region" in c) if s],
            "probe_floor_s": probe.floor_s,
            "loadavg": [load_before, os.getloadavg()[0]],
        },
        "counts": measured[0]["counts"] if measured else {},
        "children": [
            {key: annotate(c[key], probe) for key in
             ("setup", "campaigns", "region", "phase_b", "phase_c")
             if key in c} for c in alive],
        "numpy": alive[0]["numpy"] if alive else None,
    }
    if repeats:
        run["samples"] = end_to_end_samples(workload, alive, repeats, probe)
        run["as_measured"] = {
            name: summarise(name, values) for name, values in
            end_to_end_samples(workload, alive, repeats, None).items()}
        run["metrics"] = {name: summarise(name, values)
                          for name, values in run["samples"].items()}
    if trace and traced and "crashed" not in traced and repeats:
        run["layers"] = dict(traced["layers"])
        run["layers"]["bench.trace_overhead_frac"] = (
            calibrated(traced["region"], probe)
            / calibrated(repeats[0]["region"], probe) - 1.0)
        run["layers"]["bench.host_slowdown"] = probe.slowdown(
            traced["region"]["start"], traced["region"]["end"]) or 1.0
        for name in contract.WARM_ONLY:
            run["layers"][name] = run["metrics"].get(
                name, {"median": 0.0})["median"]
        if keep_spans:
            run["spans"] = traced.get("spans", [])
    run["run_s"] = CLOCK() - started
    return run


#: Latency pools: the value is a percentile of all samples of all
#: repeats, not a median of per-repeat numbers.
POOLED = {"req_p50_ms": 50.0, "req_p90_ms": 90.0, "twin_submit_ms": 50.0}


def summarise(name: str, values: Sequence[float]) -> Dict[str, float]:
    if name not in POOLED:
        return stats.summary(values)
    q1, _median, q3 = stats.quartiles(values)
    return {"median": stats.percentile(values, POOLED[name]),
            "q1": q1, "q3": q3, "n": len(values)}


def calibrated(window: Dict[str, float], probe: Optional[HostProbe]
               ) -> float:
    """Seconds of one child's ``timed`` window at the host's undisturbed
    speed (as measured when ``probe`` is ``None``)."""
    slowdown = probe.slowdown(window["start"], window["end"]) \
        if probe else None
    return wall_s(window) / (slowdown or 1.0)


def annotate(windows: Any, probe: HostProbe) -> Any:
    """A child's window(s) with the host's slowdown over each, for
    ``--out``."""
    if isinstance(windows, list):
        return [annotate(w, probe) for w in windows]
    return dict(windows, slowdown=probe.slowdown(windows["start"],
                                                 windows["end"]))


def end_to_end_samples(workload: str, alive: Sequence[Dict[str, Any]],
                       repeats: Sequence[Dict[str, Any]],
                       probe: Optional[HostProbe]) -> Dict[str, List[float]]:
    """Per metric, the samples its reported value is taken from."""
    samples: Dict[str, List[float]] = {
        "setup_s": [calibrated(c["setup"], probe) for c in alive],
        "campaign_s": [], "sampled_ns_per_s": [], "tasks_per_s": [],
        "peak_rss_mb": [c["peak_rss_mb"] for c in repeats],
    }
    for child in repeats:
        campaigns = child["campaigns"]
        seconds = [calibrated(c, probe) for c in campaigns]
        # warm_service reports its full-size campaigns (the half-size
        # ones still count towards the two throughput metrics).
        largest = max(c["tasks"] for c in campaigns)
        samples["campaign_s"].append(statistics.median(
            s for s, c in zip(seconds, campaigns) if c["tasks"] == largest))
        samples["sampled_ns_per_s"].append(
            sum(c["sampled_ns"] for c in campaigns) / sum(seconds))
        samples["tasks_per_s"].append(
            sum(c["tasks"] for c in campaigns) / sum(seconds))
    if workload == "warm_service":
        for name in ("req_p50_ms", "req_p90_ms", "requests_per_s",
                     "twin_submit_ms"):
            samples[name] = []
        for child in repeats:
            phase_b = calibrated(child["phase_b"], probe)
            scale_b = phase_b / wall_s(child["phase_b"])
            pool = [ms * scale_b for values in child["requests_ms"].values()
                    for ms in values]
            samples["req_p50_ms"].extend(pool)
            samples["requests_per_s"].append(len(pool) / phase_b)
            scale_c = (calibrated(child["phase_c"], probe)
                       / wall_s(child["phase_c"]))
            samples["twin_submit_ms"].extend(
                ms * scale_c for ms in child["twins_ms"])
        samples["req_p90_ms"] = samples["req_p50_ms"]
    return samples


# -- output checks --------------------------------------------------------------


def expected_outputs(workload: str, seed: int, smoke: bool) -> Optional[Any]:
    """The committed reference, which exists for the default seed at full
    scale; other seeds are checked for self-consistency only."""
    if smoke or seed != workloads.DEFAULT_SEED:
        return None
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)["outputs"]


def close(got: Any, want: Any) -> bool:
    """Same structure and strings; numbers within ``ATOL``."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            close(g, w) for g, w in zip(got, want))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return isinstance(got, (int, float)) and abs(got - want) <= ATOL
    return got == want


# -- reporting ------------------------------------------------------------------


def result_line(run: Dict[str, Any], benchmark: Dict[str, Any]
                ) -> Dict[str, Any]:
    """The driver's object for one run: exactly the declared metrics."""
    trace = bool(run["trace"])
    declared = contract.metric_table(benchmark, trace)
    if trace:
        values = run.get("layers", {})
    else:
        values = {name: entry["median"]
                  for name, entry in run.get("metrics", {}).items()}
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": decl["unit"]}
                    for name, decl in declared.items() if name in values},
    }


def print_run(run: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    units = {name: decl["unit"] for name, decl in
             contract.gated_metrics(benchmark, run["workload"]).items()}
    print(f"{run['workload']} seed={run['seed']} repeats={run['repeats']} "
          f"run={run['run_s']:.1f}s attempted={run['attempted']} "
          f"failed={run['failed']}")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")
    for name, entry in run.get("metrics", {}).items():
        thin = name in POOLED and POOLED[name] > (
            stats.highest_percentile(entry["n"]) or 0.0)
        print(f"  {name:<22}{entry['median']:>14.6g} {units[name]:<6}"
              f"q1={entry['q1']:.6g} q3={entry['q3']:.6g} n={entry['n']} "
              f"(as measured {run['as_measured'][name]['median']:.6g})"
              + (" [fewer than 10 samples beyond this percentile]"
                 if thin else ""))
    if run["trace"] and "layers" in run:
        layer_units = {name: decl["unit"] for name, decl in
                       contract.metric_table(benchmark, True).items()}
        for name, value in run["layers"].items():
            if value and name not in contract.WARM_ONLY:
                print(f"  {name:<48}{value:>14.6g} "
                      f"{layer_units.get(name, '')}")
    slowdown = run["health"]["slowdown"]
    if slowdown:
        print("  host ran the measured regions "
              + ", ".join(f"{s:.2f}x" for s in slowdown)
              + " slower than its fastest probe unit")


def environment(scratch: str) -> Dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "scratch": scratch,
        "scratch_fs": filesystem_type(scratch),
        "loadavg": list(os.getloadavg()),
    }


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path`` (fsync cost depends on
    it: tmpfs makes every durable write free)."""
    real = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _dev, mount, fstype = line.split()[:3]
                prefix = mount.rstrip("/") + "/"
                if (real + "/").startswith(prefix) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    The interpreter lock serialises the service's threads anyway, but on
    two CPUs their hand-offs are bimodal: the campaign worker releases the
    lock around every per-step ``rng.standard_normal`` call, a handler
    thread woken on the *other* CPU arrives after the worker has taken the
    lock back, and so waits out the 5 ms switch interval for each of its
    dozens of acquisitions while the worker pays a futex wake per step.
    Measured here: ``fig4_cold`` takes 8 s or 17 s, flipping for about a
    minute after a few thousand loopback connections.  On one CPU the
    woken thread pre-empts the worker and takes the lock at once, which is
    the fast mode, every time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# -- entry ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time budget of one run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced repeat, "
                             "reporting the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, on consecutive seeds")
    parser.add_argument("--scratch", default=".bench_scratch",
                        help="directory for the stores (its filesystem "
                             "sets the fsync cost)")
    parser.add_argument("--out", help="write every run to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the harness, not the "
                             "program's speed")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(contract.REPO_ROOT, "src", "repro")):
        print("bench/run.py: src/repro not found next to bench/; the "
              "benchmark measures the program in this checkout",
              file=sys.stderr)
        return 2
    benchmark = contract.load_benchmark()
    seconds = args.seconds if args.seconds is not None \
        else float(benchmark["run_seconds"])
    scratch = os.path.abspath(args.scratch)
    os.makedirs(scratch, exist_ok=True)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)

    env = environment(scratch)  # before the pinning narrows nproc
    pin_to_one_cpu()
    probe = HostProbe()
    probe.start()
    runs = []
    try:
        for repeat in range(args.repeats):
            for name in names:  # round-robin: drift hits every workload alike
                run = run_once(name, args.seed + repeat, seconds, probe,
                               trace=bool(args.trace), scratch=scratch,
                               smoke=args.smoke, keep_spans=bool(args.out))
                print_run(run, benchmark)
                runs.append(run)
    finally:
        probe.stop()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"schema": OUT_SCHEMA, "env": env, "runs": runs},
                      handle)
            handle.write("\n")

    if len(runs) == 1:
        line = result_line(runs[0], benchmark)
        defects = contract.validate_result(line, benchmark,
                                           bool(args.trace))
    else:
        # Several runs: one line all the same, each metric under its
        # workload's name, at the median over that workload's runs.
        lines = [(run["workload"], result_line(run, benchmark))
                 for run in runs]
        merged: Dict[str, Dict[str, Any]] = {}
        for name in names:
            mine = [line for workload, line in lines if workload == name]
            for metric, entry in mine[0]["metrics"].items():
                merged[f"{name}.{metric}"] = {
                    "value": statistics.median(
                        line["metrics"][metric]["value"] for line in mine
                        if metric in line["metrics"]),
                    "unit": entry["unit"]}
        line = {"correct": all(item["correct"] for _, item in lines),
                "attempted": sum(item["attempted"] for _, item in lines),
                "failed": sum(item["failed"] for _, item in lines),
                "metrics": merged}
        defects = [f"{workload}: {defect}" for workload, item in lines
                   for defect in contract.validate_result(
                       item, benchmark, bool(args.trace))]
    if defects:
        for defect in defects:
            print(f"bench/run.py: {defect}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

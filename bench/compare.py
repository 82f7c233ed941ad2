"""Compare two sets of runs written by ``run.py --out``.

    python3 bench/compare.py PARENT.json CHANGE.json

For every workload and bounded metric it pairs the i-th run of each side
and prints one verdict, each ratio with its base:

* ``improved``  — the change wins at least nine tenths of ten or more
  pairs (ties count for neither) and the medians differ by more than the
  distance between the parent's own quartiles;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound, and the noise does not explain it;
* ``no-worse``  — within the bound, with noise inside the bound too;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, so the numbers can show neither ``no-worse`` nor
  ``regressed`` (unless every run of one side beats every run of the
  other).

The values compared are the calibrated ones ``run.py`` reports, so the
host's own slowdown is already taken out of them; its spread across the
runs is printed per workload as a note on how rough the host was.

It also checks that both sides passed their output checks and that the
exact counts (store operations; fsyncs in traced runs) are identical at
equal seeds.  Exit code 1 on any ``regressed`` or count mismatch.  Two
sets of runs of one commit are expected to print no ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

import contract
import stats

#: Traced counters that must repeat exactly at one seed.
EXACT_LAYER_COUNTS = ("io.fsync.calls", "store.sharded.put.calls",
                      "store.sharded.get.calls",
                      "smd.ensemble.run_pulling_ensemble.calls")

MIN_PAIRS_FOR_A_GAIN = 10


def verdict(parent: Sequence[float], change: Sequence[float], *,
            better: str, bound: float) -> Tuple[str, Dict[str, float]]:
    """The section-8 rule for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # >0 means "got worse"
    base = statistics.median(parent)
    new = statistics.median(change)
    worse = sign * (new - base) / base
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    q1, _median, q3 = stats.quartiles(parent)
    noise = max(stats.spread(parent), stats.spread(change))
    all_better = max(sign * b for b in change) < min(sign * a for a in parent)
    all_worse = min(sign * b for b in change) > max(sign * a for a in parent)
    facts = {"parent": base, "change": new, "worse": worse, "wins": wins,
             "pairs": len(pairs), "noise": noise}
    if (len(pairs) >= MIN_PAIRS_FOR_A_GAIN and wins >= 0.9 * len(pairs)
            and worse < 0 and abs(new - base) > q3 - q1):
        return "improved", facts
    if worse > bound:
        return ("regressed" if noise <= bound or all_worse
                else "unresolved"), facts
    return ("no-worse" if noise <= bound or all_better
            else "unresolved"), facts


def untraced_runs(doc: Dict[str, Any], workload: str) -> List[Dict[str, Any]]:
    return [r for r in doc["runs"]
            if r["workload"] == workload and not r["trace"]
            and "metrics" in r]


def slowdown_spread(runs: Sequence[Dict[str, Any]]) -> float:
    """Spread, across runs, of each run's median host slowdown."""
    medians = [statistics.median(r["health"]["slowdown"]) for r in runs
               if r["health"]["slowdown"]]
    return stats.spread(medians) if len(medians) > 1 else 0.0


def count_mismatches(parent: Dict[str, Any], change: Dict[str, Any]
                     ) -> List[str]:
    out = []
    theirs = {(r["workload"], r["seed"], r["trace"]): r
              for r in change["runs"]}
    for run in parent["runs"]:
        key = (run["workload"], run["seed"], run["trace"])
        other = theirs.get(key)
        if other is None:
            continue
        if run["counts"] != other["counts"]:
            out.append(f"{key}: counts {run['counts']} != {other['counts']}")
        for name in EXACT_LAYER_COUNTS:
            mine = run.get("layers", {}).get(name)
            yours = other.get("layers", {}).get(name)
            if mine != yours:
                out.append(f"{key}: {name} {mine} != {yours}")
    return out


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    parent, change = docs
    benchmark = contract.load_benchmark()
    status = 0
    for side, doc in (("parent", parent), ("change", change)):
        for run in doc["runs"]:
            for failure in run["failures"]:
                print(f"{side} {run['workload']} seed {run['seed']}: "
                      f"FAILED {failure}")
                status = 1
    workloads_seen = list(dict.fromkeys(r["workload"]
                                        for r in parent["runs"]))
    for workload in workloads_seen:
        ours = untraced_runs(parent, workload)
        theirs = untraced_runs(change, workload)
        n = min(len(ours), len(theirs))
        if n == 0:
            continue
        print(f"{workload}: {n} pair(s), host slowdown spread "
              f"{slowdown_spread(ours[:n] + theirs[:n]):.1%}")
        for name, decl in contract.gated_metrics(benchmark,
                                                 workload).items():
            a = [r["metrics"][name]["median"] for r in ours[:n]]
            b = [r["metrics"][name]["median"] for r in theirs[:n]]
            word, facts = verdict(a, b, better=decl["better"],
                                  bound=decl["bound"])
            print(f"  {name:<18}{word:<11}"
                  f"parent {facts['parent']:.6g} {decl['unit']}, "
                  f"change {facts['change']:.6g} {decl['unit']} "
                  f"({facts['worse']:+.1%} of parent towards worse, "
                  f"bound {decl['bound']:.0%}); change wins "
                  f"{facts['wins']}/{facts['pairs']}; "
                  f"noise {facts['noise']:.1%}")
            if word == "regressed":
                status = 1
    for mismatch in count_mismatches(parent, change):
        print(f"COUNT MISMATCH {mismatch}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

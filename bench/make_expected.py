"""Regenerate ``bench/expected/<workload>.json`` (default seed, full scale).

    python3 bench/make_expected.py [--scratch DIR]

Run it only when a change is *meant* to alter the program's numbers; the
files are what ``run.py`` compares every seed-2005 run against, at 1e-8
like the repo's golden PMF files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scratch", default=".bench_scratch")
    args = parser.parse_args()
    scratch = os.path.abspath(args.scratch)
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(run.EXPECTED_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        child = run.spawn_child(name, workloads.DEFAULT_SEED, scratch)
        if "crashed" in child or child["failures"]:
            print(f"{name}: {child.get('crashed') or child['failures']}",
                  file=sys.stderr)
            return 1
        path = os.path.join(run.EXPECTED_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": workloads.DEFAULT_SEED,
                       "atol": run.ATOL, "outputs": child["outputs"]},
                      handle, indent=1)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the model outputs that every benchmark run is checked against.

Usage (from the repository root)::

    python3 perfbench/record.py --workload fleet-energy --seeds 1-5 101-110

For each seed, a fresh process sets the workload up and plays its first
round and the golden job, untimed; their outputs go to
``perfbench/expected.json`` under (workload, seed) and (workload,
"golden"). Record only from a program whose outputs are known to be
right: a later run of any code must reproduce these exactly.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run


def seed_list(ranges):
    seeds = []
    for item in ranges:
        low, _, high = item.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", required=True, help="e.g. 1-5 101-110")
    args = parser.parse_args(argv)
    try:
        expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    except FileNotFoundError:
        expected = {"golden": {}, "seeds": {}}
    by_seed = expected["seeds"].setdefault(args.workload, {})
    for seed in seed_list(args.seeds):
        child_args = argparse.Namespace(workload=args.workload, seed=seed, seconds=0)
        try:
            result = run.run_child(
                child_args, "record", "record", time.monotonic() + run.BUDGET_S
            )
        finally:
            shutil.rmtree(run.run_dir_of(child_args), ignore_errors=True)
        golden = expected["golden"].setdefault(args.workload, result["golden"])
        if golden != result["golden"]:
            print(f"record: seed {seed}: golden outputs differ from the recorded ones",
                  file=sys.stderr)
            return 1
        by_seed[str(seed)] = result["outputs"]
        print(f"record: {args.workload} seed {seed}", file=sys.stderr)
        run.EXPECTED.write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

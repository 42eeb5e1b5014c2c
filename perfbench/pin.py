"""Pin the output hashes of the workloads' simulation seeds in pins.json.

    python3 perfbench/pin.py --count 20

Runs one pass of every workload for each ``--seed`` in 0..count-1 and adds
the hashes of every simulation not yet pinned. A simulation that is already
pinned must reproduce its pin, or nothing is written: to re-pin after an
intended change of behaviour, delete its entries first and say why.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads as wl
from run import positive, run_pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=positive, required=True)
    args = parser.parse_args()
    missing = wl.missing_sources()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    cli, engine = wl.import_anttrack()
    pins = wl.load_pins()
    problems: list[str] = []
    try:
        for workload in wl.WORKLOADS.values():
            expected = {int(s): h for s, h in pins.get(workload.name, {}).items()}
            for seed in range(args.count):
                run_pass(workload, seed, cli, engine, expected, problems)
            pins[workload.name] = {str(s): expected[s] for s in sorted(expected)}
            print(f"{workload.name}: {len(expected)} simulations pinned", flush=True)
    finally:
        wl.remove_outputs()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if problems:
        return 1
    wl.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

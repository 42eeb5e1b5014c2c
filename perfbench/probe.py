"""Set-up probe: time an ``anttrack`` command's set-up in a fresh process.

    python3 perfbench/probe.py <src dir> run --scenario scenarios/default75.scn ...

Runs the command through ``anttrack.cli.main`` and stops it at tick 0, the
moment its first simulation would start. Prints the host seconds from before
``import anttrack`` to tick 0 (the import, scenario parsing, topology
generation and config validation of every simulation the command runs),
then the host seconds of the reference computation of calibrate.py, run
right after. Nothing but builtin modules is imported before the clock
starts, so the set-up pays for every import anttrack needs.
"""

import sys
import time


class ReachedTickZero(Exception):
    pass


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from anttrack import cli, engine

    reached = []

    def stop_at_tick_zero(config):
        reached.append(time.perf_counter())
        raise ReachedTickZero

    engine.run = stop_at_tick_zero
    try:
        cli.main(argv)
    except ReachedTickZero:
        pass
    if not reached:
        print(f"error: anttrack {' '.join(argv)} never reached tick 0", file=sys.stderr)
        return 1
    from calibrate import reference_seconds

    print(f"{reached[0] - start!r} {reference_seconds()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

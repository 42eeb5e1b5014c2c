"""Benchmark of anttrack: host time per simulated tick, set-up time and peak
memory on three workloads, and a traced per-layer split.

    python3 perfbench/run.py --workload run75 --seed 0 --seconds 20 --trace 0

``--workload`` is run75, sweep75, sparse1000 (see workloads.py for why each
was chosen) or ``all``, which runs each in its own process and prints every
metric. ``--seed`` picks the simulation seeds of the workload. The run drives
anttrack from outside, through ``anttrack.cli.main``, exactly as the
``anttrack run`` and ``anttrack sweep`` commands do, and repeats whole passes
over the workload, stopping at the pass that ends nearest to ``--seconds``.

Every simulated statistic is a correctness check, not a metric: each
simulation's output files must match the hashes pinned in pins.json, and a
seed without a pin must give byte-identical outputs each time it runs. A
simulation that raises or fails its check counts as failed.

``--trace 0`` reports, with tracing off:
  setup_s      median over fresh processes (probe.py) of the time from before
               ``import anttrack`` to tick 0;
  ms_per_tick  median over simulations of host ms per simulated tick, from
               tick 0 until the outputs are written (run) or the metrics are
               returned (sweep);
  peak_rss_mb  peak resident memory of this process, which ran only the
               workload.
Both times are host time corrected to a reference machine speed, because
the raw host time of a shared machine drifts far more than any change worth
measuring: see calibrate.py.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of tracer.py (counts per simulation, seconds per simulation as a
median over traced passes, in raw host time) and ``trace_overhead``, the
traced ms_per_tick over the untraced one, where the traced one is corrected
per simulation rather than per chunk, so that the reference computation stays
outside every span. The traced passes must reproduce the untraced output hashes
and repeat their counts exactly, and the per-simulation invariants must hold.

The last line of output is one JSON object: correct, attempted, failed
(simulations) and metrics. fail_share is failed / attempted. The exit code
is 0 only when every check passed; 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads as wl
from calibrate import REF_S, CalibratedTimer
from tracer import Tracer, is_timing, unit

SETUP_PROBES = 7


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> str:
    commit = "unknown"
    if (wl.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=wl.ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return f"nproc={os.cpu_count()} python={platform.python_version()} commit={commit}"


class SimClock:
    """Times each simulation from tick 0 at the reference speed of
    calibrate.py, by wrapping ``anttrack.engine.run`` while installed.

    A sweep's simulation ends when ``engine.run`` returns its metrics; a
    run's ends when ``cli.main`` returns with the outputs written, so
    run_pass closes it. With ``split``, each tick's call of
    ``engine.generate_tick_traffic`` may cut the timing into chunks; without
    it, or if that name is gone, a simulation is one chunk.
    """

    def __init__(self, engine, command: str, split: bool):
        self.engine = engine
        self.command = command
        self.split = split
        self.sims: list[tuple[int, CalibratedTimer]] = []
        self._open: CalibratedTimer | None = None
        self._saved: list[tuple[str, object]] = []

    def __enter__(self):
        engine = self.engine
        run = engine.run
        generate = getattr(engine, "generate_tick_traffic", None)

        def timed_run(config):
            timer = self._open = CalibratedTimer()
            self.sims.append((config.max_ticks, timer))
            result = run(config)
            if self.command == "sweep":
                self.close()
            return result

        def split_then_generate(*args, **kwargs):
            if self._open is not None:
                self._open.split()
            return generate(*args, **kwargs)

        self._saved = [("run", run)]
        engine.run = timed_run
        if self.split and generate is not None:
            self._saved.append(("generate_tick_traffic", generate))
            engine.generate_tick_traffic = split_then_generate
        return self

    def __exit__(self, *exc):
        for name, original in self._saved:
            setattr(self.engine, name, original)

    def close(self, end: float | None = None) -> None:
        if self._open is not None:
            self._open.stop(end)
            self._open = None


class Pass:
    """Outcome of one pass over a workload."""

    def __init__(self):
        self.ms_per_tick: list[float] = []
        self.hashes: list[tuple[int, dict[str, str]]] = []
        self.attempted = 0
        self.failed = 0


def run_pass(workload, seed, cli, engine, expected, problems, tracer=None) -> Pass:
    """Run every call of one pass, time each simulation and check its outputs
    against ``expected`` (pins, then the first run of each unpinned seed).
    With a tracer, the pass is traced and timed at simulation granularity."""
    result = Pass()
    shutil.rmtree(wl.OUT, ignore_errors=True)
    for argv, sims in workload.calls(seed, wl.OUT):
        result.attempted += len(sims)
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            with SimClock(engine, workload.command, split=tracer is None) as clock:
                try:
                    code = cli.main(argv)
                except Exception:
                    traceback.print_exc()
                    code = "an exception"
                clock.close(time.perf_counter())
        finally:
            if tracer is not None:
                tracer.uninstall()
        if code != 0 or len(clock.sims) != len(sims):
            problems.append(f"anttrack {' '.join(argv)}: exit {code}, "
                            f"{len(clock.sims)} of {len(sims)} simulations")
            result.failed += len(sims)
            continue
        for sim, (ticks, timer) in zip(sims, clock.sims):
            result.ms_per_tick.append(timer.seconds * 1000 / ticks)
            try:
                hashes = workload.output_hashes(wl.OUT, sim)
            except OSError as exc:
                problems.append(f"{workload.name} seed {sim}: {exc}")
                result.failed += 1
                continue
            result.hashes.append((sim, hashes))
            want = expected.setdefault(sim, hashes)
            if hashes != want:
                problems.append(f"{workload.name} seed {sim}: outputs {hashes}, expected {want}")
                result.failed += 1
    return result


def setup_seconds(workload, seed, problems) -> float:
    """Median set-up time, at the reference speed, over fresh processes."""
    argv, _ = workload.calls(seed, wl.OUT)[0]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(wl.HERE / "probe.py"), str(wl.SRC), *argv],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            problems.append(f"set-up probe failed: {proc.stderr.strip()}")
            return float("nan")
        setup, ref = map(float, proc.stdout.split())
        times.append(setup * REF_S / ref)
    return statistics.median(times)


def measure(workload, seed, seconds, problems):
    """Untraced run: the end-to-end metrics."""
    setup_s = setup_seconds(workload, seed, problems)
    cli, engine = wl.import_anttrack()
    expected = {int(s): h for s, h in wl.load_pins().get(workload.name, {}).items()}
    # whole passes, ending nearest to `seconds`; at least two if a seed has no
    # pin, so that its outputs can be checked against a second run
    min_passes = 1 if set(workload.sim_seeds(seed)) <= expected.keys() else 2
    ms, attempted, failed, passes = [], 0, 0, 0
    start = time.perf_counter()
    while passes < min_passes or (time.perf_counter() - start) * (passes + 0.5) / passes < seconds:
        done = run_pass(workload, seed, cli, engine, expected, problems)
        ms += done.ms_per_tick
        attempted += done.attempted
        failed += done.failed
        passes += 1
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{workload.name}: {passes} passes, {len(ms)} simulations timed")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ms_per_tick": (statistics.median(ms) if ms else float("nan"), "ms"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    return metrics, attempted, failed


def measure_traced(workload, seed, seconds, problems):
    """Traced run: the per-layer metrics and the tracing overhead."""
    cli, engine = wl.import_anttrack()
    tracer = Tracer()
    expected = {int(s): h for s, h in wl.load_pins().get(workload.name, {}).items()}
    plain_ms, traced_ms, per_pass = [], [], []
    attempted, failed = 0, 0
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        plain = run_pass(workload, seed, cli, engine, expected, problems)
        tracer.reset()
        traced = run_pass(workload, seed, cli, engine, expected, problems, tracer)
        if traced.hashes != plain.hashes:
            problems.append(f"tracing changed the outputs: {traced.hashes} != {plain.hashes}")
        per_pass.append(tracer.metrics())
        plain_ms += plain.ms_per_tick
        traced_ms += traced.ms_per_tick
        attempted += plain.attempted + traced.attempted
        failed += plain.failed + min(traced.attempted, traced.failed + tracer.failed_sims)
    problems += tracer.problems
    counts = [{k: v for k, v in m.items() if not is_timing(k)} for m in per_pass]
    if any(c != counts[0] for c in counts):
        problems.append(f"traced counts differ between passes: {counts}")
    if tracer.absent:
        print(f"absent trace targets (their metrics read 0): {', '.join(tracer.absent)}")
    print(f"{workload.name}: {len(per_pass)} traced passes")
    metrics = {name: (statistics.median(m[name] for m in per_pass), unit(name))
               for name in per_pass[0]}
    overhead = (statistics.median(traced_ms) / statistics.median(plain_ms)
                if plain_ms and traced_ms else float("nan"))
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics, attempted, failed


def run_one(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    problems: list[str] = []
    measure_fn = measure_traced if args.trace else measure
    try:
        metrics, attempted, failed = measure_fn(workload, args.seed, args.seconds, problems)
    finally:
        wl.remove_outputs()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems
    print(f"env {environment()}")
    print(f"{workload.name} fail_share {failed / attempted!r} ratio")
    for name, (value, unit_name) in metrics.items():
        print(f"{workload.name} {name} {value!r} {unit_name}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_name}
                    for name, (value, unit_name) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; prints their metrics together."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = wl.missing_sources()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: scenario runs, seed sweeps, and pheromone
value traces, each of which commits its outputs together or not at all.

Exit codes: 0 success, 1 a pooled sweep's worker died (of any signal too),
2 configuration error, 3 I/O error, 143 SIGTERM.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import signal
import sys
import threading
from collections import Counter
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from dataclasses import replace
from functools import partial
from itertools import takewhile
from pathlib import Path

from . import engine
from .pheromone import PheromoneField, PheromoneParams
from .topology import InvalidConfig, NetworkTopology
from .traffic import TrafficRates
from .transport import DetectorModel

# Far above any shipped or benchmark sweep (20 seeds) and the paper's fig2
# trace (200 packets): a larger count only exhausts memory while the seed
# list or the trace is built, so it is rejected by name.
MAX_SWEEP_SEEDS = 100_000
MAX_TRACE_PACKETS = 1_000_000


def _greedy(value: str) -> str:
    """Agents follow the strongest trail, the one rule; ``ant_choice`` is
    read only so that files naming that rule still parse."""
    if value != "greedy":
        raise ValueError(value)
    return value


def _file_name(value: str) -> str:
    """A topology file's name; no path may hold a NUL."""
    if "\0" in value:
        raise ValueError(value)
    return value


_SCALAR_KEYS = {
    "ant_count": int,
    "inc": float,
    "dec": float,
    "threshold": float,
    "detect_prob": float,
    "false_positive_prob": float,
    "good_packets_per_tick": int,
    "attack_packets_per_infected_per_tick": int,
    "max_ticks": int,
    "ant_choice": _greedy,
    "topology_file": _file_name,
}


def _set_key(data: dict, key: str, tokens: list[str], where: str) -> None:
    """Convert one scenario key's value tokens into ``data``."""
    try:
        if key == "edge":
            a, b = (int(x) for x in tokens)
            data["edges"].append((a, b))
        elif key == "infect_at":
            tick, node = (int(x) for x in tokens)
            data["infect_at"].append((tick, node))
        elif key in ("nodes", "seed"):
            (data[key],) = (int(x) for x in tokens)
        elif key == "random_topology":
            n, p = tokens
            data["random_topology"] = (int(n), float(p))
        elif key == "infected":
            data["infected"] = [int(x) for x in tokens]
        elif key in _SCALAR_KEYS:
            (value,) = tokens
            data[key] = _SCALAR_KEYS[key](value)
        else:
            raise InvalidConfig(f"{where}: unknown key {key!r}")
    except ValueError:
        raise InvalidConfig(f"{where}: bad value for {key!r}: {' '.join(tokens)!r}")


def _read_file(path: Path, keys: Iterable[str] | None = None) -> dict:
    """Read a file of the flat key-value scenario format into a raw dict;
    ``keys``, when given, names the only keys it may hold.  Lines come in
    any order, and ``#`` starts a comment anywhere.  Repeatable keys:
    ``edge a b`` (``edge_lines`` holds the line of each) and ``infect_at
    tick node``.  The key ``infected`` takes a space-separated node list.
    Unknown and repeated keys are rejected by name, after the path and line.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path}: not UTF-8 text: {exc}")
    data: dict = {"edges": [], "edge_lines": [], "infect_at": []}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split()
        where = f"{path}: line {lineno}"
        if keys is not None and key not in keys:
            raise InvalidConfig(f"{where}: key {key!r} not allowed here, only {sorted(keys)}")
        if key in seen and key not in ("edge", "infect_at"):
            raise InvalidConfig(f"{where}: duplicate key {key!r}")
        seen.add(key)
        _set_key(data, key, rest, where)
        if key == "edge":
            data["edge_lines"].append(lineno)
    return data


def parse_scenario(path: Path, overrides: Iterable[str] = ()) -> dict:
    """Read the scenario file at ``path``, apply ``overrides`` (``key=value``
    strings, each replacing the value of ``infected`` or of a scalar key,
    each key at most once), and check its one topology source.  Inline
    ``nodes``/``edge`` lines or a ``topology_file`` (relative to the
    scenario's directory) are built once, into ``data["topology"]``; a
    ``random_topology`` is drawn per seed by ``build_config``.
    ``data["path"]`` keeps ``path``, for the faults ``build_config`` finds."""
    data = _read_file(path)
    data["path"] = path
    overridden: set[str] = set()
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise InvalidConfig(f"override {item!r} is not of the form key=value")
        if key != "infected" and key not in _SCALAR_KEYS:
            raise InvalidConfig(f"override {item!r}: --set takes no key {key!r}")
        if key in overridden:
            raise InvalidConfig(f"override {item!r}: duplicate key {key!r}")
        overridden.add(key)
        _set_key(data, key, value.split(), f"override {item!r}")

    sources = [s for s in ("nodes", "topology_file", "random_topology") if s in data]
    if "nodes" not in data and data["edges"]:
        raise InvalidConfig(f"{path}: edge lines given without a nodes line")
    if len(sources) != 1:
        raise InvalidConfig(
            f"{path}: scenario needs exactly one topology source: inline nodes/edge lines, "
            "topology_file, or random_topology"
        )
    if "random_topology" not in data:
        where, given = path, data
        if "topology_file" in data:
            where = path.parent / data["topology_file"]
            given = _read_file(where, ("nodes", "edge"))
            if "nodes" not in given:
                raise InvalidConfig(f"{where}: missing 'nodes <N>' line")
        try:
            data["topology"] = NetworkTopology.from_edges(given["nodes"], given["edges"])
        except InvalidConfig as exc:
            line = "" if exc.edge is None else f"line {given['edge_lines'][exc.edge]}: "
            raise InvalidConfig(f"{where}: {line}{exc}")
    return data


def _given(data: dict, *keys: str, **renamed: str) -> dict:
    """Keyword arguments for the dataclass fields the scenario sets, so the
    dataclass defaults the rest; ``renamed`` maps a field to its key."""
    fields = {**{key: key for key in keys}, **renamed}
    return {name: data[key] for name, key in fields.items() if key in data}


def build_config(data: dict, seed: int | None = None) -> engine.SimulationConfig:
    """One seed's SimulationConfig from a parsed scenario: the seed (the
    scenario's when ``seed`` is None), a ``random_topology`` draw from it,
    and the dataclasses, which check themselves, reach levels too; a fault
    they find starts with the scenario's path.  It opens no file, and only
    the reach levels' check depends on the seed, via ``random_topology``."""
    seed = data.get("seed", engine.SimulationConfig.seed) if seed is None else seed
    infections = [(0, node) for node in data.get("infected", ())] + data["infect_at"]
    try:
        topology = data.get("topology")
        if topology is None:
            n, p = data["random_topology"]
            topology = engine.generate_random_topology(n, p, engine.derive_rng(seed, "topology"))
        return engine.SimulationConfig(
            topology=topology,
            params=PheromoneParams(**_given(data, "threshold", increase="inc", decay="dec")),
            rates=TrafficRates(
                **_given(data, "good_packets_per_tick", "attack_packets_per_infected_per_tick")
            ),
            detector=DetectorModel(**_given(data, "detect_prob", "false_positive_prob")),
            infections=tuple(sorted(infections)),
            seed=seed,
            **_given(data, "ant_count", "max_ticks"),
        )
    except InvalidConfig as exc:
        raise InvalidConfig(f"{data['path']}: {exc}")


@contextmanager
def _outputs(directory: Path, names: list[str]):
    """Stage the files ``names`` in ``directory``: refuse a target that is a
    directory by name, make ``directory``, and yield a temp path beside each
    target.  A clean exit checks the targets again, so that no replace fails
    after earlier ones, then replaces them all; any failure, a signal too,
    removes the temps and each directory made here."""
    targets = [directory / name for name in names]

    def refuse_directories():
        for path in targets:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))

    refuse_directories()
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in targets]
    # a regular file on the way fails its mkdir, before any run
    missing = takewhile(lambda d: not d.is_dir(), [directory, *directory.parents])
    made: list[Path] = []
    try:
        for d in reversed(list(missing)):
            d.mkdir()
            made.append(d)
        yield temps
        refuse_directories()
        for tmp, path in zip(temps, targets):
            os.replace(tmp, path)
    except BaseException:
        # a failed cleanup must not hide the error that caused it
        for tmp in temps:
            with suppress(OSError):
                tmp.unlink()
        for d in reversed(made):
            with suppress(OSError):
                d.rmdir()
        raise


def _write_outputs(outputs: list[tuple[Path, str]]) -> None:
    """Write each text in full to its temp path from ``_outputs``."""
    for tmp, content in outputs:
        tmp.write_text(content, encoding="utf-8")


def _summary_text(config: engine.SimulationConfig, metrics: engine.Metrics) -> str:
    lines = [
        f"nodes: {config.topology.node_count}",
        f"connections: {sum(map(len, config.topology.adjacency)) // 2}",
        f"seed: {config.seed}",
        f"ticks: {config.max_ticks}",
        f"ants: {config.ant_count}",
        f"infected nodes: {len(metrics.infection_tick)}",
    ]
    for node, itick in sorted(metrics.infection_tick.items()):
        dtick = metrics.first_declaration_tick.get(node)
        if dtick is None:
            fate = "never declared"
        else:
            fate = f"declared at {dtick} (latency {dtick - itick})"
        lines.append(f"  node {node}: infected at {itick}, {fate}")
    late = sum(tick >= config.max_ticks for tick, _ in config.infections)
    if late:
        lines.append(f"infections scheduled after the last tick: {late}")
    if not metrics.infection_tick:
        lines.append("no node was infected during the run")
    elif metrics.all_identified_tick is not None:
        lines.append(f"all infected nodes identified by tick {metrics.all_identified_tick}")
    else:
        lines.append("not all infected nodes were identified")
    lines.append(f"false declarations: {len(metrics.false_declaration_tick)}")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    data = parse_scenario(Path(args.scenario), args.set or ())
    config = build_config(data, args.seed)
    names = ["metrics.csv", "summary.txt", "events.log"]
    with _outputs(Path(args.out), names) as (metrics_csv, summary, events):
        # the log streams to its temp file one tick at a time
        with open(events, "w", encoding="utf-8", buffering=1 << 16) as f:
            sink = engine.event_log(config.topology, f.write)
            metrics = engine.run(replace(config, sink=sink))
        texts = [engine.metrics_to_csv(metrics), _summary_text(config, metrics)]
        _write_outputs(list(zip((metrics_csv, summary), texts)))
    return 0


def _run_seed(data: dict, seed: int) -> engine.Metrics:
    """One seed of a sweep, on a config built just before it runs and dropped
    when it returns.  A failing check fails at each process's first seed,
    before any run, but for the reach levels of a ``random_topology`` draw."""
    return engine.run(build_config(data, seed))


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise InvalidConfig(f"--jobs must be >= 1, got {args.jobs}")
    data = parse_scenario(Path(args.scenario), args.set or ())
    seeds = _expand_seeds(args.seeds)
    names = [f"metrics_seed{seed}.csv" for seed in seeds] + ["aggregate.csv"]
    run_seed = partial(_run_seed, data)
    jobs = min(args.jobs, len(seeds), os.cpu_count() or 1)
    with _outputs(Path(args.out), names) as temps:
        if jobs > 1:
            # imported here, so that a serial sweep and a plain import load no pool
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # one chunk of seeds per worker: each unpickles the scenario, and
            # builds a topology file's reach levels, once; a forked worker would
            # keep main's SIGTERM handler and take the signal as its chunk's error
            with ProcessPoolExecutor(jobs, initializer=signal.signal,
                                     initargs=(signal.SIGTERM, signal.SIG_DFL)) as pool:
                try:
                    results = list(pool.map(run_seed, seeds, chunksize=-(-len(seeds) // jobs)))
                except BaseException as exc:
                    # kill the workers: the pool's exit would wait for every chunk
                    for worker in multiprocessing.active_children():
                        worker.kill()
                    if isinstance(exc, BrokenProcessPool):
                        # SystemExit prints its message as one line, no traceback, and exits 1
                        raise SystemExit("error: a --jobs worker process died mid-sweep")
                    raise
        else:
            results = list(map(run_seed, seeds))
        rows = ["seed,all_identified_tick,median_all_identified_tick,min_all_identified_tick,"
                "max_all_identified_tick,never_identified"]
        ticks = []
        for seed, metrics in zip(seeds, results):
            tick = metrics.all_identified_tick
            rows.append(f"{seed},{'' if tick is None else tick},,,,")
            ticks.append(math.inf if tick is None else tick)
        import statistics  # here, not at module level, so that only a sweep loads it
        # a seed that never identified every infected node counts as infinite
        stats = (statistics.median(ticks), min(ticks), max(ticks))
        rows.append(f"summary,,{','.join(f'{x:.15g}' for x in stats)},{ticks.count(math.inf)}")
        texts = [engine.metrics_to_csv(metrics) for metrics in results]
        _write_outputs(list(zip(temps, texts + ["\n".join(rows) + "\n"])))
    return 0


def _expand_seeds(tokens: list[str]) -> list[int]:
    """Expand ``--seeds`` tokens, each a range ``A..B``; a plain seed ``N`` is
    ``N..N``.  More than ``MAX_SWEEP_SEEDS`` seeds in all are refused before
    the range that passes the bound is expanded."""
    seeds: list[int] = []
    for tok in tokens:
        lo, sep, hi = tok.partition("..")
        try:
            first, last = int(lo), int(hi if sep else lo)
        except ValueError:
            raise InvalidConfig(f"bad seed {'range ' if sep else ''}{tok!r}")
        if last < first:
            raise InvalidConfig(f"bad seed range {tok!r}")
        count = len(seeds) + last - first + 1
        if count > MAX_SWEEP_SEEDS:
            raise InvalidConfig(
                f"--seeds must give <= {MAX_SWEEP_SEEDS} seeds, {tok!r} brings them to {count}"
            )
        seeds.extend(range(first, last + 1))
    repeated = sorted(seed for seed, k in Counter(seeds).items() if k > 1)
    if repeated:
        raise InvalidConfig(f"seeds given more than once: {repeated}")
    return seeds


def trace_events(mode: str, packets: int, custom: str | None) -> list[bool]:
    """Event sequence for a trace, True for bad: the 100-packet pattern with
    bad packets at positions 3, 10 and 15; the periodic every-fifth-bad
    pattern; or an explicit G/B string."""
    if mode == "fig1":
        return [i in (3, 10, 15) for i in range(1, 101)]
    if mode == "fig2":
        if packets < 1:
            raise InvalidConfig(f"--packets must be >= 1, got {packets}")
        if packets > MAX_TRACE_PACKETS:
            raise InvalidConfig(f"--packets must be <= {MAX_TRACE_PACKETS}, got {packets}")
        return [i % 5 == 0 for i in range(1, packets + 1)]
    if mode != "custom":
        raise InvalidConfig(f"unknown trace mode {mode!r}: expected fig1, fig2 or custom")
    if not custom:
        raise InvalidConfig("custom mode needs --events")
    events = []
    for ch in custom.upper():
        if ch not in "GB":
            raise InvalidConfig(f"event string may only contain G and B, got {ch!r}")
        events.append(ch == "B")
    return events


def render_trace(events: list[bool], params: PheromoneParams) -> str:
    """CSV trace of the value of direction 0 -> 1 of a field on the
    two-node topology 0-1 after each event, 9 significant digits."""
    field = PheromoneField(NetworkTopology.from_edges(2, [(0, 1)]))
    rows = ["packet_index,kind,af_value"]
    for i, bad in enumerate(events, 1):
        if bad:
            value = field.apply_bad(0, 1, params)
        else:
            value = field.apply_good(0, 1, params)
        rows.append(f"{i},{'bad' if bad else 'good'},{value:.9g}")
    return "\n".join(rows) + "\n"


def cmd_trace(args) -> int:
    params = PheromoneParams(increase=args.inc, decay=args.dec)
    events = trace_events(args.mode, args.packets, args.events)
    out = Path(args.out)
    with _outputs(out.parent, [out.name]) as (tmp,):
        _write_outputs([(tmp, render_trace(events, params))])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anttrack",
        description="Pheromone-trail identification of infected nodes on simulated networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", required=True)
    scenario.add_argument("--out", default="out")
    scenario.add_argument("--set", action="append", metavar="KEY=VALUE")

    p_run = sub.add_parser("run", parents=[scenario], help="run one scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[scenario], help="run a scenario over several seeds")
    p_sweep.add_argument("--seeds", nargs="+", required=True, metavar="SEED|A..B")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_trace = sub.add_parser("trace", help="emit a pheromone value trace as CSV")
    p_trace.add_argument("--mode", choices=["fig1", "fig2", "custom"], required=True)
    p_trace.add_argument("--events", default=None, help="event string of G/B for custom mode")
    p_trace.add_argument("--inc", type=float, default=PheromoneParams.increase)
    p_trace.add_argument("--dec", type=float, default=PheromoneParams.decay)
    p_trace.add_argument("--packets", type=int, default=200)
    p_trace.add_argument("--out", default="trace.csv")
    p_trace.set_defaults(func=cmd_trace)

    return parser


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """Run one command.  While it runs, SIGTERM ends it as Ctrl-C does,
    through its outputs' cleanup, with exit 143; only the main thread may
    set a signal handler."""
    args = build_parser().parse_args(argv)
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminated) if on_main else None
    try:
        if not args.out:
            raise InvalidConfig("--out must name a path, got ''")
        return args.func(args)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())

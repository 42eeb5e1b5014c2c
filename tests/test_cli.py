import concurrent.futures
import contextlib
import dataclasses
import functools
import math
import os
import re
import signal
import stat
import statistics
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from anttrack import cli, engine, topology, traffic
from anttrack.cli import main
from anttrack.engine import SimulationConfig
from anttrack.pheromone import PheromoneParams, closed_form_value
from anttrack.topology import InvalidConfig, NetworkTopology

from conftest import SCENARIOS, SHIPPED_SCENARIOS, grid_topology, path_topology, star_topology


def write_scenario(tmp_path: Path, body: str) -> Path:
    path = tmp_path / "scenario.scn"
    path.write_text(body)
    return path


def config_from(tmp_path: Path, body: str, overrides=()) -> SimulationConfig:
    """The config of a scenario file holding ``body``, with ``overrides``."""
    return cli.build_config(cli.parse_scenario(write_scenario(tmp_path, body), overrides))


SMALL = f"""
topology_file {SCENARIOS / "star10.topo"}
seed 7
ant_count 2
good_packets_per_tick 4
attack_packets_per_infected_per_tick 2
max_ticks 120
infected 3
"""


def small_scenario(tmp_path):
    return write_scenario(tmp_path, SMALL)


def read_trace(path: Path) -> dict[int, tuple[str, float]]:
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "packet_index,kind,af_value"
    out = {}
    for line in lines[1:]:
        idx, kind, value = line.split(",")
        out[int(idx)] = (kind, float(value))
    return out


def test_run_produces_complete_outputs(tmp_path):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    metrics = (out / "metrics.csv").read_text()
    assert metrics.startswith("node,infected_tick,declared_tick,latency\n")
    assert metrics.count("\n") == 2  # header + one infected node
    assert "scheduled after the last tick" not in (out / "summary.txt").read_text()
    log_lines = (out / "events.log").read_text().strip().split("\n")
    assert all(line.split(",")[0] in {"PKT", "PHERO", "ANT", "DECL", "FIELD"} for line in log_lines)


def test_summary_when_no_node_was_infected(tmp_path):
    # the only infection is scheduled after the last tick, so none happens
    scenario = write_scenario(tmp_path, "nodes 3\nedge 0 1\nedge 1 2\nmax_ticks 10\ninfect_at 50 1\n")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert (
        "infected nodes: 0\n"
        "infections scheduled after the last tick: 1\n"
        "no node was infected during the run\n"
    ) in summary
    assert "identified" not in summary


def test_summary_counts_infections_at_or_after_the_last_tick(tmp_path):
    scenario = write_scenario(
        tmp_path, "nodes 4\nedge 0 1\nedge 1 2\nedge 2 3\nmax_ticks 10\n"
        "infected 0\ninfect_at 9 1\ninfect_at 10 2\ninfect_at 11 3\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[5] == "infected nodes: 2"
    assert lines[6].startswith("  node 0: infected at 0, ")
    assert lines[7].startswith("  node 1: infected at 9, ")
    assert lines[8] == "infections scheduled after the last tick: 2"


COUNT_BOUNDS = {
    "ant_count": engine.MAX_ANT_COUNT,
    "good_packets_per_tick": traffic.MAX_GOOD_PACKETS_PER_TICK,
    "attack_packets_per_infected_per_tick": traffic.MAX_ATTACK_PACKETS_PER_INFECTED_PER_TICK,
}


def write_files(tmp_path: Path, files: dict[str, str | bytes]) -> None:
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())


def ring_files(n: int) -> dict[str, str]:
    """A scenario of ``max_ticks 5`` on an n-node ring in a topology file."""
    return {
        "ring.topo": f"nodes {n}\n" + "".join(f"edge {i} {(i + 1) % n}\n" for i in range(n)),
        "scenario.scn": "topology_file ring.topo\nmax_ticks 5\n",
    }


# The rows of REFUSED: the files a command line reads, written under
# tmp_path; its arguments; and its exit code and its one stderr line.
# "{tmp}" stands for tmp_path.
SCN = "{tmp}/scenario.scn"
PAIR = "nodes 2\nedge 0 1\n"  # the smallest topology a run accepts


def scenario(body: str, message: str, *args: str) -> tuple:
    """The scenario file holding ``body``, refused with ``message``."""
    return {"scenario.scn": body}, ["--scenario", SCN, *args], 2, f"error: {SCN}: {message}"


def small(args: list[str], line: str) -> tuple:
    """The small scenario with ``args``, refused with ``line``."""
    return {"scenario.scn": SMALL}, ["--scenario", SCN, *args], 2, line


def sweep(args: list[str], line: str) -> tuple:
    """A sweep of the small scenario with ``args``, refused with ``line``."""
    return {"scenario.scn": SMALL}, ["sweep", "--scenario", SCN, *args], 2, line


def topology_file(text: str, message: str) -> tuple:
    """A scenario whose topology file ``net.topo`` holds ``text``."""
    files = {"net.topo": text, "scenario.scn": "topology_file net.topo\nmax_ticks 5\n"}
    return files, ["--scenario", SCN], 2, f"error: {{tmp}}/net.topo: {message}"


def not_utf8(bad: str) -> tuple:
    """A scenario and its topology file, with a comment of the byte 0xff
    appended to ``bad``."""
    files = {"scenario.scn": "topology_file net.topo\n", "net.topo": PAIR}
    text = files[bad]
    files[bad] = text.encode() + b"# \xff\n"
    return files, ["--scenario", SCN], 2, (
        f"error: {{tmp}}/{bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
        f"in position {len(text) + 2}: invalid start byte"
    )


# Every command line the CLI refuses: by test name, each test's rows by
# case id.  A row whose arguments start at --scenario runs as "run" and as
# "sweep --seeds 1..2"; a row for a flag only one command has starts with
# that command.
REFUSED = {
    # a fault of a scenario line names the file and the line
    "test_scenario_line_error_names_the_file": {
        body: scenario(body, message)
        for body, message in {
            PAIR + "foo 3\n": "line 3: unknown key 'foo'",
            PAIR + "seed soon\n": "line 3: bad value for 'seed': 'soon'",
            # ant_choice parses only as greedy, the one rule
            PAIR + "ant_choice proportional\n": "line 3: bad value for 'ant_choice': 'proportional'",
            "nodes 2\n# a comment\nnodes 3\nedge 0 1\n": "line 3: duplicate key 'nodes'",
            # a topology fault names the file that holds it, and an edge's line
            "nodes 3\nedge 0 5\n": "line 2: edge (0, 5) references a node outside [0, 3)",
            "nodes 3\nedge 0 1\nedge 1 2\n\nedge 2 1\n": "line 5: edge (1, 2) listed more than once",
            "nodes 3\nedge 0 1\n": "nodes unreachable from node 0: [2]",
            "nodes 0\n": "node count must be >= 1, got 0",
            # so does a fault of the config the file describes; with the
            # default rates, a run on one node would need a packet
            # destination other than it
            "nodes 1\n": "node_count must be >= 2, got 1",
            "random_topology 1 0.5\n": "node_count must be >= 2, got 1",
            PAIR + "max_ticks 0\n": "max_ticks must be > 0, got 0",
            PAIR + "infected 1 1\n": "node 1 would be infected twice",
            PAIR + "infect_at -1 0\n": "infection tick -1 is negative",
            PAIR + "threshold 0\n": "threshold must be finite and > 0, got 0.0",
            PAIR + "good_packets_per_tick -1\n": "good_packets_per_tick must be >= 0, got -1",
            PAIR + "attack_packets_per_infected_per_tick 0\n": (
                "attack_packets_per_infected_per_tick must be >= 1, got 0"
            ),
            PAIR + "detect_prob 2\n": "detect_prob must be in [0, 1], got 2.0",
        }.items()
    },
    "test_repeated_key_names_it": {
        f"{key}-{body}": scenario(body, f"line {line}: duplicate key {key!r}")
        for key, line, body in [
            ("infected", 7, "nodes 5\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\n"
                            "infected 3\ninfected 4\n"),
            ("nodes", 2, "nodes 2\nnodes 2\nedge 0 1\n"),
            ("random_topology", 2, "random_topology 5 0.1\nrandom_topology 6 0.1\n"),
        ]
    },
    "test_repeated_infected_node_names_it": {
        "scenario": scenario(
            "nodes 3\nedge 0 1\nedge 1 2\ninfected 1 2 1\n", "node 1 would be infected twice"
        ),
        "override": scenario(
            "nodes 3\nedge 0 1\nedge 1 2\n", "node 1 would be infected twice", "--set", "infected=1 2 1"
        ),
    },
    "test_two_topology_sources_name_the_file": {
        "": scenario(
            PAIR + "random_topology 5 0.1\n",
            "scenario needs exactly one topology source: inline nodes/edge lines, topology_file, "
            "or random_topology",
        ),
    },
    "test_inline_edge_next_to_topology_file_names_it": {
        "": (
            {"net.topo": PAIR, "scenario.scn": "topology_file net.topo\nedge 0 1\n"},
            ["--scenario", SCN], 2, f"error: {SCN}: edge lines given without a nodes line",
        ),
    },
    "test_topology_file_malformed": {
        text: topology_file(text, message)
        for text, message in {
            "": "missing 'nodes <N>' line",
            "nodes x": "line 1: bad value for 'nodes': 'x'",
            "nodes 2\nedge 0\n": "line 2: bad value for 'edge': '0'",
            "nodes 2\nlink 0 1\n": "line 2: key 'link' not allowed here, only ['edge', 'nodes']",
            PAIR + "seed 3\n": "line 3: key 'seed' not allowed here, only ['edge', 'nodes']",
            "nodes 2\nnodes 2\nedge 0 1\n": "line 2: duplicate key 'nodes'",
            "nodes 3\nedge 0 1\n": "nodes unreachable from node 0: [2]",
            "nodes 2\nedge 1 1\n": "line 2: edge (1, 1) is a self-loop",
            PAIR + "# again\nedge 1 0\n": "line 4: edge (0, 1) listed more than once",
        }.items()
    },
    "test_non_utf8_file_names_it": {bad: not_utf8(bad) for bad in ["scenario.scn", "net.topo"]},
    "test_missing_scenario_is_io_error": {
        "": (
            {}, ["--scenario", "{tmp}/nope.scn"], 3,
            "i/o error: [Errno 2] No such file or directory: '{tmp}/nope.scn'",
        ),
    },
    # Unbounded, the first count hung and the next two ran out of memory
    # while the agents or the first tick's packets were built.
    "test_huge_count_exits_2_at_once_naming_its_key": {
        f"{key}-{value}": scenario(
            f"{PAIR}{key} {value}\n", f"{key} must be <= {COUNT_BOUNDS[key]}, got {value}"
        )
        for key, value in [
            ("ant_count", "9999999999"),
            ("ant_count", "99999999"),
            ("good_packets_per_tick", "999999999"),
            ("attack_packets_per_infected_per_tick", "999999999"),
        ]
    },
    # Unbounded, the first two graphs ran out of memory while one neighbour
    # set per node was built, and the third drew pairs for minutes.
    "test_huge_topology_exits_2_at_once_naming_its_size": {
        f"{body}-{message}": scenario(body, message)
        for body, message in [
            ("nodes 99999999999\n",
             "nodes unreachable from node 0: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 99999999988 more"),
            ("nodes 99999999999\nedge 0 1\n",
             "nodes unreachable from node 0: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 99999999987 more"),
            ("random_topology 200000 0.0\n",
             f"node_count must be <= {engine.MAX_RANDOM_TOPOLOGY_NODES}, got 200000"),
        ]
    },
    # a 3000-node ring needs 1501 reach levels of 3000 * 375 bytes; its
    # config, built before any simulation, finds that 239 would pass the budget
    "test_run_past_the_reach_level_budget_exits_2_and_writes_nothing": {
        "": (
            ring_files(3000), ["--scenario", SCN], 2,
            f"error: {SCN}: routing on 3000 nodes needs more than 238 reach levels, "
            "past the 256 MiB budget",
        ),
    },
    # an override names itself, not the scenario file
    "test_override_without_equals_rejected": {
        "": small(["--set", "max_ticks"], "error: override 'max_ticks' is not of the form key=value"),
    },
    "test_unknown_override_key_rejected": {
        "": small(["--set", "bar=1"], "error: override 'bar=1': --set takes no key 'bar'"),
    },
    "test_invalid_override_value": {
        "": small(
            ["--set", "max_ticks=soon"],
            "error: override 'max_ticks=soon': bad value for 'max_ticks': 'soon'",
        ),
    },
    "test_ant_choice_override_other_than_greedy_rejected": {
        "": small(
            ["--set", "ant_choice=proportional"],
            "error: override 'ant_choice=proportional': bad value for 'ant_choice': 'proportional'",
        ),
    },
    # seed is a file-only key: run takes it from --seed, sweep from --seeds
    "test_override_of_a_structural_key_names_it": {
        item: small(
            ["--set", item], f"error: override {item!r}: --set takes no key {item.partition('=')[0]!r}"
        )
        for item in ["nodes=3", "edge=0 1", "infect_at=1 2", "random_topology=5 0.1", "seed=5"]
    },
    "test_sweep_seed_override_rejected": {
        "": small(
            ["--set", "seed=99", "--set", "max_ticks=50"],
            "error: override 'seed=99': --set takes no key 'seed'",
        ),
    },
    "test_second_value_for_one_input_rejected": {
        key: small(
            ["--set", f"{key}={first}", "--set", f"{key}={second}"],
            f"error: override '{key}={second}': duplicate key {key!r}",
        )
        for key, first, second in [("max_ticks", 5, 7), ("infected", 1, 2)]
    },
    # a value that converts but fails a check is the config's fault, and
    # the config is the scenario's
    "test_override_failing_a_check_names_the_scenario": {
        "": small(["--set", "max_ticks=0"], f"error: {SCN}: max_ticks must be > 0, got 0"),
    },
    "test_non_finite_parameter_rejected": {
        f"{key}={value}-{key}": small(
            ["--set", f"{key}={value}"], f"error: {SCN}: {message}, got {value}"
        )
        for key, value, message in [
            ("inc", "inf", "increase (inc) must be finite and > 0"),
            ("inc", "nan", "increase (inc) must be finite and > 0"),
            ("dec", "nan", "decay (dec) must be in (0, 1)"),
            ("threshold", "inf", "threshold must be finite and > 0"),
        ]
    },
    # sweep's own flags
    "test_sweep_repeated_seed_rejected": {
        "1-1": sweep(["--seeds", "1", "1"], "error: seeds given more than once: [1]"),
        "1..2-2": sweep(["--seeds", "1..2", "2"], "error: seeds given more than once: [2]"),
    },
    "test_sweep_seed_token_error_line": {
        "not-a-number": sweep(["--seeds", "x"], "error: bad seed 'x'"),
        **{
            f"range-{name}": sweep(["--seeds", token], f"error: bad seed range {token!r}")
            for name, token in [
                ("not-numbers", "a..b"),
                ("without-start", "..5"),
                ("without-end", "5.."),
                ("of-three", "1..2..3"),
                ("descending", "5..3"),
            ]
        },
    },
    "test_sweep_jobs_below_one_rejected": {
        jobs: sweep(["--seeds", "1..2", "--jobs", jobs], f"error: --jobs must be >= 1, got {jobs}")
        for jobs in ["0", "-3"]
    },
    # trace's own flags
    "test_trace_rejects_unknown_mode": {
        "fig3": ({}, ["trace", "--mode", "fig3"], 2,
                 "error: unknown trace mode 'fig3': expected fig1, fig2 or custom"),
    },
    "test_trace_packets_must_be_positive": {
        packets: (
            {}, ["trace", "--mode", "fig2", "--packets", packets], 2,
            f"error: --packets must be >= 1, got {packets}",
        )
        for packets in ["0", "-5"]
    },
    "test_trace_custom_refuses_bad_input": {
        "events-not-g-or-b": (
            {}, ["trace", "--mode", "custom", "--events", "GXB"], 2,
            "error: event string may only contain G and B, got 'X'",
        ),
        "no-events": ({}, ["trace", "--mode", "custom"], 2, "error: custom mode needs --events"),
        "dec-past-1": (
            {}, ["trace", "--mode", "custom", "--events", "B", "--dec", "1.5"], 2,
            "error: decay (dec) must be in (0, 1), got 1.5",
        ),
    },
}

# The tests whose rows ran under run alone before they also ran under
# sweep: their run cases keep the bare case id.
RUN_ALONE_BEFORE = {
    "test_repeated_key_names_it", "test_repeated_infected_node_names_it",
    "test_topology_file_malformed", "test_non_utf8_file_names_it",
    "test_huge_count_exits_2_at_once_naming_its_key",
    "test_huge_topology_exits_2_at_once_naming_its_size",
    "test_override_of_a_structural_key_names_it", "test_non_finite_parameter_rejected",
}


def refusal_test(rows: dict[str, tuple], suffix_run: bool):
    """A test of the refused command lines ``rows``.  A scenario row runs
    as run under its case id, "-run" appended if ``suffix_run``, and as
    sweep with "-sweep" appended; a case id "" drops the "-"."""
    params = []
    for case, (files, args, code, line) in rows.items():
        if args[0] != "--scenario":
            params.append(pytest.param(files, args, code, line, id=case))
            continue
        run_id = f"{case}-run".removeprefix("-") if suffix_run else case
        sweep_id = f"{case}-sweep".removeprefix("-")
        for command, case_id in [(["run"], run_id), (["sweep", "--seeds", "1..2"], sweep_id)]:
            params.append(pytest.param(files, [*command, *args], code, line, id=case_id))

    @pytest.mark.parametrize("files, argv, code, line", params)
    def test(tmp_path, monkeypatch, capsys, files, argv, code, line):
        """Each refused command line exits with its code and its one stderr
        line within a second, runs no simulation, and leaves no temp file
        and no part of its nested --out directory."""
        runs = []
        monkeypatch.setattr(cli.engine, "run", runs.append)
        write_files(tmp_path, files)
        tmp = str(tmp_path)
        start = time.perf_counter()
        exit_code = main([arg.replace("{tmp}", tmp) for arg in argv] + ["--out", f"{tmp}/a/b"])
        elapsed = time.perf_counter() - start
        assert (exit_code, capsys.readouterr().err) == (code, line.replace("{tmp}", tmp) + "\n")
        assert runs == []
        # the row's own files are all that is left: no --out, no *.tmp
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)
        assert elapsed < 1.0

    return test


# Each entry of REFUSED is a test of its name.
globals().update(
    (name, refusal_test(rows, suffix_run=name not in RUN_ALONE_BEFORE))
    for name, rows in REFUSED.items()
)


@pytest.mark.parametrize("key", sorted(COUNT_BOUNDS))
def test_count_bound_is_accepted_and_far_above_every_shipped_value(tmp_path, key):
    bound = COUNT_BOUNDS[key]
    config = config_from(tmp_path, "nodes 2\nedge 0 1\n", [f"{key}={bound}"])
    assert {"ant_count": config.ant_count, **dataclasses.asdict(config.rates)}[key] == bound
    with pytest.raises(InvalidConfig, match=f"{key} must be <= {bound}, got {bound + 1}"):
        config_from(tmp_path, "nodes 2\nedge 0 1\n", [f"{key}={bound + 1}"])
    values = [cli.parse_scenario(path).get(key) for path in SHIPPED_SCENARIOS]
    assert bound >= 50 * max(v for v in values if v is not None)


class NoDraws:
    """A random source that fails the test on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"random source used: {name}")


def test_random_topology_bound_is_checked_before_any_draw():
    bound = engine.MAX_RANDOM_TOPOLOGY_NODES
    with pytest.raises(InvalidConfig, match=f"node_count must be <= {bound}, got {bound + 1}"):
        engine.generate_random_topology(bound + 1, 0.0, NoDraws())


def test_random_topology_bound_far_above_every_shipped_graph():
    sizes = [cli.parse_scenario(path).get("random_topology", (0, 0.0))[0] for path in SHIPPED_SCENARIOS]
    assert engine.MAX_RANDOM_TOPOLOGY_NODES >= 10 * max(sizes)


def test_random_topology_edge_bound_is_checked_before_any_draw():
    # 1000 nodes at p = 1 expect 499,500 edges and 1001 nodes 500,500; the
    # dense 10,000-node graph would need about 20 GiB, so it is never drawn.
    # A graph the bounds admit reaches the first draw, where NoDraws stops it.
    bound = engine.MAX_RANDOM_TOPOLOGY_EDGES
    assert bound == 500_000
    for n, p in [(1000, 1.0), (10_000, bound / (10_000 * 9_999 / 2))]:
        with pytest.raises(AssertionError, match="random source used"):
            engine.generate_random_topology(n, p, NoDraws())
    for n, expected in [(1001, 500500), (10_000, 49995000)]:
        message = f"expected edge count n(n - 1)/2 * p must be <= {bound}, got {expected} "
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            engine.generate_random_topology(n, 1.0, NoDraws())


def test_random_topology_edge_bound_far_above_every_shipped_graph():
    drawn = [cli.parse_scenario(path).get("random_topology", (0, 0.0)) for path in SHIPPED_SCENARIOS]
    assert engine.MAX_RANDOM_TOPOLOGY_EDGES >= 100 * max(n * (n - 1) / 2 * p for n, p in drawn)


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "pool"])
def test_sweep_past_the_reach_level_budget_exits_2(tmp_path, monkeypatch, capsys, jobs):
    """Serial or in a pool, the sweep is refused by name; in a pool the
    refusal crosses the process boundary.  The workers are forked from this
    process, so they build configs under the lowered budget: a 300-node
    ring's 151 levels of 11,400 bytes pass 1 MiB after 91."""
    monkeypatch.setattr(topology, "REACH_LEVEL_BUDGET", 1 << 20)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    write_files(tmp_path, ring_files(300))
    scenario = tmp_path / "scenario.scn"
    out = tmp_path / "o"
    argv = ["sweep", "--scenario", str(scenario), "--out", str(out), "--seeds", "1..2", "--jobs", jobs]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {scenario}: routing on 300 nodes needs more than 91 reach levels, "
        "past the 1 MiB budget\n"
    )
    assert not out.exists()


def test_seed_override_determinism(tmp_path):
    scenario = small_scenario(tmp_path)
    outs = {}
    for name, seed in [("a", "7"), ("b", "8"), ("c", "7")]:
        out = tmp_path / name
        assert main(["run", "--scenario", str(scenario), "--out", str(out), "--seed", seed]) == 0
        outs[name] = (out / "events.log").read_bytes() + (out / "metrics.csv").read_bytes()
    assert outs["a"] == outs["c"]
    assert outs["a"] != outs["b"]


def test_set_overrides_apply(tmp_path):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "run", "--scenario", str(scenario), "--out", str(out),
            "--set", "max_ticks=5", "--set", "ant_count=0",
        ]
    )
    assert code == 0
    log = (out / "events.log").read_text()
    assert "ANT," not in log
    assert "FIELD,4," in log and "FIELD,5," not in log


BASE = "nodes 5\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 0 4\n"

# a value for every key --set accepts, other than the default except for
# ant_choice, whose only value is its default
OVERRIDE_VALUES = {
    "ant_count": "2",
    "inc": "7.5",
    "dec": "0.5",
    "threshold": "3.25",
    "detect_prob": "0.25",
    "false_positive_prob": "0.125",
    "good_packets_per_tick": "4",
    "attack_packets_per_infected_per_tick": "2",
    "max_ticks": "30",
    "ant_choice": "greedy",
    "topology_file": str(SCENARIOS / "star10.topo"),
    "infected": "1 3",
}


def test_override_keys_are_the_scalar_keys_and_infected():
    assert set(OVERRIDE_VALUES) == {"infected", *cli._SCALAR_KEYS}


@pytest.mark.parametrize("key", sorted(OVERRIDE_VALUES))
def test_override_equals_scenario_line(tmp_path, key):
    value = OVERRIDE_VALUES[key]
    base = "" if key == "topology_file" else BASE
    line = config_from(tmp_path, f"{base}{key} {value}\n")
    override = config_from(tmp_path, base, [f"{key}={value}"])
    assert override == line
    if key not in ("topology_file", "ant_choice"):
        assert line != config_from(tmp_path, base)


def test_override_replaces_scenario_line(tmp_path):
    config = config_from(tmp_path, BASE + "max_ticks 7\ninfected 2\n",
                         ["max_ticks=9", "infected=1 4"])
    assert config.max_ticks == 9 and config.infections == ((0, 1), (0, 4))


def test_scenario_without_parameters_takes_the_dataclass_defaults(tmp_path):
    config = config_from(tmp_path, BASE)
    topology = NetworkTopology.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert config == SimulationConfig(topology=topology, seed=0)


def test_scenario_seed_line_is_the_default_seed(tmp_path):
    data = cli.parse_scenario(write_scenario(tmp_path, BASE + "seed 5\n"))
    assert cli.build_config(data).seed == 5
    assert cli.build_config(data, 9).seed == 9


def run_on_topology_file(tmp_path, topology_text):
    """``anttrack run`` on a short scenario whose topology is the file
    ``net.topo`` holding ``topology_text``; the exit code and output dir."""
    (tmp_path / "net.topo").write_text(topology_text)
    scenario = write_scenario(tmp_path, "topology_file net.topo\nmax_ticks 5\n")
    out = tmp_path / "o"
    return main(["run", "--scenario", str(scenario), "--out", str(out)]), out


def test_topology_file_format(tmp_path):
    code, out = run_on_topology_file(tmp_path, "# comment\nnodes 3\nedge 0 1\n\nedge 1 2\n")
    assert code == 0
    assert "nodes: 3\nconnections: 2\n" in (out / "summary.txt").read_text()
    config = config_from(tmp_path, "topology_file net.topo\n")
    assert config.topology.adjacency[1] == (0, 2)


def test_topology_file_is_order_free(tmp_path):
    # like a scenario file: any line order, and a comment after a value
    code, out = run_on_topology_file(tmp_path, "edge 0 1  # the only connection\nnodes 2\n")
    assert code == 0
    assert "nodes: 2\nconnections: 1\n" in (out / "summary.txt").read_text()


def test_topology_file_brings_only_the_topology(tmp_path):
    """The file gives the topology and nothing else: the scenario keeps its
    own infection schedule, and its relative ``topology_file`` resolves
    against the scenario's directory, not the working directory."""
    (tmp_path / "nets").mkdir()
    (tmp_path / "nets" / "star.topo").write_text((SCENARIOS / "star10.topo").read_text())
    scenario = write_scenario(
        tmp_path, "topology_file nets/star.topo\ninfected 3\ninfect_at 5 4\nmax_ticks 10\n"
    )
    config = cli.build_config(cli.parse_scenario(scenario))
    assert config.topology == star_topology(10)
    assert config.infections == ((0, 3), (5, 4))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_text().startswith(
        "node,infected_tick,declared_tick,latency\n3,0,"
    )


SHIPPED_TOPOLOGIES = {
    "grid4x4.topo": grid_topology(4, 4),
    "path10.topo": path_topology(10),
    "star10.topo": star_topology(10),
}


@pytest.mark.parametrize("name", sorted(path.name for path in SCENARIOS.glob("*.topo")))
def test_shipped_topology_file(tmp_path, name):
    config = config_from(tmp_path, f"topology_file {SCENARIOS / name}\n")
    assert config.topology == SHIPPED_TOPOLOGIES[name]


def test_unwritable_output_dir(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("running as root; directory permissions are not enforced")
    scenario = small_scenario(tmp_path)
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    try:
        assert main(["run", "--scenario", str(scenario), "--out", str(blocked / "out")]) == 3
    finally:
        blocked.chmod(stat.S_IRWXU)


def test_failed_write_keeps_existing_outputs(tmp_path, monkeypatch):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert not before["metrics.csv"].endswith(b",,\n")  # node 3 was declared
    write_text = Path.write_text
    calls = []

    def fail_second_write(self, data, *args, **kwargs):
        # the second file gets half its content, then the disk fills up
        calls.append(self)
        if len(calls) == 2:
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("no space left on device")
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_second_write)
    # a one-tick run declares nothing, so every output file would change
    code = main(["run", "--scenario", str(scenario), "--out", str(out), "--set", "max_ticks=1"])
    assert code == 3
    assert len(calls) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize(
    "command, old, blocked",
    [
        (["run"], "metrics.csv", "events.log"),
        (["sweep", "--seeds", "1", "2"], "metrics_seed1.csv", "metrics_seed2.csv"),
        (["sweep", "--seeds", "1", "2", "--jobs", "2"], "metrics_seed1.csv", "aggregate.csv"),
    ],
    ids=["run", "sweep", "sweep-jobs2"],
)
def test_directory_target_replaces_no_output(tmp_path, monkeypatch, capsys, command, old, blocked):
    # the blocked target comes after the old one, so a replace that failed
    # only at the directory would already have overwritten the old file; the
    # targets are known before the first tick, so no simulation runs
    runs, sizes = [], []
    real_run = cli.engine.run
    monkeypatch.setattr(cli.engine, "run", lambda config: runs.append(config) or real_run(config))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_process_pool(sizes))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    scenario = small_scenario(tmp_path)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    (out / old).write_text("old\n")
    argv = [*command, "--scenario", str(scenario), "--out", str(out), "--set", "max_ticks=5"]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: '{out / blocked}'\n"
    assert runs == [] and sizes == []
    assert sorted(path.name for path in out.iterdir()) == sorted([old, blocked])
    assert (out / old).read_text() == "old\n"
    assert list((out / blocked).iterdir()) == []


def fail_at_tick_74(monkeypatch, out: Path) -> tuple[list[int], list[str]]:
    """Make the event log's sink raise OSError at tick 74 of 120, after the
    small scenario's two agents have taken their 150th step, with the log
    streaming.  Returns the list of ticks the sink was called at and the
    list that gets the names of the temp files in ``out`` when it fails."""
    real_event_log = cli.engine.event_log
    ticks, temps_seen = [], []

    def failing_event_log(topology, write):
        real_sink = real_event_log(topology, write)

        def sink(tick, *args):
            ticks.append(tick)
            if tick == 74:
                temps_seen.extend(p.name for p in out.iterdir() if p.name.endswith(".tmp"))
                raise OSError("disk went away")
            real_sink(tick, *args)

        return sink

    monkeypatch.setattr(cli.engine, "event_log", failing_event_log)
    return ticks, temps_seen


def test_run_failing_mid_simulation_keeps_existing_outputs(tmp_path, monkeypatch):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["events.log", "metrics.csv", "summary.txt"]
    ticks, temps_seen = fail_at_tick_74(monkeypatch, out)
    assert main(["run", "--scenario", str(scenario), "--out", str(out), "--seed", "8"]) == 3
    assert ticks == list(range(75))
    assert temps_seen == [f".events.log.{os.getpid()}.tmp"]
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_run_failing_mid_simulation_removes_the_directories_it_made(tmp_path, monkeypatch):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "a" / "b" / "c"
    _, temps_seen = fail_at_tick_74(monkeypatch, out)
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 3
    assert temps_seen == [f".events.log.{os.getpid()}.tmp"]
    assert not (tmp_path / "a").exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scenario.scn"]


@pytest.mark.parametrize("held", [{}, {"notes.txt": "mine\n"}], ids=["empty", "unrelated-file"])
def test_run_failing_mid_simulation_keeps_an_existing_out_directory(tmp_path, monkeypatch, held):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    for name, text in held.items():
        (out / name).write_text(text)
    _, temps_seen = fail_at_tick_74(monkeypatch, out)
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 3
    assert temps_seen == [f".events.log.{os.getpid()}.tmp"]
    assert {path.name: path.read_text() for path in out.iterdir()} == held


@pytest.mark.parametrize(
    "command, out",
    [
        (["run"], "fo"),
        (["run"], "fo/sub"),
        (["sweep", "--seeds", "1", "2"], "fo"),
        (["sweep", "--seeds", "1", "2"], "fo/sub"),
        (["sweep", "--seeds", "1", "2", "--jobs", "2"], "fo"),
        (["sweep", "--seeds", "1", "2", "--jobs", "2"], "fo/sub"),
        (["trace", "--mode", "fig1"], "fo/sub"),
    ],
    ids=["run", "run-under", "sweep", "sweep-under", "sweep-jobs2", "sweep-jobs2-under", "trace-under"],
)
def test_out_at_or_under_a_regular_file_runs_nothing(tmp_path, monkeypatch, capsys, command, out):
    # the staging directory is made before the first tick, and the file
    # refuses it there
    runs, sizes = [], []
    real_run = cli.engine.run
    monkeypatch.setattr(cli.engine, "run", lambda config: runs.append(config) or real_run(config))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_process_pool(sizes))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    scenario = small_scenario(tmp_path)
    fo = tmp_path / "fo"
    fo.write_bytes(b"kept\n")
    argv = [*command, "--out", str(tmp_path / out)]
    if command[0] != "trace":
        argv += ["--scenario", str(scenario)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"i/o error: [Errno 17] File exists: '{fo}'\n"
    assert runs == [] and sizes == []
    assert fo.read_bytes() == b"kept\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fo", "scenario.scn"]


@pytest.mark.parametrize(
    "command, blocked",
    [(["run"], "events.log"), (["sweep", "--seeds", "1", "2"], "aggregate.csv")],
    ids=["run", "sweep"],
)
def test_directory_made_at_a_target_during_the_run_replaces_no_output(
    tmp_path, monkeypatch, capsys, command, blocked
):
    # the last target becomes a directory while the simulation runs: the
    # check before the first replace finds it, so no output is replaced
    scenario = small_scenario(tmp_path)
    out = tmp_path / "out"
    argv = [*command, "--scenario", str(scenario), "--out", str(out)]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    real_run = cli.engine.run

    def run_then_block(config):
        if (out / blocked).is_file():
            (out / blocked).unlink()
            (out / blocked).mkdir()
        return real_run(config)

    monkeypatch.setattr(cli.engine, "run", run_then_block)
    # a one-tick run declares nothing, so every output file would change
    assert main([*argv, "--set", "max_ticks=1"]) == 3
    assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: '{out / blocked}'\n"
    after = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    assert after == {name: data for name, data in before.items() if name != blocked}
    assert list((out / blocked).iterdir()) == []


def test_sigterm_mid_run_exits_143_and_leaves_nothing(tmp_path):
    """``timeout`` and service managers stop a command with SIGTERM; it
    cleans up as Ctrl-C does, so the streaming log's temp file goes with
    the ``--out`` directory the run made."""
    scenario = write_scenario(tmp_path, SMALL.replace("max_ticks 120", f"max_ticks {10**24}"))
    out = tmp_path / "out"
    src = Path(cli.__file__).resolve().parent.parent
    child = subprocess.Popen(
        [sys.executable, "-m", "anttrack.cli", "run", "--scenario", str(scenario), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), stderr=subprocess.PIPE,
    )
    temp = out / f".events.log.{child.pid}.tmp"
    try:
        deadline = time.monotonic() + 60
        # once the log has flushed once, the simulation is under way
        while not (temp.exists() and temp.stat().st_size > 0):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signal.SIGTERM)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, err) == (143, b"")
    assert not out.exists()


def sigterm_a_pooled_sweep(tmp_path, kill):
    """Start a default75 sweep of 200 seeds on two workers in a session of
    its own, and once its workers are under way, signal it by ``kill(pid,
    SIGTERM)``: it exits 143 within 2 s, printing nothing, and leaves no
    ``--out`` directory and no process in its group.  Each worker's chunk of
    100 seeds takes about 10 s (2 cores, Python 3.11.7), far past that
    bound, so a sweep that waits for its workers' chunks fails."""
    out = tmp_path / "out"
    src = Path(cli.__file__).resolve().parent.parent
    child = subprocess.Popen(
        [sys.executable, "-m", "anttrack.cli", "sweep", "--scenario", str(SCENARIOS / "default75.scn"),
         "--seeds", "1..200", "--jobs", "2", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not out.exists():
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.5)  # so the workers are under way
        kill(child.pid, signal.SIGTERM)
        _, err = child.communicate(timeout=2)
        assert (child.returncode, err) == (143, b"")
        assert not out.exists()
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pooled sweep needs two cores")
def test_sigterm_to_a_pooled_sweep_alone_ends_it_at_once(tmp_path):
    """A SIGTERM sent to a pooled sweep's own process, not to its group,
    kills its workers rather than waiting for their chunks of seeds."""
    sigterm_a_pooled_sweep(tmp_path, os.kill)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pooled sweep needs two cores")
def test_sigterm_to_a_pooled_sweeps_group_ends_it_at_once(tmp_path):
    """A SIGTERM sent to a pooled sweep's whole process group, as
    ``timeout`` sends it, reaches the workers too: each dies of it, and
    the sweep still exits 143, not as a sweep whose worker died."""
    sigterm_a_pooled_sweep(tmp_path, os.killpg)


DYING_POOL = """
import os, signal, sys
from anttrack import cli
cli.os.cpu_count = lambda: 2
cli.engine.run = lambda config: {death}
sys.exit(cli.main(sys.argv[1:]))
"""


def sweep_with_dying_workers(tmp_path, death):
    """A star10 sweep on two workers, each of which runs ``death`` at its
    first seed: the sweep prints one error line naming the dead worker, no
    traceback, exits 1 and leaves no ``--out`` directory."""
    out = tmp_path / "out"
    src = Path(cli.__file__).resolve().parent.parent
    child = subprocess.run(
        [sys.executable, "-c", DYING_POOL.format(death=death), "sweep",
         "--scenario", str(SCENARIOS / "star10.scn"),
         "--seeds", "1..4", "--jobs", "2", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert (child.returncode, child.stderr) == (
        1, "error: a --jobs worker process died mid-sweep\n"
    )
    assert not out.exists()


def test_pooled_sweep_whose_worker_dies_exits_1_with_one_error_line(tmp_path):
    sweep_with_dying_workers(tmp_path, "os._exit(9)")


def test_pooled_sweep_whose_worker_takes_sigterm_exits_1_with_one_error_line(tmp_path):
    """A SIGTERM to one worker alone kills it as any signal does: a worker
    that kept the handler of the sweep it was forked from would take the
    signal as its chunk's error, and the sweep would exit 143, silently."""
    sweep_with_dying_workers(tmp_path, "os.kill(os.getpid(), signal.SIGTERM)")


@pytest.mark.parametrize(
    "command",
    [["run", "--scenario", str(SCENARIOS / "star10.scn")],
     ["sweep", "--scenario", str(SCENARIOS / "star10.scn"), "--seeds", "1"],
     ["trace", "--mode", "fig1"]],
    ids=["run", "sweep", "trace"],
)
def test_empty_out_is_refused_by_name(tmp_path, monkeypatch, capsys, command):
    """An empty ``--out`` would name the working directory: every command
    refuses it before it runs and writes nothing there."""
    runs = []
    monkeypatch.setattr(cli.engine, "run", runs.append)
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--out", ""]) == 2
    assert capsys.readouterr().err == "error: --out must name a path, got ''\n"
    assert runs == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("packets, code", [("1", 0), ("0", 2)])
def test_main_restores_the_sigterm_handler(tmp_path, packets, code):
    before = signal.getsignal(signal.SIGTERM)
    argv = ["trace", "--mode", "fig2", "--packets", packets, "--out", str(tmp_path / "t.csv")]
    assert main(argv) == code
    assert signal.getsignal(signal.SIGTERM) is before


def test_main_runs_off_the_main_thread(tmp_path):
    """Only the main thread may set a signal handler, so elsewhere ``main``
    leaves SIGTERM as it is."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        done = pool.submit(main, ["trace", "--mode", "fig1", "--out", str(tmp_path / "t.csv")])
        assert done.result() == 0
    assert (tmp_path / "t.csv").exists()


def test_trace_fig1_values(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["trace", "--mode", "fig1", "--out", str(out)]) == 0
    rows = read_trace(out)
    assert len(rows) == 100
    assert rows[3] == ("bad", 20.0)
    assert math.isclose(rows[10][1], 34.7018378125, rel_tol=1e-8)
    assert math.isclose(rows[15][1], 48.26486378476757, rel_tol=1e-8)
    assert math.isclose(rows[100][1], 0.6167902989543368, rel_tol=1e-8)
    assert {kind for kind, _ in rows.values()} == {"good", "bad"}
    assert [i for i, (kind, _) in rows.items() if kind == "bad"] == [3, 10, 15]


def test_trace_packets_bound_is_accepted_and_refused_past_it():
    bound = cli.MAX_TRACE_PACKETS
    assert bound >= 50 * 200  # the paper's fig2 trace
    assert len(cli.trace_events("fig2", bound, None)) == bound
    with pytest.raises(InvalidConfig, match=f"--packets must be <= {bound}, got {bound + 1}"):
        cli.trace_events("fig2", bound + 1, None)


@pytest.mark.parametrize(
    "mode, events", [("fig1", []), ("custom", ["--events", "GGB"])], ids=["fig1", "custom"]
)
def test_trace_packets_is_read_only_in_fig2_mode(tmp_path, mode, events):
    plain, zero = tmp_path / "plain.csv", tmp_path / "zero.csv"
    assert main(["trace", "--mode", mode, *events, "--out", str(plain)]) == 0
    assert main(["trace", "--mode", mode, *events, "--packets", "0", "--out", str(zero)]) == 0
    assert zero.read_bytes() == plain.read_bytes()


def test_trace_fig1_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["trace", "--mode", "fig1", "--out", str(a)]) == 0
    assert main(["trace", "--mode", "fig1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trace_fig2_pattern_and_convergence(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["trace", "--mode", "fig2", "--out", str(out)]) == 0
    rows = read_trace(out)
    assert len(rows) == 200
    assert [i for i, (kind, _) in rows.items() if kind == "bad"] == list(range(5, 201, 5))
    post_bad_limit = 20.0 / (1.0 - 0.95**4)
    assert math.isclose(rows[200][1], post_bad_limit, rel_tol=1e-3)
    assert math.isclose(rows[199][1], post_bad_limit - 20.0, rel_tol=1e-3)


def test_trace_custom_events(tmp_path):
    out = tmp_path / "custom.csv"
    assert main(["trace", "--mode", "custom", "--events", "GGB", "--out", str(out)]) == 0
    rows = read_trace(out)
    assert rows == {1: ("good", 0.0), 2: ("good", 0.0), 3: ("bad", 20.0)}


def test_trace_custom_matches_closed_form(tmp_path):
    out = tmp_path / "custom.csv"
    events = "GBBGGGBGGGGGGBGG"
    assert main(["trace", "--mode", "custom", "--events", events, "--out", str(out)]) == 0
    rows = read_trace(out)
    params = PheromoneParams()
    seq = [c == "B" for c in events]
    for i in range(1, len(events) + 1):
        assert math.isclose(
            rows[i][1], closed_form_value(seq[:i], params), rel_tol=1e-8, abs_tol=1e-12
        )


def test_trace_custom_params(tmp_path):
    out = tmp_path / "t.csv"
    assert main(
        ["trace", "--mode", "custom", "--events", "B", "--inc", "5", "--dec", "0.5", "--out", str(out)]
    ) == 0
    assert read_trace(out)[1] == ("bad", 5.0)


AGGREGATE_HEADER = (
    "seed,all_identified_tick,median_all_identified_tick,min_all_identified_tick,"
    "max_all_identified_tick,never_identified"
)


def test_sweep_single_seed_matches_run(tmp_path):
    scenario = small_scenario(tmp_path)
    sweep_out = tmp_path / "sweep"
    run_out = tmp_path / "run"
    assert main(["sweep", "--scenario", str(scenario), "--out", str(sweep_out), "--seeds", "7"]) == 0
    assert main(["run", "--scenario", str(scenario), "--out", str(run_out), "--seed", "7"]) == 0
    assert (sweep_out / "metrics_seed7.csv").read_text() == (run_out / "metrics.csv").read_text()
    agg = (sweep_out / "aggregate.csv").read_text().strip().split("\n")
    assert agg[0] == AGGREGATE_HEADER
    assert len(agg) == 3  # header, one seed, summary
    tick = agg[1].split(",")[1]
    assert agg[2] == f"summary,,{tick},{tick},{tick},0"


def test_sweep_range_and_aggregate(tmp_path):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario), "--out", str(out), "--seeds", "1..5"]) == 0
    agg = (out / "aggregate.csv").read_text().strip().split("\n")
    assert agg[0] == AGGREGATE_HEADER
    assert len(agg) == 7  # header + 5 seeds + summary
    summary = agg[-1].split(",")
    assert summary[:2] == ["summary", ""]
    ticks = []
    for row in agg[1:-1]:
        seed, tick, *stats = row.split(",")
        assert stats == ["", "", "", ""]
        assert (out / f"metrics_seed{seed}.csv").exists()
        ticks.append(math.inf if tick == "" else int(tick))
    assert float(summary[2]) == statistics.median(ticks)
    assert float(summary[3]) == min(ticks)
    assert float(summary[4]) == max(ticks)
    assert int(summary[5]) == ticks.count(math.inf)


def test_sweep_counts_never_identified_seeds_as_infinite(tmp_path):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", str(scenario), "--out", str(out), "--seeds", "1..3",
                 "--set", "max_ticks=1"])
    assert code == 0
    agg = (out / "aggregate.csv").read_text().strip().split("\n")
    assert agg[1:] == ["1,,,,,", "2,,,,,", "3,,,,,", "summary,,inf,inf,inf,3"]


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    # a topology file named by absolute path, and star10.scn's, named
    # relative to the scenario's directory
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for name, scenario in [("small", small_scenario(tmp_path)), ("star10", SCENARIOS / "star10.scn")]:
        serial = tmp_path / name / "serial"
        parallel = tmp_path / name / "parallel"
        argv = ["sweep", "--scenario", str(scenario), "--seeds", "1..4"]
        assert main(argv + ["--out", str(serial)]) == 0
        assert main(argv + ["--out", str(parallel), "--jobs", "2"]) == 0
        for file in ["aggregate.csv"] + [f"metrics_seed{s}.csv" for s in range(1, 5)]:
            assert (serial / file).read_text() == (parallel / file).read_text()


def in_process_pool(sizes: list[int]) -> type:
    """A stand-in for ProcessPoolExecutor that appends its size to ``sizes``
    and runs each submitted call in this process, so no worker process
    starts and no worker initializer runs."""

    class InProcessPool(concurrent.futures.Executor):
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)

        def submit(self, fn, /, *args, **kwargs):
            future = concurrent.futures.Future()
            future.set_result(fn(*args, **kwargs))
            return future

    return InProcessPool


def pid_log(path: Path):
    """A function that appends its arguments, after the id of the process
    that calls it, as one line of ``path``.  A process pool's workers are
    forked from this process, so calls made in them are recorded too."""

    def log(*items):
        with open(path, "a") as f:
            f.write(" ".join(map(str, (os.getpid(), *items))) + "\n")

    return log


def read_pid_log(path: Path) -> dict[int, list[list[str]]]:
    """The lines ``pid_log`` wrote to ``path``, by process id."""
    by_pid: dict[int, list[list[str]]] = {}
    for line in path.read_text().splitlines():
        pid, *items = line.split()
        by_pid.setdefault(int(pid), []).append(items)
    return by_pid


@pytest.mark.parametrize("cpus, jobs, expected", [(2, 64, 2), (8, 64, 3), (8, 2, 2), (1, 64, None)])
def test_sweep_jobs_clamped(tmp_path, monkeypatch, cpus, jobs, expected):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_process_pool(sizes))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    scenario = small_scenario(tmp_path)
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", str(scenario), "--out", str(out), "--seeds", "1..3",
                 "--jobs", str(jobs), "--set", "max_ticks=10"])
    assert code == 0
    assert sizes == ([] if expected is None else [expected])
    assert (out / "metrics_seed3.csv").exists()


def test_pooled_sweep_builds_each_config_in_the_worker_that_runs_it(tmp_path, monkeypatch):
    """A pooled sweep builds no config in this process: a worker builds each
    of its seeds' configs just before that seed runs, so it holds one at a
    time, and the pool is sent seeds, not configs."""
    log = pid_log(tmp_path / "calls")
    real_build, real_run = cli.build_config, cli.engine.run

    def recording_build(data, seed=None):
        log("build", seed)
        return real_build(data, seed)

    def recording_run(config):
        log("run", config.seed)
        return real_run(config)

    monkeypatch.setattr(cli, "build_config", recording_build)
    monkeypatch.setattr(cli.engine, "run", recording_run)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    scenario = small_scenario(tmp_path)
    code = main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "sweep"),
                 "--seeds", "1..5", "--jobs", "2", "--set", "max_ticks=10"])
    assert code == 0
    by_pid = read_pid_log(tmp_path / "calls")
    assert os.getpid() not in by_pid
    ran = []
    for calls in by_pid.values():
        seeds = [seed for step, seed in calls if step == "run"]
        assert calls == [[step, seed] for seed in seeds for step in ("build", "run")]
        ran += seeds
    assert sorted(ran, key=int) == ["1", "2", "3", "4", "5"]


def test_pooled_sweep_builds_the_reach_levels_once_per_worker(tmp_path, monkeypatch):
    """Each worker of a pooled sweep gets one chunk of seeds, and with it one
    copy of a topology file's topology, which keeps its reach levels once
    built: two workers build them twice in all, not once per seed, and this
    process, which builds no config, not at all."""
    log = pid_log(tmp_path / "levels")
    build = topology.NetworkTopology.levels.build

    @functools.wraps(build)
    def recording_build(topo):
        log("levels")
        return build(topo)

    monkeypatch.setattr(topology.NetworkTopology.levels, "build", recording_build)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code = main(["sweep", "--scenario", str(SCENARIOS / "star10.scn"), "--out", str(tmp_path / "o"),
                 "--seeds", "1..6", "--jobs", "2", "--set", "max_ticks=5"])
    assert code == 0
    by_pid = read_pid_log(tmp_path / "levels")
    assert os.getpid() not in by_pid
    assert sum(map(len, by_pid.values())) == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_asks_for_no_log_and_run_asks_for_the_log(tmp_path, monkeypatch, jobs):
    configs = []
    real_run = cli.engine.run

    def recording_run(config):
        configs.append(config)
        return real_run(config)

    sizes = []
    monkeypatch.setattr(cli.engine, "run", recording_run)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_process_pool(sizes))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    scenario = small_scenario(tmp_path)
    code = main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "sweep"),
                 "--seeds", "1..3", "--jobs", str(jobs), "--set", "max_ticks=10"])
    assert code == 0
    assert sizes == ([] if jobs == 1 else [2])
    assert [(c.seed, c.sink) for c in configs] == [(1, None), (2, None), (3, None)]

    configs.clear()
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "run")]) == 0
    assert len(configs) == 1 and callable(configs[0].sink)
    assert (tmp_path / "run" / "events.log").stat().st_size > 0


POOL_PROBE = """
import sys
from anttrack import cli, engine, traffic

def loaded(*names):
    return sorted(set(names) & sys.modules.keys())

print(cli.__file__)
print(loaded("concurrent.futures", "multiprocessing", "statistics"))
code = cli.main(["sweep", "--scenario", sys.argv[1], "--out", sys.argv[2],
                 "--seeds", "1..2", "--jobs", "1", "--set", "max_ticks=10"])
print(code, loaded("concurrent.futures", "multiprocessing"))
"""


def test_import_and_serial_sweep_load_no_process_pool(tmp_path):
    """A fresh interpreter loads neither the process pool nor
    multiprocessing to import the CLI or to run a serial sweep, and imports
    the CLI without ``statistics``, which only a sweep uses."""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "sweep"
    child = subprocess.run(
        [sys.executable, "-c", POOL_PROBE, str(SCENARIOS / "star10.scn"), str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert child.stdout.splitlines() == [str(src / "anttrack" / "cli.py"), "[]", "0 []"]
    assert (out / "aggregate.csv").exists()


def test_sweep_builds_each_config_just_before_its_run(tmp_path, monkeypatch):
    """A sweep reads and builds a topology file once, so every seed's config
    holds the same topology object, and builds each seed's config just
    before that seed runs."""
    calls, configs = [], []
    real_build, real_run = cli.build_config, cli.engine.run

    def recording_build(data, seed=None):
        calls.append(("build", seed))
        return real_build(data, seed)

    def recording_run(config):
        calls.append(("run", config.seed))
        configs.append(config)
        return real_run(config)

    monkeypatch.setattr(cli, "build_config", recording_build)
    monkeypatch.setattr(cli.engine, "run", recording_run)
    scenario = small_scenario(tmp_path)
    code = main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "sweep"),
                 "--seeds", "1..3", "--set", "max_ticks=10"])
    assert code == 0
    assert calls == [(step, seed) for seed in (1, 2, 3) for step in ("build", "run")]
    assert all(config.topology is configs[0].topology for config in configs)


def test_serial_sweep_drops_each_config_before_building_the_next(tmp_path, monkeypatch):
    """A topology keeps its reach levels once built, so a serial
    sweep over random topologies holds one seed's config, and one set of
    levels, at a time."""
    built = []
    real_build = cli.build_config

    def recording_build(data, seed=None):
        assert [ref() for ref in built] == [None] * len(built)
        config = real_build(data, seed)
        built.append(weakref.ref(config.topology))
        return config

    monkeypatch.setattr(cli, "build_config", recording_build)
    scenario = write_scenario(tmp_path, "random_topology 20 0.1\nmax_ticks 5\n")
    code = main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "sweep"),
                 "--seeds", "1..3"])
    assert code == 0
    assert len(built) == 3


@pytest.mark.parametrize(
    "body, message",
    [
        ("random_topology 5 1.5\n", "extra_edge_prob must be in [0, 1], got 1.5"),
        ("nodes 2\nedge 0 1\ninc -1\n", "increase (inc) must be finite and > 0, got -1.0"),
    ],
)
def test_sweep_rejected_by_build_config_runs_nothing(tmp_path, monkeypatch, capsys, body, message):
    # build_config's checks do not depend on the seed, so each process's
    # first seed's config fails before any simulation runs; with --jobs 2
    # the fault comes from a worker, forked with this engine.run
    ran = tmp_path / "ran"
    monkeypatch.setattr(cli.engine, "run", lambda config: ran.touch())
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    scenario = write_scenario(tmp_path, body)
    for jobs in ("1", "2"):
        out = tmp_path / f"sweep{jobs}"
        argv = ["sweep", "--scenario", str(scenario), "--out", str(out), "--seeds", "1..3"]
        assert main(argv + ["--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"error: {scenario}: {message}\n"
        assert not ran.exists()
        assert not out.exists()


def test_sweep_seed_count_bound_is_accepted_and_refused_past_it():
    bound = cli.MAX_SWEEP_SEEDS
    assert bound >= 50 * 20  # the largest sweep the README and benchmark show
    assert cli._expand_seeds([f"1..{bound}"]) == list(range(1, bound + 1))
    for tokens, last in [([f"0..{bound}"], f"0..{bound}"), (["7", f"1..{bound}"], f"1..{bound}")]:
        message = f"--seeds must give <= {bound} seeds, {last!r} brings them to {bound + 1}"
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            cli._expand_seeds(tokens)


# Each ended in a MemoryError traceback with exit 1 under a 1.5 GB address
# space limit, before the bounds; the same limit keeps a lost bound from
# exhausting the machine's memory here.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--scenario", str(SCENARIOS / "star10.scn"), "--seeds", "0..9999999999"],
         f"--seeds must give <= {cli.MAX_SWEEP_SEEDS} seeds, '0..9999999999' brings them to "
         "10000000000"),
        (["trace", "--mode", "fig2", "--packets", "9999999999"],
         f"--packets must be <= {cli.MAX_TRACE_PACKETS}, got 9999999999"),
    ],
    ids=["sweep-seeds", "trace-packets"],
)
def test_huge_flag_count_exits_2_at_once_naming_it(tmp_path, argv, message):
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))

    src = Path(cli.__file__).resolve().parent.parent
    out = tmp_path / "o"
    child = subprocess.run(
        [sys.executable, "-m", "anttrack.cli", *argv, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        preexec_fn=limit_memory, timeout=60,
    )
    assert (child.returncode, child.stderr) == (2, f"error: {message}\n")
    assert not out.exists()


def test_sweep_requires_seeds(tmp_path):
    scenario = small_scenario(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "o"), "--seeds"])
    assert exc.value.code == 2


def test_inline_topology_scenario(tmp_path):
    scenario = write_scenario(
        tmp_path,
        "nodes 3\nedge 0 1\nedge 1 2\ninfected 0\nmax_ticks 30\n"
        "good_packets_per_tick 0\nattack_packets_per_infected_per_tick 1\nant_count 1\nseed 1\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert "0,0," in (out / "metrics.csv").read_text()


def test_default_scenario_file_runs(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run", "--scenario", str(SCENARIOS / "default75.scn"), "--out", str(out),
            "--set", "max_ticks=60",
        ]
    )
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "nodes: 75" in summary


def test_trace_events_rejects_unknown_mode_by_name():
    """The library function checks the mode itself: the command line has no
    check of its own."""
    with pytest.raises(InvalidConfig, match="unknown trace mode 'fig3'"):
        cli.trace_events("fig3", 100, "GB")

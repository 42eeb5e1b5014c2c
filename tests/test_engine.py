import gc
import hashlib
import random
import struct
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from anttrack import cli
from anttrack.engine import (
    SimulationConfig,
    derive_rng,
    event_log,
    generate_random_topology,
    metrics_to_csv,
    run,
)
from anttrack.pheromone import PheromoneParams
from anttrack.topology import InvalidConfig, NetworkTopology
from anttrack.traffic import RouteMemo, TrafficRates
from anttrack.transport import DetectorModel

from conftest import (
    SCENARIOS,
    compute_bandwidth_stats,
    directions,
    logged_run,
    path_topology,
    scenario_config,
    star_topology,
)


def traced_peak(fn):
    """Peak bytes allocated while fn runs, as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tiny_config(**overrides):
    base = dict(
        topology=path_topology(3),
        rates=TrafficRates(good_packets_per_tick=0, attack_packets_per_infected_per_tick=1),
        ant_count=1,
        infections=((0, 0),),
        max_ticks=20,
        seed=1,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def small_config(**overrides):
    base = dict(
        topology=path_topology(10),
        rates=TrafficRates(good_packets_per_tick=5, attack_packets_per_infected_per_tick=2),
        ant_count=3,
        infections=((0, 3),),
        max_ticks=150,
        seed=42,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_three_node_golden_run():
    metrics = run(tiny_config())
    # pinned from the seeded run: attack trail edges above threshold from
    # tick 1, then the ant needs a fresh-direction arrival at node 1 before
    # it can walk the trail down to node 0
    assert metrics.first_declaration_tick == {0: 3}
    assert metrics.all_identified_tick == 3
    assert metrics.false_declaration_tick == {}


def test_declarations_filed_by_infection_at_their_tick():
    """Both declaration maps, rebuilt from the log's DECL lines and the
    infection schedule: a node infected by a declaration's tick is filed as
    identified, any other as false, each with its first tick, in the order
    of first declarations.  noisy75 at its seed 42 falsely declares 8
    distinct nodes."""
    config = scenario_config("noisy75")
    assert config.seed == 42
    metrics, log = logged_run(config)
    infected_at = {node: tick for tick, node in config.infections}
    first, false = {}, {}
    for line in log:
        if line.startswith("DECL,"):
            tick, _, node = map(int, line.split(",")[1:])
            if node in infected_at and infected_at[node] <= tick:
                first.setdefault(node, tick)
            else:
                false.setdefault(node, tick)
    assert len(false) == 8
    assert list(metrics.false_declaration_tick.items()) == list(false.items())
    assert list(metrics.first_declaration_tick.items()) == list(first.items())


def test_run_is_deterministic():
    m1, log1 = logged_run(small_config())
    m2, log2 = logged_run(small_config())
    assert log1 == log2
    assert metrics_to_csv(m1) == metrics_to_csv(m2)
    _, log3 = logged_run(small_config(seed=43))
    assert log1 != log3


def test_zero_ants_no_declarations_field_still_evolves():
    metrics, log = logged_run(small_config(ant_count=0, max_ticks=50))
    assert metrics.first_declaration_tick == {}
    assert metrics.all_identified_tick is None
    assert any(line.startswith("PHERO,") for line in log)
    assert not any(line.startswith("ANT,") for line in log)


def test_field_evolution_independent_of_ants():
    def field_lines(ant_count):
        _, log = logged_run(small_config(ant_count=ant_count, max_ticks=60))
        return [line for line in log if line.startswith("FIELD,")]

    assert field_lines(0) == field_lines(3)


def test_declaration_never_precedes_infection():
    config = small_config(
        infections=((0, 2), (40, 8)),
        max_ticks=400,
    )
    metrics = run(config)
    for node, dtick in metrics.first_declaration_tick.items():
        assert dtick >= metrics.infection_tick[node]


def test_scripted_infection_starts_attacks_at_tick():
    config = small_config(infections=((30, 6),))
    _, log = logged_run(config)
    attack_spawns = [
        line.split(",") for line in log
        if line.startswith("PKT,") and line.endswith(",1") and ",spawn," in line
    ]
    assert attack_spawns, "no attack traffic seen"
    ticks = [int(parts[1]) for parts in attack_spawns]
    sources = {parts[4] for parts in attack_spawns}
    assert min(ticks) == 30
    assert sources == {"6"}


def test_all_identified_recomputed_for_late_infection():
    # star center sees every trail, so a trail to the late-infected leaf is
    # reachable even from an ant parked on the first trail
    config = SimulationConfig(
        topology=star_topology(10),
        rates=TrafficRates(good_packets_per_tick=5, attack_packets_per_infected_per_tick=2),
        ant_count=3,
        infections=((0, 4), (60, 8)),
        max_ticks=400,
        seed=42,
    )
    metrics = run(config)
    assert set(metrics.first_declaration_tick) == {4, 8}
    assert metrics.all_identified_tick == max(metrics.first_declaration_tick.values())
    assert metrics.first_declaration_tick[8] >= 60


# Each case names its id, so that deleting a case renames no other case; the
# ids are the ones the cases had when they were numbered by position.
@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"max_ticks": 0}, id="overrides0"),
        pytest.param({"ant_count": -1}, id="overrides1"),
        pytest.param({"infections": ((0, 99),)}, id="overrides2"),
        pytest.param({"infections": ((0, 0), (5, 99))}, id="overrides3"),
        pytest.param({"infections": ((0, 0), (-1, 1))}, id="overrides4"),
        pytest.param({"infections": ((0, 0), (5, 0))}, id="overrides5"),  # node 0 infected twice
        pytest.param({"infections": ((0, -1),)}, id="overrides6"),
        pytest.param({"sink": True}, id="overrides7"),
    ],
)
def test_invalid_configs_rejected(overrides):
    with pytest.raises(InvalidConfig):
        run(tiny_config(**overrides))


def test_one_node_topology_rejected():
    # no packet could draw a destination other than its source, and no agent
    # could move
    with pytest.raises(InvalidConfig, match="node_count must be >= 2, got 1"):
        tiny_config(topology=NetworkTopology.from_edges(1, []), ant_count=0)


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        pytest.param("star10", [], id="star10-overrides0"),
        pytest.param("reinfection75", ["max_ticks=400"], id="reinfection75-overrides1"),
        pytest.param("default75", ["max_ticks=150"], id="default75-overrides2"),
        pytest.param("default75", ["max_ticks=150", "ant_choice=greedy"], id="default75-overrides3"),
        pytest.param(
            "default75",
            ["max_ticks=300", "detect_prob=0.5", "false_positive_prob=0.02"],
            id="default75-overrides4",
        ),
    ],
)
def test_log_free_run_has_the_same_metrics(scenario, overrides):
    config = scenario_config(scenario, overrides)
    assert config.sink is None
    logged, log = logged_run(config)
    assert log
    assert run(config) == logged


def digest_oracle(levels: dict[tuple[int, int], float]) -> str:
    """The FIELD digest by its definition: SHA-1 over the sorted records."""
    h = hashlib.sha1()
    for (u, v), value in sorted(levels.items()):
        h.update(struct.pack("<iid", u, v, value))
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        pytest.param("star10", [], id="star10"),
        pytest.param("reinfection75", ["max_ticks=300"], id="reinfection75"),
        pytest.param("star10", ["infected="], id="uninfected"),
        pytest.param(
            "default75",
            ["max_ticks=300", "detect_prob=0.5", "false_positive_prob=0.02"],
            id="noisy",
        ),
    ],
)
def test_field_lines_match_replayed_phero_records(scenario, overrides):
    """Each tick's FIELD line is the digest of the levels that the log's
    PHERO lines up to that tick give when replayed by kind alone (``good``
    multiplies by dec, ``bad`` adds inc; the printed value is not read).
    A direction crossed only by clean confirmations is in the digest at 0.0.

    The directions are checked by their own rule: a confirmation's first
    write starts at the node where its packet ended, and new confirmations
    walk after the older ones.  So a tick's last k PHERO lines are the
    first writes of the k packets that ended the tick before, in the order
    of their outcome lines: each starts at the outcome's node, and is
    ``bad`` exactly when the packet was detected."""
    config = scenario_config(scenario, overrides)
    _, log = logged_run(config)
    levels: dict[tuple[int, int], float] = {}
    digests = []
    # (start node, bad) of this tick's PHERO lines, and (node, detected) of
    # the outcomes of the tick before and of this tick
    writes: list[tuple[int, bool]] = []
    ended: list[tuple[int, bool]] = []
    ending: list[tuple[int, bool]] = []
    for line in log:
        tag, tick, rest = line.split(",", 2)
        if tag == "PHERO":
            u, v, kind, _ = rest.split(",")
            key = int(u), int(v)
            writes.append((key[0], kind == "bad"))
            if kind == "good":
                levels[key] = levels.get(key, 0.0) * config.params.decay
            else:
                assert kind == "bad", line
                levels[key] = levels.get(key, 0.0) + config.params.increase
        elif tag == "PKT" and not rest.startswith("spawn,"):
            event, _, node = rest.split(",")
            ending.append((int(node), event == "detected"))
        elif tag == "FIELD":
            assert rest == digest_oracle(levels), f"tick {tick}"
            digests.append(rest)
            assert writes[len(writes) - len(ended):] == ended, f"tick {tick}"
            writes, ended, ending = [], ending, []
    assert len(digests) == config.max_ticks
    if not config.infections:
        assert levels == dict.fromkeys(directions(config.topology), 0.0)
        assert digests[-1] != hashlib.sha1(b"").hexdigest()[:16]


def full_memo_peak(topo):
    """Peak bytes of a route memo holding a route for every node pair."""

    def fill_memo():
        memo = RouteMemo(topo)
        for src in range(topo.node_count):
            for dst in range(topo.node_count):
                if src != dst:
                    memo[src, dst]

    return traced_peak(fill_memo)


def test_log_free_run_memory_stays_flat():
    """A log-free default75 run peaks at the same memory over 4N ticks as
    over N, give or take what the route memo adds.

    Beyond its inputs, a log-free run holds three things. The route memo
    holds at most one route per ordered node pair (75 x 74 here), and the
    topology its reach levels, built in full with the config. The
    in-flight set holds only packets and confirmations younger than the
    network's diameter, since each moves
    one hop per tick and traffic enters at a fixed rate. The metrics hold at
    most one entry per node. Between N and 4N ticks, then, the peak can grow
    by no more than the part of the memo still unfilled at N, which is less
    than a full memo (about 1.2 MB, measured below; the run grows by about
    0.4 MB). A logged run adds only one tick's record lines, which
    test_logged_run_memory_stays_flat checks.
    """
    n = 200
    # each run, and the full memo, on a topology of its own, since the reach
    # levels are kept with the topology once built
    config_n, config_4n = scenario_config("default75"), scenario_config("default75")
    peak_n = traced_peak(lambda: run(replace(config_n, max_ticks=n)))
    peak_4n = traced_peak(lambda: run(replace(config_4n, max_ticks=4 * n)))
    full_memo = full_memo_peak(scenario_config("default75").topology)
    assert peak_4n - peak_n <= full_memo, (peak_n, peak_4n, full_memo)


def test_logged_run_memory_stays_flat(tmp_path):
    """``anttrack run`` on default75, event log included, peaks at the same
    memory over 4N ticks as over N, within the bound of the log-free test.

    The run hands each tick's record lines (about 300 lines, 25 kB of
    strings) to the events.log temp file as one string and keeps none of
    them, so what a logged run adds to a log-free one is one tick's lines
    and the file's buffer, whatever max_ticks is (the peak grows by about
    0.3 MB here, as the route memo fills). Holding the whole log and
    joining it for the write would add about 40 kB per tick, or 12 MB over
    the 3N extra ticks.
    """
    n = 100
    scenario = SCENARIOS / "default75.scn"

    def cli_run(ticks):
        out = tmp_path / f"ticks{ticks}"
        argv = ["run", "--scenario", str(scenario), "--out", str(out), "--set", f"max_ticks={ticks}"]
        assert cli.main(argv) == 0

    peak_n = traced_peak(lambda: cli_run(n))
    peak_4n = traced_peak(lambda: cli_run(4 * n))
    full_memo = full_memo_peak(scenario_config("default75").topology)
    assert peak_4n - peak_n <= full_memo, (peak_n, peak_4n, full_memo)


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        pytest.param("star10", [], id="star10"),
        pytest.param("default75", ["max_ticks=200"], id="default75"),
    ],
)
def test_sink_values_match_the_event_log_per_tick(scenario, overrides):
    """The event log is one sink over the seven values a run reports each
    tick: a tee sink that records their lengths and feeds ``event_log``
    sees, every tick, one value per record line of its kind."""
    config = scenario_config(scenario, overrides)
    lengths, chunks = [], []
    log = event_log(config.topology, chunks.append)

    def tee(tick, new_packets, moved, values, outcomes, ants, declared):
        lengths.append((tick, *map(len, (new_packets, moved, values, outcomes, ants, declared))))
        log(tick, new_packets, moved, values, outcomes, ants, declared)

    run(replace(config, sink=tee))
    assert [row[0] for row in lengths] == list(range(config.max_ticks))
    assert len(chunks) == config.max_ticks
    for (tick, spawned, moved, values, ended, ants, declared), chunk in zip(lengths, chunks):
        records = [line.split(",") for line in chunk.splitlines()]
        assert {int(r[1]) for r in records} == {tick}
        tags = Counter(r[2] if r[0] == "PKT" else r[0] for r in records)
        assert tags["spawn"] == spawned, tick
        assert tags["PHERO"] == values == moved, tick
        assert tags["detected"] + tags["delivered"] == ended, tick
        assert tags["ANT"] == ants, tick
        assert tags["DECL"] == declared, tick
        assert tags["FIELD"] == 1, tick


def test_streamed_log_conserves_records():
    """The log reaches its writer as one newline-terminated chunk per tick,
    holding only that tick's records: one FIELD line, one ANT line per
    agent, and one spawn per packet the traffic rates give for the nodes
    infected by then.  Each packet id is spawned once and ends at most
    once."""
    config = small_config(infections=((0, 3), (40, 7)), max_ticks=120)
    rates = config.rates
    chunks = []
    run(replace(config, sink=event_log(config.topology, chunks.append)))
    assert len(chunks) == config.max_ticks
    spawned, ended = Counter(), Counter()
    for tick, chunk in enumerate(chunks):
        assert chunk.endswith("\n")
        records = [line.split(",") for line in chunk.splitlines()]
        assert {int(r[1]) for r in records} == {tick}
        tags = Counter(r[0] for r in records)
        assert tags["FIELD"] == 1
        assert tags["ANT"] == config.ant_count
        infected = sum(t <= tick for t, _ in config.infections)
        spawns = [r[3] for r in records if r[0] == "PKT" and r[2] == "spawn"]
        assert len(spawns) == (
            rates.good_packets_per_tick + rates.attack_packets_per_infected_per_tick * infected
        )
        spawned.update(spawns)
        ended.update(r[3] for r in records if r[0] == "PKT" and r[2] in ("detected", "delivered"))
    assert set(spawned.values()) == {1}
    assert set(ended) <= set(spawned)
    assert set(ended.values()) == {1}


def test_log_ticks_monotone():
    _, log = logged_run(small_config(max_ticks=40))
    ticks = [int(line.split(",", 2)[1]) for line in log]
    assert ticks == sorted(ticks)


def test_bandwidth_accounting():
    config = small_config(max_ticks=60)
    _, log = logged_run(config)
    stats = compute_bandwidth_stats(log)
    assert set(stats) == set(range(60))
    for tick, row in stats.items():
        assert row.ant_lines == 3
        assert row.agent_total == row.ant_lines + row.declarations
    # confirmation hops recovered from the log match the PHERO line count
    assert sum(r.confirmation_hops for r in stats.values()) == sum(
        1 for line in log if line.startswith("PHERO,")
    )


def test_metrics_csv_shape():
    metrics = run(small_config(max_ticks=200))
    csv_text = metrics_to_csv(metrics)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "node,infected_tick,declared_tick,latency"
    assert lines[1].startswith("3,0,")
    node, itick, dtick, latency = lines[1].split(",")
    assert int(dtick) - int(itick) == int(latency)


def test_derive_rng_streams_are_stable_and_independent():
    a1 = [derive_rng(7, "traffic").random() for _ in range(5)]
    a2 = [derive_rng(7, "traffic").random() for _ in range(5)]
    b = [derive_rng(7, "detect").random() for _ in range(5)]
    c = [derive_rng(8, "traffic").random() for _ in range(5)]
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_random_topology_two_nodes():
    topo = generate_random_topology(2, 0.0, random.Random(0))
    assert topo == NetworkTopology.from_edges(2, [(0, 1)])


def test_random_topology_complete():
    n = 8
    topo = generate_random_topology(n, 1.0, random.Random(0))
    assert len(directions(topo)) == n * (n - 1)


def test_random_topology_connected_and_reproducible():
    for seed in range(10):
        topo1 = generate_random_topology(75, 0.02, random.Random(seed))
        topo2 = generate_random_topology(75, 0.02, random.Random(seed))
        assert topo1 == topo2
        # connectivity oracle: breadth-first reach from node 0
        seen = {0}
        frontier = [0]
        while frontier:
            frontier = [
                v for u in frontier for v in topo1.adjacency[u] if v not in seen
            ]
            seen.update(frontier)
        assert seen == set(range(75))


def test_random_topology_validation():
    with pytest.raises(InvalidConfig):
        generate_random_topology(1, 0.5, random.Random(0))
    with pytest.raises(InvalidConfig):
        generate_random_topology(5, 1.5, random.Random(0))


def test_repeated_declarations_deduplicate_to_earliest():
    # trails persist after a declaration, so ants re-declare; the metrics
    # keep only the earliest tick while the log keeps every event
    metrics, log = logged_run(small_config(max_ticks=300))
    decl_ticks = [
        int(line.split(",")[1])
        for line in log
        if line.startswith("DECL,") and line.endswith(",3")
    ]
    assert len(decl_ticks) > 1
    assert metrics.first_declaration_tick[3] == min(decl_ticks)


def test_bad_deposits_point_only_at_the_attack_source():
    metrics, log = logged_run(small_config(max_ticks=300))
    bad_targets = set()
    for line in log:
        if line.startswith("PHERO,"):
            _, _, u, v, kind, _ = line.split(",")
            if kind == "bad":
                bad_targets.add(int(v))
    # perfect detection means every bad confirmation travels exactly one hop
    # back to the source, so the infected node is the only deposit target,
    # reached from both sides of the path
    assert bad_targets == {3}
    bad_sources = {
        int(line.split(",")[2])
        for line in log
        if line.startswith("PHERO,") and line.split(",")[4] == "bad"
    }
    assert bad_sources == {2, 4}


def test_identification_on_star():
    config = SimulationConfig(
        topology=star_topology(10),
        rates=TrafficRates(good_packets_per_tick=5, attack_packets_per_infected_per_tick=2),
        ant_count=2,
        infections=((0, 4),),
        max_ticks=200,
        seed=3,
    )
    metrics = run(config)
    assert 4 in metrics.first_declaration_tick
    assert metrics.false_declaration_tick == {}

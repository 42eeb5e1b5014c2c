"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with the measured quantity (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Expected values are
computed by independent oracles: the literal event-list sum for the
incremental pheromone updates, recurrence iteration for the periodic-trace
limits, and breadth-first search for routing.  Criteria 5, 6 and 8-10 run
the shipped ``default75`` and ``reinfection75`` scenario files.
"""

import io
import math
import random
import statistics
import time
from dataclasses import replace

import pytest

from anttrack.cli import main, trace_events
from anttrack.engine import (
    SimulationConfig,
    derive_rng,
    event_log,
    generate_random_topology,
    metrics_to_csv,
    run,
)
from anttrack.pheromone import PheromoneField, PheromoneParams, closed_form_value
from anttrack.traffic import TrafficRates

from conftest import (
    grid_topology,
    logged_run,
    path_topology,
    scenario_config,
    star_topology,
)

GOOD, BAD = False, True
DEFAULTS = PheromoneParams()


def report(criterion: int, detail: str) -> None:
    print(f"\ncriterion {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def default_run():
    """The default75 run's metrics and event log lines, and per tick its
    agent hops, declaration reports and agents, counted by a sink teed
    with the log.  An agent that declares stays put for that step, so its
    hops are its agents less its declarations."""
    config = scenario_config("default75")
    log, counts = io.StringIO(), []
    log_tick = event_log(config.topology, log.write)

    def tee(tick, new_packets, moved, values, outcomes, ants, declared):
        counts.append((len(ants) - len(declared), len(declared), len(ants)))
        log_tick(tick, new_packets, moved, values, outcomes, ants, declared)

    metrics = run(replace(config, sink=tee))
    return metrics, log.getvalue().splitlines(), counts


def median_with_failures(values):
    """Median over all runs; a run that never identified counts as infinite."""
    return statistics.median(math.inf if v is None else v for v in values)


def test_criterion_1_incremental_matches_closed_form_oracle():
    # the field the engine runs, on the two-node topology 0-1; each sequence
    # updates direction 0 -> 1 of a fresh field
    pair = path_topology(2)
    rng = random.Random(20260810)
    start = time.monotonic()
    sequences = 1000
    total_events = 0
    for _ in range(sequences):
        params = PheromoneParams(
            increase=rng.uniform(1, 100), decay=rng.uniform(0.5, 0.99)
        )
        p_bad = rng.random()
        events = [
            BAD if rng.random() < p_bad else GOOD for _ in range(rng.randrange(10001))
        ]
        total_events += len(events)
        field = PheromoneField(pair)
        apply_bad, apply_good = field.apply_bad, field.apply_good
        for ev in events:
            apply_bad(0, 1, params) if ev is BAD else apply_good(0, 1, params)
        oracle = closed_form_value(events, params)
        assert math.isclose(field.read_level(0, 1), oracle, rel_tol=1e-9, abs_tol=1e-300)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"{sequences} sequences, {total_events} events, rel 1e-9, {elapsed:.1f}s")


def test_criterion_2_short_term_trace(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["trace", "--mode", "fig1", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    values = [float(line.split(",")[2]) for line in lines]
    kinds = [line.split(",")[1] for line in lines]
    assert len(values) == 100

    events = trace_events("fig1", 100, None)
    for idx in (3, 10, 15, 100):
        oracle = closed_form_value(events[:idx], DEFAULTS)
        assert math.isclose(values[idx - 1], oracle, rel_tol=1e-6)
    # the oracle values themselves
    assert closed_form_value(events[:3], DEFAULTS) == 20.0
    assert math.isclose(closed_form_value(events[:10], DEFAULTS), 34.7018378125, rel_tol=1e-9)
    assert math.isclose(closed_form_value(events[:15], DEFAULTS), 48.2648638, rel_tol=1e-7)
    assert math.isclose(closed_form_value(events, DEFAULTS), 0.6168, rel_tol=1e-4)

    # shape: exactly three upward jumps of the boost amount, decay elsewhere
    jumps = []
    prev = 0.0
    for i, value in enumerate(values, 1):
        if kinds[i - 1] == "bad":
            jumps.append(i)
            assert math.isclose(value - prev, 20.0, rel_tol=1e-9)
        else:
            assert math.isclose(value, prev * 0.95, rel_tol=1e-6, abs_tol=1e-12)
            assert value < prev or prev == 0.0
        prev = value
    assert jumps == [3, 10, 15]
    report(2, "checkpoints at packets 3/10/15/100 match the closed-form oracle, rel 1e-6")


def test_criterion_3_long_term_trace_converges(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["trace", "--mode", "fig2", "--packets", "200", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    values = {int(l.split(",")[0]): float(l.split(",")[2]) for l in lines}
    printed = {int(l.split(",")[0]): l.split(",")[2] for l in lines}
    assert len(values) == 200

    # independent oracle: iterate the every-fifth-bad recurrence directly
    oracle = {}
    v = 0.0
    for i in range(1, 201):
        v = v + 20.0 if i % 5 == 0 else v * 0.95
        oracle[i] = v
    for i in range(1, 201):
        # the trace equals the oracle at the full printed precision
        assert printed[i] == f"{oracle[i]:.9g}"

    # fixed points of the cycle recurrence P = P*dec^4 + inc (4 good events
    # between consecutive bad events)
    post_bad_limit = 20.0 / (1.0 - 0.95**4)
    trough_limit = post_bad_limit - 20.0
    assert math.isclose(post_bad_limit, 107.8203443512247, rel_tol=1e-12)
    assert math.isclose(trough_limit, 87.8203443512247, rel_tol=1e-12)

    # first packet from which every post-bad value and every trough sits
    # within 0.1% of its limit, computed from the oracle series
    def within(i):
        if i % 5 == 0:
            return abs(oracle[i] - post_bad_limit) <= 1e-3 * post_bad_limit
        if i % 5 == 4:
            return abs(oracle[i] - trough_limit) <= 1e-3 * trough_limit
        return True

    compliance_from = next(
        start for start in range(1, 201) if all(within(i) for i in range(start, 201))
    )
    assert compliance_from == 170

    for i in range(compliance_from, 201):
        if i % 5 == 0:
            assert abs(values[i] - post_bad_limit) <= 1e-3 * post_bad_limit
        elif i % 5 == 4:
            assert abs(values[i] - trough_limit) <= 1e-3 * trough_limit

    # the trail persists: both limits are far above the trail threshold
    assert trough_limit > DEFAULTS.threshold and post_bad_limit > DEFAULTS.threshold
    report(
        3,
        f"limits {post_bad_limit:.4f}/{trough_limit:.4f}, within 0.1% from packet "
        f"{compliance_from} on (oracle-derived; 0.21% at packet 150)",
    )


def test_criterion_4_identification_on_fixtures():
    fixtures = {
        "path10": (lambda seed: path_topology(10), 3, TrafficRates(5, 2)),
        "star10": (lambda seed: star_topology(10), 3, TrafficRates(5, 2)),
        "grid4x4": (lambda seed: grid_topology(4, 4), 5, TrafficRates(5, 2)),
        "random75": (
            lambda seed: generate_random_topology(75, 0.02, derive_rng(seed, "topology")),
            5,
            TrafficRates(20, 3),
        ),
    }
    worst = {}
    for name, (topology_fn, infected, rates) in fixtures.items():
        ticks = []
        for seed in range(1, 21):
            config = SimulationConfig(
                topology=topology_fn(seed),
                rates=rates,
                ant_count=3,
                infections=((0, infected),),
                max_ticks=1000,
                seed=seed,
            )
            metrics = run(config)
            assert metrics.false_declaration_tick == {}, (name, seed)
            assert metrics.first_declaration_tick.keys() == {infected}, (name, seed)
            ticks.append(metrics.first_declaration_tick[infected])
        worst[name] = max(ticks)
        assert worst[name] < 1000
    report(4, f"80/80 runs correct, zero false declarations, worst ticks {worst}")


def test_criterion_5_identification_latency_ballpark():
    start = time.monotonic()
    ticks = [
        run(scenario_config("default75", seed=seed)).all_identified_tick
        for seed in range(1, 21)
    ]
    elapsed = time.monotonic() - start
    median = median_with_failures(ticks)
    assert 10 <= median <= 200
    assert elapsed < 60.0
    identified = sum(t is not None for t in ticks)
    report(5, f"median all-identified tick {median} over 20 seeds ({identified}/20 finite), {elapsed:.1f}s")


def test_criterion_6_reinfection_latency_ballpark():
    latencies = []
    for seed in range(1, 21):
        metrics = run(scenario_config("reinfection75", seed=seed))
        declared = metrics.first_declaration_tick.get(40)
        latencies.append(None if declared is None else declared - 300)
    median = median_with_failures(latencies)
    assert median <= 40
    found = sum(x is not None for x in latencies)
    report(6, f"median re-infection latency {median} over 20 seeds ({found}/20 finite)")


def test_criterion_7_storage_bound_after_long_run():
    # every direction a confirmation crossed: one now at position p of its
    # route crossed route[p + 1] -> route[p]
    crossed = set()

    def collect(tick, new_packets, moved, values, outcomes, ants, declared):
        crossed.update((c.route[c.position + 1], c.route[c.position]) for c in moved)

    config = SimulationConfig(
        topology=generate_random_topology(10, 0.2, derive_rng(9, "topology")),
        rates=TrafficRates(good_packets_per_tick=5, attack_packets_per_infected_per_tick=2),
        ant_count=3,
        infections=((0, 4),),
        max_ticks=10_000,
        seed=9,
        sink=collect,
    )
    run(config)
    touched = len(crossed)
    assert touched, "no connection was ever touched"
    # one float per directed connection, whatever the run length, in the
    # field ``run`` builds; the criterion's bound is 10,000 bytes
    field = PheromoneField(config.topology)
    assert field.bytes_per_direction == 8
    report(7, f"{touched} directed connections after 10,000 ticks, "
              f"{field.bytes_per_direction} bytes of live state per direction")


def test_criterion_8_bandwidth_accounting(default_run):
    *_, counts = default_run
    hops, declarations, agents = zip(*counts)
    assert len(counts) == 1000
    assert set(agents) == {3}
    report(8, f"{sum(hops)} agent hops plus {sum(declarations)} declaration reports over "
              "1000 ticks (3 agents per tick)")


def test_criterion_9_determinism(default_run):
    metrics_a, log_a, _ = default_run
    metrics_b, log_b = logged_run(scenario_config("default75"))
    assert log_a == log_b
    assert metrics_to_csv(metrics_a) == metrics_to_csv(metrics_b)
    report(9, f"byte-identical metrics and {len(log_a)}-line event log on repeat run")


def test_criterion_10_agents_do_not_perturb_the_field(default_run):
    _, log_with, _ = default_run
    _, log_without = logged_run(scenario_config("default75", ["ant_count=0"]))
    field_with = [line for line in log_with if line.startswith("FIELD,")]
    field_without = [line for line in log_without if line.startswith("FIELD,")]
    assert len(field_with) == 1000
    assert field_with == field_without
    report(10, "per-tick field digests identical with 3 agents and with none")

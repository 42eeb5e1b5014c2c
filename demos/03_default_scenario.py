"""The default 75-node scenario with three infected nodes and three agents.

Shows the identification latency per infected node, the cost accounting
counted by the run's sink at the end of each tick, and how little the agents
themselves add to network traffic: at most one hop per agent per tick, since
an agent that declares stays where it is, plus the declaration reports.
"""

import statistics

from anttrack import (
    SimulationConfig,
    TrafficRates,
    derive_rng,
    generate_random_topology,
    run,
)

SEED = 42
topology = generate_random_topology(75, 0.02, derive_rng(SEED, "topology"))
agent_hops, confirm_hops, reports = [], [], []


def count(tick, new_packets, moved, values, outcomes, ants, declared):
    agent_hops.append(len(ants) - len(declared))
    confirm_hops.append(len(values))
    reports.append(len(declared))


config = SimulationConfig(
    topology=topology,
    rates=TrafficRates(good_packets_per_tick=50, attack_packets_per_infected_per_tick=3),
    ant_count=3,
    infections=((0, 5), (0, 23), (0, 61)),
    max_ticks=1000,
    seed=SEED,
    sink=count,
)
print(f"topology: 75 nodes, {sum(map(len, topology.adjacency)) // 2} connections, seed {SEED}")

metrics = run(config)

##############################################################################
# Identification results.

for node in sorted(metrics.infection_tick):
    declared = metrics.first_declaration_tick.get(node)
    print(f"node {node:2d}: declared at tick {declared}")
print(f"all three identified by tick {metrics.all_identified_tick}")
print(f"false declarations: {len(metrics.false_declaration_tick)}")

##############################################################################
# Traffic accounting, counted per tick by the sink.  Confirmation packets
# belong to the surrounding confirmation protocol; the agents add only their
# own hops and the declaration reports.

print(
    f"\nagent hops per tick: mean {statistics.fmean(agent_hops):.2f}, "
    f"max {max(agent_hops)} of {config.ant_count} agents"
)
print(f"declaration reports over the whole run: {sum(reports)}")
print(
    "confirmation hops per tick (baseline protocol traffic): "
    f"mean {statistics.fmean(confirm_hops):.1f}, max {max(confirm_hops)}"
)

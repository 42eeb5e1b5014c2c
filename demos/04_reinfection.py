"""A fresh infection appearing in an already-converged network.

The default scenario runs until its three infected nodes are identified
and the trails have settled, then node 40 is infected at tick 300.  The
new trails form within a tick or two; what dominates the response time is
an agent breaking away from the old trails and stumbling onto a new one.
"""

from anttrack import (
    SimulationConfig,
    TrafficRates,
    derive_rng,
    generate_random_topology,
    run,
)

NEW_NODE, AT_TICK = 40, 300

latencies = []
for seed in range(1, 11):
    topology = generate_random_topology(75, 0.02, derive_rng(seed, "topology"))
    config = SimulationConfig(
        topology=topology,
        rates=TrafficRates(good_packets_per_tick=50, attack_packets_per_infected_per_tick=3),
        ant_count=3,
        infections=((0, 5), (0, 23), (0, 61), (AT_TICK, NEW_NODE)),
        max_ticks=600,
        seed=seed,
    )
    metrics = run(config)
    declared = metrics.first_declaration_tick.get(NEW_NODE)
    latency = None if declared is None else declared - AT_TICK
    latencies.append(latency)
    if latency is None:
        print(f"seed {seed:2d}: new node not found within {config.max_ticks - AT_TICK} ticks")
    else:
        print(f"seed {seed:2d}: new node declared after {latency} ticks")

found = [x for x in latencies if x is not None]
print(f"\nfound in {len(found)}/10 runs; latencies {sorted(found)}")

"""One infected node on a small grid, watched end to end.

An infected node floods attack packets.  Each one is caught at its first
hop, and the confirmation walking back deposits pheromone on the directed
connection pointing at the source.  Wandering agents hit those trails,
follow them down, and declare the node where the trail ends.
"""

import io

from anttrack import (
    NetworkTopology,
    SimulationConfig,
    TrafficRates,
    event_log,
    metrics_to_csv,
    run,
)

# 4x4 grid, node ids row by row
edges = []
for r in range(4):
    for c in range(4):
        node = 4 * r + c
        if c < 3:
            edges.append((node, node + 1))
        if r < 3:
            edges.append((node, node + 4))
topology = NetworkTopology.from_edges(16, edges)

INFECTED = 5
events = io.StringIO()
config = SimulationConfig(
    topology=topology,
    rates=TrafficRates(good_packets_per_tick=5, attack_packets_per_infected_per_tick=2),
    ant_count=3,
    infections=((0, INFECTED),),
    max_ticks=200,
    seed=11,
    sink=event_log(topology, events.write),
)
metrics = run(config)
log = events.getvalue().splitlines()

##############################################################################
# The metrics say when the node was found; the log says how.

print(metrics_to_csv(metrics))

first_decl = metrics.first_declaration_tick[INFECTED]
print(f"node {INFECTED} declared infected at tick {first_decl}")
print(f"false declarations: {list(metrics.false_declaration_tick.items())}")

##############################################################################
# Reconstruct the story up to the declaration: the first trail deposits,
# and the declaring agent's last few moves.

first_bad = next(line for line in log if line.startswith("PHERO,") and ",bad," in line)
print(f"\nfirst trail deposit:      {first_bad}")
decl_line = next(line for line in log if line.startswith("DECL,"))
ant_id = decl_line.split(",")[2]
print(f"first declaration record: {decl_line}")

trail = [
    line for line in log
    if line.startswith("ANT,") and line.split(",")[2] == ant_id
    and int(line.split(",")[1]) <= first_decl
]
print(f"\nagent {ant_id}'s approach (last 6 ticks before declaring):")
for line in trail[-6:]:
    _, tick, _, node, mode = line.split(",")
    print(f"  tick {tick:>3}: at node {node:>2} ({mode})")

##############################################################################
# Where the trails point: every attack-deposit lands on a connection
# directed at the infected node.

bad_edges = sorted(
    {
        (int(line.split(",")[2]), int(line.split(",")[3]))
        for line in log
        if line.startswith("PHERO,") and ",bad," in line
    }
)
print(f"\nconnections that ever received attack deposits: {bad_edges}")
print(f"all of them point at node {INFECTED}: {all(v == INFECTED for _, v in bad_edges)}")

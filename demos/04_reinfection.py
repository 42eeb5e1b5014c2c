"""A fresh infection appearing in an already-converged network.

The default scenario runs until its three infected nodes are identified
and the trails have settled, then node 40 is infected at tick 300.  The
new trails form within a tick or two; what dominates the response time is
an agent breaking away from the old trails and stumbling onto a new one.
"""

from pathlib import Path

from anttrack import run
from anttrack.cli import build_config, parse_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "reinfection75.scn"
scenario = parse_scenario(SCENARIO)
[(AT_TICK, NEW_NODE)] = scenario["infect_at"]
latencies = []
for seed in range(1, 11):
    config = build_config(scenario, seed)
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

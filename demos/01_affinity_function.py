"""The per-connection pheromone value and its update rule.

Every connection direction carries one number.  A confirmation for a
detected attack adds a fixed boost; a confirmation for a clean delivery
multiplies the value by a decay factor.  This script walks through the two
standard traces: a short burst of three attacks, and a steady stream where
every fifth packet is an attack.
"""

from anttrack import (
    NetworkTopology,
    PheromoneField,
    PheromoneParams,
    closed_form_value,
)

params = PheromoneParams()  # boost 20, decay 0.95, trail threshold 10
print(f"params: boost +{params.increase}, decay x{params.decay}, threshold {params.threshold}")

# The traces follow one direction, 0 -> 1, of the field on a two-node network.
pair = NetworkTopology.from_edges(2, [(0, 1)])

##############################################################################
# Short-term behaviour: 100 packets, attacks detected at packets 3, 10, 15.
# The value jumps on each attack and decays geometrically in between.

field = PheromoneField(pair)
events = [i in (3, 10, 15) for i in range(1, 101)]  # True: an attack
print("\npacket  value   (first 20 packets, then checkpoints)")
for i, attack in enumerate(events, 1):
    if attack:
        value = field.apply_bad(0, 1, params)
    else:
        value = field.apply_good(0, 1, params)
    if i <= 20 or i in (50, 100):
        marker = " <- attack" if attack else ""
        print(f"{i:6d}  {value:8.4f}{marker}")

# The incremental updates are O(1) per event.  The same number also has a
# closed form: a sum over past attacks of boost * decay^(clean events since).
print(f"\nincremental end value:  {value:.12f}")
print(f"closed-form end value:  {closed_form_value(events, params):.12f}")

##############################################################################
# Long-term behaviour: one attack every 5 packets.  With 4 clean events per
# cycle the post-attack value approaches the fixed point of
# P = P * decay^4 + boost, and the pre-attack trough approaches P - boost.
# Both stay far above the threshold, so the trail never flickers out.

fixed_point = params.increase / (1.0 - params.decay**4)
print(f"\npredicted post-attack limit: {fixed_point:.4f}")
print(f"predicted pre-attack trough: {fixed_point - params.increase:.4f}")

field = PheromoneField(pair)
for i in range(1, 201):
    if i % 5 == 0:
        value = field.apply_bad(0, 1, params)
        if i % 50 == 0:
            print(f"packet {i:3d}: post-attack value {value:.4f}")
    else:
        value = field.apply_good(0, 1, params)
print(f"final trough (packet 199 value, before the next attack): {value * params.decay:.4f}")

"""Exact worst-case blocking time by best-first search.

Nodes are admissible chains; the assignment bound over the unused jobs
and resources never underestimates the best completion, so the first
leaf popped from the fringe is optimal.  Compare the handful of nodes
explored against the uninformed allocation space.
"""

from pipblock import (
    blocking_time,
    brute_force_blocking_time,
    format_chain,
    parse_taskset,
)

ts = parse_taskset(
    """
J1: [R4:1]
J2: [R4:6 [R3:4 [R2:2]]]
J3: [R1:5] [R5:13 [R4:10]]
J4: [R3:3 [R1:1]] [R5:1] [R4:12 [R2:9]]
J5: [R1:4] [R5:13 [R2:12]] [R1:7]
"""
)

result = blocking_time(ts, 1, trace=True)
print("worst-case blocking of J1:", result.blocking_time)
print("witness:", format_chain(result.witness))
print(f"nodes: {result.nodes_generated} generated, "
      f"{result.nodes_expanded} expanded")

print("\nexpansion log:")
for record in result.expansions:
    note = "  (no extensions: becomes a leaf)" if record.releafed else ""
    print(f"  f={str(record.estimate):>3} {format_chain(record.chain):<28}"
          f" -> {', '.join(record.extensions) or '-'}{note}")

oracle = brute_force_blocking_time(ts, 1)
print(f"\nbrute force agrees: {oracle.best_duration} "
      f"(uninformed space: {oracle.uninformed_space} allocations)")

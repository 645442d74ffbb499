"""Admissibility: separating real blocking scenarios from impossible ones.

A z-chain lists critical sections that should all be in progress at the
blocking instant.  Extending a chain must introduce a new job on a new
resource, stay maximal within the chain's induced scope, and obstruct
nobody's path (nor be obstructed) -- otherwise no schedule realizes it.
"""

from pipblock import (
    blocking_scope,
    blocking_time_matrix,
    chain_duration,
    is_admissible_chain,
    max_assignment,
    parse_taskset,
    quick_admissibility_verdict,
)

ts = parse_taskset(
    """
J1: [R4:1]
J2: [R4:6 [R3:4 [R2:2]]]
J3: [R4:10] [R2:3 [R1:1]] [R3:5]
J4: [R1:2] [R2:4]
"""
)

good = (ts.section(2, 1), ts.section(3, 2), ts.section(4, 1))
bad = (ts.section(4, 2), ts.section(3, 4), ts.section(2, 1))

verdict = is_admissible_chain(ts, 1, good)
print("chain", [z.label for z in good], "->", "admissible" if verdict else "no",
      f"(duration {chain_duration(good)})")

verdict = is_admissible_chain(ts, 1, bad)
print("chain", [z.label for z in bad], "->",
      f"fails {verdict.failed_condition} at {verdict.section.label}",
      f"(would have been {chain_duration(bad)})")

# The fast screen tries to realize the assignment bound as a chain.  Here
# the bound 18 is unattainable, so it reports failure and the exact search
# is needed.
scope = blocking_scope(ts, 1)
matrix = blocking_time_matrix(ts, scope.relevant_jobs, scope.relevant_resources)
assignment = max_assignment(matrix)
screen = quick_admissibility_verdict(ts, 1, assignment)
print(f"\nbound {assignment.value}: screen", "passed" if screen.passed else
      f"failed ({screen.failed_condition})")

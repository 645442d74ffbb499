"""The package's top-level names: each module's ``__all__``, re-exported."""

from __future__ import annotations

import importlib

import pipblock

MODULES = (
    "admissibility", "analysis", "bound", "deadlock", "definitions",
    "oracle", "relevance", "search", "taskset",
)

# Top-level names callers import; none may leave the package.  The modules
# list two more, ExpansionRecord and ResourceId.
LISTED = """
AdmissibilityVerdict AnalysisReport AssignmentSet BlockingMatrix BlockingScope
CriticalSection CyclicResourceOrderError DeadlockVerdict Fringe Job JobAnalysis
NestingError OracleLimitError OracleResult ParseError QuickCheckResult
ResourceOrderGraph SearchNode SearchResult TaskSet TaskSetError ZChain
ZeroDurationWarning analyze blocking_scope blocking_time blocking_time_matrix
brute_force_blocking_time build_order_graph chain_duration check_deadlock_free
contains direct_blocking_jobs direct_blocking_resources expand fixpoint_trace
format_chain generate_antidiagonal_family hungarian_bound induced_set
is_admissible_chain is_maximal iter_admissible_chains max_assignment
maximal_sequence parse_chain parse_taskset per_job_bounds
quick_admissibility_verdict random_taskset relevant_jobs relevant_resources
render_report require_acyclic serialize_taskset successors uninformed_space_size
""".split()


def test_top_level_names_are_the_modules_lists():
    assert len(LISTED) == 57
    assert set(LISTED) <= set(pipblock.__all__)
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"pipblock.{name}")
        for public in module.__all__:
            assert public not in owner, f"{public} listed by {owner.get(public)} and {name}"
            owner[public] = module
    assert sorted(pipblock.__all__) == sorted(owner)
    assert set(owner) - set(LISTED) == {"ExpansionRecord", "ResourceId"}
    for public, module in owner.items():
        assert getattr(pipblock, public) is getattr(module, public)

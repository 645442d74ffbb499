"""Deadlock precheck: the nesting relation must order resources acyclically.

Nested critical sections acquire resources outer-to-inner, so mapping
resources to vertices and containment to directed edges (outer -> inner)
yields a graph that must be acyclic for the task set to be deadlock-free.
The check runs one strongly-connected-components pass; a cyclic verdict
carries a witness cycle.  Downstream analyses refuse cyclic task sets,
since with a reachable deadlock the blocking time is unbounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .taskset import ResourceId, TaskSet

__all__ = [
    "CyclicResourceOrderError",
    "DeadlockVerdict",
    "ResourceOrderGraph",
    "build_order_graph",
    "check_deadlock_free",
    "require_acyclic",
]


@dataclass(frozen=True)
class ResourceOrderGraph:
    """Resources as vertices; an edge Ra -> Rb for every section on Ra that
    strictly contains a section on Rb (transitive containment included)."""

    vertices: frozenset[ResourceId]
    edges: frozenset[tuple[ResourceId, ResourceId]]


@dataclass(frozen=True)
class DeadlockVerdict:
    """Outcome of the acyclicity check.  ``cycle`` is a closed walk of
    resource indices (first element repeated last) when cyclic."""

    acyclic: bool
    cycle: tuple[ResourceId, ...] | None = None

    def __bool__(self) -> bool:
        return self.acyclic


class CyclicResourceOrderError(Exception):
    """Raised by analyses that refuse task sets with a cyclic resource order."""

    def __init__(self, cycle: tuple[ResourceId, ...]):
        self.cycle = cycle
        pretty = " -> ".join(f"R{r}" for r in cycle)
        super().__init__(f"resource acquisition order is cyclic: {pretty}")


def build_order_graph(ts: TaskSet) -> ResourceOrderGraph:
    """Build the outer->inner resource acquisition graph of ``ts``."""
    edges: set[tuple[ResourceId, ResourceId]] = set()
    for z in ts.iter_sections():
        for anc in z.ancestors():
            edges.add((anc.resource, z.resource))
    return ResourceOrderGraph(vertices=ts.resources, edges=frozenset(edges))


def check_deadlock_free(ts: TaskSet) -> DeadlockVerdict:
    """Acyclic iff every strongly connected component of the order graph is
    a singleton.  Depends only on nesting structure, not durations."""
    graph = build_order_graph(ts)
    adjacency: dict[ResourceId, list[ResourceId]] = {v: [] for v in graph.vertices}
    for a, b in sorted(graph.edges):
        adjacency[a].append(b)

    cyclic_vertices = _nontrivial_scc_vertices(adjacency)
    if not cyclic_vertices:
        return DeadlockVerdict(acyclic=True)
    return DeadlockVerdict(acyclic=False, cycle=_witness_cycle(adjacency, cyclic_vertices))


def require_acyclic(ts: TaskSet) -> None:
    """Raise :class:`CyclicResourceOrderError` unless ``ts`` passes the check."""
    verdict = check_deadlock_free(ts)
    if not verdict.acyclic:
        assert verdict.cycle is not None
        raise CyclicResourceOrderError(verdict.cycle)


def _nontrivial_scc_vertices(adjacency: dict[int, list[int]]) -> set[int]:
    """Vertices lying in a strongly connected component of size > 1.

    Iterative Tarjan; self-loops cannot occur (a section never contains a
    section on its own resource).
    """
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    result: set[int] = set()

    for root in sorted(adjacency):
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            vertex, child_pos = work[-1]
            if child_pos == 0:
                index[vertex] = lowlink[vertex] = counter
                counter += 1
                stack.append(vertex)
                on_stack.add(vertex)
            advanced = False
            children = adjacency[vertex]
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if child not in index:
                    work[-1] = (vertex, child_pos)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[vertex] = min(lowlink[vertex], index[child])
            if advanced:
                continue
            work.pop()
            if lowlink[vertex] == index[vertex]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == vertex:
                        break
                if len(component) > 1:
                    result.update(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[vertex])
    return result


def _witness_cycle(
    adjacency: dict[int, list[int]], cyclic_vertices: set[int]
) -> tuple[int, ...]:
    """Deterministic witness: the shortest cycle through the smallest cyclic
    resource, choosing lexicographically smallest successors.

    A minimal closed walk through the start is simple, so, given each
    vertex's distance to the start (reverse BFS), the walk greedily takes
    the smallest successor exactly one step closer: O(V + E), no recursion.
    """
    start = min(cyclic_vertices)
    restricted = {
        v: [w for w in adjacency[v] if w in cyclic_vertices]
        for v in cyclic_vertices
    }
    predecessors: dict[int, list[int]] = {v: [] for v in cyclic_vertices}
    for v, children in restricted.items():
        for w in children:
            predecessors[w].append(v)
    to_start = {start: 0}
    queue = deque([start])
    while queue:
        vertex = queue.popleft()
        for parent in predecessors[vertex]:
            if parent not in to_start:
                to_start[parent] = to_start[vertex] + 1
                queue.append(parent)
    remaining = 1 + min(to_start[w] for w in restricted[start] if w in to_start)
    cycle = [start]
    vertex = start
    while remaining:
        vertex = next(w for w in restricted[vertex] if to_start.get(w) == remaining - 1)
        cycle.append(vertex)
        remaining -= 1
    return tuple(cycle)

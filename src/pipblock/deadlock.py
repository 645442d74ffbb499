"""Deadlock precheck: the nesting relation must order resources acyclically.

Nested critical sections acquire resources outer-to-inner, so mapping
resources to vertices and containment to directed edges (outer -> inner)
yields a graph that must be acyclic for the task set to be deadlock-free.
The graph is one successor mask per resource, the OR of the compiled
index's ``nested`` masks over the resource's sections, so it holds no
object per edge (a job nested d deep has d(d-1)/2 edges).  The check runs
one strongly-connected-components pass over the masks; a cyclic verdict
carries a witness cycle, found among the cyclic resources only.
Downstream analyses refuse cyclic task sets, since with a reachable
deadlock the blocking time is unbounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count

from .taskset import ResourceId, TaskSet, _compiled, _Index, _positions

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


def _successors(index: _Index) -> list[int]:
    """Each resource's successor mask, the OR of ``nested`` over its
    sections: bit ``1 << w`` of entry ``v`` is the edge from resource
    ``index.ids[v]`` to resource ``index.ids[w]``."""
    out = [0] * len(index.ids)
    for rows in index.sections:
        for s in rows:
            out[s.bit.bit_length() - 1] |= s.nested
    return out


def build_order_graph(ts: TaskSet) -> ResourceOrderGraph:
    """Build the outer->inner resource acquisition graph of ``ts``."""
    index = _compiled(ts)
    edges = frozenset(
        (index.ids[v], index.ids[w])
        for v, mask in enumerate(_successors(index))
        for w in _positions(mask)
    )
    return ResourceOrderGraph(vertices=ts.resources, edges=edges)


def check_deadlock_free(ts: TaskSet) -> DeadlockVerdict:
    """Acyclic iff every strongly connected component of the order graph is
    a singleton.  Depends only on nesting structure, not durations."""
    index = _compiled(ts)
    successors = _successors(index)
    cyclic = _cyclic_vertices(successors)
    if not cyclic:
        return DeadlockVerdict(acyclic=True)
    cycle = tuple(index.ids[v] for v in _witness_cycle(successors, cyclic))
    return DeadlockVerdict(acyclic=False, cycle=cycle)


def require_acyclic(ts: TaskSet) -> None:
    """Raise :class:`CyclicResourceOrderError` unless ``ts`` passes the check."""
    verdict = check_deadlock_free(ts)
    if not verdict.acyclic:
        assert verdict.cycle is not None
        raise CyclicResourceOrderError(verdict.cycle)


def _cyclic_vertices(successors: list[int]) -> int:
    """Mask of the vertices lying in a strongly connected component of
    size > 1.

    Iterative Tarjan, children lowest bit first; self-loops cannot occur
    (a section never contains a section on its own resource).  A child
    whose component is finished (``done``) cannot lower a low-link, so a
    vertex drops all of them from its pending children whenever it
    resumes; every other numbered child is on the stack.
    """
    number = [-1] * len(successors)
    lowlink = [0] * len(successors)
    stack: list[int] = []
    order = count()
    done = 0
    result = 0
    for root in range(len(successors)):
        if number[root] >= 0:
            continue
        work = [(root, successors[root])]
        number[root] = lowlink[root] = next(order)
        stack.append(root)
        while work:
            vertex, pending = work[-1]
            pending &= ~done
            while pending:
                bit = pending & -pending
                pending ^= bit
                child = bit.bit_length() - 1
                if number[child] < 0:
                    work[-1] = (vertex, pending)
                    work.append((child, successors[child]))
                    number[child] = lowlink[child] = next(order)
                    stack.append(child)
                    break
                lowlink[vertex] = min(lowlink[vertex], number[child])
            else:
                work.pop()
                if lowlink[vertex] == number[vertex]:
                    component = 0
                    while True:
                        member = stack.pop()
                        component |= 1 << member
                        if member == vertex:
                            break
                    done |= component
                    if component != 1 << vertex:
                        result |= component
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[vertex])
    return result


def _witness_cycle(successors: list[int], cyclic: int) -> list[int]:
    """Deterministic witness: the lexicographically smallest of the
    shortest cycles through the smallest cyclic vertex.

    One forward BFS from the start over the ``cyclic`` vertices, visiting
    successors in ascending order and keeping the first parent found, so
    vertices leave the queue in order of distance and then of their path;
    the first one with an edge back to the start closes the cycle.
    O(V + E) over the cyclic vertices, no recursion.
    """
    start = (cyclic & -cyclic).bit_length() - 1
    parent = {start: start}
    queue = deque([start])
    while True:
        vertex = queue.popleft()
        if successors[vertex] >> start & 1:
            break
        for w in _positions(successors[vertex] & cyclic):
            if w not in parent:
                parent[w] = vertex
                queue.append(w)
    path = []
    while vertex != start:
        path.append(vertex)
        vertex = parent[vertex]
    return [start, *reversed(path), start]

"""Half-integral LP optimum for weighted vertex cover (Nemhauser–Trotter).

The LP relaxation of minimum weighted vertex cover on a graph always has a
half-integral optimal solution (values in {0, 1/2, 1}), computable exactly in
polynomial time on the bipartite *double cover* of the graph:

* every vertex ``v`` has a left copy ``L_v`` and a right copy ``R_v``;
* every pair ``{u, v}`` becomes the arcs ``L_u → R_v`` and ``L_v → R_u``;
* a minimum-weight vertex cover ``C`` of the double cover (weight ``w(v)`` on
  both copies) weighs exactly ``2 · LP_opt``, and
  ``x_v = (|{L_v} ∩ C| + |{R_v} ∩ C|) / 2`` realizes the LP optimum.

The cover is a minimum cut of the weighted König network
``source → L_v`` (capacity ``w(v)``), ``L_u → R_v`` (unbounded, one per arc
above), ``R_v → sink`` (capacity ``w(v)``): ``L_v`` is in the cover when the
residual graph of a maximum flow cannot reach it from the source, ``R_v``
when it can.  :func:`vertex_cover_lp` runs Dinic's algorithm on that network
directly off the pair lists — per-vertex neighbour lists, source and sink
residuals, and the flow on each ``L_u → R_v`` arc kept at ``R_v`` — seeded
by a greedy pass that routes ``source → L_u → R_v → sink`` wherever both
ends have room, then level-graph phases with a blocking-flow search.

The set of nodes the residual graph of a maximum flow reaches from the
source is the same for *every* maximum flow (it is the source side of the
inclusion-minimal minimum cut).  So the assignment does not depend on which
maximum flow the search finds, hence not on how the flow nodes are
numbered: they are numbered by first appearance in the pair list.

This is the fast path used by ``I_lin_R`` whenever every minimal inconsistent
subset has at most two facts (all FDs, and every 2-variable DC); it also
powers the Nemhauser–Trotter kernelization inside the exact ``I_R`` solver.
Both readings of one component come from a single solve: the ``I_lin_R``
optimum, restricted to the pairs left after forcing the self-loops, *is*
the NT partition (by the uniqueness above), so :func:`kernel_partition`
reads the kernel off it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Hashable, Mapping, Sequence

Vertex = Hashable

#: Residual capacities at or below this count as saturated.
_EPSILON = 1e-12

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)
_ONE = Fraction(1)
#: The exact value of each float share ``x_v``.
_EXACT = {0.0: _ZERO, 0.5: _HALF, 1.0: _ONE}


def vertex_cover_lp(
    vertices: Sequence[Vertex],
    edges: Sequence[tuple[Vertex, Vertex]],
    weights: Mapping[Vertex, float] | None = None,
    self_loops: Sequence[Vertex] = (),
) -> tuple[float, dict[Vertex, Fraction]]:
    """Exact LP optimum of weighted vertex cover; returns (value, x).

    *self_loops* are vertices that must be fully covered (``x_v >= 1``), which
    is how single-fact violations of unary DCs enter the LP.
    Values in the returned assignment are exact fractions in {0, 1/2, 1}.
    """
    weight_of = {vertex: 1.0 for vertex in vertices}
    if weights:
        for vertex, weight in weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for {vertex!r}")
            weight_of[vertex] = float(weight)

    forced = set(self_loops)
    share = dict.fromkeys(vertices, 0.0)
    for vertex in forced:
        share[vertex] = 1.0

    # Edges with a forced endpoint are already covered; the rest go to flow.
    active_edges = (
        [(u, v) for u, v in edges if u not in forced and v not in forced]
        if forced
        else list(edges)
    )
    if active_edges:
        known = len(share)
        index: dict[Vertex, int] = {}
        for u, v in active_edges:
            index.setdefault(u, len(index))
            index.setdefault(v, len(index))
        share.update(
            zip(index, _cover_shares(active_edges, index, weight_of))
        )
        if len(share) > known:
            # Pair endpoints missing from *vertices* come last, by repr.
            for vertex in sorted(list(share)[known:], key=repr):
                share[vertex] = share.pop(vertex)

    x = dict(zip(share, map(_EXACT.__getitem__, share.values())))
    value = sum(map(mul, map(weight_of.__getitem__, share), share.values()))
    return value, x


def _cover_shares(
    edges: Sequence[tuple[Vertex, Vertex]],
    index: Mapping[Vertex, int],
    weight_of: Mapping[Vertex, float],
) -> list[float]:
    """Half the number of copies of each vertex in a minimum double cover.

    Vertex ``i`` (numbered by *index*) counts ``L_i`` when the residual
    graph of a maximum flow does not reach it from the source, and ``R_i``
    when it does.
    """
    n = len(index)
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        i = index[u]
        j = index[v]
        neighbours[i].append(j)
        neighbours[j].append(i)
    # inflow[j][i]: flow on L_i → R_j (parallel arcs of repeated pairs share
    # one entry: they are unbounded, so only their total flow matters).
    inflow: list[dict[int, float]] = [{} for _ in range(n)]
    source_room = [weight_of[vertex] for vertex in index]
    sink_room = list(source_room)

    # Greedy start: source → L_i → R_j → sink wherever both ends have room.
    for i in range(n):
        room = source_room[i]
        if room <= _EPSILON:
            continue
        for j in neighbours[i]:
            other = sink_room[j]
            if other > _EPSILON:
                amount = room if room < other else other
                room -= amount
                sink_room[j] = other - amount
                flows = inflow[j]
                flows[i] = flows.get(i, 0.0) + amount
                if room <= _EPSILON:
                    break
        source_room[i] = room

    while True:
        level_left, level_right, sink_level = _levels(
            neighbours, inflow, source_room, sink_room
        )
        if sink_level < 0:
            break
        _blocking_flow(
            neighbours, inflow, source_room, sink_room,
            level_left, level_right, sink_level,
        )
    return [
        ((level_left[i] < 0) + (level_right[i] >= 0)) * 0.5 for i in range(n)
    ]


def _levels(neighbours, inflow, source_room, sink_room):
    """BFS levels of the residual graph: ``(left, right, sink)``, -1 = unreached.

    Levels are odd on left copies and even on right copies.  The search
    stops at the first layer of right copies with sink room; when the sink
    is unreachable, the levels mark the residual-reachable nodes.
    """
    n = len(neighbours)
    level_left = [-1] * n
    level_right = [-1] * n
    frontier = [i for i in range(n) if source_room[i] > _EPSILON]
    for i in frontier:
        level_left[i] = 1
    level = 1
    while frontier:
        level += 1
        rights = []
        for i in frontier:
            for j in neighbours[i]:
                if level_right[j] < 0:
                    level_right[j] = level
                    rights.append(j)
        for j in rights:
            if sink_room[j] > _EPSILON:
                return level_left, level_right, level + 1
        level += 1
        frontier = []
        for j in rights:
            for i, flow in inflow[j].items():
                if flow > _EPSILON and level_left[i] < 0:
                    level_left[i] = level
                    frontier.append(i)
    return level_left, level_right, -1


def _blocking_flow(
    neighbours, inflow, source_room, sink_room,
    level_left, level_right, sink_level,
) -> None:
    """Augment along level-increasing paths until the sink is cut off.

    Iterative search over ``path = [L_i, R_j, L_i', …]`` (``R_j`` stored as
    ``n + j``), with a current-arc cursor per node: an ``L_i`` cursor is the
    position in ``neighbours[i]`` of the arc to the next ``R``, an ``R_j``
    cursor that of the flow cancelled to reach the next ``L``.  A node that
    leads nowhere gets level -1 for the rest of the phase.
    """
    n = len(neighbours)
    cursor = [0] * (2 * n)
    for start in range(n):
        if level_left[start] != 1:
            continue
        path = [start]
        while path:
            node = path[-1]
            if node < n:
                row = neighbours[node]
                want = level_left[node] + 1
                p = cursor[node]
                while p < len(row) and level_right[row[p]] != want:
                    p += 1
                cursor[node] = p
                if p < len(row):
                    path.append(n + row[p])
                    continue
                level_left[node] = -1
            else:
                j = node - n
                if level_right[j] + 1 == sink_level:
                    if sink_room[j] > _EPSILON:
                        _augment(
                            path, cursor, neighbours, inflow, source_room, sink_room
                        )
                        path = [start] if source_room[start] > _EPSILON else []
                        continue
                else:
                    row = neighbours[j]
                    flows = inflow[j]
                    want = level_right[j] + 1
                    q = cursor[node]
                    while q < len(row) and not (
                        level_left[row[q]] == want
                        and flows.get(row[q], 0.0) > _EPSILON
                    ):
                        q += 1
                    cursor[node] = q
                    if q < len(row):
                        path.append(row[q])
                        continue
                level_right[j] = -1
            path.pop()
            if path:
                cursor[path[-1]] += 1


def _augment(path, cursor, neighbours, inflow, source_room, sink_room) -> None:
    """Push the bottleneck amount along ``source → path → sink``."""
    n = len(neighbours)
    start = path[0]
    last = path[-1] - n
    cancelled = [
        (node - n, neighbours[node - n][cursor[node]]) for node in path[1:-1:2]
    ]
    amount = min(
        source_room[start],
        sink_room[last],
        *(inflow[j][i] for j, i in cancelled),
    )
    source_room[start] -= amount
    sink_room[last] -= amount
    for i, right in zip(path[::2], path[1::2]):
        flows = inflow[right - n]
        flows[i] = flows.get(i, 0.0) + amount
    for j, i in cancelled:
        inflow[j][i] -= amount


def nemhauser_trotter_kernel(
    vertices: Sequence[Vertex],
    edges: Sequence[tuple[Vertex, Vertex]],
    weights: Mapping[Vertex, float] | None = None,
) -> tuple[set[Vertex], set[Vertex], set[Vertex]]:
    """Partition vertices by their half-integral LP value.

    Returns ``(ones, zeros, halves)``.  The NT theorem guarantees an optimal
    *integral* cover containing all of *ones*, none of *zeros*, and some
    subset of *halves*; the exact solver branches only on *halves*.
    """
    _, x = vertex_cover_lp(vertices, edges, weights)
    return kernel_partition(vertices, x)


def kernel_partition(
    vertices: Sequence[Vertex], x: Mapping[Vertex, Fraction]
) -> tuple[set[Vertex], set[Vertex], set[Vertex]]:
    """``(ones, zeros, halves)`` of *vertices* under a half-integral optimum.

    *x* may assign more vertices than *vertices* (e.g. the LP of a whole
    component, self-loops included, read for the pairs left after forcing
    them): only the listed vertices are partitioned, in their given order.
    """
    ones: set[Vertex] = set()
    zeros: set[Vertex] = set()
    halves: set[Vertex] = set()
    for v in vertices:
        value = x[v]
        if value is _ONE or value == 1:
            ones.add(v)
        elif value is _ZERO or value == 0:
            zeros.add(v)
        elif value is _HALF or value == _HALF:
            halves.add(v)
    return ones, zeros, halves

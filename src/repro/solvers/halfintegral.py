"""Half-integral LP optimum for weighted vertex cover (Nemhauser–Trotter).

The LP relaxation of minimum weighted vertex cover on a graph always has a
half-integral optimal solution (values in {0, 1/2, 1}), computable exactly in
polynomial time via a bipartite reduction and max-flow:

* duplicate every vertex ``v`` into a left copy ``vL`` and right copy ``vR``;
* every edge ``{u, v}`` becomes ``(uL, vR)`` and ``(vL, uR)``;
* a minimum-weight vertex cover of the bipartite graph (weights ``w(v)`` on
  both copies) has weight exactly ``2 · LP_opt``; setting
  ``x_v = (|{vL} ∩ C| + |{vR} ∩ C|) / 2`` realizes the LP optimum.

The bipartite cover itself comes from the weighted König construction:
``source → vL`` with capacity ``w(v)``, ``vR → sink`` with capacity ``w(v)``,
edge arcs with infinite capacity; the min cut picks the cover.

This is the fast path used by ``I_lin_R`` whenever every minimal inconsistent
subset has at most two facts (all FDs, and every 2-variable DC); it also
powers the Nemhauser–Trotter kernelization inside the exact ``I_R`` solver.
Both readings of one component come from a single solve: the ``I_lin_R``
optimum, restricted to the pairs left after forcing the self-loops, *is*
the NT partition (the min cut's residual-reachable side is the same for
every maximum flow), so :func:`kernel_partition` reads the kernel off it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .maxflow import INFINITY, FlowNetwork

Vertex = Hashable


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
    x: dict[Vertex, Fraction] = {vertex: Fraction(0) for vertex in vertices}
    for vertex in forced:
        x[vertex] = Fraction(1)

    # Edges with a forced endpoint are already covered; the rest go to flow.
    active_edges = [
        (u, v) for u, v in edges if u not in forced and v not in forced
    ]
    active_vertices = sorted(
        {u for u, _ in active_edges} | {v for _, v in active_edges},
        key=repr,
    )
    if active_edges:
        index = {vertex: i for i, vertex in enumerate(active_vertices)}
        n = len(active_vertices)
        source = 2 * n
        sink = 2 * n + 1
        network = FlowNetwork(2 * n + 2)
        for vertex, i in index.items():
            network.add_edge(source, i, weight_of[vertex])          # vL
            network.add_edge(n + i, sink, weight_of[vertex])        # vR
        for u, v in active_edges:
            iu, iv = index[u], index[v]
            network.add_edge(iu, n + iv, INFINITY)
            network.add_edge(iv, n + iu, INFINITY)
        network.max_flow(source, sink)
        reachable = network.min_cut_reachable(source)
        for vertex, i in index.items():
            half = Fraction(0)
            if i not in reachable:           # source→vL saturated: vL in cover
                half += Fraction(1, 2)
            if (n + i) in reachable:         # vR→sink saturated: vR in cover
                half += Fraction(1, 2)
            x[vertex] = half

    value = sum(weight_of[vertex] * float(frac) for vertex, frac in x.items())
    return value, x


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
    ones = {v for v in vertices if x[v] == 1}
    zeros = {v for v in vertices if x[v] == 0}
    halves = {v for v in vertices if x[v] == Fraction(1, 2)}
    return ones, zeros, halves

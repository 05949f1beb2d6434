"""Reference oracle: a generic Dinic max-flow and the LP built on it.

:class:`FlowNetwork` is a general directed flow network (one object per
arc, recursive blocking-flow search).  :func:`reference_vertex_cover_lp`
solves the half-integral vertex-cover LP through it the textbook way — the
flow nodes sorted by ``repr``, one ``add_edge`` per arc of the double cover
— and is what ``repro.solvers.halfintegral.vertex_cover_lp`` must match
value for value and key for key.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

INFINITY = float("inf")


class FlowNetwork:
    """A directed flow network with integer or float capacities."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        #: adjacency: node -> list of edge indices into the flat arrays
        self._adjacency: list[list[int]] = [[] for _ in range(num_nodes)]
        self._to: list[int] = []
        self._capacity: list[float] = []

    def add_edge(self, source: int, target: int, capacity: float) -> int:
        """Add a directed edge; returns its index (reverse edge is index+1)."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        index = len(self._to)
        self._adjacency[source].append(index)
        self._to.append(target)
        self._capacity.append(capacity)
        self._adjacency[target].append(index + 1)
        self._to.append(source)
        self._capacity.append(0.0)
        return index

    def max_flow(self, source: int, sink: int) -> float:
        """Run Dinic's algorithm; mutates residual capacities."""
        if source == sink:
            raise ValueError("source and sink must differ")
        flow = 0.0
        while True:
            level = self._bfs_levels(source, sink)
            if level is None:
                return flow
            iterators = [0] * self.num_nodes
            while True:
                pushed = self._dfs_push(source, sink, INFINITY, level, iterators)
                if pushed <= 0:
                    break
                flow += pushed

    def min_cut_reachable(self, source: int) -> set[int]:
        """Nodes reachable from *source* in the residual graph (call after max_flow)."""
        seen = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for edge in self._adjacency[node]:
                if self._capacity[edge] > 1e-12:
                    neighbor = self._to[edge]
                    if neighbor not in seen:
                        seen.add(neighbor)
                        queue.append(neighbor)
        return seen

    def residual_capacity(self, edge_index: int) -> float:
        """Remaining capacity of an edge added via :meth:`add_edge`."""
        return self._capacity[edge_index]

    def flow_on(self, edge_index: int) -> float:
        """Flow currently routed through an edge added via :meth:`add_edge`."""
        return self._capacity[edge_index ^ 1]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bfs_levels(self, source: int, sink: int) -> list[int] | None:
        level = [-1] * self.num_nodes
        level[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for edge in self._adjacency[node]:
                if self._capacity[edge] > 1e-12:
                    neighbor = self._to[edge]
                    if level[neighbor] < 0:
                        level[neighbor] = level[node] + 1
                        queue.append(neighbor)
        if level[sink] < 0:
            return None
        return level

    def _dfs_push(
        self,
        node: int,
        sink: int,
        limit: float,
        level: list[int],
        iterators: list[int],
    ) -> float:
        if node == sink:
            return limit
        adjacency = self._adjacency[node]
        while iterators[node] < len(adjacency):
            edge = adjacency[iterators[node]]
            neighbor = self._to[edge]
            capacity = self._capacity[edge]
            if capacity > 1e-12 and level[neighbor] == level[node] + 1:
                pushed = self._dfs_push(
                    neighbor, sink, min(limit, capacity), level, iterators
                )
                if pushed > 0:
                    self._capacity[edge] -= pushed
                    self._capacity[edge ^ 1] += pushed
                    return pushed
            iterators[node] += 1
        return 0.0


def reference_vertex_cover_lp(vertices, edges, weights=None, self_loops=()):
    """The half-integral LP ``(value, x)`` through :class:`FlowNetwork`."""
    weight_of = {vertex: 1.0 for vertex in vertices}
    if weights:
        for vertex, weight in weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for {vertex!r}")
            weight_of[vertex] = float(weight)

    forced = set(self_loops)
    x = {vertex: Fraction(0) for vertex in vertices}
    for vertex in forced:
        x[vertex] = Fraction(1)

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
            network.add_edge(source, i, weight_of[vertex])
            network.add_edge(n + i, sink, weight_of[vertex])
        for u, v in active_edges:
            iu, iv = index[u], index[v]
            network.add_edge(iu, n + iv, INFINITY)
            network.add_edge(iv, n + iu, INFINITY)
        network.max_flow(source, sink)
        reachable = network.min_cut_reachable(source)
        for vertex, i in index.items():
            half = Fraction(0)
            if i not in reachable:
                half += Fraction(1, 2)
            if (n + i) in reachable:
                half += Fraction(1, 2)
            x[vertex] = half

    value = sum(weight_of[vertex] * float(frac) for vertex, frac in x.items())
    return value, x

"""Unit tests for the reference Dinic max-flow, cross-checked with networkx."""

import random

import networkx as nx
import pytest

from .reference_flow import INFINITY, FlowNetwork


class TestBasics:
    def test_single_edge(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 3.0)
        assert net.max_flow(0, 1) == pytest.approx(3.0)

    def test_classic_diamond(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 3)
        net.add_edge(0, 2, 2)
        net.add_edge(1, 3, 2)
        net.add_edge(2, 3, 3)
        net.add_edge(1, 2, 1)
        assert net.max_flow(0, 3) == pytest.approx(5.0)

    def test_disconnected(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 5)
        assert net.max_flow(0, 2) == 0.0

    def test_same_source_sink_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            net.max_flow(0, 0)

    def test_negative_capacity_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1)

    def test_min_cut_reachability(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 1)
        net.add_edge(1, 2, 10)
        net.add_edge(2, 3, 10)
        net.max_flow(0, 3)
        reachable = net.min_cut_reachable(0)
        assert reachable == {0}  # the bottleneck 0->1 is the cut

    def test_flow_accessors(self):
        net = FlowNetwork(2)
        edge = net.add_edge(0, 1, 4)
        net.max_flow(0, 1)
        assert net.flow_on(edge) == pytest.approx(4.0)
        assert net.residual_capacity(edge) == pytest.approx(0.0)

    def test_infinite_capacity(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 2)
        net.add_edge(1, 2, INFINITY)
        assert net.max_flow(0, 2) == pytest.approx(2.0)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        net = FlowNetwork(n)
        for _ in range(rng.randint(n, 3 * n)):
            u, v = rng.sample(range(n), 2)
            capacity = rng.randint(1, 10)
            if graph.has_edge(u, v):
                graph[u][v]["capacity"] += capacity
            else:
                graph.add_edge(u, v, capacity=capacity)
            net.add_edge(u, v, capacity)
        value = net.max_flow(0, n - 1)
        expected = nx.maximum_flow_value(graph, 0, n - 1)
        assert value == pytest.approx(expected)

"""Max-flow tests: known instances, Dinic vs networkx."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flownet.maxflow import dinic_max_flow
from repro.flownet.network import INFINITE, FlowNetwork


def random_network(seed: int) -> FlowNetwork:
    rng = random.Random(seed)
    n = rng.randint(0, 10)
    names = ["s", "t"] + [f"n{i}" for i in range(n)]
    net = FlowNetwork("s", "t")
    for _ in range(rng.randint(1, 28)):
        u, v = rng.sample(names, 2)
        net.add_edge(u, v, rng.randint(0, 25))
    return net


def layered_network(layers: int, width: int, seed: int = 7) -> FlowNetwork:
    """Source → ``layers`` fully connected layers of ``width`` → sink,
    with seeded capacities: many short augmenting paths, the regime of
    Dinic's level graph."""
    rng = random.Random(seed + 1000003 * layers + width)
    net = FlowNetwork("s", "t")
    for j in range(width):
        net.add_edge("s", (0, j), rng.randint(1, 50))
    for i in range(layers - 1):
        for j in range(width):
            for k in range(width):
                net.add_edge((i, j), (i + 1, k), rng.randint(1, 20))
    for j in range(width):
        net.add_edge((layers - 1, j), "t", rng.randint(1, 50))
    return net


def clone(net: FlowNetwork) -> FlowNetwork:
    other = FlowNetwork(net.source, net.sink)
    for e in net.edges:
        other.add_edge(e.src, e.dst, INFINITE if e.infinite else e.capacity)
    return other


def nx_value(net: FlowNetwork) -> int:
    graph = nx.DiGraph()
    graph.add_node("s")
    graph.add_node("t")
    net.freeze()
    for e in net.edges:
        if graph.has_edge(e.src, e.dst):
            graph[e.src][e.dst]["capacity"] += e.capacity
        else:
            graph.add_edge(e.src, e.dst, capacity=e.capacity)
    return nx.maximum_flow_value(graph, "s", "t")


class TestKnownInstances:
    def test_single_edge(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "t", 7)
        assert dinic_max_flow(net)[0] == 7

    def test_series_bottleneck(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "a", 10)
        net.add_edge("a", "t", 3)
        assert dinic_max_flow(net)[0] == 3

    def test_parallel_paths_sum(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "a", 4)
        net.add_edge("a", "t", 4)
        net.add_edge("s", "b", 5)
        net.add_edge("b", "t", 5)
        assert dinic_max_flow(net)[0] == 9

    def test_classic_clrs_example(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "v1", 16)
        net.add_edge("s", "v2", 13)
        net.add_edge("v1", "v3", 12)
        net.add_edge("v2", "v1", 4)
        net.add_edge("v2", "v4", 14)
        net.add_edge("v3", "v2", 9)
        net.add_edge("v3", "t", 20)
        net.add_edge("v4", "v3", 7)
        net.add_edge("v4", "t", 4)
        assert dinic_max_flow(net)[0] == 23

    def test_disconnected_zero_flow(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "a", 5)
        assert dinic_max_flow(net)[0] == 0

    def test_infinite_capacity_path(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "a", 9)
        net.add_edge("a", "t", INFINITE)
        assert dinic_max_flow(net)[0] == 9

    def test_zero_capacity_edges(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "t", 0)
        assert dinic_max_flow(net)[0] == 0


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_dinic_equals_networkx(self, seed):
        net = random_network(seed)
        value, _ = dinic_max_flow(clone(net))
        assert value == nx_value(clone(net))

    @pytest.mark.parametrize(
        "layers, width", [(3, 3), (4, 4), (6, 6), (10, 10), (14, 14)]
    )
    def test_dinic_equals_networkx_on_layered_networks(self, layers, width):
        net = layered_network(layers, width)
        value, _ = dinic_max_flow(clone(net))
        assert value > 0
        assert value == nx_value(clone(net))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_flow_bounded_by_cuts(self, seed):
        """Weak duality: flow value <= capacity of the trivial cuts."""
        net = random_network(seed)
        source_cap = sum(e.capacity for e in clone(net).out_of("s"))
        value, _ = dinic_max_flow(net)
        assert value <= source_cap


class TestResidualLabelling:
    def test_source_cannot_reach_sink_after_maxflow(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "a", 2)
        net.add_edge("a", "t", 2)
        _, res = dinic_max_flow(net)
        reach = res.residual_reachable_from_source(res.node_index["s"])
        assert res.node_index["t"] not in reach

    def test_reverse_labelling_excludes_source(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "a", 2)
        net.add_edge("a", "t", 2)
        _, res = dinic_max_flow(net)
        reaching = res.residual_reaching_sink(res.node_index["t"])
        assert res.node_index["s"] not in reaching


class TestSharedAdjacencyIndex:
    def test_built_once_and_reused(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "a", 2)
        net.add_edge("a", "t", 2)
        _, res = dinic_max_flow(net)
        index = res.arcs_out()
        assert res.arcs_out() is index
        res.residual_reachable_from_source(res.node_index["s"])
        res.residual_reaching_sink(res.node_index["t"])
        assert res.arcs_out() is index

    def test_matches_linked_list_order(self):
        net = FlowNetwork("s", "t")
        net.add_edge("s", "a", 1)
        net.add_edge("s", "b", 1)
        net.add_edge("a", "t", 1)
        net.add_edge("b", "t", 1)
        _, res = dinic_max_flow(net)
        for node, arcs in enumerate(res.arcs_out()):
            walked = []
            arc = res.head[node]
            while arc != -1:
                walked.append(arc)
                arc = res.next_arc[arc]
            assert arcs == walked

"""Max flow over :class:`~repro.flownet.network.FlowNetwork`.

Dinic's algorithm (the paper quotes an O(V²·√E)-class min-cut as
acceptable because EFGs are tiny; Dinic is comfortably inside that
envelope).  It leaves an adjacency-array residual graph, which the
cut extraction in :mod:`repro.flownet.mincut` labels.  The tests check
it against networkx.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.flownet.network import FlowNetwork


@dataclass
class Residual:
    """Adjacency-array residual graph.

    ``twin[i]`` is the index of arc *i*'s reverse arc; original network
    edges map to even arc indices in insertion order (``arc_of_edge``).
    """

    node_index: dict
    nodes: list
    head: list[int]
    next_arc: list[int]
    to: list[int]
    cap: list[int]
    arc_of_edge: list[int]
    _arcs_out: list[list[int]] | None = field(
        default=None, repr=False, compare=False
    )

    def arcs_out(self) -> list[list[int]]:
        """Per-node outgoing arc ids, built once and shared thereafter.

        The arc *topology* is fixed after :func:`build_residual` — flow
        augmentation only mutates ``cap`` — so one index serves Dinic's
        searches and both reachability helpers.  The per-node order
        matches ``head``/``next_arc`` traversal, keeping results
        deterministic and identical to linked-list iteration.
        """
        index = self._arcs_out
        if index is None:
            index = [[] for _ in self.nodes]
            for node, arcs in enumerate(index):
                arc = self.head[node]
                while arc != -1:
                    arcs.append(arc)
                    arc = self.next_arc[arc]
            self._arcs_out = index
        return index

    def residual_reachable_from_source(self, source_index: int) -> set[int]:
        """Nodes reachable from the source through positive residual arcs."""
        arcs_out = self.arcs_out()
        seen = {source_index}
        queue = deque([source_index])
        while queue:
            node = queue.popleft()
            for arc in arcs_out[node]:
                if self.cap[arc] > 0 and self.to[arc] not in seen:
                    seen.add(self.to[arc])
                    queue.append(self.to[arc])
        return seen

    def residual_reaching_sink(self, sink_index: int) -> set[int]:
        """Nodes that can reach the sink through positive residual arcs.

        This is the *Reverse Labeling Procedure* of Ford and Fulkerson
        [7] the paper applies in step 7: label backwards from the sink
        along arcs with residual capacity.
        """
        # Arc u->v with cap>0 lets u reach whatever v reaches; we need the
        # set {u : u ->* sink}.  Walk backwards: v is labelled; find arcs
        # into v with positive residual capacity.  The reverse of arc i is
        # twin(i) = i ^ 1, so "arc into v with cap>0" = arc out of v whose
        # twin has cap>0.
        arcs_out = self.arcs_out()
        seen = {sink_index}
        queue = deque([sink_index])
        while queue:
            node = queue.popleft()
            for arc in arcs_out[node]:
                if self.cap[arc ^ 1] > 0 and self.to[arc] not in seen:
                    seen.add(self.to[arc])
                    queue.append(self.to[arc])
        return seen


def build_residual(network: FlowNetwork) -> Residual:
    network.freeze()
    node_index: dict = {}
    nodes: list = []
    for node in network.nodes:
        node_index[node] = len(nodes)
        nodes.append(node)
    head = [-1] * len(nodes)
    next_arc: list[int] = []
    to: list[int] = []
    cap: list[int] = []
    arc_of_edge: list[int] = []

    def add_arc(u: int, v: int, c: int) -> None:
        next_arc.append(head[u])
        head[u] = len(to)
        to.append(v)
        cap.append(c)

    for edge in network.edges:
        u = node_index[edge.src]
        v = node_index[edge.dst]
        arc_of_edge.append(len(to))
        add_arc(u, v, edge.capacity)
        add_arc(v, u, 0)
    return Residual(
        node_index=node_index,
        nodes=nodes,
        head=head,
        next_arc=next_arc,
        to=to,
        cap=cap,
        arc_of_edge=arc_of_edge,
    )


def dinic_max_flow(network: FlowNetwork) -> tuple[int, Residual]:
    """Dinic's blocking-flow algorithm; returns (flow value, residual)."""
    res = build_residual(network)
    arcs_out = res.arcs_out()
    source = res.node_index[network.source]
    sink = res.node_index[network.sink]
    n = len(res.nodes)
    total = 0

    while True:
        # BFS level graph.
        level = [-1] * n
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for arc in arcs_out[u]:
                v = res.to[arc]
                if res.cap[arc] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            return total, res

        # DFS blocking flow with current-arc optimisation.
        current = [0] * n

        def dfs(u: int, pushed: int) -> int:
            if u == sink:
                return pushed
            row = arcs_out[u]
            while current[u] < len(row):
                arc = row[current[u]]
                v = res.to[arc]
                if res.cap[arc] > 0 and level[v] == level[u] + 1:
                    flow = dfs(v, min(pushed, res.cap[arc]))
                    if flow > 0:
                        res.cap[arc] -= flow
                        res.cap[arc ^ 1] += flow
                        return flow
                current[u] += 1
            return 0

        import sys

        limit = sys.getrecursionlimit()
        if n + 50 > limit:
            sys.setrecursionlimit(n + 50)
        while True:
            pushed = dfs(source, _INF)
            if pushed == 0:
                break
            total += pushed


_INF = 1 << 62

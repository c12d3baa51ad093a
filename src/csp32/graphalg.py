"""Classical graph subroutines: graph search, matchings and flow.

depth_first drives every backtracking search in the package: the
branch-and-reduce solvers, the coloring pipelines, Kuhn's matching and
the brute-force oracles.  bfs is every breadth-first traversal: the
constraint-graph components of the solver rules and the degree-three
trees of the coloring pipeline, and through bfs_path, its shortest
path, the degree-three cycles and the augmenting paths of max_flow.
The solver endgame needs bipartite maximum matching, the edge-coloring
splice selection needs maximum matching in a general graph, and the
height-two forest construction needs integer maximum flow.  All inputs
here are tiny (O(n) nodes), so simple augmenting-path methods suffice;
general matching delegates to networkx's blossom implementation because
the splice-count guarantee requires a true maximum matching, not a
maximal one.  general_matching imports networkx itself, so only
edge_color's splice selection loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def depth_first(root, expand):
    """The first solution found depth-first from root, or None.

    expand(state) returns (solution, children): a solution, or None and
    the child states to try in order, drawn one at a time.  A stack of
    child iterators stands in for recursion, so the search depth is not
    bounded by the recursion limit."""
    stack = [iter((root,))]
    while stack:
        for state in stack[-1]:
            solution, children = expand(state)
            if solution is not None:
                return solution
            stack.append(iter(children))
            break
        else:
            stack.pop()
    return None


def bfs(root, neighbors):
    """Breadth-first search from root, yielding (vertex, parent) in
    discovery order: root first, with parent None.

    neighbors(v) is called once v leaves the queue, and its neighbors
    are discovered in the order it lists them."""
    seen = {root}
    queue = [root]
    yield root, None
    for v in queue:  # the loop reaches vertices appended while it runs
        for u in neighbors(v):
            if u not in seen:
                seen.add(u)
                queue.append(u)
                yield u, v


def bfs_path(root, target, neighbors):
    """A shortest path from root to target as a vertex list, root first,
    along bfs's parent links; None when target is unreachable.  The
    search stops once target is discovered."""
    parent = {}
    for v, u in bfs(root, neighbors):
        parent[v] = u
        if v == target:
            path = [v]
            while path[-1] != root:
                path.append(parent[path[-1]])
            return path[::-1]
    return None


def components(vertices, neighbors) -> list[list]:
    """Connected components of the graph that neighbors(v) spans on
    vertices (neighbors outside vertices are ignored), each sorted, in
    order of their least vertex."""
    pool = set(vertices)

    def inside(v):
        return (u for u in neighbors(v) if u in pool)

    seen: set = set()
    comps = []
    for root in sorted(pool):
        if root not in seen:
            comp = sorted(v for v, _ in bfs(root, inside))
            seen.update(comp)
            comps.append(comp)
    return comps


def bipartite_matching(
    left: list, right: list, edges: list[tuple]
) -> set[tuple]:
    """Maximum-cardinality matching of a bipartite graph, as (left, right) pairs.

    Kuhn's augmenting-path algorithm; deterministic for a fixed input
    order (vertices and adjacency are processed sorted).
    """
    left = sorted(left)
    right_set = set(right)
    adj = {u: [] for u in left}
    for u, v in edges:
        if u not in adj or v not in right_set:
            raise ValueError(f"edge {(u, v)} not within the given bipartition")
        adj[u].append(v)
    for u in adj:
        adj[u] = sorted(set(adj[u]))

    match_of_right: dict = {}
    seen: set = set()
    free = object()  # the left vertex past an unmatched right vertex

    def expand(state):
        # a left vertex and the alternating path to it, as nested
        # ((right, left), rest) pairs; a path ending at free augments
        u, path = state
        return (path, ()) if u is free else (None, reach(u, path))

    def reach(u, path):
        for v in adj[u]:
            if v not in seen:  # tested lazily: searching a sibling grows seen
                seen.add(v)
                yield match_of_right.get(v, free), ((v, u), path)

    for u in left:
        seen.clear()
        path = depth_first((u, None), expand)
        while path is not None:
            (v, w), path = path
            match_of_right[v] = w
    return {(u, v) for v, u in match_of_right.items()}


def general_matching(nodes: list, edges: list[tuple]) -> set[tuple]:
    """Maximum-cardinality matching in a general graph (blossom algorithm)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(sorted(nodes))
    g.add_edges_from(sorted(tuple(sorted(e)) for e in edges))
    raw = nx.max_weight_matching(g, maxcardinality=True)
    return {tuple(sorted(e)) for e in raw}


@dataclass
class FlowNetwork:
    """Directed network with nonnegative integer capacities."""

    source: object
    sink: object
    capacity: dict[tuple, int] = field(default_factory=dict)

    def add_arc(self, u, v, cap: int):
        if cap < 0:
            raise ValueError("capacities must be nonnegative")
        if v == self.source or u == self.sink:
            raise ValueError("no arcs into the source or out of the sink")
        self.capacity[(u, v)] = self.capacity.get((u, v), 0) + cap


def max_flow(net: FlowNetwork) -> tuple[int, dict[tuple, int]]:
    """Integer maximum flow by BFS augmenting paths (Edmonds-Karp).

    Returns (value, per-arc flow).  Flow conservation and capacity
    respect are asserted before returning.
    """
    residual: dict = {}
    nodes = {net.source, net.sink}
    for (u, v), cap in net.capacity.items():
        residual[(u, v)] = residual.get((u, v), 0) + cap
        residual.setdefault((v, u), 0)
        nodes.update((u, v))
    out_arcs: dict = {n: [] for n in nodes}
    for u, v in residual:
        out_arcs[u].append(v)
    for u in out_arcs:
        out_arcs[u].sort(key=repr)

    def open_arcs(u):
        return (v for v in out_arcs[u] if residual[(u, v)] > 0)

    value = 0
    while True:
        found = bfs_path(net.source, net.sink, open_arcs)
        if found is None:
            break
        path = list(zip(found, found[1:]))  # its arcs
        aug = min(residual[a] for a in path)
        for u, v in path:
            residual[(u, v)] -= aug
            residual[(v, u)] += aug
        value += aug

    flow = {}
    for (u, v), cap in net.capacity.items():
        f = cap - residual[(u, v)]
        if f > 0:
            flow[(u, v)] = f
    # Sanity: capacities and conservation.
    for arc, f in flow.items():
        assert 0 <= f <= net.capacity[arc]
    for n in nodes:
        if n in (net.source, net.sink):
            continue
        inflow = sum(f for (u, v), f in flow.items() if v == n)
        outflow = sum(f for (u, v), f in flow.items() if u == n)
        assert inflow == outflow, f"conservation violated at {n!r}"
    return value, flow

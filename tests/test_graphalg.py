"""The graph input check, the depth-first driver, breadth-first
traversal and components, and matching and max-flow subroutines against
brute-force references.

networkx is a test-only reference here: general_matching must return a
matching as large as its max_weight_matching, and max_flow must place as
many items as its maximum_flow_value, so it is imported inside the tests
that compare with it."""

import random
import re
import sys
import traceback
from itertools import combinations

import pytest

from csp32 import edgecolor
from csp32.edgecolor import edge_color
from csp32.graphalg import (
    bfs,
    bipartite_matching,
    components,
    depth_first,
    general_matching,
    max_flow,
)
from csp32.oracle import planted_cubic_edge_colorable, random_cubic
from csp32.transform import coloring_to_csp
from csp32.vertexcolor import color_graph


def brute_max_matching(nodes, edges):
    """Largest matching size by trying all edge subsets (tiny inputs only)."""
    best = 0
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for sub in combinations(edges, k):
            used = [v for e in sub for v in e]
            if len(used) == len(set(used)):
                best = max(best, k)
                break
    return best


def matching_size(got, edges):
    """len(got), once got is checked to be a matching of edges: sorted
    pairs of distinct vertices, each an edge in either orientation, no
    vertex used twice."""
    used = [v for e in got for v in e]
    assert len(used) == len(set(used))
    assert all(u < v and ((u, v) in edges or (v, u) in edges) for u, v in got)
    return len(got)


def test_bipartite_matching_small_cases():
    got = bipartite_matching([0, 1], ["a", "b"], [(0, "a"), (1, "a"), (1, "b")])
    assert len(got) == 2
    assert bipartite_matching([0], ["a"], []) == set()
    # the sides may share labels: (0, 1) is left 0 against right 1
    assert bipartite_matching([0, 1], [0, 1], [(0, 1), (1, 1), (1, 0)]) == {(0, 1), (1, 0)}
    with pytest.raises(ValueError):
        bipartite_matching([0], ["a"], [(0, "z")])


def test_bipartite_matching_fuzz_maximum():
    rng = random.Random(17)
    for trial in range(150):
        nl, nr = rng.randint(1, 5), rng.randint(1, 5)
        left = list(range(nl))
        right = [f"r{j}" for j in range(nr)]
        edges = [(u, v) for u in left for v in right if rng.random() < 0.4]
        got = bipartite_matching(left, right, edges)
        # Validity: each endpoint used once, all edges real.
        ls = [u for u, _ in got]
        rs = [v for _, v in got]
        assert len(ls) == len(set(ls)) and len(rs) == len(set(rs))
        assert all(e in edges for e in got)
        assert len(got) == brute_max_matching(left + right, edges), trial


def test_general_matching_fuzz_maximum():
    rng = random.Random(18)
    for trial in range(100):
        n = rng.randint(2, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        got = general_matching(list(range(n)), edges)
        assert matching_size(got, edges) == brute_max_matching(list(range(n)), edges), trial


def test_general_matching_odd_cycle():
    # A 5-cycle has a 2-edge maximum, which the greedy pass already finds.
    edges = [(i, (i + 1) % 5) for i in range(5)]
    assert len(general_matching(list(range(5)), edges)) == 2


def test_general_matching_petersen_graph():
    # Outer 5-cycle, inner pentagram and five spokes: every alternating
    # cycle is odd somewhere, and the maximum is perfect.
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
    got = general_matching(list(range(10)), edges)
    assert matching_size(got, edges) == brute_max_matching(list(range(10)), edges) == 5


def test_general_matching_triangles_joined_by_a_path():
    # Triangles 0-1-2 and 3-4-5 joined by the path 2-6-7-3: the perfect
    # matching needs each triangle's path vertex matched along the path.
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 6), (6, 7), (7, 3)]
    got = general_matching(list(range(8)), edges)
    assert matching_size(got, edges) == brute_max_matching(list(range(8)), edges) == 4
    assert got == {(0, 1), (2, 6), (3, 7), (4, 5)}


@pytest.mark.parametrize("edges,want", [
    # stem 2-0=5, triangle 5-3=4 on base 5, exit 3-1 off the inner vertex 3
    ([(0, 2), (0, 5), (5, 3), (5, 4), (3, 4), (3, 1)], {(0, 2), (4, 5), (1, 3)}),
    # stem 1-2=3, pentagon 3-4=6-7=5-3 on base 3, exit 4-0 off the inner vertex 4
    ([(1, 2), (2, 3), (3, 4), (4, 6), (6, 7), (7, 5), (5, 3), (4, 0)],
     {(1, 2), (0, 4), (6, 7), (3, 5)}),
])
def test_general_matching_augments_across_a_blossom(edges, want):
    # The greedy pass matches the stem's middle edge and the cycle's
    # chords and leaves the stem's end and the exit free.  The search
    # from the stem's end reaches the exit vertex only as inner, so the
    # one augmenting path runs around the cycle after it is contracted;
    # the perfect matching is unique.
    n = 1 + max(v for e in edges for v in e)
    got = general_matching(list(range(n)), edges)
    assert matching_size(got, edges) == brute_max_matching(list(range(n)), edges) == n // 2
    assert got == want


def networkx_matching(nodes, edges):
    """networkx's maximum-cardinality matching, nodes and edges added sorted."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(sorted(nodes))
    g.add_edges_from(sorted(tuple(sorted(e)) for e in edges))
    return {tuple(sorted(e)) for e in nx.max_weight_matching(g, maxcardinality=True)}


def test_general_matching_equals_networkx_on_random_graphs():
    # A valid matching as large as networkx's.  Sparse draws are often
    # disconnected; some edge lists repeat edges, carry self-loops or
    # list v before u.
    rng = random.Random(22)
    disconnected = 0
    for p in (0.15, 0.3, 0.6):
        for trial in range(300):
            n = rng.randint(0, 16)
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            adj = {v: [u for e in edges for u in e if v in e and u != v] for v in range(n)}
            disconnected += len(components(range(n), adj.__getitem__)) > 1
            if edges and trial % 3 == 0:
                edges += rng.sample(edges, min(3, len(edges)))
            if n and trial % 4 == 0:
                v = rng.randrange(n)
                edges.append((v, v))
            edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
            rng.shuffle(edges)
            got = general_matching(list(range(n)), edges)
            assert matching_size(got, edges) == len(networkx_matching(range(n), edges)), (p, trial)
    assert disconnected > 100


def test_general_matching_equals_networkx_on_splice_selections(monkeypatch):
    # The graphs select_splices hands over: the edges with four neighbors
    # of seeded planted and random cubic instances.
    calls = []

    def record(nodes, edges):
        calls.append((nodes, edges))
        return general_matching(nodes, edges)

    monkeypatch.setattr(edgecolor, "general_matching", record)
    for seed in range(15):
        for gen, n in ((planted_cubic_edge_colorable, 24),
                       (planted_cubic_edge_colorable, 40), (random_cubic, 16)):
            edgecolor.select_splices(edgecolor.EdgeInstance.from_graph(gen(random.Random(seed), n)[1]))
    assert len(calls) == 45
    for nodes, edges in calls:
        got = general_matching(nodes, edges)
        assert matching_size(got, edges) == len(networkx_matching(nodes, edges))


def test_general_matching_equals_networkx_on_a_large_cubic_graph():
    n, edges = planted_cubic_edge_colorable(random.Random(3), 1000)
    got = general_matching(list(range(n)), edges)
    assert matching_size(got, edges) == len(networkx_matching(range(n), edges)) == n // 2


def test_general_matching_input_contract():
    # Self-loops are ignored and a repeated edge counts once, in either
    # orientation; pairs come back sorted.
    assert general_matching([0, 1, 2], [(1, 1), (2, 2)]) == set()
    assert general_matching([0, 1], [(1, 0), (0, 1), (1, 0), (0, 0)]) == {(0, 1)}
    assert general_matching(["b", "a", "c"], [("c", "b")]) == {("b", "c")}
    assert general_matching([], []) == set()
    # An endpoint outside nodes is an error, not a new vertex.
    with pytest.raises(ValueError):
        general_matching([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        general_matching([0, 1], [(5, 5)])


def test_max_flow_places_items_as_networkx_max_flow():
    # Placement networks: owners with 3 or 5 slots, items with 0-3
    # allowed owners, so some items have none and some cannot all fit.
    import networkx as nx

    rng = random.Random(19)
    for trial in range(300):
        capacity = {c: rng.choice((3, 5)) for c in range(rng.randint(0, 4))}
        edges = [
            (c, y)
            for y in range(rng.randint(0, 16))
            for c in rng.sample(sorted(capacity), min(rng.randint(0, 3), len(capacity)))
        ]
        placed = max_flow(capacity, edges)
        net = nx.DiGraph()
        net.add_nodes_from(["s", "t"])
        for c, cap in capacity.items():
            net.add_edge("s", ("owner", c), capacity=cap)
        for c, y in edges:
            net.add_edge(("owner", c), ("item", y), capacity=1)
            net.add_edge(("item", y), "t", capacity=1)
        assert len(placed) == nx.maximum_flow_value(net, "s", "t"), trial
        assert all((c, y) in edges for y, c in placed.items()), trial
        for c, cap in capacity.items():
            assert sum(o == c for o in placed.values()) <= cap, trial
    assert max_flow({0: 3}, []) == {}
    assert max_flow({}, []) == {}


def test_bipartite_matching_deep_alternating_search():
    # Left i sees right i-1, then right i.  Before it takes right i, each
    # left vertex's search walks back down the whole staircase of earlier
    # pairs, deeper than this recursion limit allows a recursive search.
    n = 400
    edges = [(0, 0)] + [(i, j) for i in range(1, n) for j in (i - 1, i)]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        got = bipartite_matching(list(range(n)), list(range(n)), edges)
    finally:
        sys.setrecursionlimit(old)
    assert got == {(i, i) for i in range(n)}


def test_depth_first_follows_a_deep_chain():
    # Each state has one child; the stack of iterators, not the call
    # stack, grows with depth.
    depth = 100_000
    assert depth_first(0, lambda k: (f"leaf {k}", ()) if k == depth else (None, [k + 1])) == f"leaf {depth}"
    assert depth_first(0, lambda k: (None, [k + 1] if k < depth else [])) is None


def test_depth_first_stops_at_the_first_solution():
    # Children come from generators that log every state they hand out:
    # the search visits states in depth-first order, returns the first
    # solution and never draws a child after it.
    tree = {"": "ab", "a": "xy", "b": "xy", "ax": "", "ay": "", "bx": "", "by": ""}
    solutions = {"ay", "bx"}
    drawn = []

    def children(state):
        for c in tree[state]:
            drawn.append(state + c)
            yield state + c

    def expand(state):
        return (state if state in solutions else None), children(state)

    assert depth_first("", expand) == "ay"
    assert drawn == ["a", "ax", "ay"]


def random_adjacency(rng, n, p):
    adj = {v: set() for v in range(n)}
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def test_bfs_parent_chains_are_shortest_paths():
    import networkx as nx

    rng = random.Random(20)
    for trial in range(60):
        adj = random_adjacency(rng, rng.randint(1, 12), 0.25)
        root = rng.randrange(len(adj))
        got = list(bfs(root, lambda v: sorted(adj[v])))
        parent = dict(got)
        assert len(parent) == len(got) and got[0] == (root, None)
        dist = nx.single_source_shortest_path_length(nx.Graph(adj), root)
        assert set(parent) == set(dist), trial
        for v, p in got[1:]:
            assert v in adj[p] and dist[v] == dist[p] + 1, trial
        # discovery order: nondecreasing distance, and a vertex's parent
        # is the earliest discovered of its neighbors one step closer
        order = [v for v, _ in got]
        assert [dist[v] for v in order] == sorted(dist[v] for v in order)
        for v, p in got[1:]:
            closer = [u for u in adj[v] if dist[u] == dist[v] - 1]
            assert p == min(closer, key=order.index), trial


def test_bfs_discovery_order_follows_neighbor_order():
    # A 0-1-2-3 path plus a 0-3 chord: 3 is found from 0, never from 2,
    # and the neighbor lists are read in the order they are given.
    adj = {0: [3, 1], 1: [0, 2], 2: [1, 3], 3: [0, 2]}
    assert list(bfs(0, adj.__getitem__)) == [(0, None), (3, 0), (1, 0), (2, 3)]
    assert list(bfs(2, adj.__getitem__)) == [(2, None), (1, 2), (3, 2), (0, 1)]
    assert list(bfs(0, lambda v: ())) == [(0, None)]


def test_components_match_networkx():
    import networkx as nx

    rng = random.Random(21)
    for trial in range(80):
        adj = random_adjacency(rng, rng.randint(0, 15), rng.choice((0.05, 0.15, 0.3)))
        pool = [v for v in adj if rng.random() < 0.7]
        got = components(pool, adj.__getitem__)
        want = nx.connected_components(nx.Graph(adj).subgraph(pool))
        assert got == sorted(sorted(c) for c in want), trial


@pytest.mark.parametrize("front_end", [color_graph, edge_color, coloring_to_csp])
def test_graph_input_check_raises_value_error_alone(front_end):
    # Every graph front end reads its input through adjacency.  A bad
    # vertex count or edge is a ValueError naming it, with no KeyError
    # from adjacency's lookup chained into the traceback: a vertex equal
    # to n or negative fails at either end of the edge.
    bad_edges = [(3, [e], f"edge ({e[0]}, {e[1]}) has a vertex outside 0..2")
                 for e in ((0, 3), (3, 0), (1, -1), (-1, 1))]
    for n, edges, message in [
        (-1, [], "negative vertex count -1"),
        (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
        *bad_edges,
    ]:
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            front_end(n, edges)
        assert "KeyError" not in "".join(traceback.format_exception(info.value))

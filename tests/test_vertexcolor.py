"""Graph 3-coloring pipeline: reductions, forests, and end-to-end solving."""

import random
from itertools import combinations

import pytest

from csp32.oracle import brute_vertex_color, planted_3colorable, random_cubic, random_graph
from csp32.solver import SolverConfig
from csp32.vertexcolor import (
    ColorConfig,
    MultiGraph,
    build_bushy_forest,
    build_height_two_forest,
    branch_degree3_cycle,
    branch_degree3_tree,
    color_graph,
    find_degree3_cycle,
    lift_graph_coloring,
    strip_low_degree,
)


def proper(edges, coloring):
    return all(coloring[u] != coloring[v] for (u, v) in edges)


def test_multigraph_basics():
    g = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.degree(1) == 2
    assert not g.add_edge(0, 0)  # self-loops are rejected
    assert g.merge(0, 2)
    # Merged vertex inherits both neighborhoods.
    merged = [v for v in g.vertices() if set(g.members[v]) >= {0, 2}]
    assert len(merged) == 1
    assert not g.merge(merged[0], 1)  # adjacent vertices cannot merge


def test_strip_low_degree_removes_below_three():
    g = MultiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    steps = []
    strip_low_degree(g, steps)
    assert not g.vertices()
    got = lift_graph_coloring({}, steps)
    assert proper([(0, 1), (1, 2), (2, 3), (3, 4)], got)


def test_find_degree3_cycle_is_chordless():
    rng = random.Random(14)
    found = 0
    for _ in range(100):
        graph = random_cubic(rng, rng.choice([6, 8, 10]))
        if graph is None:
            continue
        n, edges = graph
        g = MultiGraph.from_edges(n, edges)
        cyc = find_degree3_cycle(g)
        if cyc is None:
            continue
        found += 1
        k = len(cyc)
        assert k >= 3
        on = set(cyc)
        for i, v in enumerate(cyc):
            assert cyc[(i + 1) % k] in g.adj[v]
            # No chords: cycle neighbors inside the cycle are only the
            # two ring neighbors.
            inside = g.adj[v] & on
            assert inside == {cyc[i - 1], cyc[(i + 1) % k]}
    assert found > 50


def test_cycle_branch_children_preserve_colorability():
    rng = random.Random(15)
    tried = 0
    for _ in range(200):
        graph = random_cubic(rng, rng.choice([6, 8]))
        if graph is None:
            continue
        n, edges = graph
        g = MultiGraph.from_edges(n, edges)
        if find_degree3_cycle(g) is None:
            continue
        children = branch_degree3_cycle(g.copy())
        if children is None:
            continue
        tried += 1
        want = brute_vertex_color((n, edges)) is not None
        have = False
        for child, steps in children:
            # Solve the child exhaustively on its representative graph.
            reps = sorted(child.vertices())
            idx = {v: i for i, v in enumerate(reps)}
            ce = [(idx[u], idx[v]) for u in reps for v in child.adj[u] if u < v]
            sub = brute_vertex_color((len(reps), ce))
            if sub is None:
                continue
            colored = {v: sub[idx[v]] for v in reps}
            full = lift_graph_coloring(
                {m: colored[v] for v in reps for m in child.members[v]}, steps
            )
            assert proper(edges, full)
            have = True
        assert have == want, (n, edges)
    assert tried > 30


def test_tree_branch_on_degree3_forest():
    # Path 0..7 at degree exactly three, anchored in a K5 whose vertices
    # have degree above three, so the degree-3 forest is one 8-vertex tree.
    from itertools import combinations as combos

    edges = [(i, i + 1) for i in range(7)]
    anchor = list(combos(range(8, 13), 2))
    hooks = [(0, 8), (0, 9), (1, 10), (2, 11), (3, 12),
             (4, 8), (5, 9), (6, 10), (7, 11), (7, 12)]
    n = 13
    all_edges = edges + anchor + hooks
    g = MultiGraph.from_edges(n, all_edges)
    steps = []
    strip_low_degree(g, steps)
    assert branch_degree3_cycle(g) is None
    children = branch_degree3_tree(g)
    assert children is not None and len(children) == 3


def test_bushy_forest_invariants():
    rng = random.Random(16)
    built = 0
    for _ in range(60):
        n, edges = random_graph(rng, rng.randint(8, 14), p=0.45)
        g = MultiGraph.from_edges(n, edges)
        steps = []
        strip_low_degree(g, steps)
        if not g.vertices():
            continue
        f = build_bushy_forest(g)
        built += 1
        for r in f.roots:
            assert len(f.children[r]) >= 4
        for v in f.internal:
            if v not in f.roots:
                assert len(f.children[v]) >= 3
        assert f.vertices <= set(g.vertices())
    assert built > 20


def test_leaf_stage_records_breakdowns():
    # Dense random graphs reach the forest/leaf stage; every leaf logs
    # its vertex accounting and hands the rest to the CSP solver.
    rng = random.Random(23)
    saw_breakdown = False
    for _ in range(40):
        n, edges = random_graph(rng, rng.randint(10, 14), p=0.5)
        res = color_graph(n, edges)
        want = brute_vertex_color((n, edges))
        assert res.colorable == (want is not None)
        if res.stats.breakdowns:
            saw_breakdown = True
            for br in res.stats.breakdowns:
                assert len(br) == 5 and all(v >= 0 for v in br)
    assert saw_breakdown


def test_color_graph_matches_brute_force():
    rng = random.Random(17)
    for trial in range(300):
        n, edges = random_graph(rng, rng.randint(1, 9), p=rng.uniform(0.2, 0.8))
        res = color_graph(n, edges)
        want = brute_vertex_color((n, edges))
        assert res.colorable == (want is not None), (trial, n, edges)
        if res.colorable:
            assert proper(edges, res.coloring), trial


def test_color_graph_known_graphs():
    k4 = list(combinations(range(4), 2))
    assert not color_graph(4, k4).colorable
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(i + 5, ((i + 2) % 5) + 5) for i in range(5)]
    petersen += [(i, i + 5) for i in range(5)]
    res = color_graph(10, petersen)
    assert res.colorable and proper(petersen, res.coloring)


def test_color_graph_planted_and_cubic():
    rng = random.Random(18)
    for _ in range(5):
        n, edges = planted_3colorable(rng, 30)
        res = color_graph(n, edges)
        assert res.colorable and proper(edges, res.coloring)
    for _ in range(5):
        graph = random_cubic(rng, 20)
        if graph is None:
            continue
        n, edges = graph
        res = color_graph(n, edges)
        want = brute_vertex_color((n, edges))
        assert res.colorable == (want is not None)


def test_color_graph_node_limit():
    rng = random.Random(19)
    n, edges = planted_3colorable(rng, 25)
    res = color_graph(n, edges, ColorConfig(node_limit=0))
    assert res.colorable is None


def test_odd_cycle_third_child_with_repeated_outside_neighbor():
    # An odd degree-3 cycle whose second and third outside neighbors are
    # the same vertex: the third child must not merge it a second time.
    n, edges = planted_3colorable(random.Random("109:469:planted-color:36"), 36, 7 / 36)
    res = color_graph(n, edges)
    assert res.colorable and proper(edges, res.coloring)


def test_check_claims_reaches_the_leaf_csp(monkeypatch):
    # Planted seed 86 has a leaf CSP that branches; with every cap at 0
    # the claim check must fire inside color_graph's nested solve.
    graph = planted_3colorable(random.Random(86), 20, 0.25)
    assert color_graph(*graph, SolverConfig(check_claims=True)).colorable
    monkeypatch.setattr("csp32.solver.claim_cap", lambda name: 0.0)
    assert color_graph(*graph).colorable
    with pytest.raises(AssertionError):
        color_graph(*graph, SolverConfig(check_claims=True))


def test_claim_checked_coloring_matches_brute_force():
    branched = 0
    for seed in range(100):
        for graph in (
            planted_3colorable(random.Random(seed), 20, 0.25),
            random_graph(random.Random(seed), 12, 0.35),
        ):
            res = color_graph(*graph, SolverConfig(check_claims=True))
            assert res.colorable == (brute_vertex_color(graph) is not None)
            if res.colorable:
                assert proper(graph[1], res.coloring)
            branched += sum(res.stats.rule_counts.values()) > res.stats.rule_counts["matching"]
    assert branched >= 2  # some leaf CSPs branched, so their claims were checked

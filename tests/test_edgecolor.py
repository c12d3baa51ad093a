"""Edge 3-coloring of degree-at-most-three graphs via vertex splicing."""

import random
from itertools import combinations

import pytest

from csp32.edgecolor import (
    EdgeInstance,
    charge_identity,
    edge_color,
    splice,
    splice_candidates,
    strip_low_neighbor_edges,
)
from csp32.solver import NodeLimitReached, SolverConfig
from csp32.oracle import (
    brute_edge_color,
    planted_cubic_edge_colorable,
    random_cubic,
    random_graph,
)


def subcubic(rng, n, p):
    """Random graph with maximum degree three."""
    deg = {v: 0 for v in range(n)}
    edges = []
    for (u, v) in combinations(range(n), 2):
        if deg[u] < 3 and deg[v] < 3 and rng.random() < p:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return n, edges


def proper_edge(edges, coloring):
    seen = {}
    for e in edges:
        u, v = e
        c = coloring[tuple(sorted(e))]
        for x in (u, v):
            if (x, c) in seen:
                return False
            seen[(x, c)] = True
    return True


def test_high_degree_is_uncolorable():
    # Four edges at one vertex cannot share three colors.
    star = (5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    got, _ = edge_color(*star)
    assert got is None


def test_known_graphs():
    k4 = list(combinations(range(4), 2))
    got, _ = edge_color(4, k4)
    assert got is not None and proper_edge(k4, got)
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(i + 5, ((i + 2) % 5) + 5) for i in range(5)]
    petersen += [(i, i + 5) for i in range(5)]
    got, _ = edge_color(10, petersen)
    assert got is None  # the one famous class-two cubic graph


def test_charge_identity_on_cubic_graphs():
    rng = random.Random(41)
    for _ in range(40):
        graph = random_cubic(rng, rng.choice([6, 8, 10, 12]))
        if graph is None:
            continue
        ei = EdgeInstance.from_graph(*graph)
        m3, m4, ok = charge_identity(ei)
        if ok is not None:
            assert ok
            # Fully cubic: every edge has four neighbors.
            assert m3 == 0 and m4 == len(ei.edges)


def test_strip_removes_low_neighbor_edges():
    # A path's edges never have three neighbors on a side.
    ei = EdgeInstance.from_graph(4, [(0, 1), (1, 2), (2, 3)])
    strip_low_neighbor_edges(ei)
    assert not ei.edges


def test_splice_children_preserve_colorability():
    rng = random.Random(42)
    tried = 0
    for _ in range(300):
        graph = random_cubic(rng, rng.choice([6, 8]))
        if graph is None:
            continue
        n, edges = graph
        ei = EdgeInstance.from_graph(n, edges)
        cands = splice_candidates(ei)
        if not cands:
            continue
        tried += 1
        children = splice(ei, cands[0])
        assert len(children) == 2
        want = brute_edge_color((n, edges)) is not None
        have = any(
            not ch.unsat and _brute_constrained(ch) for ch in children
        )
        assert have == want, (n, edges)
    assert tried > 50


def _brute_constrained(ei):
    """Exhaustive 3-coloring of an edge instance honoring its constraints."""
    import itertools

    ids = sorted(ei.edges)
    for combo in itertools.product(range(3), repeat=len(ids)):
        col = dict(zip(ids, combo))
        ok = True
        for eid in ids:
            u, v = ei.edges[eid]
            for other in ei.incident(u) + ei.incident(v):
                if other != eid and col[other] == col[eid]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for con in ei.constraints:
                a, b = sorted(con)
                if col[a] == col[b]:
                    ok = False
                    break
        if ok:
            return True
    return False


def test_edge_color_matches_brute_force():
    rng = random.Random(43)
    for trial in range(300):
        n, edges = subcubic(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8))
        got, stats = edge_color(n, edges)
        want = brute_edge_color((n, edges))
        assert (got is not None) == (want is not None), (trial, edges)
        if got is not None:
            assert proper_edge(edges, got), trial


def test_edge_color_cubic_fuzz():
    rng = random.Random(44)
    for _ in range(60):
        graph = random_cubic(rng, rng.choice([6, 8, 10]))
        if graph is None:
            continue
        got, _ = edge_color(*graph)
        want = brute_edge_color(graph)
        assert (got is not None) == (want is not None), graph
        if got is not None:
            assert proper_edge(graph[1], got)


def test_edge_color_planted_cubic():
    rng = random.Random(45)
    done = 0
    for _ in range(10):
        graph = planted_cubic_edge_colorable(rng, 16)
        if graph is None:
            continue
        got, stats = edge_color(*graph)
        assert got is not None and proper_edge(graph[1], got)
        done += 1
    assert done > 3


def test_node_limit_bounds_the_whole_call():
    # Unlimited, this graph takes 12 splices and 10 graph+CSP nodes over
    # three line graphs; a limit of 4 must stop the call as a whole,
    # not give each line graph a fresh budget.
    graph = random_cubic(random.Random(0), 16)
    coloring, stats = edge_color(*graph)
    assert coloring is not None
    assert (stats.splices, stats.leaves, stats.nodes + stats.csp_nodes) == (12, 3, 10)
    with pytest.raises(NodeLimitReached) as info:
        edge_color(*graph, SolverConfig(node_limit=4))
    assert info.value.stats.spent == 5

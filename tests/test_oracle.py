"""Reference oracles and generators used to validate the real algorithms."""

import random
from itertools import combinations

import pytest

from csp32.instance import check
from csp32.oracle import (
    brute_csp,
    brute_edge_color,
    brute_sat,
    brute_vertex_color,
    planted_3colorable,
    planted_csp,
    planted_cubic_edge_colorable,
    random_3cnf,
    random_csp,
    random_cubic,
    random_graph,
    structured_csp,
)

from helpers import brute_csp_product, live_pairs


def test_brute_solvers_agree():
    rng = random.Random(42)
    for trial in range(200):
        inst = random_csp(rng, rng.randint(1, 6), max_colors=rng.choice([3, 4]),
                          density=rng.uniform(0.1, 0.6))
        a = brute_csp(inst.copy())
        b = brute_csp_product(inst.copy())
        assert (a is None) == (b is None), trial
        if a is not None:
            assert check(inst, a) and check(inst, b), trial


def test_planted_csp_is_satisfiable():
    rng = random.Random(3)
    for _ in range(50):
        inst, hidden = planted_csp(rng, rng.randint(2, 8), density=0.5)
        assert check(inst, hidden)


def test_structured_csp_controls_pair_degrees():
    rng = random.Random(11)
    for _ in range(50):
        degs = [rng.choice([1, 2, 3]) for _ in range(7)]
        inst = structured_csp(rng, degs)
        if inst is None:
            continue
        for p in live_pairs(inst):
            # One constraint per incident skeleton edge, never two into
            # the same variable.
            partners = [q[0] for q in inst.nbrs(p)]
            assert len(partners) == len(set(partners))
            assert len(partners) <= degs[p[0]]


def test_structured_csp_four_color_variables():
    rng = random.Random(12)
    inst = structured_csp(rng, [3] * 8, four_vars=2)
    assert inst is not None
    assert len(inst.colors[0]) == 4 and len(inst.colors[1]) == 4
    assert all(len(inst.colors[v]) == 3 for v in range(2, 8))


def test_brute_vertex_color_basics():
    # Odd cycle is 3-colorable, K4 is not.
    assert brute_vertex_color((5, [(i, (i + 1) % 5) for i in range(5)])) is not None
    k4 = (4, list(combinations(range(4), 2)))
    assert brute_vertex_color(k4) is None
    got = brute_vertex_color((3, [(0, 1), (1, 2)]))
    assert got is not None and got[0] != got[1] and got[1] != got[2]


def test_brute_edge_color_basics():
    # A claw needs only its three edge colors; a 4-star needs four.
    assert brute_edge_color((4, [(0, 1), (0, 2), (0, 3)])) is not None
    assert brute_edge_color((5, [(0, 1), (0, 2), (0, 3), (0, 4)])) is None


def test_brute_sat_basics():
    assert brute_sat(1, [(1,), (-1,)]) is None
    got = brute_sat(2, [(1, 2), (-1,)])
    assert got == {1: False, 2: True}


def test_random_cubic_is_three_regular():
    rng = random.Random(8)
    for n in (4, 6, 8, 10):
        graph = random_cubic(rng, n)
        assert graph is not None
        gn, edges = graph
        deg = {v: 0 for v in range(gn)}
        for (u, v) in edges:
            assert u != v
            deg[u] += 1
            deg[v] += 1
        assert all(d == 3 for d in deg.values())
        assert len(set(map(tuple, map(sorted, edges)))) == len(edges)


def test_planted_graphs_are_solvable():
    rng = random.Random(21)
    for _ in range(20):
        n, edges = planted_3colorable(rng, rng.randint(3, 10))
        assert brute_vertex_color((n, edges)) is not None
    for _ in range(10):
        graph = planted_cubic_edge_colorable(rng, 10)
        if graph is not None:
            assert brute_edge_color(graph) is not None


def test_random_3cnf_shape():
    rng = random.Random(9)
    clauses = random_3cnf(rng, 6, 12)
    assert len(clauses) == 12
    for cl in clauses:
        assert len(cl) == 3
        assert len({abs(l) for l in cl}) == 3
        assert all(1 <= abs(l) <= 6 for l in cl)


def test_cubic_generators_reject_an_odd_vertex_count():
    for make in (random_cubic, planted_cubic_edge_colorable):
        with pytest.raises(ValueError, match="even vertex count"):
            make(random.Random(1), 7)

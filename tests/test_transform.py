"""Format translations: duality, the 3-SAT front end, and graph encoding."""

import random
from collections import Counter

import pytest

from csp32.graphalg import adjacency
from csp32.instance import Instance, eliminate_low_colors
from csp32.oracle import brute_sat, brute_vertex_color, random_3cnf, random_graph
from csp32.solver import solve
from csp32.transform import (
    DualMap,
    GeneralCSP,
    coloring_to_csp,
    dualize,
    list_coloring_csp,
    normalize_constraint,
    sat_to_csp,
)

from helpers import (
    binary_instance, brute_general, cnf_to_general, general_arity, general_check,
)


def test_normalize_constraint():
    # Duplicate pairs collapse.
    assert normalize_constraint([(1, 0), (1, 0), (2, 1)]) == ((1, 0), (2, 1))
    # Two different values for one variable can never happen together.
    assert normalize_constraint([(1, 0), (1, 1)]) is None


def test_general_csp_check_and_brute():
    csp = GeneralCSP({1: {0, 1}, 2: {0, 1}}, [((1, 0), (2, 0)), ((1, 1), (2, 1))])
    sol = brute_general(csp)
    assert sol is not None and general_check(csp, sol)
    assert not general_check(csp, {1: 0, 2: 0})


def test_dualize_swaps_arity():
    # A (2,3)-CSP with three clauses becomes a (3,2)-CSP on three variables.
    csp = cnf_to_general(3, [(1, 2, 3), (-1, 2, 3), (1, -2, -3)])
    dual, dmap = dualize(csp)
    a, b = general_arity(dual)
    assert a <= 3 and b <= 2
    assert set(dual.domains) == {0, 1, 2}
    # A tautological clause is a vacuous constraint (variable 1 given two
    # values): it gets no dual variable and rules out nothing.
    csp = cnf_to_general(3, [(1, 2, 3), (1, -1, 2), (1, -2, -3)])
    dual, dmap = dualize(csp)
    assert set(dual.domains) == {0, 2}
    assert {i for i, _v in dmap.ruled} == {0, 2}


def test_dual_solutions_decode_to_originals():
    rng = random.Random(5)
    agree = 0
    for trial in range(200):
        nv = rng.randint(3, 5)
        clauses = random_3cnf(rng, nv, rng.randint(1, 6))
        csp = cnf_to_general(nv, clauses)
        dual, dmap = dualize(csp)
        got = brute_general(dual)
        want = brute_general(csp)
        # Duality preserves satisfiability exactly.
        assert (got is not None) == (want is not None), trial
        if got is not None:
            decoded = dmap.decode(got)
            full = {v: decoded.get(v, min(csp.domains[v])) for v in csp.domains}
            assert general_check(csp, full), trial
            agree += 1
    assert agree > 50


def test_binary_instance_materialization():
    csp = GeneralCSP(
        {0: {0, 1, 2}, 1: {0, 1, 2}},
        [((0, 0), (1, 0)), ((0, 1),), ()],
    )
    # An empty (arity-0) constraint refutes the instance outright.
    assert binary_instance(csp) is None
    csp.constraints.pop()
    inst = binary_instance(csp)
    assert inst is not None
    # The unary constraint became a color removal.
    assert 1 not in inst.colors[0]


def test_sat_translation_worked_example():
    clauses = [(1, 2, 3), (-1, 2, 4), (-2, 3, -4)]
    inst, smap = sat_to_csp(4, clauses)
    assert inst is not None
    res = solve(inst)
    assert res.satisfiable
    asg = smap.decode(res.assignment)
    assert set(asg) == {1, 2, 3, 4}
    for cl in clauses:
        assert any(asg[abs(l)] == (l > 0) for l in cl)


def test_sat_translation_fuzz_matches_brute():
    rng = random.Random(77)
    for trial in range(300):
        nv = rng.randint(3, 7)
        clauses = random_3cnf(rng, nv, rng.randint(1, 9))
        want = brute_sat(nv, clauses)
        inst, smap = sat_to_csp(nv, clauses)
        if inst is None:
            assert want is None, trial
            continue
        res = solve(inst)
        assert res.satisfiable == (want is not None), trial
        if res.satisfiable:
            asg = smap.decode(res.assignment)
            for cl in clauses:
                assert any(asg[abs(l)] == (l > 0) for l in cl), trial


def _general_sat_to_csp(nvars, clauses):
    """sat_to_csp by the general route: the CNF as a (2,3)-CSP, dualized,
    materialized constraint by constraint, then low colors eliminated."""
    dual, dmap = dualize(cnf_to_general(nvars, clauses))
    inst, trace = binary_instance(dual), []
    if inst is None or not eliminate_low_colors(inst, trace):
        return None, dmap, trace
    return inst, dmap, trace


def test_sat_to_csp_matches_the_general_dual_route():
    # the two-mask biclique build is the same instance, bit for bit, with
    # the same lift steps and the same refuted formulas
    rng = random.Random(42)
    cases = [
        (3, [(1, 2, 3), ()]),  # an empty clause
        (3, [(1, -1, 2), (-2, 3), (2, -3, 1)]),  # a tautology gets no variable
        (3, [(1, 1, 2), (-1, -2, 3), (-3, 2)]),  # a repeated literal counts once
        (2, [(1,), (-1, 2), (-2,)]),  # unit clauses refute it
        (3, [(1,), (-2,), (1, 2, 3)]),  # unit clauses that propagation satisfies
        (4, [(1, 2, 3), (1, -2, -3), (1, 3, 4), (-4, 2, 3)]),  # 1 used positively only
        (9, [(1, 2, 3), (-1, -2, 3), (2, -3, 1)]),  # nvars above every literal
        (5, []),
    ]
    for _ in range(240):
        n = rng.randint(3, 40)
        cases.append((n, random_3cnf(rng, n, round(rng.uniform(2, 6) * n))))
    for _ in range(120):  # short clauses, repeats and tautologies: propagation refutes some
        n = rng.randint(2, 8)
        cases.append((n, [
            tuple(rng.choice((-1, 1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3 * n))
        ]))
    built = refuted = 0
    for nvars, clauses in cases:
        inst, smap = sat_to_csp(nvars, clauses)
        want, dmap, trace = _general_sat_to_csp(nvars, clauses)
        assert (inst is None) == (want is None), (nvars, clauses)
        assert (smap.dual.domains, smap.dual.ruled) == (dmap.domains, dmap.ruled)
        if inst is None:
            refuted += 1
            continue
        assert (inst.table.pairs, inst.live, inst.conf, inst.next_id) == (
            want.table.pairs, want.live, want.conf, want.next_id
        ), (nvars, clauses)
        assert smap.trace == trace, (nvars, clauses)
        built += 1
    assert built > 200 and refuted > 30


@pytest.mark.parametrize("nvars, clauses, message", [
    (1, [(2,), (-2,)], "literal 2 not in ±1..±1"),
    (1, [(1,), (-2,)], "literal -2 not in ±1..±1"),
    (2, [(0, 1)], "literal 0 not in ±1..±2"),
    (0, [(1,)], "literal 1 not in ±1..±0"),
    (3, [(1, -1, 4)], "literal 4 not in ±1..±3"),  # also inside a tautology
    (-1, [], "negative variable count -1"),
])
def test_sat_to_csp_rejects_bad_literals_and_counts(nvars, clauses, message):
    with pytest.raises(ValueError, match=message):
        sat_to_csp(nvars, clauses)


def test_coloring_encoding_matches_brute():
    rng = random.Random(31)
    for trial in range(150):
        n, edges = random_graph(rng, rng.randint(2, 7), p=rng.uniform(0.2, 0.7))
        inst = coloring_to_csp(n, edges)
        res = solve(inst)
        want = brute_vertex_color((n, edges))
        assert res.satisfiable == (want is not None), trial
        if res.satisfiable:
            for (u, v) in edges:
                assert res.assignment[u] != res.assignment[v], trial


def test_list_coloring_csp_matches_a_brute_constraint_list():
    # list_coloring_csp against Instance.build given, by brute force,
    # every edge's constraint for every color both its ends have, on
    # seeded graphs with gaps in their vertex ids and color sets that are
    # empty, one color, two or all three: the same pair ids, live masks
    # and conflicts.
    rng = random.Random(50)
    sizes = Counter()
    for _ in range(300):
        n, edges = random_graph(rng, rng.randint(0, 9), rng.uniform(0.2, 0.8))
        keep = {v for v in range(n) if rng.random() < 0.8}
        g = {v: ns & keep for v, ns in adjacency(n, edges).items() if v in keep}
        colors = {v: set(rng.sample(range(3), rng.randint(0, 3))) for v in g}
        sizes.update(len(cs) for cs in colors.values())
        brute = [((u, c), (v, c)) for u, v in edges if {u, v} <= keep
                 for c in range(3) if c in colors[u] and c in colors[v]]
        got, want = list_coloring_csp(g, colors), Instance.build(colors, brute)
        assert (got.live, got.conf, got.table.pairs) == (want.live, want.conf, want.table.pairs)
    assert min(sizes[k] for k in range(4)) > 190, sizes


def test_coloring_respects_lists():
    # A triangle where one vertex is pinned to color 0.
    inst = coloring_to_csp(
        3, [(0, 1), (1, 2), (0, 2)], lists={0: {0}, 1: {0, 1, 2}, 2: {0, 1, 2}}
    )
    res = solve(inst)
    assert res.satisfiable
    assert res.assignment[0] == 0
    assert len({res.assignment[v] for v in range(3)}) == 3


def test_coloring_rejects_self_loop():
    with pytest.raises(ValueError):
        coloring_to_csp(2, [(0, 0)])


def test_coloring_rejects_a_vertex_outside_the_range():
    for edge in ((0, 5), (3, 1), (-1, 0)):
        with pytest.raises(ValueError, match="outside 0..2"):
            coloring_to_csp(3, [edge])
    with pytest.raises(ValueError, match="negative vertex count -1"):
        coloring_to_csp(-1, [])
    # a list for some vertices must name every vertex's
    with pytest.raises(ValueError, match="vertex 1 has no color list"):
        coloring_to_csp(3, [(0, 1)], {0: [0]})


def test_sat_translation_refuted_by_propagation():
    # the two unit clauses leave their dual variables one color each, and
    # assigning one empties the other
    inst, smap = sat_to_csp(1, [(1,), (-1,)])
    assert inst is None and smap.nvars == 1


def test_binary_instance_rejects_wide_constraints():
    csp = GeneralCSP({v: {0, 1} for v in range(3)}, [((0, 0), (1, 0), (2, 0))])
    with pytest.raises(ValueError, match="arity 3 > 2"):
        binary_instance(csp)


def test_dual_decode_rejects_a_variable_with_every_value_ruled_out():
    # dual variable 0 picking original variable 0 rules out its only value
    with pytest.raises(ValueError, match="all values of variable 0 were ruled out"):
        DualMap({0: {1}}, {(0, 0): 1}).decode({0: 0})

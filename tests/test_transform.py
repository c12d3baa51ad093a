"""Format translations: duality, the 3-SAT front end, and graph encoding."""

import random

import pytest

from csp32.instance import Instance, check
from csp32.oracle import brute_sat, brute_vertex_color, random_3cnf, random_graph
from csp32.solver import solve
from csp32.transform import (
    DualMap,
    GeneralCSP,
    binary_instance,
    cnf_to_general,
    coloring_to_csp,
    dualize,
    normalize_constraint,
    sat_to_csp,
)

from helpers import brute_general, general_arity, general_check


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


def _binary_by_add_constraint(csp):
    """binary_instance built through the checked Instance API: has() on
    each pair, then remove_color or add_constraint."""
    inst = Instance.build(csp.domains)
    for con in csp.constraints:
        if not con:
            return None
        if all(inst.has(p) for p in con):
            if len(con) == 1:
                inst.remove_color(*con[0])
            else:
                inst.add_constraint(*con)
    return inst if all(inst.live.values()) else None


def test_binary_instance_matches_checked_construction():
    # The direct mask writes build the same bits as the checked API,
    # also for a pair an earlier arity-1 constraint dropped, a pair
    # outside the domains and two pairs of one variable.
    rng = random.Random(51)
    csps = [
        dualize(cnf_to_general(8, random_3cnf(rng, 8, 34)))[0] for _ in range(40)
    ]
    for _ in range(400):
        domains = {v: set(rng.sample(range(4), rng.randint(1, 3))) for v in range(5)}
        csps.append(GeneralCSP(domains, [
            tuple((rng.randrange(5), rng.randrange(4)) for _ in range(rng.choice((1, 2, 2))))
            for _ in range(rng.randint(0, 14))
        ]))
    built = 0
    for csp in csps:
        got, want = binary_instance(csp), _binary_by_add_constraint(csp)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.live, got.conf, got.table, got.next_id) == (
                want.live, want.conf, want.table, want.next_id
            )
            built += 1
    assert built > 200


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

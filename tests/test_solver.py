"""Branch-and-reduce solver: correctness, branch claims, and randomized variants."""

import random

import pytest

from csp32.analysis import LAMBDA
from csp32.instance import Instance, check, measure, simplify
from csp32.oracle import brute_csp, planted_csp, random_csp, structured_csp
from csp32.solver import (
    NodeLimitReached,
    SearchStats,
    SolverConfig,
    claim_cap,
    matching_solve,
    solve,
    solve_randomized_32,
    solve_randomized_d2,
    two_color_restrictions,
)

from helpers import build_instance


def test_contrib_weights():
    def weight(k):
        return measure(Instance.build({0: range(k)}))

    assert weight(1) == 0.0
    assert weight(2) == 0.0
    assert weight(3) == 1.0
    assert weight(4) == pytest.approx(2 - 0.095543)


def test_solve_rejects_wide_variables():
    inst = Instance.build({0: range(5)})
    with pytest.raises(ValueError):
        solve(inst)


def test_solve_trivial_instances():
    assert solve(Instance.build({})).satisfiable
    inst = Instance.build({0: range(3), 1: range(3)})
    res = solve(inst)
    assert res.satisfiable and set(res.assignment) == {0, 1}


def test_solve_agrees_with_brute_force():
    rng = random.Random(2026)
    for trial in range(600):
        inst = random_csp(
            rng,
            rng.randint(1, 8),
            max_colors=rng.choice([3, 4]),
            density=rng.uniform(0.05, 0.6),
        )
        want = brute_csp(inst.copy())
        res = solve(inst.copy(), SolverConfig(check_claims=True))
        assert res.satisfiable == (want is not None), trial
        if res.satisfiable:
            assert check(inst, res.assignment), trial


def test_solve_structured_profiles_with_claim_checks():
    rng = random.Random(5150)
    profiles = [
        lambda r: structured_csp(r, [3] * r.randrange(6, 10)),
        lambda r: structured_csp(r, [2] * r.randrange(6, 10)),
        lambda r: structured_csp(r, [r.choice([2, 3]) for _ in range(8)]),
        lambda r: structured_csp(r, [3] * 8, four_vars=2),
        lambda r: structured_csp(r, [4, 4, 3, 3, 3, 3, 3]),
    ]
    for trial in range(250):
        inst = profiles[trial % len(profiles)](rng)
        if inst is None:
            continue
        want = brute_csp(inst.copy())
        res = solve(inst.copy(), SolverConfig(check_claims=True))
        assert res.satisfiable == (want is not None), trial
        if res.satisfiable:
            assert check(inst, res.assignment), trial


def test_planted_instances_are_found_satisfiable():
    rng = random.Random(33)
    for _ in range(30):
        inst, _hidden = planted_csp(rng, rng.randint(5, 20), density=0.3)
        res = solve(inst.copy())
        assert res.satisfiable
        assert check(inst, res.assignment)


def test_node_limit_is_respected():
    rng = random.Random(1)
    for _ in range(50):
        inst = structured_csp(rng, [3] * 10)
        if inst is None:
            continue
        full = solve(inst.copy())
        if full.stats.nodes <= 2:
            continue
        res = solve(inst, SolverConfig(node_limit=1))
        assert res.satisfiable is None
        assert res.stats.nodes == 2  # the limit fires on the node after it
        return
    raise AssertionError("no instance needing more than two nodes")


def test_stats_are_deterministic():
    rng = random.Random(64)
    for _ in range(20):
        inst = random_csp(rng, 9, density=0.25)
        a = solve(inst.copy())
        b = solve(inst.copy())
        assert a.satisfiable == b.satisfiable
        assert a.assignment == b.assignment
        assert (a.stats.nodes, a.stats.leaves) == (b.stats.nodes, b.stats.leaves)
        assert a.stats.rule_counts == b.stats.rule_counts


def test_leaf_counts_stay_under_work_factor_bound():
    rng = random.Random(404)
    for trial in range(120):
        inst = random_csp(rng, rng.randint(4, 11), density=rng.uniform(0.1, 0.4))
        red, _ = simplify(inst.copy())
        m = measure(red) if red is not None else 0.0
        res = solve(inst, SolverConfig(check_claims=True))
        assert res.stats.leaves <= 10 * LAMBDA**m, trial


def test_matching_endgame_directly():
    # Two disjoint triangles of mutually exclusive pairs; each variable
    # owns one pair per clique, so a perfect matching exists.
    inst = build_instance(
        {0: range(3), 1: range(3)},
        [((0, c), (1, c)) for c in range(3)],
    )
    # This instance is not reduced (free pair), so feed matching_solve a
    # genuinely cliquey shape instead: one variable per component.
    inst2 = Instance.build({0: {0}, 1: {0}})
    got = matching_solve(inst2)
    assert got == {0: 0, 1: 0}


def test_two_color_restrictions_preserve_half():
    rng = random.Random(2718)
    checked = 0
    for trial in range(200):
        inst = random_csp(rng, rng.randint(2, 6), density=rng.uniform(0.1, 0.4))
        cons = inst.constraints()
        if not cons:
            continue
        con = cons[rng.randrange(len(cons))]
        restricted = two_color_restrictions(inst, con)
        assert len(restricted) == 4
        sols = all_solutions(inst)
        for sol in sols:
            keep = sum(survives(r, sol) for r in restricted)
            assert keep == 2, (trial, sol)
            checked += 1
    assert checked > 100


def all_solutions(inst):
    import itertools

    order = inst.variables()
    out = []
    for combo in itertools.product(*(sorted(inst.colors[v]) for v in order)):
        asg = dict(zip(order, combo))
        if check(inst, asg):
            out.append(asg)
    return out


def survives(restricted, sol):
    return all(sol[v] in restricted.colors[v] for v in restricted.variables())


def test_randomized_32_finds_planted_solutions():
    rng = random.Random(12)
    hits = 0
    for seed in range(40):
        inst, _ = planted_csp(rng, 10, density=0.35)
        asg, trials = solve_randomized_32(inst, seed=seed)
        if asg is not None:
            assert check(inst, asg)
            hits += 1
    assert hits >= 39


def test_randomized_32_rejects_wide_instances():
    with pytest.raises(ValueError):
        solve_randomized_32(Instance.build({0: range(4)}))


def test_randomized_32_refutes_unsat():
    rng = random.Random(90)
    for _ in range(10):
        inst = random_csp(rng, 5, density=0.6)
        want = brute_csp(inst.copy())
        asg, _ = solve_randomized_32(inst)
        # One-sided error: a returned solution is always real, and the
        # walk budget makes misses on satisfiable instances negligible.
        if want is None:
            assert asg is None
        else:
            assert asg is not None


def test_randomized_d2_restriction():
    rng = random.Random(55)
    # Six-color variables force the subset-restriction path.
    for seed in range(5):
        colors = {v: range(6) for v in range(4)}
        inst = Instance.build(colors)
        hidden = {v: rng.randrange(6) for v in range(4)}
        for v in range(4):
            for w in range(v + 1, 4):
                for c in range(6):
                    for d in range(6):
                        if (hidden[v], hidden[w]) != (c, d) and rng.random() < 0.3:
                            inst.add_constraint((v, c), (w, d))
        asg, trials = solve_randomized_d2(inst, seed=seed)
        assert asg is not None
        assert check(inst, asg)


def test_claim_caps():
    assert claim_cap("dangling") == LAMBDA
    assert claim_cap("two-component-parity") > LAMBDA
    assert claim_cap("anything-fallback") > LAMBDA


def test_solve_rejects_unverified_solution(monkeypatch):
    # A lift that breaks the constraint must be caught by an explicit
    # check that python -O keeps, not by an assert.
    inst = build_instance({0: range(3), 1: range(3)}, [((0, 0), (1, 0))])
    monkeypatch.setattr("csp32.solver.lift", lambda asg, trace: {0: 0, 1: 0})
    with pytest.raises(RuntimeError, match="failed verification"):
        solve(inst)


def test_randomized_solvers_honour_the_node_limit():
    # Each walk spends one node; the d2 restrictions' solves share one budget.
    k4 = build_instance(
        {v: range(3) for v in range(4)},
        [((v, c), (w, c)) for v in range(4) for w in range(v + 1, 4) for c in range(3)],
    )
    with pytest.raises(NodeLimitReached) as info:
        solve_randomized_32(k4, config=SolverConfig(node_limit=5))
    assert info.value.stats.nodes == 6
    wide = Instance.build({v: range(6) for v in range(3)})
    with pytest.raises(NodeLimitReached):
        solve_randomized_d2(wide, config=SolverConfig(node_limit=0))
    asg, trials = solve_randomized_d2(wide, config=SolverConfig(node_limit=3))
    assert check(wide, asg) and trials == 1


def test_absorb_folds_nested_counts():
    csp = SearchStats(nodes=3, leaves=2, rule_counts={"dangling": 1}, fallbacks=1)
    graph = SearchStats(nodes=1, leaves=1)
    graph.absorb(csp, csp=True)
    assert (graph.nodes, graph.leaves, graph.csp_calls, graph.csp_nodes) == (1, 1, 1, 3)
    assert (graph.rule_counts, graph.fallbacks, graph.spent) == ({"dangling": 1}, 1, 4)
    edge = SearchStats(splices=2, skipped_splices=1, leaves=1)
    edge.absorb(graph)
    assert (edge.nodes, edge.leaves, edge.csp_calls, edge.csp_nodes) == (1, 1, 1, 3)
    assert (edge.splices, edge.skipped_splices, edge.spent) == (2, 1, 6)

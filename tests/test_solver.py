"""Branch-and-reduce solver: correctness, branch claims, and randomized variants."""

import math
import random
from collections import Counter

import pytest

import helpers
from csp32 import solver
from csp32.analysis import LAMBDA
from csp32.instance import Assigned, Instance, check, lift, measure, simplify
from csp32.oracle import brute_csp, planted_csp, random_3cnf, random_csp, structured_csp
from csp32.solver import (
    NodeLimitReached,
    SearchStats,
    SolverConfig,
    _random_walk,
    _screen,
    avoid,
    build,
    choose_rule,
    claim_cap,
    matching_solve,
    solve,
    solve_randomized_32,
    solve_randomized_d2,
    two_color_restrictions,
    use,
)
from csp32.transform import sat_to_csp

from helpers import RULE_BASES, build_instance, eager_solve


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
    # One pair per variable and no constraint: two one-pair cliques.
    assert matching_solve(Instance.build({0: {0}, 1: {0}})) == {0: 0, 1: 0}
    # Three pairs in a path on three variables are no clique.  Variable 1
    # solves it with its other color, but the matching would cover only
    # two of the three variables with the two components and answer
    # UNSAT, so the endgame raises instead, also under python -O.
    path = build_instance({0: {0}, 1: {0, 1}, 2: {0}}, [((0, 0), (1, 0)), ((1, 0), (2, 0))])
    assert brute_csp(path.copy()) == {0: 0, 1: 1, 2: 0}
    with pytest.raises(RuntimeError, match="not a clique"):
        matching_solve(path)


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
        asg, _ = solve_randomized_32(inst, seed=seed)
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
        asg, _ = solve_randomized_d2(inst, seed=seed)
        assert asg is not None
        assert check(inst, asg)


def test_randomized_d2_gives_up_after_its_budget():
    # Every pairing of the two five-color variables is forbidden, so all
    # ceil(50 * (5/4)^2) = 79 restricted solves fail.
    inst = Instance.build(
        {0: range(5), 1: range(5)}, [((0, c), (1, d)) for c in range(5) for d in range(5)]
    )
    asg, stats = solve_randomized_d2(inst, seed=3)
    assert asg is None and stats.csp_calls == 79


@pytest.mark.parametrize("d", [3, 5])
def test_randomized_solvers_return_at_once_on_a_refuted_input(d):
    # the last of 41 variables has no color, so the reduction refutes the
    # input: no 50 * 2^20.5 walks, no 50 * (5/4)^41 restricted solves (the
    # node limit stops a solver that starts them)
    inst = Instance.build({v: range(d) if v < 40 else () for v in range(41)})
    run = solve_randomized_32 if d == 3 else solve_randomized_d2
    asg, stats = run(inst, config=SolverConfig(node_limit=100))
    assert asg is None and (stats.nodes, stats.csp_calls) == (0, 0)


def test_solvers_leave_the_callers_instance_unchanged():
    def unchanged(run, inst):
        before = (dict(inst.live), dict(inst.conf))
        run(inst)
        return (inst.live, inst.conf) == before

    rng = random.Random(404)
    reduced = 0
    for trial in range(40):
        inst = random_csp(rng, rng.randint(3, 8), density=rng.uniform(0.1, 0.5))
        reduced += bool(simplify(inst.copy())[1])
        for run in (solve, solve_randomized_32, solve_randomized_d2):
            assert unchanged(run, inst), (trial, run.__name__)
    assert reduced >= 30
    # six colors take the d2 trials; variable 3's two colors go before them
    wide = Instance.build(
        {0: range(6), 1: range(6), 2: range(6), 3: (0, 1)},
        [((0, 0), (1, 0)), ((1, 1), (2, 5)), ((2, 0), (3, 1))],
    )
    assert unchanged(solve_randomized_d2, wide)


def test_budget_is_unbounded_past_two_to_the_thousand():
    # 50 * 2^e trials: log2(50) + e passes 1000 between e = 994 and 995
    assert solver._budget(2.0, 3) == 400
    assert solver._budget(2.0, -20) == 1
    assert solver._budget(2.0, 994) == 50 * 2**994
    assert solver._budget(2.0, 995) == math.inf
    assert solver._budget(5 / 4, 4000) == math.inf


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
    # Each walk spends one node; the d2 restrictions' solves share one
    # budget, and each is one csp_call whose nodes are csp_nodes.
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
    asg, stats = solve_randomized_d2(wide, config=SolverConfig(node_limit=3))
    assert check(wide, asg) and stats.csp_calls == 1
    assert stats.nodes == 0 and stats.csp_nodes == stats.spent >= 1


def test_absorb_folds_nested_counts():
    csp = SearchStats(nodes=3, leaves=2, rule_counts={"dangling": 1}, fallbacks=1)
    graph = SearchStats(nodes=1, leaves=1)
    graph.absorb(csp, csp=True)
    assert (graph.nodes, graph.leaves, graph.csp_calls, graph.csp_nodes) == (1, 1, 1, 3)
    assert (graph.rule_counts, graph.fallbacks, graph.spent) == ({"dangling": 1}, 1, 4)
    edge = SearchStats(splices=2, skipped_splices=1, k4_refuted=3, leaves=1)
    edge.absorb(graph)
    assert (edge.nodes, edge.leaves, edge.csp_calls, edge.csp_nodes) == (1, 1, 1, 3)
    assert (edge.splices, edge.skipped_splices, edge.spent) == (2, 1, 6)
    # refuted pairings are summed but, like skipped splices, not spent
    edge.absorb(SearchStats(k4_refuted=2))
    assert (edge.k4_refuted, edge.spent) == (5, 6)
    # leaf splits fold into one componentwise max
    edge.absorb(SearchStats(breakdowns=(1, 5, 0, 2, 0)))
    edge.absorb(SearchStats(breakdowns=(3, 1, 0, 0, 4)))
    assert edge.breakdowns == (3, 5, 0, 2, 4)


def test_build_returns_none_for_a_dead_child():
    # using (0, 0) removes (1, 0), so using (1, 0) next finds it vanished
    inst = build_instance({0: range(3), 1: range(3)}, [((0, 0), (1, 0))])
    live, conf = dict(inst.live), dict(inst.conf)
    child, trace = build(inst, [use((0, 0))])
    assert trace == [Assigned(0, 0)] and not child.has((1, 0))
    assert build(inst, [use((0, 0)), use((1, 0))]) is None

    def never(inst, trace):
        raise AssertionError("an edit after the child died was applied")

    assert build(inst, [use((0, 0)), use((1, 0)), (never,)]) is None
    # avoiding a variable's last color kills the child
    one = Instance.build({0: [2], 1: range(3)})
    assert build(one, [avoid((0, 2))]) is None
    # avoiding a missing pair changes nothing
    child, trace = build(one, [avoid((0, 1))])
    assert (child.live, child.conf, trace) == (one.live, one.conf, [])
    # every build edits its own copy
    assert (inst.live, inst.conf) == (live, conf)


def test_screen_takes_a_branching_with_every_child_refuted():
    inst = build_instance({0: range(3), 1: range(3)}, [((0, 0), (1, 0))])
    dead = [[use((0, 0)), use((1, 0))] for _ in range(2)]
    assert _screen(inst, [("high-degree", dead)]) == ("high-degree", dead)


def _six_variable_degree_three_batch():
    """Structured CSPs whose pairs all have three constraints, on six
    variables: a few of them take a screened rule's fallback."""
    for seed in range(200):
        yield structured_csp(random.Random(seed), [3] * 6, 0)


def test_choose_rule_leaves_the_instance_unchanged():
    starts = [build_instance(*base) for base in RULE_BASES.values()]
    rng = random.Random(39)
    starts += [planted_csp(rng, rng.randint(8, 14), rng.choice((3, 4)), 0.35)[0] for _ in range(20)]
    starts += list(_six_variable_degree_three_batch())
    seen = Counter()
    for inst in starts:
        pending, nodes = [inst], 0
        while pending and nodes < 40:
            nodes += 1
            red, _trace = simplify(pending.pop())
            if red is None or red.n == 0:
                continue
            before = (dict(red.live), dict(red.conf), red.next_id)
            got = choose_rule(red)
            assert (red.live, red.conf, red.next_id) == before, got and got[0]
            if got is not None:
                seen[got[0]] += 1
                pending += [b[0] for c in got[1] if (b := build(red, c))]
    # the screened rules, which build every candidate's children, ran too
    assert sum(n for name, n in seen.items() if name.startswith(SCREENED)) >= 20, seen


def test_fallbacks_are_the_rule_counts_tagged_fallback():
    total = SearchStats()
    for inst in _six_variable_degree_three_batch():
        stats = solve(inst).stats
        tagged = sum(n for name, n in stats.rule_counts.items() if name.endswith("-fallback"))
        assert stats.fallbacks == tagged
        total.absorb(stats)
    assert total.fallbacks >= 1, total.rule_counts


def test_a_branching_with_no_live_child_is_a_refuted_leaf(monkeypatch):
    # K4's list coloring survives simplify, so the patched rule runs at
    # the root; its only child is dead, and the root becomes a leaf
    k4 = build_instance(
        {v: range(3) for v in range(4)},
        [((v, c), (w, c)) for v in range(4) for w in range(v + 1, 4) for c in range(3)],
    )
    red, _trace = simplify(k4.copy())
    assert red is not None and red.n == 4
    monkeypatch.setattr(
        "csp32.solver.choose_rule",
        lambda red: ("high-degree", [[use((0, 0)), use((1, 0))]]),
    )
    res = solve(k4)
    assert res.satisfiable is False
    assert (res.stats.nodes, res.stats.leaves, res.stats.rule_counts["high-degree"]) == (1, 1, 1)


def test_random_walk_restricts_as_picking_one_of_four():
    # the walk builds only the restriction it picks, from the same draws
    def reference(inst, rng):
        red, trace = simplify(inst)
        while red is not None:
            if red.n == 0:
                return lift({}, trace)
            cons = red.constraints()
            con = cons[rng.randrange(len(cons))]
            red, more = simplify(two_color_restrictions(red, con)[rng.randrange(4)])
            trace += more
        return None

    rng = random.Random(31)
    found = 0
    for trial in range(80):
        inst = random_csp(rng, rng.randint(4, 10), density=rng.uniform(0.1, 0.4))
        ours, theirs = random.Random(trial), random.Random(trial)
        red, trace = simplify(inst.copy())
        got = None
        if red is not None:
            root = (dict(red.live), dict(red.conf), list(trace))
            got = _random_walk(red, trace, ours)
            # the walk edits neither the reduced root nor its trace
            assert (red.live, red.conf, trace) == root, trial
        assert got == reference(inst, theirs), trial
        assert ours.getstate() == theirs.getstate(), trial
        found += got is not None
    assert 10 <= found <= 70


def _reference_batch():
    """(key, make): seeded structured, 3-SAT and planted CSPs, make(rng)
    building one from an rng seeded with key, or None."""
    for seed in range(40):
        yield f"structured{seed}", lambda r: structured_csp(
            r, [r.choice((2, 3)) for _ in range(r.randrange(10, 24))], four_vars=r.randrange(3)
        )
        yield f"sat{seed}", lambda r: sat_to_csp(
            n := r.randint(8, 16), random_3cnf(r, n, round(5 * n))
        )[0]
        yield f"planted{seed}", lambda r: planted_csp(r, r.randint(8, 16), r.choice((3, 4)), 0.3)[0]


@pytest.mark.parametrize("kill", [False, True])
def test_solve_matches_the_eager_reference(monkeypatch, kill):
    # Children built as the search draws them give the verdict, solution
    # and counts of building them all when the rule fires.  The rules
    # leave no child dead on these instances, so kill=True wraps
    # choose_rule, here and in the reference alike, to kill every child
    # of each branching on a multiple of four variables: the search then
    # meets branchings whose children are all dead mid-way.
    if kill:
        rule = solver.choose_rule

        def killing(red):
            got = rule(red)
            if got is not None and red.n % 4 == 0:
                p = red.table.pairs[next(iter(red.conf))]
                # p is gone by the second use
                got = got[0], [child + [use(p), use(p)] for child in got[1]]
            return got

        monkeypatch.setattr(solver, "choose_rule", killing)
        monkeypatch.setattr(helpers, "choose_rule", killing)
    solved = unsat = dead_ends = 0
    for key, make in _reference_batch():
        inst = make(random.Random(key))
        if inst is None:
            continue
        want, ref, dead = eager_solve(inst)
        # a fresh instance, and one whose PairTable the reference has
        # filled, merged variables included
        for res in (solve(make(random.Random(key))), solve(inst)):
            assert res.satisfiable == (want is not None), key
            assert res.assignment == want, key
            got = (res.stats.nodes, res.stats.leaves, res.stats.rule_counts, res.stats.fallbacks)
            assert got == (ref.nodes, ref.leaves, ref.rule_counts, ref.fallbacks), key
        solved += 1
        unsat += want is None
        dead_ends += dead
    assert solved >= 100 and unsat >= 15
    if kill:
        assert dead_ends >= 40


def _count_builds(monkeypatch):
    """Wrap build, and the screen and choose_rule to see every child a
    rule makes.  Returns (created, built, branchings): the children made
    and the children built, in order (children are lists, so tests
    compare them by id; these lists keep them alive, so no two share
    one), and each branching the search takes, with its parent."""
    created, built, branchings = [], [], []
    screen, rule = solver._screen, solver.choose_rule

    def counted(parent, child):
        built.append(child)
        return build(parent, child)

    def seen(candidates):
        for name, children in candidates:
            created.extend(children)
            yield name, children

    def recorded(red):
        got = rule(red)
        if got is not None:
            created.extend(got[1])
            branchings.append((red, *got))
        return got

    monkeypatch.setattr(solver, "build", counted)
    monkeypatch.setattr(solver, "_screen", lambda red, cands: screen(red, seen(cands)))
    monkeypatch.setattr(solver, "choose_rule", recorded)
    return created, built, branchings


def _satisfiable_batch():
    for seed in range(30):
        rng = random.Random(700 + seed)
        yield planted_csp(rng, rng.randint(10, 18), rng.choice((3, 4)), 0.3)[0]
        inst = structured_csp(rng, [rng.choice((2, 3)) for _ in range(20)], four_vars=seed % 3)
        if inst is not None:
            yield inst


# Rules that pick among candidate branchings by their vectors, which
# builds every candidate's children.
SCREENED = ("triple-with-four", "triple-with-two", "large-three-component",
            "large-two-component", "two-component-parity")


def test_siblings_of_a_solved_subtree_are_never_built(monkeypatch):
    created, built, branchings = _count_builds(monkeypatch)
    for inst in _satisfiable_batch():
        assert solve(inst).satisfiable
    # A child is built once, as the search draws it; the children of a
    # screened branching are also built before, by the screen measuring them.
    times = Counter(map(id, built))
    screened = {id(c) for _red, name, cs in branchings if name.startswith(SCREENED) for c in cs}
    assert all(n == 1 or (n == 2 and i in screened) for i, n in times.items())
    assert len(times) < len(set(map(id, created)))
    # Depth-first search finishes the subtree of a child that holds a
    # solution, so once it draws such a first child it draws no sibling.
    monkeypatch.undo()
    checked = 0
    for red, name, children in branchings:
        if name.startswith(SCREENED) or len(children) < 2 or id(children[0]) not in times:
            continue
        first = build(red, children[0])
        if first is not None and solve(first[0]).satisfiable:
            assert not any(id(c) in times for c in children[1:]), name
            checked += 1
    assert checked >= 100


def test_check_claims_builds_and_checks_every_child(monkeypatch):
    created, built, _branchings = _count_builds(monkeypatch)
    for inst in _satisfiable_batch():
        assert solve(inst, SolverConfig(check_claims=True)).satisfiable
    assert set(map(id, built)) == set(map(id, created))
    # a second child with no edits claims no decrease: still caught
    monkeypatch.setattr(
        solver, "choose_rule",
        lambda red: ("high-degree", [[use((0, 0))], []]),
    )
    k4 = build_instance(
        {v: range(3) for v in range(4)},
        [((v, c), (w, c)) for v in range(4) for w in range(v + 1, 4) for c in range(3)],
    )
    with pytest.raises(AssertionError, match="high-degree"):
        solve(k4, SolverConfig(check_claims=True))

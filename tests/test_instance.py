"""Instance bookkeeping, polynomial simplifications, and solution lifting."""

import dataclasses
import random
from collections import Counter

import pytest

from csp32.edgecolor import SpliceStep
from csp32.instance import (
    Assigned,
    Instance,
    IsolatedMerge,
    TwoColorEliminated,
    bits,
    check,
    dead_pairs,
    dominated_pairs,
    eliminate_two_color,
    find_free_pair,
    lift,
    measure,
    simplify,
)
from csp32.oracle import (
    brute_csp,
    planted_3colorable,
    planted_csp,
    random_3cnf,
    random_csp,
    structured_csp,
)
from csp32.solver import build, merge, solve
from csp32.transform import sat_to_csp
from csp32.vertexcolor import CycleColored, GreedyColored, Merged

from helpers import (
    SetInstance,
    brute_dead_color,
    brute_dominated,
    brute_eliminate_two_color,
    brute_free_pair,
    brute_simplify,
    is_reduced,
    live_pairs,
    pair_order_problems,
    same_instance,
    search_color,
    validate,
)


def small(colors, cons=()):
    inst = Instance.build({v: set(cs) for v, cs in colors.items()})
    for a, b in cons:
        inst.add_constraint(tuple(a), tuple(b))
    return inst


def pairs_in(inst, mask):
    """The pairs of a mask, as a set."""
    return {inst.table.pairs[i] for i in bits(mask)}


def test_build_and_views():
    inst = small({0: range(3), 1: range(4)}, [((0, 0), (1, 1))])
    assert inst.n == 2
    assert inst.variables() == [0, 1]
    assert inst.degree((0, 0)) == 1
    assert inst.constraints() == [((0, 0), (1, 1))]
    assert ((0, 0), (1, 1)) in [tuple(c) for c in inst.constraints()]


def test_add_constraint_normalizes_degenerate_forms():
    inst = small({0: range(3), 1: range(3)})
    # A pair against itself is a color removal.
    inst.add_constraint((0, 2), (0, 2))
    assert 2 not in inst.colors[0]
    # Distinct colors of one variable can never clash: dropped silently.
    inst.add_constraint((0, 0), (0, 1))
    assert inst.constraints() == []


def test_assign_strips_neighbors():
    inst = small(
        {0: range(3), 1: range(3), 2: range(3)},
        [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 0), (2, 2))],
    )
    step = inst.assign((0, 0))
    assert step.var == 0
    assert 0 not in inst.colors
    # Conflicting colors of the neighbors are gone, the rest survive.
    assert inst.colors[1] == {1, 2}
    assert inst.colors[2] == {0, 1}


def _assert_matches(inst, ref):
    assert same_instance(inst, ref), (inst.constraints(), ref.constraints())
    assert validate(inst) == [] and pair_order_problems(inst) == []


def _isolate(rng, inst, ref):
    """An isolated constraint p-q between two three-color variables, made
    from two unconstrained pairs when there is none; None if neither."""
    three = [v for v, cs in ref.colors.items() if len(cs) == 3]
    lone = [p for p in sorted(ref.adj) if p[0] in three and len(ref.adj[p]) == 1]
    found = [(p, q) for p in lone for (q,) in [ref.adj[p]] if q > p and q in lone]
    if found:
        return rng.choice(found)
    free = [p for p in sorted(ref.adj) if p[0] in three and not ref.adj[p]]
    couples = [(p, q) for p in free for q in free if p[0] < q[0]]
    if not couples:
        return None
    p, q = rng.choice(couples)
    inst.add_constraint(p, q)
    ref.add_constraint(p, q)
    return p, q


def test_mask_instance_matches_set_reference():
    # Seeded edit sequences on a tree of copies: each step edits one node,
    # copy adds a sibling, and merge adds a branch child with a fresh
    # variable, so siblings and their descendants number the same fresh
    # variables in the one shared pair table.  After every step the masks
    # equal the set form, and ascending pair id stays sorted pair order.
    rng = random.Random(21)
    ops = Counter()
    for _ in range(200):
        colors = {v: rng.sample(range(12), rng.randint(2, 4)) for v in rng.sample(range(20), 8)}
        inst, ref = Instance.build(colors), SetInstance(colors)
        for _ in range(6):
            a, b = rng.choice(sorted(ref.adj)), rng.choice(sorted(ref.adj))
            inst.add_constraint(a, b)
            ref.add_constraint(a, b)
        tree = [(inst, ref)]
        for _ in range(30):
            inst, ref = rng.choice(tree)
            pairs = sorted(ref.adj)
            op = rng.choice(("add_constraint", "remove_color", "assign",
                             "eliminate_two_color", "merge", "merge", "copy"))
            if op == "copy":
                inst, ref = inst.copy(), ref.copy()
                tree.append((inst, ref))
            elif op == "merge":
                found = _isolate(rng, inst, ref)
                if found is None:
                    continue
                inst, _trace = build(inst, [merge(*found)])
                ref = ref.copy()
                ref.merge(*found)
                tree.append((inst, ref))
            elif op == "eliminate_two_color":
                two = [v for v, cs in ref.colors.items() if len(cs) == 2]
                if not two:
                    continue
                v = rng.choice(two)
                assert eliminate_two_color(inst, v) == brute_eliminate_two_color(ref, v)
            elif not pairs:
                continue
            elif op == "add_constraint":
                a, b = rng.choice(pairs), rng.choice(pairs)
                inst.add_constraint(a, b)
                ref.add_constraint(a, b)
            elif op == "remove_color":
                p = rng.choice(pairs)
                inst.remove_color(*p)
                ref.remove_color(*p)
            else:
                p = rng.choice(pairs)
                assert inst.assign(p) == ref.assign(p)
            ops[op] += 1
            _assert_matches(inst, ref)
        for inst, ref in tree:  # later branches' numbering left earlier ones intact
            _assert_matches(inst, ref)
    assert min(ops.values()) >= 300, ops


def test_sibling_merges_share_the_pair_table():
    # Two siblings merge different isolated constraints into the same
    # fresh variable 8, then each merges another into variable 9: the
    # second sibling reuses the first one's ids, and both orders hold.
    colors = {v: range(3) for v in range(8)}
    cons = [((v, 0), (v + 1, 0)) for v in range(0, 8, 2)]
    cons += [((v, 1), (w, 2)) for v in range(8) for w in range(8) if v % 2 != w % 2 and v < w]
    parent, ref = Instance.build(colors, cons), SetInstance(colors, cons)
    children = []
    for first, second in (((0, 0), (4, 0)), ((2, 0), (6, 0))):
        child, child_ref = parent, ref
        for v, _c in (first, second):
            child, _trace = build(child, [merge((v, 0), (v + 1, 0))])
            child_ref = child_ref.copy()
            child_ref.merge((v, 0), (v + 1, 0))
            _assert_matches(child, child_ref)
            children.append((child, child_ref))
    assert [c.next_id for c, _ in children] == [9, 10, 9, 10]
    (a, _), (aa, _), (b, _), (bb, _) = children
    assert a.live[8] == b.live[8] and aa.live[9] == bb.live[9]
    assert len(parent.table.pairs) == 24 + 8
    for inst, inst_ref in [(parent, ref)] + children:
        _assert_matches(inst, inst_ref)


def test_copy_is_independent():
    inst = small({0: range(3), 1: range(3)}, [((0, 0), (1, 0))])
    dup = inst.copy()
    dup.remove_color(0, 0)
    assert 0 in inst.colors[0]
    assert inst.has((1, 0)) and inst.nbrs((1, 0)) == [(0, 0)]


def test_free_pair_detection():
    # Two variables fighting only each other always admit a joint choice.
    inst = small({0: range(3), 1: range(3)}, [((0, c), (1, c)) for c in range(3)])
    got = find_free_pair(inst)
    assert got is not None
    p, q = got
    assert p[0] != q[0]
    assert not inst.linked(p, q)
    # A pair with an outside constraint is not free.
    inst2 = small(
        {0: range(3), 1: range(3), 2: range(3)},
        [((0, c), (1, c)) for c in range(3)]
        + [((0, c), (2, c)) for c in range(3)]
        + [((1, c), (2, c)) for c in range(3)],
    )
    assert find_free_pair(inst2) is None


def random_free_pair_instance(rng):
    """1-7 variables with 1-4 colors each; every pair draws constraints
    against none, one or several other variables.  Color ids reach 11,
    so a set's iteration order is not always the sorted order."""
    n = rng.randint(1, 7)
    inst = Instance.build({v: rng.sample(range(12), rng.randint(1, 4)) for v in range(n)})
    for p in live_pairs(inst):
        others = [w for w in inst.colors if w != p[0]]
        for w in rng.sample(others, min(len(others), rng.choice((0, 0, 1, 1, 2, 3)))):
            for c in sorted(inst.colors[w]):
                if rng.random() < 0.5:
                    inst.add_constraint(p, (w, c))
    return inst


def random_constrained_instance(rng):
    """random_free_pair_instance over two or more variables, with each
    pair it left unconstrained then constrained against one random pair
    of another variable."""
    inst = random_free_pair_instance(rng)
    while inst.n < 2:
        inst = random_free_pair_instance(rng)
    for p in live_pairs(inst):
        if not inst.degree(p):
            w = rng.choice([w for w in inst.live if w != p[0]])
            inst.add_constraint(p, (w, rng.choice(inst.colors_of(w))))
    return inst


def test_free_pair_matches_brute_reference():
    # simplify only searches for a free pair once no pair is
    # unconstrained, so every pair drawn here is constrained
    rng = random.Random(2024)
    outcomes = {"none": 0, "found": 0}
    for _ in range(5000):
        inst = random_constrained_instance(rng)
        got = find_free_pair(inst)
        assert got == brute_free_pair(inst), inst.constraints()
        outcomes["none" if got is None else "found"] += 1
    assert min(outcomes.values()) >= 500, outcomes


def test_free_pair_skips_an_unconstrained_pair():
    # (0, 0) has no conflict; the scan passes it rather than reading a
    # partner variable off its empty mask
    inst = small({0: range(3), 1: range(3)}, [((0, 1), (1, 1)), ((0, 2), (1, 2))])
    assert find_free_pair(inst) == ((0, 1), (1, 0))


def test_free_pair_matches_brute_reference_on_reduced_instance():
    # A large reduced instance has no free pair, and neither have the
    # children left by assigning one pair of its first variables.
    rng = random.Random(1)
    inst, _ = simplify(structured_csp(rng, [rng.choice((3, 4)) for _ in range(80)], four_vars=20))
    assert inst is not None and inst.n > 0
    assert find_free_pair(inst) == brute_free_pair(inst)
    for v in inst.variables()[:12]:
        child = inst.copy()
        child.assign((v, min(inst.colors[v])))
        assert find_free_pair(child) == brute_free_pair(child)


def test_dominance_detection():
    # Color 1 of variable 0 conflicts with a superset of color 0's set.
    inst = small(
        {0: range(3), 1: range(3), 2: range(3)},
        [((0, 0), (1, 0)), ((0, 1), (1, 0)), ((0, 1), (2, 0)), ((0, 2), (2, 1))],
    )
    assert pairs_in(inst, dominated_pairs(inst) & inst.live[0]) == {(0, 1)}
    # Three equal conflict sets: all but the lowest id go.
    inst = small({0: range(3), 1: range(3)}, [((0, c), (1, 0)) for c in range(3)])
    assert pairs_in(inst, dominated_pairs(inst) & inst.live[0]) == {(0, 1), (0, 2)}
    # A chain r < s < t of conflict sets, r on the highest id: s and t go.
    inst = small(
        {0: range(3), 1: range(3)},
        [((0, 2), (1, 0)), ((0, 0), (1, 0)), ((0, 0), (1, 1))]
        + [((0, 1), (1, c)) for c in range(3)],
    )
    assert pairs_in(inst, dominated_pairs(inst) & inst.live[0]) == {(0, 0), (0, 1)}


def test_dominated_matches_brute_reference():
    # Each instance drops its dominated mask until none is left, so every
    # run ends in a miss and masks with removed pairs are tested too.
    rng = random.Random(5)
    hits = misses = 0
    for _ in range(1000):
        inst = random_free_pair_instance(rng)
        while True:
            got = dominated_pairs(inst)
            assert pairs_in(inst, got) == brute_dominated(inst), inst.constraints()
            if not got:
                break
            inst._drop(got)
            hits += 1
        misses += 1
    assert min(hits, misses) >= 300, (hits, misses)


def test_dead_color_detection():
    # (0,0) and (0,1) hit every color of variable 1, so neither can be used.
    inst = small(
        {0: range(3), 1: range(2)},
        [((0, 0), (1, 0)), ((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 1), (1, 1))],
    )
    assert pairs_in(inst, dead_pairs(inst)) == {(0, 0), (0, 1)}


def test_dead_color_matches_brute_reference():
    rng = random.Random(7)
    found = 0
    for _ in range(3000):
        inst = random_free_pair_instance(rng)
        got = dead_pairs(inst)
        assert pairs_in(inst, got) == brute_dead_color(inst), inst.constraints()
        found += bool(got)
    assert min(found, 3000 - found) >= 300, found


def test_dropping_a_whole_mask_keeps_the_verdict():
    # simplify drops each mask in one edit, so its pairs must be spare
    # all together, not only one at a time: each dominated pair keeps a
    # dominator outside the mask, and the oracle's verdict holds.
    rng = random.Random(37)
    dropped = Counter()
    for _ in range(2000):
        inst = random_csp(rng, rng.randint(2, 6), rng.choice((3, 4)), rng.uniform(0.1, 0.5))
        sat = brute_csp(inst) is not None
        dom, conf = dominated_pairs(inst), inst.conf
        for i in bits(dom):
            keepers = inst.live[inst.table.pairs[i][0]] & ~dom
            assert any(conf[j] | conf[i] == conf[i] for j in bits(keepers)), inst.constraints()
        for name, mask in (("dominated", dom), ("dead", dead_pairs(inst))):
            if mask:
                cut = inst.copy()
                cut._drop(mask)
                assert (brute_csp(cut) is not None) == sat, (name, inst.constraints())
                dropped[name] += sat  # an unsatisfiable input stays so anyway
    assert min(dropped["dominated"], dropped["dead"]) >= 300, dropped


def test_two_color_elimination_matches_brute_reference():
    rng = random.Random(11)
    removed = same_var = 0
    for _ in range(3000):
        inst = random_free_pair_instance(rng)
        for v in [v for v, cs in inst.colors.items() if len(cs) == 2]:
            fast, slow = inst.copy(), SetInstance.of(inst)
            step = eliminate_two_color(fast, v)
            assert step == brute_eliminate_two_color(slow, v)
            # constraints() reads only the upper half of each mask
            assert validate(fast) == []
            assert {w: set(cs) for w, cs in fast.colors.items()} == slow.colors
            assert fast.constraints() == slow.constraints()
            removed += bool(set(step.conflict_r) & set(step.conflict_g))
            same_var += any(
                a[0] == b[0] and a != b for a in step.conflict_r for b in step.conflict_g
            )
    # Both of add_constraint's degenerate forms come up, not just plain products.
    assert min(removed, same_var) >= 200, (removed, same_var)


def test_two_color_elimination_products_conflicts():
    inst = small(
        {0: {0, 1}, 1: range(3), 2: range(3)},
        [((0, 0), (1, 0)), ((0, 1), (2, 0))],
    )
    step = eliminate_two_color(inst, 0)
    assert step.var == 0
    assert 0 not in inst.colors
    # Using (1,0) and (2,0) together would strand variable 0.
    assert ((1, 0), (2, 0)) in inst.constraints()


def test_simplify_refutes_overconstrained():
    # Three mutually exclusive variables on one shared color budget.
    inst = small(
        {v: {0} for v in range(2)},
        [((0, 0), (1, 0))],
    )
    red, trace = simplify(inst)
    assert red is None


def test_simplify_reduces_the_instance_it_is_given():
    # variable 1 is assigned, which takes (0, 0); variable 0 is projected
    # out, which frees variable 2, whose colors 1 and 2 are then dominated
    inst = small({0: range(3), 1: {0}, 2: range(3)}, [((0, 0), (1, 0)), ((0, 1), (2, 1))])
    red, trace = simplify(inst)
    assert red is inst and inst.n == 0
    assert [type(step).__name__ for step in trace] == [
        "Assigned", "TwoColorEliminated", "Assigned"
    ]


def test_measure_weights():
    inst = small({0: range(3), 1: range(4), 2: range(4)})
    assert measure(inst) == pytest.approx(1 + 2 * (2 - 0.095543))


def test_validate_flags_problems():
    inst = small({0: range(5)})
    assert validate(inst, max_colors=4)
    assert not validate(inst, max_colors=5)

    def broken(edit):
        inst = small({0: range(3), 1: range(3)}, [((0, 0), (1, 0))])
        assert validate(inst) == []
        edit(inst)
        return validate(inst)

    def bit(inst, p):
        return 1 << inst.table.ids[p]

    def drop_live(inst, p):
        inst.live[p[0]] ^= bit(inst, p)

    assert broken(lambda i: i.conf.pop(i.table.ids[(0, 2)])) == [
        "pair (0, 2) missing from conflict masks"
    ]
    assert broken(lambda i: drop_live(i, (0, 2))) == [
        "conflict mask of (0, 2) refers to a removed color"
    ]

    def dangle(inst):  # (1, 0) goes, but (0, 0) still names it
        drop_live(inst, (1, 0))
        del inst.conf[inst.table.ids[(1, 0)]]

    assert broken(dangle) == ["constraint ((0, 0), (1, 0)) references removed pair (1, 0)"]

    def one_sided(inst):
        inst.conf[inst.table.ids[(1, 0)]] ^= bit(inst, (0, 0))

    assert broken(one_sided) == ["constraint ((0, 0), (1, 0)) not symmetric"]

    def same_variable(inst):
        inst.conf[inst.table.ids[(0, 0)]] |= bit(inst, (0, 1))
        inst.conf[inst.table.ids[(0, 1)]] |= bit(inst, (0, 0))

    assert broken(same_variable) == [
        "constraint ((0, 0), (0, 1)) joins two colors of variable 0"
    ] * 2


def test_check_rejects_foreign_colors_and_needs_every_variable():
    inst = small({0: range(3), 1: range(3)}, [((0, 0), (1, 0))])
    assert check(inst, {0: 1, 1: 0})
    assert not check(inst, {0: 0, 1: 0})  # the constraint
    assert not check(inst, {0: 3, 1: 0})  # 3 is not a color of variable 0
    with pytest.raises(ValueError, match="missing variable 1"):
        check(inst, {0: 1})


def test_simplify_fuzz_preserves_satisfiability():
    rng = random.Random(1234)
    for trial in range(400):
        inst = random_csp(rng, rng.randint(2, 7), max_colors=rng.choice([3, 4]),
                          density=rng.uniform(0.1, 0.5))
        want = brute_csp(inst.copy())
        red, trace = simplify(inst.copy())
        if red is None:
            assert want is None, trial
            continue
        assert is_reduced(red), trial
        sub = brute_csp(red.copy())
        assert (sub is not None) == (want is not None), trial
        if sub is not None:
            full = lift(sub, trace)
            assert check(inst, full), trial


def test_lift_restores_every_variable():
    rng = random.Random(99)
    for _ in range(100):
        inst = random_csp(rng, 6, density=0.2)
        red, trace = simplify(inst.copy())
        if red is None:
            continue
        sub = brute_csp(red.copy())
        if sub is None:
            continue
        full = lift(sub, trace)
        assert set(full) == set(inst.colors)


def test_simplify_matches_four_lemma_reference(monkeypatch):
    # Every simplify call of the solves below, at the root and at every
    # branch child, is compared with the set-form reference of its
    # batched rounds; the lemma simplify does without (use an
    # unconstrained pair) must never have fired there, since its
    # siblings are dominated and go first.
    tally = Counter()

    def checked(inst):
        want, want_trace = brute_simplify(inst.copy(), tally)
        got, trace = simplify(inst)
        assert trace == want_trace
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.colors, got.constraints(), got.next_id) == (
                want.colors, want.constraints(), want.next_id
            )
        return got, trace

    monkeypatch.setattr("csp32.solver.simplify", checked)
    for seed in range(40):
        rng = random.Random(seed)
        solve(random_csp(rng, rng.randint(2, 10), rng.choice((3, 4)), rng.uniform(0.05, 0.4)))
        solve(planted_csp(rng, rng.randint(4, 12), rng.choice((3, 4)), 0.35)[0])
        inst = structured_csp(rng, [rng.choice((1, 2, 3)) for _ in range(10)], seed % 3)
        if inst is not None:
            solve(inst)
        nvars = rng.randint(4, 12)
        inst, _smap = sat_to_csp(nvars, random_3cnf(rng, nvars, round(4.26 * nvars)))
        if inst is not None:
            solve(inst)
    # the csp-direct benchmark's families: structured n = 50, and 3-SAT
    # whose dual colors are SAT variable numbers, here up to 20
    high_colors = 0
    for seed in range(6):
        rng = random.Random(100 + seed)
        inst = structured_csp(rng, [rng.choice((3, 4)) for _ in range(50)], four_vars=12)
        if inst is not None:
            solve(inst)
        inst, _smap = sat_to_csp(20, random_3cnf(rng, 20, 85))
        if inst is not None:
            high_colors += max(max(cs) for cs in inst.colors.values()) > 3
            solve(inst)
    assert high_colors >= 3
    reached = tally.copy()
    # leaf residues: the list-coloring instances the paper's search hands
    # to solve (each full interior coloring of a leaf builds one), run
    # directly, as color_graph's commit loop decides nearly every one of
    # these small planted graphs at its root
    leaf_calls = sum(
        search_color(*graph).stats.csp_calls
        for seed in range(100)
        for graph in (
            planted_3colorable(random.Random(seed), 22, 0.25),
            planted_3colorable(random.Random(seed), 26, 0.22),
        )
    )
    assert leaf_calls > 150 and sum((tally - reached).values()) > 40
    assert tally["unconstrained"] == 0
    assert min(tally[name] for name in ("free-pair", "dominated", "dead")) > 0, tally


def test_instance_edits_reject_missing_pairs():
    inst = Instance.build({0: range(3), 1: range(2)})
    with pytest.raises(ValueError, match=r"pair \(1, 2\) not available"):
        inst.add_constraint((0, 0), (1, 2))
    with pytest.raises(ValueError, match=r"pair \(2, 0\) not available"):
        inst.add_constraint((2, 0), (0, 1))
    with pytest.raises(ValueError, match=r"pair \(0, 5\) not available"):
        inst.assign((0, 5))
    with pytest.raises(ValueError, match="variable 0 has 3 colors, expected 2"):
        eliminate_two_color(inst, 0)


def test_lift_steps_reject_a_solution_of_another_instance():
    # both colors of the eliminated variable are blocked
    step = TwoColorEliminated(0, 0, 1, ((1, 0),), ((1, 0),))
    with pytest.raises(ValueError, match="both colors of eliminated variable 0"):
        step.lift({1: 0})
    merge = IsolatedMerge(5, ((0, (0, 1), (1, 2)),))
    with pytest.raises(ValueError, match="merged variable 5 unassigned"):
        merge.lift({0: 1})
    with pytest.raises(ValueError, match="merged variable 5 got unknown color 3"):
        merge.lift({5: 3})


def lift_step_records():
    """One record of each lift step kind, built fresh on every call."""
    return [
        Assigned(0, 1),
        TwoColorEliminated(0, 0, 1, ((1, 0),), ((1, 1),)),
        IsolatedMerge(5, ((0, (0, 1), (1, 2)),)),
        Merged(0, 2),
        GreedyColored(3, (0, 1)),
        CycleColored(((0, 4), (1, 5), (2, 6), (3, 7))),
        SpliceStep(0, ((5, (1, 2)), (6, (3, 4)))),
    ]


def test_lift_step_records_are_frozen_slotted_values():
    # Every lift step is a frozen, slotted dataclass: no field can be
    # set, it hashes and compares by value, and it has no __dict__.
    for step, twin in zip(lift_step_records(), lift_step_records()):
        name = dataclasses.fields(step)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(step, name, 9)
        assert not hasattr(step, "__dict__")
        assert step is not twin and step == twin and hash(step) == hash(twin)
    assert len(set(lift_step_records() + lift_step_records())) == 7


def test_greedy_lift_takes_the_first_free_color():
    out = {0: 0, 1: 2}
    GreedyColored(3, (0, 1)).lift(out)
    assert out[3] == 1
    # recorded neighbors holding all three colors leave the vertex none
    with pytest.raises(ValueError, match="removed vertex 3 has three distinctly colored"):
        GreedyColored(3, (0, 1, 2)).lift({0: 0, 1: 1, 2: 2})

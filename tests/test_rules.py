"""Each branching rule, triggered deterministically and fuzzed via relabeling.

The walker in helpers checks every application for positive claimed
decreases under the rule's cap, post-simplification decreases at least
as large as claimed, and equisatisfiability against the brute oracle.
"""

import random
from collections import Counter
from itertools import product

from csp32 import solver
from csp32.instance import Assigned, simplify
from csp32.oracle import brute_csp, random_cubic, random_graph, structured_csp
from csp32.solver import SearchStats, SolverConfig, _rule_multi_adjacency, choose_rule, solve
from csp32.transform import coloring_to_csp

from helpers import (
    RULE_BASES,
    brute_multi_adjacency,
    brute_witness_children,
    build_instance,
    relabel,
    walk_rules,
)

EXPECTED_RULE = {
    "isolated": "isolated",
    "isolated-four": "isolated",
    "four-color-restriction": "four-color-restriction",
    "implication-cycle": "implication-cycle",
    "implication": "implication",
    "triple-with-four": "triple-with-four",
    "two-component-parity": "two-component-parity",
}


def test_bases_are_reduced_and_fire_their_rule():
    for name, (colors, cons) in RULE_BASES.items():
        inst = build_instance(colors, cons)
        red, trace = simplify(inst.copy())
        assert red is not None and red.n == inst.n and not trace, name
        got = choose_rule(red, SearchStats())
        assert got is not None, name
        assert got[0] == EXPECTED_RULE[name], (name, got[0])


def test_relabeled_bases_stay_checkable():
    rng = random.Random(808)
    tally = Counter()
    for name, (colors, cons) in RULE_BASES.items():
        base = build_instance(colors, cons)
        for _ in range(25):
            walk_rules(relabel(rng, base), tally)
    for name in set(EXPECTED_RULE.values()):
        assert tally[name] >= 20, (name, tally)


def test_structured_walks_cover_organic_rules():
    rng = random.Random(909)
    tally = Counter()
    profiles = [
        lambda r: structured_csp(r, [3] * r.randrange(6, 11)),
        lambda r: structured_csp(r, [2] * r.randrange(6, 11)),
        lambda r: structured_csp(r, [r.choice([1, 2]) for _ in range(8)]),
        lambda r: structured_csp(r, [4, 4] + [3] * 5),
        lambda r: structured_csp(r, [3, 3, 3, 3]),
    ]
    for trial in range(200):
        inst = profiles[trial % len(profiles)](rng)
        if inst is not None:
            walk_rules(inst, tally)
    for name in (
        "dangling",
        "triple-with-two",
        "high-degree",
        "large-three-component",
        "large-two-component",
        "small-three-component",
    ):
        assert tally[name] >= 25, (name, tally)


def _branching(got):
    """A branching as comparable data: its name and, per child, whether
    it is dead, its lift trace and its instance's masks."""
    if got is None:
        return None
    name, children = got
    return name, [(b.dead, b.trace, b.inst.live, b.inst.conf) for b in children]


def _line_graph(n, edges):
    m = len(edges)
    return m, [(i, j) for i in range(m) for j in range(i + 1, m) if set(edges[i]) & set(edges[j])]


def test_multi_adjacency_matches_pairwise_reference():
    # The mask form reads the sinks, the implication cycle and the avoided
    # sources off one mask of implying pairs per target, and must branch
    # exactly as the pair-by-pair implication graph does on every reduced
    # state of seeded searches over conflict-graph colorings (edge conflict
    # graphs of cubic graphs and G(n, p)) and the relabeled implication bases.
    rng = random.Random(910)
    tally = Counter()
    graphs = [_line_graph(*random_cubic(rng, rng.choice([8, 10, 14, 16]))) for _ in range(20)]
    graphs += [random_graph(rng, rng.randint(20, 60), rng.uniform(0.04, 0.1)) for _ in range(80)]
    starts = [coloring_to_csp(*g) for g in graphs]
    for name in ("implication", "implication-cycle"):
        base = build_instance(*RULE_BASES[name])
        starts += [relabel(rng, base) for _ in range(25)]
    for inst in starts:
        pending, nodes = [inst], 0
        while pending and nodes < 150:
            nodes += 1
            red, _ = simplify(pending.pop())
            if red is None or red.n == 0:
                continue
            got = _branching(_rule_multi_adjacency(red))
            assert got == _branching(brute_multi_adjacency(red))
            tally[got and (got[0], len(got[1]))] += 1
            step = choose_rule(red, SearchStats())
            if step is not None:
                pending += [b.inst for b in step[1] if not b.dead]
    assert tally[("implication", 2)] >= 500, tally
    assert tally[("implication-cycle", 2)] >= 30 and tally[("implication-cycle", 1)] >= 25, tally


def _cycles(*cycles):
    """Constraints joining each pair of each cycle to the next one."""
    return [(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))]


def test_hand_built_implication_cycle_and_two_component_cases():
    # Two reduced instances reach rule cases no base or seeded walk does.
    # In the first, p implies q (p hits every other color of q's
    # variable) around (0,0) (1,0) (2,0) (0,1) (1,1) (2,1): the cycle
    # uses two colors of each variable, so it cannot be used whole and
    # the one child avoids all six pairs.
    cycle = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    shared = build_instance(
        {v: range(3) for v in range(3)},
        [(p, (q[0], c)) for p, q in zip(cycle, cycle[1:] + cycle[:1]) for c in range(3) if c != q[1]],
    )
    # In the second every pair has two constraints.  The first cycle
    # (0,0) (1,0) (2,0) (0,1) (1,1) (2,1) (3,0) has four variables but no
    # free pick and no five distinct consecutive variables, so the first
    # candidate is variable 0 three steps apart: use (1,0) or (2,0).
    ring = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (3, 0)]
    three_apart = build_instance({v: range(3) for v in range(7)}, _cycles(
        ring, [(0, 2), (1, 2), (2, 2), (4, 0), (5, 0)],
        [(3, 1), (4, 1), (6, 0)], [(3, 2), (5, 1), (6, 1)], [(4, 2), (5, 2), (6, 2)],
    ))
    got = {}
    for inst in (shared, three_apart):
        red, trace = simplify(inst.copy())
        assert red is not None and red.n == inst.n and not trace
        name, children = choose_rule(red, SearchStats())
        got[name] = [(b.dead, b.trace) for b in children]
        if name == "implication-cycle":
            assert not any(children[0].inst.has(p) for p in cycle)
    assert got == {
        "implication-cycle": [(False, [])],
        "large-two-component": [(False, [Assigned(1, 0)]), (False, [Assigned(2, 0)])],
    }
    rng = random.Random(911)
    tally = Counter()
    for inst in (shared, three_apart):
        for copy in [inst] + [relabel(rng, inst) for _ in range(20)]:
            walk_rules(copy, tally)
            res = solve(copy.copy(), SolverConfig(check_claims=True))
            assert res.satisfiable == (brute_csp(copy.copy()) is not None)


def _three_component_family(nvars):
    """The fingerprint's small degree-3 structured CSPs on nvars variables."""
    for seed in range(400):
        inst = structured_csp(random.Random(5000 + seed), [3] * nvars, 0)
        if inst is not None:
            yield inst


def test_witness_children_match_the_defensive_reference(monkeypatch):
    # The witness branching keeps only the case each link count c reaches
    # on a reduced instance; the reference still carries the defensive
    # cases.  Both must build the same children, in order, on every
    # witness candidate the six-variable degree-3 searches reach.
    witness, tally = solver._witness_children, Counter()

    def compared(red, v_pair, nbrs, z):
        got, want = witness(red, v_pair, nbrs, z), brute_witness_children(red, v_pair, nbrs, z)
        assert len(got) == len(want)
        for b, ref in zip(got, want):
            assert (b.dead, b.inst.live, b.inst.conf, b.trace) == (
                ref.dead, ref.inst.live, ref.inst.conf, ref.trace,
            )
        tally[sum(red.linked(t, z) for t in nbrs)] += 1
        return witness(red, v_pair, nbrs, z)

    monkeypatch.setattr(solver, "_witness_children", compared)
    for inst in _three_component_family(6):
        solve(inst)
    assert tally[1] > 100 and tally[2] > 100 and tally[3] > 0, tally


def test_small_three_components_give_one_or_three_children(monkeypatch):
    # Four three-color variables whose colors 0 and 1 have three
    # constraints each: each two variables are joined by one of the two
    # perfect matchings of those pairs, 2^6 = 64 patterns.  The 8 whose
    # swaps come from flipping some variables' colors split into two k = 4
    # cliques, left to the matching; the other 56 are one k = 8 component.
    var_pairs = [(v, w) for v in range(4) for w in range(v + 1, 4)]
    shapes = Counter()
    for swaps in product((0, 1), repeat=len(var_pairs)):
        cons = [
            ((v, c), (w, c ^ s)) for (v, w), s in zip(var_pairs, swaps) for c in (0, 1)
        ]
        inst = build_instance({v: range(3) for v in range(4)}, cons)
        comps = solver._components(inst, 3)
        if len(comps) == 2:
            assert [solver._small_three_children(inst, comp) for comp in comps] == [None, None]
            shapes["split"] += 1
            continue
        (comp,) = comps
        name, children = solver._small_three_children(inst, comp)
        assert name == "small-three-component" and len(children) in (1, 3), swaps
        shapes[len(comp), len(children)] += 1
    assert shapes == {"split": 8, (8, 1): 8, (8, 3): 48}, shapes
    # On the seeded small family every component under five variables
    # that the search meets has k = 4, 8 or 12.
    small, tally = solver._small_three_children, Counter()

    def counted(red, comp):
        assert len({p[0] for p in comp}) == 4 and len(comp) in (4, 8, 12)
        got = small(red, comp)
        tally[len(comp), got and len(got[1])] += 1
        return got

    monkeypatch.setattr(solver, "_small_three_children", counted)
    for nvars in (4, 6):
        for inst in _three_component_family(nvars):
            solve(inst)
    assert set(tally) <= {(4, None), (8, 1), (8, 3), (12, 1)}, tally
    assert tally[4, None] > 5 and tally[8, 1] + tally[8, 3] > 20 and tally[12, 1] > 200, tally

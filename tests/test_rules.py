"""Each branching rule, triggered deterministically and fuzzed via relabeling.

The walker in helpers checks every application for positive claimed
decreases under the rule's cap, post-simplification decreases at least
as large as claimed, and equisatisfiability against the brute oracle.
"""

import random
from collections import Counter

from csp32.instance import simplify
from csp32.oracle import random_cubic, random_graph, structured_csp
from csp32.solver import SearchStats, _rule_multi_adjacency, choose_rule
from csp32.transform import coloring_to_csp

from helpers import RULE_BASES, brute_multi_adjacency, build_instance, relabel, walk_rules

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

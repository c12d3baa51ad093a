"""Branch-and-reduce solver for (3,2)- and (4,2)-CSP instances.

The search alternates polynomial simplification with a bank of branching
rules, each replacing the current instance by smaller ones whose branch
vector keeps the overall work factor at most lambda(4,4,5,5).  When no
rule applies the residue decomposes into cliques of mutually exclusive
pairs and a bipartite matching finishes the job in polynomial time.

Each rule reports the decrease in size it guarantees for every child;
these claims are computed from the actual local structure rather than
hardcoded, so tests can verify them against measured decreases.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .analysis import LAMBDA, work_factor
from .graphalg import bipartite_matching, components, depth_first
from .instance import (
    Assignment,
    Instance,
    IsolatedMerge,
    LiftTrace,
    Pair,
    bits,
    check,
    lift,
    measure,
    simplify,
)

# ---------------------------------------------------------------------------
# Branch children
#
# A rule's child is a list of edits (edit, *pairs) on a copy of the
# parent, made by use, avoid and merge.  build applies them when the
# search draws the child, so a sibling after the one whose subtree holds
# the solution is never copied; each edit function changes the copy and
# its lift trace in place, and returns False when it finds the child
# dead.  The claimed size decrease is the drop in measure the edits
# cause; simplification can only shrink the child further, so the claim
# is a guaranteed lower bound on the real decrease.

Child = list[tuple]  # edits (edit, *pairs), which build applies in order


def use(p: Pair) -> tuple:
    return (_use, p)


def avoid(p: Pair) -> tuple:
    return (_avoid, p)


def merge(p: Pair, q: Pair) -> tuple:
    return (_merge, p, q)


def _use(inst: Instance, trace: LiftTrace, p: Pair) -> bool:
    # False when the variable or color vanished through an earlier edit.
    if not inst.has(p):
        return False
    trace.append(inst.assign(p))
    return True


def _avoid(inst: Instance, trace: LiftTrace, p: Pair) -> bool:
    if inst.has(p):
        inst.remove_color(p[0], p[1])
        return bool(inst.live[p[0]])
    return True


def _merge(inst: Instance, trace: LiftTrace, p: Pair, q: Pair) -> bool:
    """Replace an isolated constraint between three-color variables by
    one four-color variable whose colors are the surviving choices."""
    (v, rv), (w, rw) = p, q
    assert inst.nbrs(p) == [q] and inst.nbrs(q) == [p]
    assert len(inst.colors_of(v)) == 3 and len(inst.colors_of(w)) == 3
    z = inst.add_variable(range(4))
    decode = []
    sources = [((v, c), q) for c in inst.colors_of(v) if c != rv]
    sources += [((w, c), p) for c in inst.colors_of(w) if c != rw]
    for k, (src, partner) in enumerate(sources):
        # Color k of z means: use src, give partner's variable its
        # isolated color (safe, its lone constraint is now moot).
        decode.append((k, src, (partner[0], rv if partner == p else rw)))
        for t in inst.nbrs(src):
            if t[0] not in (v, w):
                inst.add_constraint((z, k), t)
    trace.append(IsolatedMerge(z, tuple(decode)))
    inst.remove_variable(v)
    inst.remove_variable(w)
    return True


def build(parent: Instance, child: Child) -> Optional[tuple[Instance, LiftTrace]]:
    """The child's instance and lift trace, made from a copy of parent;
    None when an edit finds the child dead."""
    inst, trace = parent.copy(), []
    for edit, *pairs in child:
        if not edit(inst, trace, *pairs):
            return None
    return inst, trace


Branching = tuple[str, list[Child]]


def live_vector(parent: Instance, children: list[Child]) -> list[float]:
    """The claimed decreases of the live children, each built to measure it."""
    base = measure(parent)
    return [base - measure(built[0]) for c in children if (built := build(parent, c))]


# ---------------------------------------------------------------------------
# Structure queries on a reduced instance


def cycle_order(inst: Instance, comp: list[Pair]) -> list[Pair]:
    """Lay out a component of doubly-constrained pairs as its cycle."""
    start = comp[0]
    cyc = [start]
    prev = None
    cur = start
    while True:
        nxt = next(q for q in inst.nbrs(cur) if q != prev)
        if nxt == start:
            return cyc
        cyc.append(nxt)
        prev, cur = cur, nxt


# ---------------------------------------------------------------------------
# Branching rules.  Each helper returns None when its configuration is
# absent; choose_rule tries them in an order matching their preconditions.


def _rule_single_constraint(red: Instance) -> Optional[Branching]:
    conf, live, pairs = red.conf, red.live, red.table.pairs
    for i, hit in conf.items():
        if hit.bit_count() != 1:
            continue
        p, q = pairs[i], pairs[hit.bit_length() - 1]
        if red.degree(q) == 1:
            # Isolated constraint.
            if live[p[0]].bit_count() == 3 and live[q[0]].bit_count() == 3:
                return "isolated", [[merge(p, q)]]
            return "isolated", [[use(p)], [use(q)]]
        # Dangling constraint: q carries further constraints.
        return "dangling", [[use(q)], [avoid(q), use(p)]]
    return None


def _rule_multi_adjacency(red: Instance) -> Optional[Branching]:
    # p implies q when p hits every other color of q's variable: using p
    # forces q.  Every variable of a reduced instance has three or four
    # colors, so p then hits that variable twice, and by[q], the mask of
    # the pairs implying q, is built only for variables hit twice.
    conf, pairs, twice = red.conf, red.table.pairs, 0
    by: dict[int, int] = {}  # ascending in q, as live is
    sources = 0  # every pair implying some pair
    for m in red.live.values():
        once = dbl = 0
        ids = bits(m)
        for i in ids:
            dbl |= once & conf[i]
            once |= conf[i]
        if not dbl:
            continue
        twice |= dbl
        for q in ids:
            src = dbl & ~conf[q]
            for c in ids:
                if c != q:
                    src &= conf[c]
            if src:
                by[q] = src
                sources |= src
    if not twice:
        return None
    if by:
        sinks = [q for q in by if not sources >> q & 1]
        if sinks:
            # Target of an implication that starts no implication, the first
            # one of the first source that has one: either use it, or avoid
            # it along with all its sources.
            q = min(sinks, key=lambda q: (by[q] & -by[q], q))
            child = [avoid(pairs[q])] + [avoid(pairs[src]) for src in bits(by[q])]
            return "implication", [[use(pairs[q])], child]
        # Every target is a source: from the first source, follow each
        # pair's first target to a cycle.
        walk = [(sources & -sources).bit_length() - 1]
        while (cur := next(q for q, src in by.items() if src >> walk[-1] & 1)) not in walk:
            walk.append(cur)
        cyc_ids = walk[walk.index(cur):]
        cyc = [pairs[i] for i in cyc_ids]
        cycle_vars = [p[0] for p in cyc]
        # whether a cycle pair conflicts off its successor's variable
        succ_vars = cycle_vars[1:] + cycle_vars[:1]
        outside = any(conf[i] & ~red.live[w] for i, w in zip(cyc_ids, succ_vars))
        if len(set(cycle_vars)) < len(cycle_vars):
            # Two cycle pairs share a variable, so using the whole cycle
            # is impossible and it must be avoided entirely.
            return "implication-cycle", [[avoid(p) for p in cyc]]
        use_all = [use(p) for p in cyc]
        if not outside:
            return "implication-cycle", [use_all]
        return "implication-cycle", [use_all, [avoid(p) for p in cyc]]
    # Multiple adjacency without implication: the doubly-hit variable has
    # four colors, exactly two of them constrained by p.  Split on which
    # half of the palette it uses.
    i = (twice & -twice).bit_length() - 1
    p, hit = pairs[i], conf[i]
    m = next(m for m in red.live.values() if (m & hit).bit_count() >= 2)
    # inside also avoids p, which conflicts with every remaining color of w
    inside = [avoid(pairs[j]) for j in bits(m & ~hit)] + [avoid(p)]
    outside = [avoid(pairs[j]) for j in bits(m & hit)]
    return "four-color-restriction", [inside, outside]


def _rule_high_degree(red: Instance) -> Optional[Branching]:
    live, pairs = red.live, red.table.pairs
    for i, hit in red.conf.items():
        d, p = hit.bit_count(), pairs[i]
        if d >= 4 or (d >= 3 and live[p[0]].bit_count() >= 4):
            return "high-degree", [[use(p)], [avoid(p)]]
    return None


def _screen(red: Instance, candidates) -> Optional[Branching]:
    """Pick the first candidate branching whose vector meets its cap.

    Overlapping eliminations can degrade a particular candidate below
    its usual work factor, so rules offer every way of instantiating
    their configuration and the screen keeps the discipline honest.
    When no candidate qualifies the first one is still sound and is
    returned with a -fallback tag, which _expand counts in
    SearchStats.fallbacks.
    """
    fallback = None
    for name, children in candidates:
        vec = live_vector(red, children)
        if not vec:
            return name, children  # every branch refuted: instance unsolvable
        if len(vec) == 1 or work_factor(*vec) <= claim_cap(name) + 1e-9:
            return name, children
        if fallback is None:
            fallback = (name, children)
    if fallback is None:
        return None
    return fallback[0] + "-fallback", fallback[1]


def _triple_candidates(red: Instance, name: str, fits: int):
    """Branchings on a pair p with three constraints and a neighbor q in
    the mask fits, whose one other constraint goes to t: use one of p, q,
    t when t is also p's neighbor, else use p, or t, or q in turn."""
    live, pairs = red.live, red.table.pairs
    for i, hit in red.conf.items():
        if hit.bit_count() != 3 or not hit & fits:
            continue
        p = pairs[i]
        for j in bits(hit & fits):
            q = pairs[j]
            (t,) = [x for x in red.nbrs(q) if x != p]
            if not red.linked(p, t):
                children = [[use(p)], [avoid(p), use(t)], [avoid(p), avoid(t), use(q)]]
            elif red.degree(t) == 2 and live[q[0]].bit_count() == live[t[0]].bit_count() == 3:
                # Avoiding p leaves q, t in an isolated constraint between
                # three-color variables, which merge into one variable.
                children = [[use(p)], [avoid(p), merge(q, t)]]
            else:
                children = [[use(x)] for x in (p, q, t)]
            yield name, children


def _rule_three_with_four(red: Instance) -> Optional[Branching]:
    # A four-color q has exactly two constraints, or high-degree fires.
    fits = sum(m for m in red.live.values() if m.bit_count() >= 4)
    return _screen(red, _triple_candidates(red, "triple-with-four", fits))


def _rule_three_with_two(red: Instance) -> Optional[Branching]:
    fits = sum(1 << i for i, hit in red.conf.items() if hit.bit_count() == 2)
    return _screen(red, _triple_candidates(red, "triple-with-two", fits))


def _free_children(red: Instance, pairs: list[Pair]):
    """A child using each pick of one pair per variable of pairs with no
    two picks constrained, in product order: variables ascending, each
    variable's pairs in their order in pairs."""
    cvars = sorted({p[0] for p in pairs})
    for combo in product(*([p for p in pairs if p[0] == v] for v in cvars)):
        if not any(red.linked(a, b) for i, a in enumerate(combo) for b in combo[i + 1:]):
            yield [use(pr) for pr in combo]


def _small_three_children(red: Instance, comp: list[Pair]) -> Optional[Branching]:
    # A degree-3 pair hits three other variables once each (twice would
    # fire multi-adjacency), so a component under five variables spans
    # four, each two of them joined by a perfect matching of their
    # component pairs: k is 4, 8 or 12.
    k = len(comp)
    if k == 4:
        return None  # good component, handled by matching
    if k == 12:
        # All colors of all four variables: the component is closed off
        # from the rest of the instance and one free pick solves it.
        # There always is one: each two variables are joined by a color
        # permutation, and the only unsatisfiable pattern of permutations
        # on K4 (up to relabeling colors) splits into three k = 4 cliques.
        return "small-three-component", [next(_free_children(red, comp))]
    # k == 8: branch over the maximal variable subsets colorable from
    # component pairs; uncovered variables fall back to their color
    # outside the component, giving one or three children.  Since
    # component pairs have no constraints leaving the component, any two
    # assignments covering the same variables are interchangeable and
    # one representative per subset suffices.
    comp_vars = sorted({p[0] for p in comp})
    by_cover: dict[frozenset, tuple] = {}
    for combo in product(*([None] + [p for p in comp if p[0] == v] for v in comp_vars)):
        chosen = tuple(pr for pr in combo if pr is not None)
        if not any(red.linked(a, b) for i, a in enumerate(chosen) for b in chosen[i + 1:]):
            cover = frozenset(pr[0] for pr in chosen)
            if cover not in by_cover:
                by_cover[cover] = chosen
    maximal = [c for c in by_cover if not any(c < d for d in by_cover)]
    return "small-three-component", [
        [use(pr) for pr in by_cover[cover]] + [avoid(pr) for pr in comp if pr[0] not in cover]
        for cover in sorted(maximal, key=sorted)
    ]


def _witness_children(
    red: Instance, v_pair: Pair, nbrs: list[Pair], z: Pair
) -> list[Child]:
    links = [t for t in nbrs if red.linked(t, z)]
    c = len(links)
    if c == 3:
        return [[use(z), use(v_pair)], [avoid(z)]]
    if c == 2:
        # Using z drops its own variable's pairs and its conflicts, so of
        # v_pair's three neighbors exactly the two linked to z go and t,
        # the third, is left: use t, or avoid it and use v_pair.
        (t,) = [x for x in nbrs if x not in links]
        return [[avoid(z)], [use(z), use(t)], [use(z), avoid(t), use(v_pair)]]
    # c == 1: avoiding z drops the linked neighbor w to two constraints
    # and the triple-with-two analysis applies to it.  w has three
    # constraints (two fire triple-with-two, four high-degree), so besides
    # v_pair and z it has one more, r.
    (w,) = links
    (r,) = [x for x in red.nbrs(w) if x not in (v_pair, z)]
    children = [[use(z)]]
    if red.linked(r, v_pair):
        children += [[avoid(z), use(v_pair)], [avoid(z), use(w)], [avoid(z), use(r)]]
    else:
        children += [
            [avoid(z), use(v_pair)],
            [avoid(z), avoid(v_pair), use(r)],
            [avoid(z), avoid(v_pair), avoid(r), use(w)],
        ]
    return children


def _large_three_children(red: Instance, comp: list[Pair]) -> Branching:
    """Branch on a witness: a pair, its three neighbors, and a fifth pair
    on a fresh variable constrained by at least one neighbor."""

    def candidates():
        for v_pair in comp:
            nbrs = red.nbrs(v_pair)
            wvars = {v_pair[0]} | {t[0] for t in nbrs}
            for z in comp:
                if z[0] in wvars or not any(red.linked(t, z) for t in nbrs):
                    continue
                yield "large-three-component", _witness_children(red, v_pair, nbrs, z)
        # No witness would contradict the component being large; keep the
        # search sound with a plain two-way branch regardless.
        p = comp[0]
        yield "large-three-component", [[use(p)], [avoid(p)]]

    return _screen(red, candidates())


def _components(red: Instance, degree: Optional[int] = None) -> list[list[Pair]]:
    """Sorted components of the constraint graph on the pairs with this
    many constraints (all for None), in order of their least pair."""
    conf, pairs = red.conf, red.table.pairs
    ids = [i for i, hit in conf.items() if degree is None or hit.bit_count() == degree]
    return [[pairs[i] for i in comp] for comp in components(ids, lambda i: bits(conf[i]))]


def _rule_three_components(red: Instance) -> Optional[Branching]:
    for comp in _components(red, 3):
        if len({p[0] for p in comp}) >= 5:
            return _large_three_children(red, comp)
        got = _small_three_children(red, comp)
        if got is not None:
            return got
    return None


def _rule_two_components(red: Instance) -> Optional[Branching]:
    for comp in _components(red, 2):
        if len(comp) <= 3:
            continue
        cyc = cycle_order(red, comp)
        length = len(cyc)

        def candidates():
            # One cycle pair per variable, mutually unconstrained: the
            # whole component can be colored for free.
            if len({p[0] for p in cyc}) <= 4:
                for child in _free_children(red, cyc):
                    yield "large-two-component", [child]
            # Five consecutive distinct variables: use one of the two
            # middle pairs, or both ends (freeing the middle entirely).
            for i in range(length if length >= 5 else 0):
                window = [cyc[(i + j) % length] for j in range(5)]
                if len({p[0] for p in window}) == 5:
                    v, w, x, y, _z = window
                    yield "large-two-component", [[use(w)], [use(x)], [use(v), use(y)]]
            # Same variable three steps apart: one of the two pairs
            # between its occurrences can always be used.
            for i in range(length if length >= 6 else 0):
                if cyc[i][0] == cyc[(i + 3) % length][0]:
                    yield "large-two-component", [
                        [use(cyc[(i + 1) % length])],
                        [use(cyc[(i + 2) % length])],
                    ]
            if length == 4:
                a, b, c, d = cyc
                yield "large-two-component", [[use(a), use(c)], [use(b), use(d)]]
            # A cycle visiting four variables twice in the same order has
            # none of the above (a parity obstruction blocks the free
            # selection), so branch on a window of four consecutive
            # pairs: use a middle pair, or both ends.  A solution
            # avoiding the middle pairs either avoids an end, freeing a
            # middle pair for it, or uses both ends.
            for i in range(length):
                yield "two-component-parity", [
                    [use(cyc[(i + 1) % length])],
                    [use(cyc[(i + 2) % length])],
                    [use(cyc[i]), use(cyc[(i + 3) % length])],
                ]

        return _screen(red, candidates())
    return None


def choose_rule(red: Instance) -> Optional[Branching]:
    """Find the first applicable branching rule on a reduced instance,
    which it leaves unchanged.

    Returns None when no rule applies: the instance is then in matching
    form, which matching_solve checks.
    """
    for rule in (
        _rule_single_constraint, _rule_multi_adjacency, _rule_high_degree,
        _rule_three_with_four, _rule_three_with_two,
        _rule_three_components, _rule_two_components,
    ):
        got = rule(red)
        if got is not None:
            return got
    return None


# ---------------------------------------------------------------------------
# Matching endgame


def _verified(inst: Instance, asg: Assignment) -> Assignment:
    """asg itself, once check confirms it solves inst.

    Raises RuntimeError otherwise: a plain check, not an assert, so the
    verification holds under python -O too.
    """
    if not check(inst, asg):
        raise RuntimeError("solution failed verification against the instance")
    return asg


def matching_solve(red: Instance) -> Optional[Assignment]:
    """Solve a reduced instance on which no branching rule applies.

    Its constraint components are then cliques of mutually exclusive
    pairs, one pair per variable each.  A solution picks one pair per
    variable and at most one pair per clique, which is exactly a
    bipartite matching covering the variables.  Any other component
    raises RuntimeError: the matching could miss a solution there, a
    wrong UNSAT that no check of the answer would catch.
    """
    comps = _components(red)
    for comp in comps:
        clique = all(red.degree(p) == len(comp) - 1 for p in comp)
        if not clique or len({p[0] for p in comp}) != len(comp):
            raise RuntimeError("matching endgame reached a component that is not a clique")
    variables = red.variables()
    edges = sorted({(p[0], i) for i, comp in enumerate(comps) for p in comp})
    match = bipartite_matching(variables, list(range(len(comps))), edges)
    if len(match) < len(variables):
        return None
    asg = {}
    for (v, i) in match:
        (p,) = [p for p in comps[i] if p[0] == v]
        asg[v] = p[1]
    return _verified(red, asg)


# ---------------------------------------------------------------------------
# Search driver


class NodeLimitReached(Exception):
    """The call spent more than its node limit; stats holds its counts."""

    def __init__(self, stats: "SearchStats"):
        super().__init__()
        self.stats = stats


@dataclass
class SolverConfig:
    # Bounds all a top-level call spends: SearchStats.spent over every
    # nested solve, line graph and splice.
    node_limit: Optional[int] = None
    check_claims: bool = False  # assert branch vectors stay within LAMBDA

    def charge(self, stats: "SearchStats"):
        """Called after each counted node: raises NodeLimitReached once spent > node_limit."""
        if self.node_limit is not None and stats.spent > self.node_limit:
            raise NodeLimitReached(stats)

    def nested(self, stats: "SearchStats") -> "SolverConfig":
        """charge, then the config for a nested call, which gets what is left."""
        self.charge(stats)
        if self.node_limit is None:
            return self
        return SolverConfig(self.node_limit - stats.spent, self.check_claims)


@dataclass
class SearchStats:
    """Counts of one top-level call, the same fields for every front end."""

    nodes: int = 0  # own search nodes: CSP in solve, graph in the colorings
    leaves: int = 0  # own leaves; a nested call's leaves stay its own
    rule_counts: Counter = field(default_factory=Counter)
    fallbacks: int = 0  # the rule_counts picks tagged -fallback (see _screen)
    csp_calls: int = 0  # nested CSP solves and their nodes
    csp_nodes: int = 0
    splices: int = 0
    skipped_splices: int = 0  # matched edges whose preconditions broke
    k4_refuted: int = 0  # splice pairings whose new edges close a K4 of conflicts
    breakdowns: tuple = (0, 0, 0, 0, 0)  # max (p, q, r, s, t) split over coloring leaves

    @property
    def spent(self) -> int:
        return self.nodes + self.csp_nodes + self.splices

    def absorb(self, sub: "SearchStats", csp: bool = False):
        """Fold a nested call's counts in; a nested CSP solve (csp=True)
        is one csp_call and its nodes are csp_nodes."""
        self.nodes += 0 if csp else sub.nodes
        self.csp_calls += sub.csp_calls + csp
        self.csp_nodes += sub.csp_nodes + (sub.nodes if csp else 0)
        self.rule_counts.update(sub.rule_counts)
        self.fallbacks += sub.fallbacks
        self.splices += sub.splices
        self.skipped_splices += sub.skipped_splices
        self.k4_refuted += sub.k4_refuted
        self.breakdowns = tuple(map(max, self.breakdowns, sub.breakdowns))


@dataclass
class SolveResult:
    satisfiable: Optional[bool]  # None when the node limit was hit
    assignment: Optional[Assignment]
    stats: SearchStats


# Largest branch vector work factor each rule may produce.  The parity
# window on doubly-passed cycles is the one configuration that exceeds
# lambda(4,4,5,5) by design; a screened rule's -fallback pick (every
# candidate degraded by overlapping eliminations, see _screen) gets a
# generous sanity cap.
CLAIM_CAPS = {"two-component-parity": work_factor(3, 3, 4)}
FALLBACK_CAP = work_factor(1, 3)


def claim_cap(name: str) -> float:
    if name.endswith("-fallback"):
        return FALLBACK_CAP
    return CLAIM_CAPS.get(name, LAMBDA)


def _expand(cfg: SolverConfig, stats: SearchStats, state: tuple[Instance, LiftTrace]):
    """One CSP node; a state is an instance and its lift path, both its own to edit."""
    inst, path = state
    stats.nodes += 1
    cfg.charge(stats)
    red, trace = simplify(inst)
    if red is None:
        stats.leaves += 1
        return None, ()
    path += trace
    if red.n == 0:
        stats.leaves += 1
        return lift({}, path), ()
    got = choose_rule(red)
    if got is None:
        stats.leaves += 1
        stats.rule_counts["matching"] += 1
        sol = matching_solve(red)
        return (lift(sol, path) if sol is not None else None), ()
    name, children = got
    stats.rule_counts[name] += 1
    stats.fallbacks += name.endswith("-fallback")
    if cfg.check_claims:
        vec = live_vector(red, children)
        # raised, not asserted, so the check also runs under python -O
        if len(vec) > 1 and (min(vec) <= 0 or work_factor(*vec) > claim_cap(name) + 1e-6):
            raise AssertionError((name, vec))
    return None, _drawn(red, children, path, stats)


def _drawn(red: Instance, children: list[Child], path: LiftTrace, stats: SearchStats):
    """The live children's states, each built as the search draws it; a
    branching whose children are all dead counts as a leaf once the last
    one is found dead."""
    live = False
    for child in children:
        built = build(red, child)
        if built is not None:
            live = True
            yield built[0], path + built[1]
    if not live:
        stats.leaves += 1


def solve(inst: Instance, config: Optional[SolverConfig] = None) -> SolveResult:
    """Decide a (4,2)-CSP instance on a copy, returning a solution when one exists."""
    return _search(inst.copy(), inst, config)


def _search(work: Instance, inst: Instance, config: Optional[SolverConfig]) -> SolveResult:
    """solve, run on work itself, which the search edits in place: a copy
    of inst, or of inst with colors removed, that nothing else holds.  A
    solution is verified against inst."""
    if any(m.bit_count() > 4 for m in work.live.values()):
        raise ValueError("instance has a variable with more than four colors")
    cfg = config or SolverConfig()
    stats = SearchStats()
    try:
        asg = depth_first((work, []), lambda state: _expand(cfg, stats, state))
    except NodeLimitReached:
        return SolveResult(None, None, stats)
    if asg is not None:
        return SolveResult(True, _verified(inst, asg), stats)
    return SolveResult(False, None, stats)


# ---------------------------------------------------------------------------
# Randomized algorithms


def two_color_restrictions(inst: Instance, con: tuple[Pair, Pair]) -> list[Instance]:
    """The four restrictions of a constraint's variables to two colors.

    One endpoint drops its constrained color; the other keeps it plus one
    of its remaining colors.  Any solution of the instance survives in
    exactly two of the four results.
    """
    return [_restrict(inst.copy(), *cut) for cut in _restriction_cuts(inst, con)]


def _restriction_cuts(inst: Instance, con: tuple[Pair, Pair]) -> list[tuple[Pair, Pair, int]]:
    """Per restriction of two_color_restrictions, in its order: the pair
    dropped, the pair kept, and the other color its variable keeps."""
    return [
        (dp, kp, other)
        for dp, kp in (con, (con[1], con[0]))
        for other in inst.colors_of(kp[0])
        if other != kp[1]
    ]


def _restrict(inst: Instance, dp: Pair, kp: Pair, other: int) -> Instance:
    """inst, restricted in place to one of two_color_restrictions."""
    inst.remove_color(dp[0], dp[1])
    for c in [c for c in inst.colors_of(kp[0]) if c not in (kp[1], other)]:
        inst.remove_color(kp[0], c)
    return inst


def _random_walk(red: Instance, trace: LiftTrace, rng: random.Random) -> Optional[Assignment]:
    """One randomized descent from a reduced instance and its lift trace,
    on copies of both: repeatedly restrict a random constraint's
    endpoints to two colors each and reduce the restriction."""
    red, path = red.copy(), list(trace)
    while red.n:
        # A reduced instance has no unconstrained pair, so cons is non-empty.
        cons = red.constraints()
        con = cons[rng.randrange(len(cons))]
        pick = rng.randrange(4)
        red, more = simplify(_restrict(red, *_restriction_cuts(red, con)[pick]))
        path += more
        if red is None:
            return None
    return lift({}, path)


# The randomized solvers run BUDGET_FACTOR times the expected number of
# trials to a first success.
BUDGET_FACTOR = 50.0


def _budget(base: float, exponent: float) -> float:
    """BUDGET_FACTOR * base ** exponent trials, rounded up and at least
    one; math.inf past 2^1000 trials, which float powers soon cannot
    hold.  Only a solution or the node limit ends an unbounded run."""
    if math.log2(BUDGET_FACTOR) + exponent * math.log2(base) > 1000:
        return math.inf
    return max(1, math.ceil(BUDGET_FACTOR * base ** exponent))


def solve_randomized_32(
    inst: Instance,
    seed: int = 0,
    config: Optional[SolverConfig] = None,
) -> tuple[Optional[Assignment], SearchStats]:
    """Monte Carlo (3,2)-CSP solver: each walk succeeds on a solvable
    instance with probability at least 2^(-n/2), so BUDGET_FACTOR times
    2^(n/2) walks miss with negligible probability.  Returns the solution
    (or None) and the stats, whose nodes count the walks run.  The walks
    descend from one reduction of a copy of inst, and none runs if that
    refutes inst.  Each walk spends one node of config's node limit;
    NodeLimitReached is raised when it runs out."""
    if any(m.bit_count() > 3 for m in inst.live.values()):
        raise ValueError("randomized two-color descent expects a (3,2) instance")
    cfg = config or SolverConfig()
    stats = SearchStats()
    rng = random.Random(seed)
    budget = _budget(2.0, inst.n / 2)
    red, trace = simplify(inst.copy())
    while red is not None and stats.nodes < budget:
        stats.nodes += 1
        cfg.charge(stats)
        asg = _random_walk(red, trace, rng)
        if asg is not None:
            return _verified(inst, asg), stats
    return None, stats


def solve_randomized_d2(
    inst: Instance,
    seed: int = 0,
    config: Optional[SolverConfig] = None,
) -> tuple[Optional[Assignment], SearchStats]:
    """Randomized solver for (d,2)-CSP with d > 4: restrict every variable
    to a random four-color subset and run the deterministic solver.  A
    restriction preserves a fixed solution with probability (4/d)^n per
    variable-count n, so BUDGET_FACTOR times (d/4)^n trials miss with
    negligible probability.  Returns the solution (or None) and the
    stats, where each trial's solve is one csp_call; none runs if
    simplify refutes a copy of inst.  A trial restricts one copy of inst
    and the search edits that copy in place.  The nested solves
    share config's node limit; NodeLimitReached is raised when it runs
    out."""
    cfg = config or SolverConfig()
    stats = SearchStats()
    d = max((m.bit_count() for m in inst.live.values()), default=0)
    rng = random.Random(seed)
    if simplify(inst.copy())[0] is None:
        return None, stats
    budget = 1 if d <= 4 else _budget(d / 4, inst.n)
    while stats.csp_calls < budget:
        r = inst.copy()
        for v in r.variables():
            cs = r.colors_of(v)
            if len(cs) > 4:
                for c in rng.sample(cs, len(cs) - 4):
                    r.remove_color(v, c)
        result = _search(r, inst, cfg.nested(stats))  # r is this trial's own copy
        stats.absorb(result.stats, csp=True)
        cfg.charge(stats)  # raises when the nested solve ran out
        if result.satisfiable:
            return result.assignment, stats
    return None, stats

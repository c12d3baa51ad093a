"""Shared test utilities: rule-trigger instances and a checking branch walker.

The handcrafted instances below are reduced (simplification leaves them
alone) and each deterministically triggers one specific branching rule.
Random relabelings of variables and colors turn every one of them into a
family of fuzz inputs for that rule.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import csp32
from csp32.edgecolor import EdgeInstance, SpliceStep
from csp32.graphalg import bfs, depth_first
from csp32.instance import (
    Assigned,
    Instance,
    TwoColorEliminated,
    bits,
    check,
    eliminate_low_colors,
    find_free_pair,
    lift,
    measure,
    simplify,
)
from csp32.analysis import work_factor
from csp32.oracle import brute_csp
from csp32.solver import (
    SearchStats,
    avoid,
    build,
    choose_rule,
    claim_cap,
    live_vector,
    matching_solve,
    solve,
    use,
)
from csp32.transform import coloring_to_csp
from csp32.vertexcolor import (
    Merged,
    _delete_cycle,
    _height_two_unit,
    _remove_greedy,
    _residual_solve,
    build_bushy_forest,
    build_height_two_forest,
    merge,
)


def build_instance(colors, cons):
    inst = Instance.build({v: set(cs) for v, cs in colors.items()})
    for a, b in cons:
        inst.add_constraint(tuple(a), tuple(b))
    return inst


# An isolated constraint (0,0)-(1,0): both pairs have that single
# constraint, while the sibling colors are anchored in helper variables
# so no polynomial simplification applies.
ISOLATED_BASE = (
    {0: range(3), 1: range(3), 2: range(3), 3: range(3), 4: range(3), 5: range(3)},
    [((0, 0), (1, 0)),
     ((0, 1), (2, 0)), ((0, 1), (3, 0)),
     ((0, 2), (2, 1)), ((0, 2), (3, 1)),
     ((1, 1), (4, 0)), ((1, 1), (5, 0)),
     ((1, 2), (4, 1)), ((1, 2), (5, 1)),
     ((2, 2), (4, 2)), ((2, 2), (5, 2)),
     ((3, 2), (4, 2)), ((3, 2), (5, 2)),
     ((2, 0), (4, 0)), ((2, 1), (4, 1)),
     ((3, 0), (5, 0)), ((3, 1), (5, 1))],
)

# Same shape but the isolated constraint touches a four-color variable,
# exercising the use-one-of-two branching instead of the merge.
ISOLATED_FOUR_BASE = (
    {0: range(4), 1: range(3), 2: range(3), 3: range(3), 4: range(3), 5: range(3)},
    ISOLATED_BASE[1] + [((0, 3), (2, 2)), ((0, 3), (3, 2))],
)

# Pair (1,0) is constrained against two colors of the four-color variable
# 0 and nothing is implied anywhere, so branching restricts variable 0 to
# the hit half or the complement half of its palette.
FOUR_RESTRICTION_BASE = (
    {0: range(4), 1: range(3), 2: range(3), 3: range(3), 4: range(3)},
    [((1, 0), (0, 0)), ((1, 0), (0, 1)),
     ((0, 0), (2, 0)), ((0, 1), (2, 1)),
     ((0, 2), (3, 0)), ((0, 2), (4, 0)),
     ((0, 3), (3, 1)), ((0, 3), (4, 1)),
     ((1, 1), (2, 2)), ((1, 1), (3, 2)),
     ((1, 2), (4, 2)), ((1, 2), (3, 0)),
     ((2, 0), (4, 2)), ((2, 1), (3, 1)),
     ((2, 2), (4, 0)), ((3, 2), (4, 1))],
)

# Implication cycle (0,0) => (1,2) => (2,2) => (0,0) over three distinct
# variables with no constraints leaving the cycle: one use-all child.
IMPLICATION_CYCLE_BASE = (
    {v: range(3) for v in range(6)},
    [((0, 0), (1, 0)), ((0, 0), (1, 1)),
     ((1, 2), (2, 0)), ((1, 2), (2, 1)),
     ((2, 2), (0, 1)), ((2, 2), (0, 2)),
     ((0, 1), (3, 0)), ((0, 2), (3, 1)),
     ((1, 0), (4, 0)), ((1, 1), (4, 1)),
     ((2, 0), (5, 0)), ((2, 1), (5, 1)),
     ((3, 0), (4, 2)), ((3, 1), (5, 2)),
     ((3, 2), (4, 0)), ((3, 2), (5, 1)),
     ((4, 2), (5, 2)), ((4, 1), (5, 0))],
)

# Open implication chain (0,0) => (1,2) => (2,2) where (2,2) is not a
# source, so the plain implication branching applies.
IMPLICATION_BASE = (
    {v: range(3) for v in range(6)},
    [((0, 0), (1, 0)), ((0, 0), (1, 1)),
     ((1, 2), (2, 0)), ((1, 2), (2, 1)),
     ((2, 2), (0, 1)), ((2, 2), (3, 2)),
     ((0, 1), (3, 0)), ((0, 2), (3, 1)), ((0, 2), (4, 2)),
     ((1, 0), (4, 0)), ((1, 1), (4, 1)),
     ((2, 0), (5, 0)), ((2, 1), (5, 1)),
     ((3, 0), (4, 2)), ((3, 1), (5, 2)),
     ((3, 2), (4, 0)),
     ((4, 2), (5, 2)), ((4, 1), (5, 0)), ((5, 1), (4, 2))],
)

# Degree-three pair (1,0) adjacent to the degree-two pair (0,0) of a
# four-color variable; the third constraint of (0,0) goes to (4,0) which
# is not adjacent to (1,0), giving the open three-child split.
TRIPLE_FOUR_BASE = (
    {0: range(4), 1: range(3), 2: range(3), 3: range(3),
     4: range(3), 5: range(3), 6: range(3)},
    [((1, 0), (0, 0)), ((1, 0), (2, 0)), ((1, 0), (3, 0)),
     ((0, 0), (4, 0)),
     ((0, 1), (2, 1)), ((0, 1), (3, 1)),
     ((0, 2), (4, 1)), ((0, 2), (2, 2)),
     ((0, 3), (3, 2)), ((0, 3), (4, 2)),
     ((1, 1), (5, 0)), ((1, 1), (6, 0)),
     ((1, 2), (5, 1)), ((1, 2), (6, 1)),
     ((2, 0), (3, 1)), ((2, 1), (3, 2)), ((2, 2), (4, 0)), ((3, 0), (4, 1)),
     ((4, 2), (5, 2)), ((5, 2), (6, 0)), ((6, 2), (5, 0)), ((6, 2), (2, 0)),
     ((5, 1), (6, 1))],
)

# All pairs have exactly two constraints; one component is a cycle of
# eight pairs passing through each of the four variables twice, which is
# the parity window of the two-constraint component branching.
PARITY_BASE = (
    {v: range(3) for v in range(4)},
    [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0)), ((3, 0), (0, 1)),
     ((0, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((3, 1), (0, 0)),
     ((0, 2), (1, 2)), ((1, 2), (2, 2)), ((2, 2), (3, 2)), ((3, 2), (0, 2))],
)

RULE_BASES = {
    "isolated": ISOLATED_BASE,
    "isolated-four": ISOLATED_FOUR_BASE,
    "four-color-restriction": FOUR_RESTRICTION_BASE,
    "implication-cycle": IMPLICATION_CYCLE_BASE,
    "implication": IMPLICATION_BASE,
    "triple-with-four": TRIPLE_FOUR_BASE,
    "two-component-parity": PARITY_BASE,
}


class SetInstance:
    """The set form of instance.Instance, the reference its masks are
    tested against: colors maps each variable to a set of colors, and adj
    each live pair to the set of pairs it is constrained against.  The
    edits keep the mask form's semantics."""

    def __init__(self, colors, constraints=(), next_id=None):
        self.colors = {v: set(cs) for v, cs in colors.items()}
        self.adj = {(v, c): set() for v, cs in self.colors.items() for c in cs}
        self.next_id = max(self.colors, default=-1) + 1 if next_id is None else next_id
        for a, b in constraints:
            self.add_constraint(a, b)

    @classmethod
    def of(cls, inst):
        return cls(inst.colors, inst.constraints(), inst.next_id)

    def copy(self):
        return SetInstance(self.colors, self.constraints(), self.next_id)

    def constraints(self):
        return sorted({(p, q) if p <= q else (q, p) for p, qs in self.adj.items() for q in qs})

    def add_variable(self, colors):
        v = self.next_id
        self.colors[v] = set(colors)
        self.adj.update({(v, c): set() for c in colors})
        self.next_id = v + 1
        return v

    def add_constraint(self, a, b):
        if a not in self.adj or b not in self.adj:
            raise ValueError(f"pair {a if a not in self.adj else b} not available in instance")
        if a == b:
            self.remove_color(*a)
        elif a[0] != b[0]:
            self.adj[a].add(b)
            self.adj[b].add(a)

    def remove_color(self, var, color):
        for q in self.adj.pop((var, color)):
            self.adj[q].discard((var, color))
        self.colors[var].discard(color)

    def remove_variable(self, var):
        for c in list(self.colors[var]):
            self.remove_color(var, c)
        del self.colors[var]

    def assign(self, p):
        stripped = sorted(self.adj[p])
        self.remove_variable(p[0])
        for q in stripped:
            if q in self.adj:
                self.remove_color(*q)
        return Assigned(*p)

    def merge(self, p, q):
        """solver.merge's edit: a four-color variable z replaces the
        isolated constraint p-q between two three-color variables."""
        (v, rv), (w, rw) = p, q
        z = self.add_variable(range(4))
        sources = [(v, c) for c in sorted(self.colors[v]) if c != rv]
        sources += [(w, c) for c in sorted(self.colors[w]) if c != rw]
        for k, src in enumerate(sources):
            for t in sorted(self.adj[src]):
                if t[0] not in (v, w):
                    self.add_constraint((z, k), t)
        self.remove_variable(v)
        self.remove_variable(w)


def live_pairs(inst):
    """inst's live pairs, in sorted order."""
    pairs = inst.table.pairs
    return [pairs[i] for i in inst.conf]


def same_instance(inst, ref):
    """Whether a mask Instance and a SetInstance hold the same variables,
    colors and constraints."""
    return (
        {v: set(cs) for v, cs in inst.colors.items()} == ref.colors
        and inst.constraints() == ref.constraints()
        and inst.next_id == ref.next_id
    )


def pair_order_problems(inst):
    """Where inst breaks the order its scans rely on: live and conf iterate
    in ascending key order, and ascending pair id is sorted pair order."""
    ids = sorted(inst.conf)
    problems = []
    if list(inst.live) != sorted(inst.live):
        problems.append("variables out of order")
    if list(inst.conf) != ids:
        problems.append("pair ids out of order")
    if [inst.table.pairs[i] for i in ids] != sorted(inst.table.pairs[i] for i in ids):
        problems.append("pair id order is not sorted pair order")
    return problems


def validate(inst, max_colors=4):
    """Structural invariant check of an Instance's masks; returns
    human-readable violations."""
    pairs, conf = inst.table.pairs, inst.conf
    problems = []
    for v, m in inst.live.items():
        if m.bit_count() > max_colors:
            problems.append(f"variable {v} has {m.bit_count()} colors (max {max_colors})")
        for i in bits(m):
            if i not in conf:
                problems.append(f"pair {pairs[i]} missing from conflict masks")
    for i, hit in conf.items():
        p = pairs[i]
        if not inst.live.get(p[0], 0) >> i & 1:
            problems.append(f"conflict mask of {p} refers to a removed color")
            continue
        for j in bits(hit):
            q = pairs[j]
            con = (p, q) if p <= q else (q, p)
            if j not in conf:
                problems.append(f"constraint {con} references removed pair {q}")
            elif not conf[j] >> i & 1:
                problems.append(f"constraint {con} not symmetric")
            if q[0] == p[0]:
                problems.append(f"constraint {con} joins two colors of variable {p[0]}")
    return problems


def is_reduced(inst):
    """Only 3- and 4-color variables, and simplify, run on a copy, finds
    nothing to do."""
    return all(m.bit_count() in (3, 4) for m in inst.live.values()) and not simplify(inst.copy())[1]


def brute_csp_product(inst):
    """Flat enumeration of the full color product; second opinion for
    brute_csp on small instances."""
    order = inst.variables()
    for combo in product(*(sorted(inst.colors[v]) for v in order)):
        asg = dict(zip(order, combo))
        if check(inst, asg):
            return asg
    return None


def general_arity(csp):
    """(a, b) of a transform.GeneralCSP: its largest domain and its
    largest constraint."""
    a = max((len(d) for d in csp.domains.values()), default=0)
    b = max((len(c) for c in csp.constraints), default=0)
    return a, b


def general_check(csp, asg):
    """Whether asg gives every variable of a GeneralCSP a value of its
    domain and realizes no constraint in full."""
    return all(asg.get(v) in d for v, d in csp.domains.items()) and not any(
        all(asg.get(v) == c for v, c in con) for con in csp.constraints
    )


def brute_general(csp):
    """The first solution of a GeneralCSP in product order, or None."""
    order = sorted(csp.domains)
    for combo in product(*(sorted(csp.domains[v]) for v in order)):
        asg = dict(zip(order, combo))
        if general_check(csp, asg):
            return asg
    return None


def brute_free_pair(inst):
    """Reference for instance.find_free_pair: the plain O(P^2) scan over
    every ordered couple of pairs of the set form, in the same first-match
    order."""
    ref = SetInstance.of(inst)
    for p in sorted(ref.adj):
        v, x = p
        for q in sorted(ref.adj):
            w, y = q
            if w <= v:
                continue
            if all(t[0] == w and t[1] != y for t in ref.adj[p]) and all(
                t[0] == v and t[1] != x for t in ref.adj[q]
            ):
                return p, q
    return None


def brute_simplify(inst, tally):
    """Reference for instance.simplify: each round clears the 0/1/2-color
    variables, then drops the whole set-form dominated set, else the
    whole set-form dead set, else uses the first free pair.  Before the
    free pair it assigns the least unconstrained pair, a lemma simplify
    does without (it dominates its siblings, so it never survives to
    there).  Each lemma applied is counted under its name in the tally
    Counter."""
    cur = inst.copy()
    trace = []
    while eliminate_low_colors(cur, trace):
        drop, name = brute_dominated(cur), "dominated"
        if not drop:
            drop, name = brute_dead_color(cur), "dead"
        if drop:
            tally[name] += 1
            for p in drop:
                cur.remove_color(*p)
            continue
        unconstrained = [p for p in live_pairs(cur) if not cur.degree(p)]
        if unconstrained:
            tally["unconstrained"] += 1
            trace.append(cur.assign(unconstrained[0]))
            continue
        found = find_free_pair(cur)
        if found is None:
            return cur, trace
        tally["free-pair"] += 1
        trace += [cur.assign(p) for p in found]
    return None, trace


def brute_eliminate_two_color(ref, v):
    """Reference for instance.eliminate_two_color on a SetInstance: one
    add_constraint call per product of a conflict of R with a conflict of
    G, in product order."""
    r, g = sorted(ref.colors[v])
    conflict_r = sorted(ref.adj[(v, r)])
    conflict_g = sorted(ref.adj[(v, g)])
    ref.remove_variable(v)
    for a, b in product(conflict_r, conflict_g):
        # Pairs may have vanished if a prior product removed a color.
        if a in ref.adj and b in ref.adj:
            ref.add_constraint(a, b)
    return TwoColorEliminated(v, r, g, tuple(conflict_r), tuple(conflict_g))


def brute_dominated(inst):
    """Reference for instance.dominated_pairs, as a set: every pair of the
    set form whose conflict set includes another color's of its variable,
    strictly or, if the two are equal, of a lower color."""
    adj = SetInstance.of(inst).adj
    return {
        (v, b)
        for (v, b) in adj
        for (w, r) in adj
        if w == v and r != b and adj[(v, r)] <= adj[(v, b)]
        and (r < b or adj[(v, r)] != adj[(v, b)])
    }


def brute_dead_color(inst):
    """Reference for instance.dead_pairs, as a set: every pair of the set
    form whose hit colors on some variable are all that variable's
    colors."""
    ref = SetInstance.of(inst)
    dead = set()
    for p, hits in ref.adj.items():
        by_var = {}
        for (w, c) in hits:
            by_var.setdefault(w, set()).add(c)
        if any(hit == ref.colors[w] for w, hit in by_var.items()):
            dead.add(p)
    return dead


def brute_multi_adjacency(red):
    """Reference for solver._rule_multi_adjacency: the implication graph
    built pair by pair as lists of implied pairs, decoding every conflict
    mask, rather than read off one mask of implying pairs per target."""
    # The pairs hitting two colors of one variable, over every variable.
    conf, pairs, twice = red.conf, red.table.pairs, 0
    for m in red.live.values():
        once = 0
        for i in bits(m):
            twice |= once & conf[i]
            once |= conf[i]
    if not twice:
        return None
    # p implies q when p hits every other color of q's variable: using p forces q.
    implies = {}
    for i, hit in conf.items():
        for w in dict.fromkeys(pairs[j][0] for j in bits(hit)):
            missing = red.live[w] & ~hit
            if missing.bit_count() == 1:
                implies.setdefault(pairs[i], []).append(pairs[missing.bit_length() - 1])
    if implies:
        sources = set(implies)
        for p in sorted(implies):
            for q in implies[p]:
                if q not in sources:
                    # Target of an implication that starts no implication:
                    # either use it, or avoid it along with all its sources.
                    child = [avoid(q)]
                    for src in sorted(implies):
                        if q in implies[src]:
                            child.append(avoid(src))
                    return "implication", [[use(q)], child]
        # Every target is a source: follow implications to a cycle.
        cur = min(implies)
        seen_order = []
        index = {}
        while cur not in index:
            index[cur] = len(seen_order)
            seen_order.append(cur)
            cur = min(implies[cur])
        cyc = seen_order[index[cur]:]
        cycle_vars = [p[0] for p in cyc]
        outside = False
        for i, p in enumerate(cyc):
            succ_var = cyc[(i + 1) % len(cyc)][0]
            if any(t[0] != succ_var for t in red.nbrs(p)):
                outside = True
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
    inside = [avoid(pairs[j]) for j in bits(m & ~hit)]
    inside.append(avoid(p))  # p conflicts with every remaining color of w
    outside = [avoid(pairs[j]) for j in bits(m & hit)]
    return "four-color-restriction", [inside, outside]


def charge_identity(ei):
    """Conflict-count split (m3, m4) and the count identity check.

    The identity m3 = 6n/5 - 4*m4/5, over the n vertices that have an
    edge, holds for an unconstrained instance whose every edge has
    exactly three or four conflicts (neighbor edges); when some edge
    does not, the counts are still returned with check None.
    """
    counts = [ei.conflicts(eid).bit_count() for eid in sorted(ei.edges)]
    m3 = sum(1 for c in counts if c == 3)
    m4 = sum(1 for c in counts if c == 4)
    if m3 + m4 != len(counts):
        return m3, m4, None
    return m3, m4, 5 * m3 == 6 * len(ei.at) - 4 * m4


def edge_snapshot(ei):
    """An independent copy of an EdgeInstance, which the package itself
    never copies (its values are tuples and int masks)."""
    return EdgeInstance(dict(ei.edges), dict(ei.partners), ei.next_id, dict(ei.at))


def constraint_set(ei):
    """The constraints of an EdgeInstance as a set of id frozensets."""
    return {frozenset((a, b)) for a, bs in ei.partners.items() for b in bits(bs)}


def partner_index(constraints):
    """EdgeInstance.partners built from a set of id-pair constraints:
    each constrained edge -> the mask of the ids it must differ from."""
    out = {}
    for c in constraints:
        a, b = c
        out[a] = out.get(a, 0) | 1 << b
        out[b] = out.get(b, 0) | 1 << a
    return out


def brute_splice_candidates(ei):
    """Reference for edgecolor.splice_candidates: the full edge scans the
    incidence and partner indexes replaced, testing the same
    preconditions."""

    def degree(v):
        return sum(1 for e in ei.edges.values() if v in e)

    def incident(v):
        return sorted(i for i, e in ei.edges.items() if v in e)

    constraints = constraint_set(ei)
    out = []
    for eid in sorted(ei.edges):
        w, x = ei.edges[eid]
        if any(eid in c for c in constraints):
            continue
        if degree(w) != 3 or degree(x) != 3:
            continue
        side_w = [j for j in incident(w) if j != eid]
        side_x = [j for j in incident(x) if j != eid]
        far = [
            (set(ei.edges[j]) - {w, x} or {w, x}).pop()
            for j in side_w + side_x
        ]
        if any(v in (w, x) for v in far):
            continue
        out.append(eid)
    return out


def brute_splice(ei, eid):
    """Reference for edgecolor.splice: for each pairing, copy the whole
    instance, remove the five edges, add the two new ones and rebuild
    every constraint through the remap, dropping the child when one
    collapses onto a single edge.  Returns (child, step) pairs and leaves
    ei alone."""
    w, x = ei.edges[eid]
    ew1, ew2 = sorted(j for j, e in ei.edges.items() if w in e and j != eid)
    ex1, ex2 = sorted(j for j, e in ei.edges.items() if x in e and j != eid)
    u = (set(ei.edges[ew1]) - {w}).pop()
    v = (set(ei.edges[ew2]) - {w}).pop()
    y = (set(ei.edges[ex1]) - {x}).pop()
    z = (set(ei.edges[ex2]) - {x}).pop()

    children = []
    for (a, ea), (b, eb) in (((y, ex1), (z, ex2)), ((z, ex2), (y, ex1))):
        if u == a or v == b:
            continue
        child = edge_snapshot(ei)
        for j in (eid, ew1, ew2, ex1, ex2):
            child.remove_edge(j)
        first = child.add_edge(u, a)
        second = child.add_edge(v, b)
        remap = {ew1: first, ea: first, ew2: second, eb: second}
        moved = {frozenset(remap.get(j, j) for j in c) for c in constraint_set(ei)}
        if any(len(c) == 1 for c in moved):
            continue
        moved.add(frozenset((first, second)))
        child.partners = partner_index(moved)
        children.append((child, SpliceStep(eid, ((first, (ew1, ea)), (second, (ew2, eb))))))
    return children


def brute_line_graph_edges(ei):
    """Reference for the line graph edgecolor._line_graph_solve colors:
    the O(m^2) pair loop over edge ids, plus one edge per constraint."""
    ids = sorted(ei.edges)
    index = {eid: i for i, eid in enumerate(ids)}
    lg_edges = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if set(ei.edges[a]) & set(ei.edges[b]):
                lg_edges.add((index[a], index[b]))
    for c in constraint_set(ei):
        a, b = sorted(c)
        lg_edges.add((index[a], index[b]))
    return sorted(lg_edges)


def brute_conflict_k4s(ei):
    """Every set of four edges of ei that conflict pairwise (two edges
    conflict when they share an endpoint or are constrained to differ),
    searched over the whole conflict graph built from scratch."""
    ids = sorted(ei.edges)
    constraints = constraint_set(ei)
    near = {
        a: {b for b in ids if b != a and (set(ei.edges[a]) & set(ei.edges[b])
                                          or frozenset((a, b)) in constraints)}
        for a in ids
    }
    return {
        frozenset((a, b, c, d))
        for a in ids
        for b in near[a] if b > a
        for c in near[a] & near[b] if c > b
        for d in near[a] & near[b] & near[c] if d > c
    }


def scan_incidence(ei):
    """EdgeInstance.at rebuilt from ei.edges: vertex -> mask of its edge ids."""
    at = {}
    for eid, e in ei.edges.items():
        for x in e:
            at[x] = at.get(x, 0) | 1 << eid
    return at


def flower_snark(k):
    """Isaacs' flower snark J_k as (n, edges), n = 4k: centre a_i = 4i
    joins b_i, c_i and d_i; the b_i form a k-cycle, and c_0 .. c_{k-1}
    d_0 .. d_{k-1} one 2k-cycle; the edges as sorted pairs, in sorted
    order.  Cubic; for odd k >= 5 it has no 3-edge-coloring (Isaacs,
    Amer. Math. Monthly 82, 1975)."""
    a, b, c, d = (lambda i, s=s: 4 * (i % k) + s for s in range(4))
    edges = [(a(i), x(i)) for i in range(k) for x in (b, c, d)]
    edges += [(b(i), b(i + 1)) for i in range(k)]
    edges += [(c(i), c(i + 1)) for i in range(k - 1)] + [(c(k - 1), d(0))]
    edges += [(d(i), d(i + 1)) for i in range(k - 1)] + [(d(k - 1), c(0))]
    return 4 * k, sorted((min(e), max(e)) for e in edges)


def line_graph(n, edges):
    """The line graph of (n, edges) as (len(edges), edges): edge ids in
    list order, two joined when they share an endpoint."""
    return len(edges), [
        (i, j) for i, j in combinations(range(len(edges)), 2) if set(edges[i]) & set(edges[j])
    ]


def copy_graph(g):
    return {v: set(ns) for v, ns in g.items()}


def add_edge(g, u, v):
    """Add edge (u, v) to the adjacency g; False, adding nothing, for a
    self-loop (an impossible demand)."""
    if u == v:
        return False
    g[u].add(v)
    g[v].add(u)
    return True


def brute_build_bushy_forest(g):
    """Reference for vertexcolor.build_bushy_forest: the greedy growth
    that rebuilds the covered set internal | leaves for every neighbor
    it tests.  Returns (roots, children, internal, leaves)."""
    roots, children, internal, leaves = [], {}, set(), set()
    changed = True
    while changed:
        changed = False
        for v in sorted(g):
            if v in internal or v in leaves:
                continue
            outside = sorted(u for u in g[v] if u not in internal | leaves)
            if len(outside) >= 4:
                roots.append(v)
                internal.add(v)
                children[v] = tuple(outside)
                leaves.update(outside)
                changed = True
        for v in sorted(leaves):
            outside = sorted(u for u in g[v] if u not in internal | leaves)
            if len(outside) >= 3:
                leaves.discard(v)
                internal.add(v)
                children[v] = tuple(outside)
                leaves.update(outside)
                changed = True
    return roots, children, internal, leaves


def brute_degree3_subgraph(g):
    """Reference for vertexcolor._degree3_subgraph: each vertex of degree
    exactly three, with its neighbors of degree exactly three."""
    sub = {}
    for v in g:
        if len(g[v]) == 3:
            sub[v] = {u for u in g[v] if len(g[u]) == 3}
    return sub


def brute_find_degree3_cycle(g):
    """Reference for vertexcolor.find_degree3_cycle on g's degree-three
    subgraph: one hand-written queue per degree-three edge, searching
    until the far end is found."""
    sub = brute_degree3_subgraph(g)
    best = None
    edges = sorted({tuple(sorted((u, v))) for u in sub for v in sub[u]})
    for u, v in edges:
        parent = {u: None}
        queue = [u]
        head = 0
        while head < len(queue) and v not in parent:
            a = queue[head]
            head += 1
            for b in sorted(sub[a]):
                if b not in parent and not (a == u and b == v):
                    parent[b] = a
                    queue.append(b)
        if v in parent:
            path = [v]
            while path[-1] != u:
                path.append(parent[path[-1]])
            if best is None or len(path) < len(best):
                best = path
    return best


def brute_branch_degree3_cycle(g, shapes=None):
    """Reference for vertexcolor.branch_degree3_cycle: every child copied
    and edited by hand, the odd cycle's third outside neighbor looked up
    after the merge.  Each child's branch shape is tallied in the
    shapes Counter when one is given."""
    shapes = Counter() if shapes is None else shapes
    cyc = brute_find_degree3_cycle(g)
    if cyc is None:
        return None
    k = len(cyc)
    outs = []
    for i, v in enumerate(cyc):
        others = g[v] - {cyc[i - 1], cyc[(i + 1) % k]}
        outs.append(min(others))
    adjacent_pair = any(
        outs[i] != outs[(i + 1) % k] and outs[(i + 1) % k] in g[outs[i]]
        for i in range(k)
    )
    if k % 2 == 0 or adjacent_pair:
        child = copy_graph(g)
        steps = []
        _delete_cycle(child, steps, cyc)
        shapes["even-or-adjacent"] += 1
        return [(child, steps)]
    if k == 3:
        if outs[0] == outs[1] == outs[2]:
            return []
        while outs[0] == outs[1]:
            cyc = cyc[1:] + cyc[:1]
            outs = outs[1:] + outs[:1]
        children = []
        a = copy_graph(g)
        a_steps = []
        add_edge(a, outs[0], outs[1])
        _delete_cycle(a, a_steps, cyc)
        children.append((a, a_steps))
        shapes["k3-differ"] += 1
        b = copy_graph(g)
        b_steps = [Merged(outs[0], outs[1]), Merged(outs[0], cyc[2])]
        if merge(b, outs[0], outs[1]) and merge(b, outs[0], cyc[2]):
            _remove_greedy(b, b_steps, cyc[0])
            _remove_greedy(b, b_steps, cyc[1])
            children.append((b, b_steps))
            shapes["k3-same"] += 1
        return children
    children = []
    if outs[0] != outs[1]:
        a = copy_graph(g)
        a_steps = []
        add_edge(a, outs[0], outs[1])
        _delete_cycle(a, a_steps, cyc)
        children.append((a, a_steps))
        shapes["odd-differ"] += 1
    if outs[0] != outs[1] == outs[2]:
        shapes["odd-third-merged"] += 1  # outs[2] is merged away below
    b = copy_graph(g)
    b_steps = [Merged(outs[0], outs[1])]
    ok = merge(b, outs[0], outs[1])
    if ok:
        third = outs[2] if outs[2] in b else outs[0]
        ok = add_edge(b, outs[0], third)
    if ok:
        _delete_cycle(b, b_steps, cyc)
        children.append((b, b_steps))
        shapes["odd-same-edge"] += 1
    c = copy_graph(g)
    c_steps = [Merged(outs[0], outs[1])]
    ok = merge(c, outs[0], outs[1])
    if ok:
        third = outs[2] if outs[2] in c else outs[0]
        if third != outs[0]:
            c_steps.append(Merged(outs[0], third))
        c_steps.append(Merged(cyc[0], cyc[2]))
        ok = merge(c, outs[0], third) and merge(c, cyc[0], cyc[2])
    if ok:
        _remove_greedy(c, c_steps, cyc[1])
        children.append((c, c_steps))
        shapes["odd-same-merge"] += 1
    return children


def _brute_subtree_order(sub, comp_set, banned, root):
    order = [root]
    seen = {banned, root}
    head = 0
    while head < len(order):
        for u in sorted(sub[order[head]]):
            if u in comp_set and u not in seen:
                seen.add(u)
                order.append(u)
        head += 1
    return order


def brute_branch_degree3_tree(g):
    """Reference for vertexcolor.branch_degree3_tree: hand-written queues
    for the degree-three components and for every subtree, and every
    child copied and edited by hand."""
    sub = brute_degree3_subgraph(g)
    comps, seen = [], set()
    for v in sorted(sub):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        head = 0
        while head < len(comp):
            for u in sorted(sub[comp[head]]):
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
            head += 1
        comps.append(sorted(comp))
    comp = next((c for c in comps if len(c) >= 8), None)
    if comp is None:
        return None
    comp_set = set(comp)

    def heaviest(v):
        sizes = [len(_brute_subtree_order(sub, comp_set, v, u)) for u in sub[v] if u in comp_set]
        return max(sizes, default=0)

    centroid = min(comp, key=lambda v: (heaviest(v), v))
    nbrs = sorted(g[centroid])
    children = []
    for third in nbrs:
        a, b = (u for u in nbrs if u != third)
        child = copy_graph(g)
        steps = [Merged(a, b)]
        if not merge(child, a, b):
            continue
        _remove_greedy(child, steps, centroid)
        if third in comp_set:
            for v in _brute_subtree_order(sub, comp_set, centroid, third):
                if v in child:
                    _remove_greedy(child, steps, v)
        children.append((child, steps))
    return children


def brute_bushy_unit(g, f, root):
    """Reference for vertexcolor._bushy_unit: every proper coloring of one
    bushy tree's internal vertices, built up front depth first along the
    tree's breadth-first order, each vertex's colors ascending; a coloring
    lists its vertices in that order."""
    order = [
        v for v, _ in bfs(root, lambda v: (u for u in f.children.get(v, ()) if u in f.internal))
    ]
    outs = []

    def expand(acc):
        if len(acc) == len(order):
            outs.append(acc)
            return None, ()
        v = order[len(acc)]
        used = {acc[u] for u in g[v] if u in acc}
        return None, [{**acc, v: c} for c in (0, 1, 2) if c not in used]

    depth_first({}, expand)
    return outs


def brute_solve_leaf(g, cfg, stats):
    """Reference for vertexcolor._solve_leaf: the product of the forest
    units checked only for neighbor consistency, with one CSP call per
    consistent full assignment and no forward check or node charge.  A
    full assignment the from-scratch forward check keeps gets the leaf's
    own call on the propagated lists, where each colored vertex keeps its
    color as a one-color list; one it refutes gets a call on the
    unpropagated residue, which must refute it too."""
    f = build_bushy_forest(g)
    trees, x_set, y_set = build_height_two_forest(g, f)
    stats.leaves += 1
    p = len(f.roots)
    split = (p, len(f.internal) - p, len(f.leaves), len(x_set), 4 * len(trees) + len(y_set))
    stats.breakdowns = tuple(map(max, stats.breakdowns, split))
    units = [brute_bushy_unit(g, f, root) for root in f.roots]
    units += [_height_two_unit(tree) for tree in trees]

    def consistent(acc, asg):
        for v, c in asg.items():
            for u in g[v]:
                if asg.get(u, acc.get(u)) == c and u != v:
                    return False
        return True

    def run(i, acc):
        if i == len(units):
            lists = brute_forward_lists(g, acc)
            if lists is None:
                assert not brute_residue_satisfiable(g, acc, cfg, stats)
                return None
            masks = {v: sum(1 << c for c in cs) for v, cs in lists.items()}
            return _residual_solve(g, masks, cfg, stats)
        for asg in units[i]:
            if consistent(acc, asg):
                got = run(i + 1, {**acc, **asg})
                if got is not None:
                    return got
        return None

    return run(0, {})


def residue_lists(g, colored):
    """Colors left to each uncolored vertex by its colored neighbors
    alone, with no propagation, in vertex order."""
    return {
        v: {0, 1, 2} - {colored[u] for u in g[v] if u in colored}
        for v in sorted(g)
        if v not in colored
    }


def brute_residue_satisfiable(g, colored, cfg, stats):
    """One leaf CSP call on the unpropagated residue of every uncolored
    vertex, counted in stats: whether the residue is list-colorable."""
    residue = residue_lists(g, colored)
    rest = list(residue)
    index = {v: i for i, v in enumerate(rest)}
    edges = [(index[u], index[v]) for u in rest for v in g[u] if index.get(v, -1) > index[u]]
    inst = coloring_to_csp(len(rest), edges, dict(enumerate(residue.values())))
    res = solve(inst, cfg.nested(stats))
    stats.absorb(res.stats, csp=True)
    cfg.charge(stats)
    return res.satisfiable


def brute_forward_lists(g, colored):
    """Reference for vertexcolor._forward_check: rebuild every residue
    list from scratch, give each colored vertex the list of its color,
    and propagate each forced (singleton) color to its neighbors until
    nothing changes.  The propagated lists of every vertex, or None when
    some list runs empty (two adjacent colored vertices with one color
    empty each other's)."""
    lists = residue_lists(g, colored)
    lists.update((v, {c}) for v, c in colored.items())
    forced = [v for v, cs in lists.items() if len(cs) < 2]
    while forced:
        v = forced.pop()
        if not lists[v]:
            return None
        (c,) = lists[v]
        for u in g[v]:
            cs = lists.get(u, ())
            if c in cs:
                cs.discard(c)
                if len(cs) < 2:
                    forced.append(u)
    return lists


def brute_forward_refuted(g, colored):
    """Whether the from-scratch forward check refutes a partial coloring."""
    return brute_forward_lists(g, colored) is None


def extension_graph(n, edges, partial):
    """A graph that is 3-colorable exactly when the partial coloring
    extends to a proper coloring of (n, edges): a palette triangle
    n, n+1, n+2, and each colored vertex joined to the two palette
    vertices of the colors it does not have."""
    palette = [(n, n + 1), (n, n + 2), (n + 1, n + 2)]
    pins = [(v, n + d) for v, c in partial.items() for d in (0, 1, 2) if d != c]
    return n + 3, list(edges) + palette + pins


def run_fresh(code, *options):
    """Run code in a fresh interpreter, with interpreter options such as
    -O before -c and this csp32 on its path; returns the finished process."""
    env = {**os.environ, "PYTHONPATH": str(Path(csp32.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *options, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )


def relabel(rng, inst):
    """Random isomorphic copy: permute variable ids and per-variable colors."""
    vs = inst.variables()
    ids = list(range(len(vs)))
    rng.shuffle(ids)
    vmap = dict(zip(vs, ids))
    cmap = {}
    for v in vs:
        cs = sorted(inst.colors[v])
        perm = cs[:]
        rng.shuffle(perm)
        cmap[v] = dict(zip(cs, perm))
    out = Instance.build({vmap[v]: {cmap[v][c] for c in inst.colors[v]} for v in vs})
    for p, q in inst.constraints():
        out.add_constraint(
            (vmap[p[0]], cmap[p[0]][p[1]]), (vmap[q[0]], cmap[q[0]][q[1]])
        )
    return out


def walk_rules(inst, tally, node_cap=300, brute_cap=11):
    """Branch like the solver, checking every rule application.

    Each application is checked for positive claimed decreases within the
    rule's work-factor cap, a real (post-simplification) decrease at
    least as large as claimed, and equisatisfiability of the child set
    against the brute-force oracle.  Rule names are tallied.
    """
    pending = [inst]
    nodes = 0
    while pending and nodes < node_cap:
        cur = pending.pop()
        nodes += 1
        red, _ = simplify(cur.copy())
        if red is None or red.n == 0:
            continue
        got = choose_rule(red)
        if got is None:
            tally["matching"] += 1
            want = brute_csp(red.copy()) is not None
            assert (matching_solve(red) is not None) == want
            continue
        name, children = got
        tally[name] += 1
        live = [b[0] for c in children if (b := build(red, c))]
        vec = live_vector(red, children)
        assert all(r > 0 for r in vec), (name, vec)
        if len(vec) > 1:
            assert work_factor(*vec) <= claim_cap(name) + 1e-9, (name, vec)
        if red.n <= brute_cap:
            want = brute_csp(red.copy()) is not None
            have = any(brute_csp(inst.copy()) is not None for inst in live)
            assert have == want, name
        base = measure(red)
        for inst in live:
            sub, _ = simplify(inst.copy())
            if sub is not None:
                drop, claimed = base - measure(sub), base - measure(inst)
                assert drop >= claimed - 1e-9, (name, drop, claimed)
            pending.append(inst)
    return nodes


def eager_solve(inst):
    """solve with every branch child built when its rule fires, the
    reference that children built as the search draws them must match.

    Returns (assignment or None, stats, dead_ends): dead_ends counts the
    branchings whose children were all dead.
    """
    stats = SearchStats()
    dead_ends = 0

    def expand(state):
        nonlocal dead_ends
        cur, path = state
        stats.nodes += 1
        red, trace = simplify(cur)
        if red is None:
            stats.leaves += 1
            return None, ()
        path = path + trace
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
        built = [build(red, c) for c in children]
        live = [(inst, path + trace) for inst, trace in filter(None, built)]
        if not live:
            stats.leaves += 1
            dead_ends += 1
        return None, live

    asg = depth_first((inst.copy(), []), expand)
    return asg, stats, dead_ends


def brute_witness_children(red, v_pair, nbrs, z):
    """The witness branching with its defensive cases, the reference the
    solver's _witness_children must match child for child."""
    links = [t for t in nbrs if red.linked(t, z)]
    c = len(links)
    if c == 3:
        return [[use(z), use(v_pair)], [avoid(z)]]
    if c == 2:
        out = [[avoid(z)]]
        used = build(red, [use(z)])
        if used is None:
            return out
        inst = used[0]
        left = inst.nbrs(v_pair) if inst.has(v_pair) else []
        if len(left) == 0:
            out.append([use(z), use(v_pair)])
        elif len(left) == 1:
            t = left[0]
            out.append([use(z), use(t)])
            out.append([use(z), avoid(t), use(v_pair)])
        else:
            out.append([use(z)])  # cascaded removals overlapped; plain use/avoid
        return out
    # c == 1: avoiding z drops the linked neighbor to two constraints and
    # the triple-with-two analysis applies to it.
    w = links[0]
    children = [[use(z)]]
    rs = [x for x in red.nbrs(w) if x not in (v_pair, z)]
    if len(rs) != 1:
        children.append([avoid(z)])
        return children
    r = rs[0]
    if red.linked(r, v_pair):
        children += [
            [avoid(z), use(v_pair)],
            [avoid(z), use(w)],
            [avoid(z), use(r)],
        ]
    else:
        children += [
            [avoid(z), use(v_pair)],
            [avoid(z), avoid(v_pair), use(r)],
            [avoid(z), avoid(v_pair), avoid(r), use(w)],
        ]
    return children

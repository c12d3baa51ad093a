"""Binary CSP instances, the polynomial simplifications, and solution lifting.

An instance holds variables with lists of available colors and
constraints, each forbidding one (variable, color) pair from occurring
together with another; a color is any integer (a SAT variable number
under sat_to_csp).  A PairTable, shared by an instance and every copy and
branch child made from it, numbers the pairs: build in sorted order, and
a variable added later (above every variable of its instance) after all
pairs in the table, or at the ids another branch gave it first.  So
ascending id order is sorted pair order in every instance, and a mask's
lowest set bit is its first pair in sorted order.  An instance is two
dicts of int masks, each variable's live pairs and each pair's conflicts
(bitwise arc consistency: Lecoutre & Vion, CP Letters 2, 2008).

Every reduction records a lift step; replaying the steps most recent
first over a solution of the reduced instance reconstructs a solution of
the original one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .analysis import EPSILON

# A (variable, color) pair.
Pair = tuple[int, int]
# Total assignment: variable id -> color id.
Assignment = dict[int, int]


def bits(mask: int) -> list[int]:
    """The positions of mask's set bits, ascending."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Lift steps


@dataclass(frozen=True)
class Assigned:
    var: int
    color: int

    def lift(self, sol: Assignment):
        sol[self.var] = self.color


@dataclass(frozen=True)
class TwoColorEliminated:
    """Variable var had colors (color_r, color_g) left and was projected out.

    At lift time pick color_r unless some pair of conflict_r appears in
    the solution; the product constraints added at elimination time
    guarantee one of the two colors is always free.
    """

    var: int
    color_r: int
    color_g: int
    conflict_r: tuple[Pair, ...]
    conflict_g: tuple[Pair, ...]

    def lift(self, sol: Assignment):
        for color, conflict in ((self.color_r, self.conflict_r), (self.color_g, self.conflict_g)):
            if not any(sol.get(w) == d for w, d in conflict):
                sol[self.var] = color
                return
        raise ValueError(
            f"both colors of eliminated variable {self.var} are blocked; "
            "assignment does not satisfy the reduced instance"
        )


@dataclass(frozen=True)
class IsolatedMerge:
    """Two three-color variables joined by an isolated constraint were merged.

    Each color of the merged variable decodes to a full coloring of the
    two source variables (the kept color on one, the isolated color on
    the other).
    """

    new_var: int
    decode: tuple[tuple[int, Pair, Pair], ...]  # (merged color, src pair, partner pair)

    def lift(self, sol: Assignment):
        if self.new_var not in sol:
            raise ValueError(f"merged variable {self.new_var} unassigned")
        color = sol.pop(self.new_var)
        for merged_color, src, partner in self.decode:
            if merged_color == color:
                sol[src[0]] = src[1]
                sol[partner[0]] = partner[1]
                return
        raise ValueError(f"merged variable {self.new_var} got unknown color {color}")


@dataclass(frozen=True)
class ColorRemoved:
    var: int
    color: int

    def lift(self, sol: Assignment):
        """A removed color only narrows options: the variable stays assigned."""


class DeadColorRemoved(ColorRemoved):
    """A color that hits every color of another variable."""


class DominatedColorRemoved(ColorRemoved):
    """A color whose conflicts include those of another color."""


@dataclass(frozen=True)
class FreePairUsed:
    a: Pair
    b: Pair

    def lift(self, sol: Assignment):
        sol[self.a[0]] = self.a[1]
        sol[self.b[0]] = self.b[1]


LiftStep = object
LiftTrace = list


# ---------------------------------------------------------------------------
# Instance


@dataclass
class PairTable:
    """Append-only pair numbering shared by an instance, its copies and its
    branch children; a variable's pairs get consecutive ids."""

    ids: dict[Pair, int] = field(default_factory=dict)
    pairs: list[Pair] = field(default_factory=list)  # id -> pair


class Instance:
    """A (d,2)-CSP instance: live maps each variable to the mask of its
    live pairs, conf each live pair's id to the mask of the pairs it is
    constrained against.  Both iterate in ascending key order: build
    inserts sorted keys, and a new variable and its pairs come last."""

    __slots__ = ("table", "live", "conf", "next_id")

    def __init__(self):
        self.table = PairTable()
        self.live: dict[int, int] = {}
        self.conf: dict[int, int] = {}
        self.next_id = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        colors: dict[int, Iterable[int]],
        constraints: Iterable[tuple[Pair, Pair]] = (),
    ) -> "Instance":
        inst = cls()
        table = inst.table
        for v in sorted(colors):
            cs = sorted(set(colors[v]))
            inst.live[v] = ((1 << len(cs)) - 1) << len(table.pairs)
            table.pairs += [(v, c) for c in cs]
        table.ids = {p: i for i, p in enumerate(table.pairs)}
        inst.conf = dict.fromkeys(range(len(table.pairs)), 0)
        inst.next_id = max(inst.live, default=-1) + 1
        for a, b in constraints:
            inst.add_constraint(tuple(a), tuple(b))
        return inst

    def copy(self) -> "Instance":
        inst = Instance.__new__(Instance)
        inst.table = self.table
        inst.live = self.live.copy()
        inst.conf = self.conf.copy()
        inst.next_id = self.next_id
        return inst

    # -- views --------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.live)

    @property
    def colors(self) -> dict[int, frozenset[int]]:
        """Each variable's colors, decoded into a snapshot."""
        return {v: frozenset(self.colors_of(v)) for v in self.live}

    def colors_of(self, v: int) -> list[int]:
        """v's colors, ascending."""
        pairs = self.table.pairs
        return [pairs[i][1] for i in bits(self.live[v])]

    def constraints(self) -> list[tuple[Pair, Pair]]:
        """All constraints in canonical sorted order."""
        pairs = self.table.pairs
        return [(pairs[i], pairs[i + k]) for i, m in self.conf.items() for k in bits(m >> i)]

    def has(self, p: Pair) -> bool:
        return self.table.ids.get(p) in self.conf

    def degree(self, p: Pair) -> int:
        return self.conf[self.table.ids[p]].bit_count()

    def nbrs(self, p: Pair) -> list[Pair]:
        """The pairs p is constrained against, sorted."""
        pairs = self.table.pairs
        return [pairs[j] for j in bits(self.conf[self.table.ids[p]])]

    def linked(self, a: Pair, b: Pair) -> bool:
        """Whether live pairs a and b are constrained against each other."""
        return bool(self.conf[self.table.ids[a]] >> self.table.ids[b] & 1)

    def variables(self) -> list[int]:
        return list(self.live)

    # -- mutation -----------------------------------------------------------

    def add_variable(self, colors: Iterable[int]) -> int:
        """Add a variable under a fresh id and return the id.  Its pairs
        are numbered after every pair in the table, unless another
        branch added the same variable first."""
        v = self.next_id
        ids, pairs = self.table.ids, self.table.pairs
        keys = [(v, c) for c in sorted(set(colors))]
        if not any(p in ids for p in keys):
            ids.update(zip(keys, range(len(pairs), len(pairs) + len(keys))))
            pairs += keys
        own = [ids[p] for p in keys]  # KeyError: v was numbered without that color
        self.live[v] = sum(1 << i for i in own)
        self.conf.update(dict.fromkeys(own, 0))
        self.next_id = v + 1
        return v

    def add_constraint(self, a: Pair, b: Pair):
        """Insert a constraint, normalizing degenerate same-variable forms.

        A constraint of a pair against itself is a plain color removal;
        one between two distinct colors of the same variable can never be
        violated and is dropped.
        """
        conf, i, j = self.conf, self.table.ids.get(a), self.table.ids.get(b)
        if i not in conf or j not in conf:
            raise ValueError(f"pair {b if i in conf else a} not available in instance")
        if i == j:
            self._drop(1 << i)
        elif a[0] != b[0]:
            conf[i] |= 1 << j
            conf[j] |= 1 << i

    def _drop(self, mask: int):
        """Remove the live pairs of mask and every constraint on them."""
        conf, live, pairs = self.conf, self.live, self.table.pairs
        touched = 0
        for i in bits(mask):
            touched |= conf.pop(i)
            live[pairs[i][0]] ^= 1 << i
        keep = ~mask
        for j in bits(touched & keep):
            conf[j] &= keep

    def remove_color(self, var: int, color: int):
        self._drop(1 << self.table.ids[(var, color)])

    def remove_variable(self, var: int):
        self._drop(self.live[var])
        del self.live[var]

    def assign(self, p: Pair) -> Assigned:
        """Use pair p: drop its variable and propagate color removals.

        Neighbors of p lose the constrained color; neighbors of p's
        sibling colors merely lose the constraint.  May leave variables
        with zero colors, which the caller must treat as unsatisfiable.
        """
        if not self.has(p):
            raise ValueError(f"pair {p} not available")
        var, color = p
        self._drop(self.live[var] | self.conf[self.table.ids[p]])
        del self.live[var]
        return Assigned(var, color)


# ---------------------------------------------------------------------------
# Size measure and checking


def measure(inst: Instance) -> float:
    """Instance size n3 + (2 - epsilon) * n4.

    Variables with two or fewer colors weigh nothing: simplification
    removes them without branching.
    """
    return sum(
        0.0 if k <= 2 else 1.0 if k == 3 else 2 - EPSILON
        for k in map(int.bit_count, inst.live.values())
    )


def check(inst: Instance, asg: Assignment) -> bool:
    """True iff asg is total over inst's variables and violates no constraint."""
    for v in inst.live:
        if v not in asg:
            raise ValueError(f"assignment is missing variable {v}")
        if not inst.has((v, asg[v])):
            return False
    chosen = sum(1 << inst.table.ids[(v, asg[v])] for v in inst.live)
    return not any(inst.conf[i] & chosen for i in bits(chosen))


# ---------------------------------------------------------------------------
# Simplification lemmas


def eliminate_two_color(inst: Instance, v: int) -> TwoColorEliminated:
    """Project out a variable restricted to two colors.

    For the two colors R and G, every combination of a conflict of R
    with a conflict of G would leave v uncolorable, so those pairs become
    constraints and v disappears.  One pass, in place on inst: R and G
    are the lowest and highest bits of v's mask, the pairs both hit are
    dropped, and one loop over the other conflicts of R and G clears R
    and G from each and ORs in the products (|R| + |G| mask edits).
    """
    conf, live, pairs = inst.conf, inst.live, inst.table.pairs
    m = live[v]
    if m.bit_count() != 2:
        raise ValueError(f"variable {v} has {m.bit_count()} colors, expected 2")
    r, g = (m & -m).bit_length() - 1, m.bit_length() - 1
    cr, cg = conf[r], conf[g]
    rs, gs, both = bits(cr), bits(cg), cr & cg
    if both:
        inst._drop(both)
    del live[v], conf[r], conf[g]
    for src, other in ((rs, cg ^ both), (gs, cr ^ both)):
        for a in src:
            if a in conf:  # not one of both, which are gone
                own = live[pairs[a][0]]
                conf[a] = conf[a] & ~m | (other & ~own if other & own else other)
    return TwoColorEliminated(
        v, pairs[r][1], pairs[g][1], tuple(pairs[j] for j in rs), tuple(pairs[j] for j in gs)
    )


def eliminate_low_colors(inst: Instance, trace: LiftTrace) -> bool:
    """Clear every variable with two or fewer colors from inst, in place.

    One-color variables are assigned and two-color ones projected out,
    lowest id first (a plain loop over live finds it, and its mask tells
    one color from two), appending a lift step to trace for each.  False
    as soon as some variable has no color left.
    """
    while True:
        for v, m in inst.live.items():
            if m.bit_count() <= 2:
                break
        else:
            return True
        if not m:
            return False
        if m & (m - 1):
            trace.append(eliminate_two_color(inst, v))
        else:
            trace.append(inst.assign(inst.table.pairs[m.bit_length() - 1]))


def find_free_pair(inst: Instance) -> Optional[tuple[Pair, Pair]]:
    """Two pairs on distinct variables constrained only against each other's
    variable, and never against each other: both can be used outright.

    Returns the first match (p, q) with p's variable below q's, p and q
    each in sorted pair order.  A constrained p needs all its conflicts,
    so its lowest and highest, on one variable w (whose ids are
    consecutive), and only w's d pairs are tried: O(P*d) mask tests.  An
    unconstrained p scans the later variables' pairs.
    """
    conf, live, pairs = inst.conf, inst.live, inst.table.pairs
    for i, hit in conf.items():
        v = pairs[i][0]
        if hit:
            w = pairs[hit.bit_length() - 1][0]
            if w <= v or pairs[(hit & -hit).bit_length() - 1][0] != w:
                continue
            partners = bits(live[w])
        else:
            partners = (j for u, m in live.items() if u > v for j in bits(m))
        siblings = live[v] ^ 1 << i
        for j in partners:
            if conf[j] | siblings == siblings:
                return pairs[i], pairs[j]
    return None


def find_dominated(inst: Instance) -> Optional[tuple[int, int, int]]:
    """(var, keeper color, dominated color): conflicts of the keeper are a
    subset of the dominated color's, so the dominated color is never needed.

    conf iterates a variable's pairs consecutively, so one loop tests each
    conflict mask against the earlier ones of its variable; the first
    variable with a nested couple is then scanned in order."""
    conf, pairs = inst.conf, inst.table.pairs
    masks, v, nested = [], None, False
    for i, hit in conf.items():
        u = pairs[i][0]
        if u != v:
            if nested:
                break
            masks, v = [], u
        else:
            for h in masks:
                both = h | hit
                if both == h or both == hit:
                    nested = True
        masks.append(hit)
    if not nested:
        return None
    ids = bits(inst.live[v])
    for r in ids:
        for b in ids:
            if r != b and conf[r] | conf[b] == conf[b]:
                return v, pairs[r][1], pairs[b][1]


def find_dead_color(inst: Instance) -> Optional[Pair]:
    """A pair that hits every color of another variable can never be used.

    One loop over conf, which iterates a variable's pairs consecutively,
    ANDs each variable's conflict masks; the lowest set bit of the union
    of these is the first dead pair in sorted order."""
    pairs, dead, hit_all, v = inst.table.pairs, 0, 0, None
    for i, hit in inst.conf.items():
        if pairs[i][0] == v:
            hit_all &= hit
        else:
            dead, hit_all, v = dead | hit_all, hit, pairs[i][0]
    dead |= hit_all
    return pairs[(dead & -dead).bit_length() - 1] if dead else None


def _lemma_step(inst: Instance) -> Optional[LiftStep]:
    """Apply the first lemma that matches, in place; its lift step or None."""
    found = find_free_pair(inst)
    if found is not None:
        p, q = found
        inst.assign(p)  # q is on another variable and not p's conflict, so it stays
        inst.assign(q)
        return FreePairUsed(p, q)
    found = find_dominated(inst)
    if found is not None:
        v, _r, b = found
        inst.remove_color(v, b)
        return DominatedColorRemoved(v, b)
    p = find_dead_color(inst)
    if p is not None:
        inst.remove_color(p[0], p[1])
        return DeadColorRemoved(p[0], p[1])
    return None


def simplify(inst: Instance) -> tuple[Optional[Instance], LiftTrace]:
    """Run all polynomial simplifications to a fixpoint.

    inst is copied once and never edited; every lemma then edits that
    working copy in place.  Each round first clears 0/1/2-color
    variables (eliminate_low_colors), then applies the first of: free
    pair, dominated color, dead color.  An unconstrained pair needs no
    lemma of its own: its variable has three or more colors by then,
    and the pair's empty conflict set makes every other color of that
    variable dominated.

    Returns (reduced instance, trace), or (None, trace) when some
    variable runs out of colors.  The result has only 3- and 4-color
    variables and none of the simplification patterns left.
    """
    cur = inst.copy()
    trace: LiftTrace = []
    while eliminate_low_colors(cur, trace):
        step = _lemma_step(cur)
        if step is None:
            return cur, trace
        trace.append(step)
    return None, trace


# ---------------------------------------------------------------------------
# Lifting


def lift(asg: Assignment, trace: LiftTrace) -> Assignment:
    """Map a solution of the reduced problem back through recorded steps,
    most recent first; each step (a CSP lemma or branch edit, a graph or
    edge reduction) undoes itself in place."""
    sol = dict(asg)
    for step in reversed(trace):
        step.lift(sol)
    return sol

"""Binary CSP instances, the polynomial simplifications, and solution lifting.

An instance holds variables with lists of available colors and a set of
constraints, each forbidding one (variable,color) pair from occurring
together with another.  Color ids are stable small integers: removing a
color from a variable never renumbers the rest, so constraints stay
valid across reductions.

Every reduction records a lift step; replaying the steps most recent
first over a solution of the reduced instance reconstructs a solution of
the original one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Optional

from .analysis import EPSILON

# A (variable, color) pair.
Pair = tuple[int, int]
# Total assignment: variable id -> color id.
Assignment = dict[int, int]


def canon(a: Pair, b: Pair) -> tuple[Pair, Pair]:
    """Canonical (unordered) form of a constraint."""
    return (a, b) if a <= b else (b, a)


# ---------------------------------------------------------------------------
# Lift steps


@dataclass(frozen=True)
class Assigned:
    var: int
    color: int


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


@dataclass(frozen=True)
class IsolatedMerge:
    """Two three-color variables joined by an isolated constraint were merged.

    Each color of the merged variable decodes to a full coloring of the
    two source variables (the kept color on one, the isolated color on
    the other).
    """

    new_var: int
    decode: tuple[tuple[int, Pair, Pair], ...]  # (merged color, src pair, partner pair)


@dataclass(frozen=True)
class DeadColorRemoved:
    var: int
    color: int


@dataclass(frozen=True)
class DominatedColorRemoved:
    var: int
    color: int


@dataclass(frozen=True)
class FreePairUsed:
    a: Pair
    b: Pair


LiftStep = object
LiftTrace = list


# ---------------------------------------------------------------------------
# Instance


class Instance:
    """A (d,2)-CSP instance with an incrementally maintained adjacency index."""

    __slots__ = ("colors", "adj", "next_id")

    def __init__(self):
        self.colors: dict[int, set[int]] = {}
        self.adj: dict[Pair, set[Pair]] = {}
        self.next_id = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        colors: dict[int, Iterable[int]],
        constraints: Iterable[tuple[Pair, Pair]] = (),
    ) -> "Instance":
        inst = cls()
        for v, cs in colors.items():
            inst.colors[v] = set(cs)
            for c in inst.colors[v]:
                inst.adj[(v, c)] = set()
        inst.next_id = max(inst.colors, default=-1) + 1
        for a, b in constraints:
            inst.add_constraint(tuple(a), tuple(b))
        return inst

    def copy(self) -> "Instance":
        inst = Instance.__new__(Instance)
        inst.colors = {v: set(cs) for v, cs in self.colors.items()}
        inst.adj = {p: set(q) for p, q in self.adj.items()}
        inst.next_id = self.next_id
        return inst

    # -- views --------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.colors)

    def constraints(self) -> list[tuple[Pair, Pair]]:
        """All constraints in canonical sorted order."""
        out = set()
        for p, qs in self.adj.items():
            for q in qs:
                out.add(canon(p, q))
        return sorted(out)

    def pairs(self) -> list[Pair]:
        return sorted(self.adj)

    def degree(self, p: Pair) -> int:
        return len(self.adj[p])

    def variables(self) -> list[int]:
        return sorted(self.colors)

    # -- mutation -----------------------------------------------------------

    def add_variable(self, colors: Iterable[int]) -> int:
        """Add a variable under a fresh id and return the id."""
        v = self.next_id
        self.colors[v] = set(colors)
        for c in self.colors[v]:
            self.adj[(v, c)] = set()
        self.next_id = v + 1
        return v

    def add_constraint(self, a: Pair, b: Pair):
        """Insert a constraint, normalizing degenerate same-variable forms.

        A constraint of a pair against itself is a plain color removal;
        one between two distinct colors of the same variable can never be
        violated and is dropped.
        """
        for p in (a, b):
            if p not in self.adj:
                raise ValueError(f"pair {p} not available in instance")
        if a == b:
            self.remove_color(a[0], a[1])
            return
        if a[0] == b[0]:
            return
        self.adj[a].add(b)
        self.adj[b].add(a)

    def remove_color(self, var: int, color: int):
        p = (var, color)
        for q in self.adj.pop(p):
            self.adj[q].discard(p)
        self.colors[var].discard(color)

    def remove_variable(self, var: int):
        for c in list(self.colors[var]):
            self.remove_color(var, c)
        del self.colors[var]

    def assign(self, p: Pair) -> Assigned:
        """Use pair p: drop its variable and propagate color removals.

        Neighbors of p lose the constrained color; neighbors of p's
        sibling colors merely lose the constraint.  May leave variables
        with zero colors, which the caller must treat as unsatisfiable.
        """
        var, color = p
        if p not in self.adj:
            raise ValueError(f"pair {p} not available")
        stripped = sorted(self.adj[p])
        self.remove_variable(var)
        for q in stripped:
            if q in self.adj:  # a previous strip may have removed it
                self.remove_color(q[0], q[1])
        return Assigned(var, color)


# ---------------------------------------------------------------------------
# Size measure and checking


def measure(inst: Instance) -> float:
    """Instance size n3 + (2 - epsilon) * n4.

    Variables with two or fewer colors weigh nothing: simplification
    removes them without branching.
    """
    return sum(
        0.0 if len(cs) <= 2 else 1.0 if len(cs) == 3 else 2 - EPSILON
        for cs in inst.colors.values()
    )


def check(inst: Instance, asg: Assignment) -> bool:
    """True iff asg is total over inst's variables and violates no constraint."""
    for v in inst.colors:
        if v not in asg:
            raise ValueError(f"assignment is missing variable {v}")
        if asg[v] not in inst.colors[v]:
            return False
    for (v, c), qs in inst.adj.items():
        if asg[v] == c and any(asg[w] == d for (w, d) in qs):
            return False
    return True


def validate(inst: Instance, max_colors: int = 4) -> list[str]:
    """Structural invariant check; returns human-readable violations."""
    problems = []
    for v, cs in inst.colors.items():
        if len(cs) > max_colors:
            problems.append(f"variable {v} has {len(cs)} colors (max {max_colors})")
        for c in cs:
            if (v, c) not in inst.adj:
                problems.append(f"pair {(v, c)} missing from adjacency")
    for p, qs in inst.adj.items():
        v, c = p
        if v not in inst.colors or c not in inst.colors.get(v, ()):
            problems.append(f"adjacency key {p} refers to a removed color")
            continue
        for q in qs:
            if q not in inst.adj:
                problems.append(f"constraint {canon(p, q)} references removed pair {q}")
            elif p not in inst.adj[q]:
                problems.append(f"constraint {canon(p, q)} not symmetric")
            if q[0] == v:
                problems.append(f"constraint {canon(p, q)} joins two colors of variable {v}")
    return problems


# ---------------------------------------------------------------------------
# Simplification lemmas


def eliminate_two_color(inst: Instance, v: int) -> TwoColorEliminated:
    """Project out a variable restricted to two colors.

    For the two colors R and G, every combination of a conflict of R
    with a conflict of G would leave v uncolorable, so those pairs
    become constraints and v disappears.  In-place on inst.
    """
    cs = sorted(inst.colors[v])
    if len(cs) != 2:
        raise ValueError(f"variable {v} has {len(cs)} colors, expected 2")
    r, g = cs
    conflict_r = sorted(inst.adj[(v, r)])
    conflict_g = sorted(inst.adj[(v, g)])
    inst.remove_variable(v)
    for a, b in product(conflict_r, conflict_g):
        # Pairs may have vanished if a prior product removed a color.
        if a in inst.adj and b in inst.adj:
            inst.add_constraint(a, b)
    return TwoColorEliminated(v, r, g, tuple(conflict_r), tuple(conflict_g))


def eliminate_low_colors(inst: Instance, trace: LiftTrace) -> bool:
    """Clear every variable with two or fewer colors from inst, in place.

    One-color variables are assigned and two-color ones projected out,
    lowest id first, appending a lift step to trace for each.  False as
    soon as some variable has no color left.
    """
    while True:
        low = next((v for v in inst.variables() if len(inst.colors[v]) <= 2), None)
        if low is None:
            return True
        cs = inst.colors[low]
        if not cs:
            return False
        if len(cs) == 1:
            trace.append(inst.assign((low, min(cs))))
        else:
            trace.append(eliminate_two_color(inst, low))


def find_free_pair(inst: Instance) -> Optional[tuple[Pair, Pair]]:
    """Two pairs on distinct variables constrained only against each other's
    variable, and never against each other: both can be used outright.

    Returns the first match (p, q) with p's variable below q's, p and q
    each taken in sorted pair order.  Every constraint of a constrained p
    must hit the variable w of its partner, so only the d pairs of w are
    tried (a pair of w that p hits fails the test on its own side): the
    pairs are sorted once and each p costs O(d) plus the degrees it
    reads, O(P*d) in all.  An unconstrained p scans the later variables'
    pairs, stopping at the first fit.
    """
    pairs = inst.pairs()
    for i, p in enumerate(pairs):
        v, x = p
        hit = inst.adj[p]
        if hit:
            w = next(iter(hit))[0]
            if w <= v or any(t[0] != w for t in hit):
                continue
            partners = ((w, y) for y in sorted(inst.colors[w]))
        else:
            partners = (q for q in islice(pairs, i + 1, None) if q[0] > v)
        for q in partners:
            if all(t[0] == v and t[1] != x for t in inst.adj[q]):
                return p, q
    return None


def find_dominated(inst: Instance) -> Optional[tuple[int, int, int]]:
    """(var, keeper color, dominated color): conflicts of the keeper are a
    subset of the dominated color's, so the dominated color is never needed."""
    for v in inst.variables():
        cs = sorted(inst.colors[v])
        for r in cs:
            for b in cs:
                if r != b and inst.adj[(v, r)] <= inst.adj[(v, b)]:
                    return v, r, b
    return None


def find_dead_color(inst: Instance) -> Optional[Pair]:
    """A pair constrained against every available color of another variable
    can never be used."""
    for p in inst.pairs():
        by_var: dict[int, set[int]] = {}
        for (w, c) in inst.adj[p]:
            by_var.setdefault(w, set()).add(c)
        for w, hit in by_var.items():
            if hit == inst.colors[w]:
                return p
    return None


def _lemma_step(inst: Instance) -> Optional[LiftStep]:
    """Apply the first lemma that matches, in place; its lift step or None."""
    found = find_free_pair(inst)
    if found is not None:
        p, q = found
        inst.assign(p)
        if q in inst.adj:
            inst.assign(q)
        return FreePairUsed(p, q)
    found = find_dominated(inst)
    if found is not None:
        v, _r, b = found
        inst.remove_color(v, b)
        return DominatedColorRemoved(v, b)
    p = next((p for p in inst.pairs() if not inst.adj[p]), None)
    if p is not None:
        return inst.assign(p)
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
    pair, dominated color, unconstrained pair, dead color.

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


def is_reduced(inst: Instance) -> bool:
    """Only 3- and 4-color variables, and simplify finds nothing to do."""
    return all(len(cs) in (3, 4) for cs in inst.colors.values()) and not simplify(inst)[1]


# ---------------------------------------------------------------------------
# Lifting


def lift(asg: Assignment, trace: LiftTrace) -> Assignment:
    """Map a solution of the reduced instance back through recorded steps."""
    sol = dict(asg)

    def uses(p: Pair) -> bool:
        return sol.get(p[0]) == p[1]

    for step in reversed(trace):
        if isinstance(step, Assigned):
            sol[step.var] = step.color
        elif isinstance(step, FreePairUsed):
            sol[step.a[0]] = step.a[1]
            sol[step.b[0]] = step.b[1]
        elif isinstance(step, TwoColorEliminated):
            if not any(uses(p) for p in step.conflict_r):
                sol[step.var] = step.color_r
            elif not any(uses(p) for p in step.conflict_g):
                sol[step.var] = step.color_g
            else:
                raise ValueError(
                    f"both colors of eliminated variable {step.var} are blocked; "
                    "assignment does not satisfy the reduced instance"
                )
        elif isinstance(step, IsolatedMerge):
            if step.new_var not in sol:
                raise ValueError(f"merged variable {step.new_var} unassigned")
            color = sol.pop(step.new_var)
            for merged_color, src, partner in step.decode:
                if merged_color == color:
                    sol[src[0]] = src[1]
                    sol[partner[0]] = partner[1]
                    break
            else:
                raise ValueError(f"merged variable {step.new_var} got unknown color {color}")
        elif isinstance(step, (DeadColorRemoved, DominatedColorRemoved)):
            pass  # color removal only narrows options; variable stays assigned
        else:
            raise TypeError(f"unknown lift step {step!r}")
    return sol

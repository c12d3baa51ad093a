"""Translations between problem formats.

Covers the constraint/variable duality that turns an (a,b)-CSP into a
(b,a)-CSP, the 3-SAT front end that builds the dual of a CNF straight
from two conflict masks per SAT variable, and the direct encoding of
graph coloring with color lists as a binary CSP (list_coloring_csp).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional

from .graphalg import Adjacency, adjacency
from .instance import (
    Assignment,
    Instance,
    LiftTrace,
    Pair,
    eliminate_low_colors,
    lift,
)

Clause = tuple[int, ...]  # nonzero DIMACS-style literals

# ---------------------------------------------------------------------------
# General (a,b)-CSP


@dataclass
class GeneralCSP:
    """CSP with constraints of arbitrary arity.

    Each constraint is a tuple of (variable, value) pairs naming one
    forbidden combination; an assignment satisfies the instance when no
    constraint has all its pairs realized simultaneously.
    """

    domains: dict[int, set[int]]
    constraints: list[tuple[Pair, ...]] = field(default_factory=list)


def normalize_constraint(con: Iterable[Pair]) -> Optional[tuple[Pair, ...]]:
    """Drop duplicate pairs and vacuous constraints.

    A forbidden combination giving one variable two different values can
    never occur, so the constraint goes away entirely.
    """
    seen: dict[int, int] = {}
    out = []
    for (v, c) in con:
        if v in seen:
            if seen[v] != c:
                return None
            continue
        seen[v] = c
        out.append((v, c))
    return tuple(out)


# ---------------------------------------------------------------------------
# Duality


@dataclass
class DualMap:
    """How a dual instance's colorings map back to the original.

    Picking color V at dual variable i rules out value ruled[(i, V)] for
    original variable V; any surviving value completes the solution.
    """

    domains: dict[int, set[int]]
    ruled: dict[Pair, int]

    def decode(self, dual_asg: Assignment) -> Assignment:
        excluded: dict[int, set[int]] = {v: set() for v in self.domains}
        for i, v in dual_asg.items():
            excluded[v].add(self.ruled[(i, v)])
        out = {}
        for v, d in self.domains.items():
            left = sorted(d - excluded[v])
            if not left:
                raise ValueError(f"all values of variable {v} were ruled out")
            out[v] = left[0]
        return out


def dualize(csp: GeneralCSP) -> tuple[GeneralCSP, DualMap]:
    """Exchange constraints for variables.

    Dual variable i chooses which pair of original constraint i to break;
    its color is the original variable named by that pair.  Dual
    constraints forbid any set of choices that would exhaust every value
    of some original variable.  An (a,b) instance becomes a (b,a) one.
    """
    normalized = [normalize_constraint(c) for c in csp.constraints]
    ruled: dict[Pair, int] = {}
    domains: dict[int, set[int]] = {}
    for i, con in enumerate(normalized):
        if con is None:
            continue
        domains[i] = {v for (v, _c) in con}
        for (v, c) in con:
            ruled[(i, v)] = c
    # Who can rule out each value of each variable?
    rulers: dict[Pair, list[Pair]] = {}
    for (i, v), c in ruled.items():
        rulers.setdefault((v, c), []).append((i, v))
    dual_constraints: list[tuple[Pair, ...]] = []
    for v in sorted(csp.domains):
        by_value = {c: rulers.get((v, c), []) for c in csp.domains[v]}
        if any(not ps for ps in by_value.values()):
            continue  # some value of v is always available
        for combo in product(*(sorted(by_value[c]) for c in sorted(by_value))):
            con = normalize_constraint(combo)
            if con is not None:
                dual_constraints.append(con)
    return GeneralCSP(domains, dual_constraints), DualMap(dict(csp.domains), ruled)


# ---------------------------------------------------------------------------
# 3-SAT front end


@dataclass
class SatMap:
    """Decoder from reduced-CSP solutions back to boolean assignments."""

    nvars: int
    dual: DualMap
    trace: LiftTrace

    def decode(self, asg: Assignment) -> dict[int, bool]:
        full = lift(asg, self.trace)
        values = self.dual.decode(full)
        # Unmentioned variables never appear in the dual domains.
        return {x: bool(values.get(x, 1)) for x in range(1, self.nvars + 1)}


def sat_to_csp(nvars: int, clauses: list[Clause]) -> tuple[Optional[Instance], SatMap]:
    """Translate a CNF with clauses of size at most 3 into a (3,2)-CSP.

    Dual variable i is clause i, its colors the SAT variables of its
    literals (a repeated literal counts once, a tautology gets no
    variable), and color x rules out the value of x that falsifies the
    literal.  A SAT variable's dual constraints form one biclique: every
    pair ruling out false conflicts with every pair ruling out true, so
    two masks per variable build them.  Variables left with fewer than
    three colors (short clauses, or casualties of unit-style
    propagation) are then eliminated, so the surviving size is the
    number of 3-clauses.  Returns (None, map) when an empty clause or
    the propagation refutes the formula.  A negative nvars, or a literal
    0 or beyond ±nvars, raises ValueError.
    """
    if nvars < 0:
        raise ValueError(f"negative variable count {nvars}")
    colors: dict[int, set[int]] = {}
    ruled: dict[Pair, int] = {}
    for i, cl in enumerate(clauses):
        lits = set(cl)
        for lit in lits:
            if not 0 < abs(lit) <= nvars:
                raise ValueError(f"literal {lit} not in ±1..±{nvars}")
        if any(-lit in lits for lit in lits):
            continue  # satisfied by every assignment
        colors[i] = {abs(lit) for lit in lits}
        ruled.update(((i, abs(lit)), int(lit < 0)) for lit in lits)
    inst = Instance.build(colors)
    ids, conf = inst.table.ids, inst.conf
    side: dict[Pair, int] = {}  # (x, value ruled out) -> mask of those pairs
    for (i, x), c in ruled.items():
        side[x, c] = side.get((x, c), 0) | 1 << ids[i, x]
    for (i, x), c in ruled.items():
        conf[ids[i, x]] = side.get((x, 1 - c), 0)
    smap = SatMap(nvars, DualMap({x: {0, 1} for x in range(1, nvars + 1)}, ruled), [])
    if not eliminate_low_colors(inst, smap.trace):
        return None, smap
    return inst, smap


# ---------------------------------------------------------------------------
# Graph coloring front end


def coloring_to_csp(
    n: int,
    edges: list[tuple[int, int]],
    lists: Optional[dict[int, Iterable[int]]] = None,
) -> Instance:
    """Encode proper coloring with per-vertex color lists as a binary CSP.

    With no lists given every vertex may take colors 0, 1, 2.  Each edge
    contributes one constraint per color shared by its endpoints.  A
    negative n, a self-loop, a vertex outside range(n) or one without a
    list raises ValueError.
    """
    g = adjacency(n, edges)
    if lists is not None and (missing := set(g) - set(lists)):
        raise ValueError(f"vertex {min(missing)} has no color list")
    return list_coloring_csp(g, {v: {0, 1, 2} if lists is None else set(lists[v]) for v in g})


def list_coloring_csp(g: Adjacency, colors: dict[int, set[int]]) -> Instance:
    """The CSP of graph g with vertex v taking a color of colors[v]: one
    constraint per color two adjacent vertices share."""
    return Instance.build(colors, (((u, c), (v, c)) for u in g for v in g[u] if u < v
                                   for c in colors[u] & colors[v]))

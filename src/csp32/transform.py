"""Translations between problem formats.

Covers the constraint/variable duality that turns an (a,b)-CSP into a
(b,a)-CSP, the 3-SAT front end built on it, and the direct encoding of
graph coloring with color lists as a binary CSP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional

from .graphalg import adjacency
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
    dual_constraints: list[tuple[Pair, ...]] = []
    for v in sorted(csp.domains):
        # Who can rule out each value of v?
        by_value: dict[int, list[Pair]] = {c: [] for c in csp.domains[v]}
        for (i, w), c in ruled.items():
            if w == v:
                by_value[c].append((i, v))
        if any(not ps for ps in by_value.values()):
            continue  # some value of v is always available
        for combo in product(*(sorted(by_value[c]) for c in sorted(by_value))):
            con = normalize_constraint(combo)
            if con is not None:
                dual_constraints.append(con)
    return GeneralCSP(domains, dual_constraints), DualMap(dict(csp.domains), ruled)


def binary_instance(csp: GeneralCSP) -> Optional[Instance]:
    """Materialize a CSP with constraint arity at most 2 as an Instance.

    Arity-1 constraints become color removals; an arity-0 constraint, or
    a variable losing every color, means the instance is unsatisfiable
    and None comes back.
    """
    inst = Instance.build({v: d for v, d in csp.domains.items()})
    for con in csp.constraints:
        if len(con) == 0:
            return None
        if len(con) > 2:
            raise ValueError(f"constraint {con} has arity {len(con)} > 2")
        # a pair outside the domains or dropped earlier takes no part;
        # arity 1 is a pair against itself, which add_constraint removes
        if inst.has(con[0]) and inst.has(con[-1]):
            inst.add_constraint(con[0], con[-1])
    if not all(inst.live.values()):
        return None
    return inst


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


def cnf_to_general(nvars: int, clauses: list[Clause]) -> GeneralCSP:
    """CNF as a (2,3)-CSP: values 0=false, 1=true; each clause forbids the
    one combination falsifying all its literals."""
    domains = {x: {0, 1} for x in range(1, nvars + 1)}
    constraints = []
    for cl in clauses:
        constraints.append(tuple((abs(lit), 0 if lit > 0 else 1) for lit in cl))
    return GeneralCSP(domains, constraints)


def sat_to_csp(nvars: int, clauses: list[Clause]) -> tuple[Optional[Instance], SatMap]:
    """Translate a CNF with clauses of size at most 3 into a (3,2)-CSP.

    Dual variables correspond to clauses.  Variables left with fewer
    than three colors (short clauses, or casualties of unit-style
    propagation) are eliminated on the spot, so the surviving size is
    the number of 3-clauses.  Returns (None, map) when the propagation
    alone refutes the formula.
    """
    dual, dmap = dualize(cnf_to_general(nvars, clauses))
    inst = binary_instance(dual)
    smap = SatMap(nvars, dmap, [])
    if inst is None or not eliminate_low_colors(inst, smap.trace):
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
    self-loop or a vertex outside range(n) raises ValueError.
    """
    g = adjacency(n, edges)
    colors = {v: {0, 1, 2} if lists is None else set(lists[v]) for v in range(n)}
    return Instance.build(colors, (
        ((u, c), (v, c)) for u in g for v in g[u] if u < v for c in colors[u] & colors[v]
    ))

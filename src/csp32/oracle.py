"""Brute-force reference solvers and random instance generators.

Everything here is deliberately naive: exhaustive search with at most a
conflict-pruning shortcut.  These are the ground truth the clever
algorithms are tested against, so they stay small enough to audit by
eye.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Optional

from .graphalg import adjacency, depth_first
from .instance import Assignment, Instance, check
from .transform import Clause

Graph = tuple[int, list[tuple[int, int]]]  # (vertex count, sorted edge list)


# ---------------------------------------------------------------------------
# Brute-force solvers


def brute_csp(inst: Instance) -> Optional[Assignment]:
    """Exhaustive backtracking over all colorings, pruning on conflicts."""
    order = inst.variables()

    def expand(asg: Assignment):
        if len(asg) == len(order):
            return asg, ()
        v = order[len(asg)]
        return None, (
            {**asg, v: c}
            for c in inst.colors_of(v)
            if all(asg.get(w) != d for w, d in inst.nbrs((v, c)))
        )

    asg = depth_first({}, expand)
    assert asg is None or check(inst, asg)
    return asg


def brute_vertex_color(graph: Graph) -> Optional[dict[int, int]]:
    """Proper 3-coloring by backtracking, or None."""
    n, edges = graph
    nbrs = adjacency(n, edges)

    def expand(coloring: dict[int, int]):
        v = len(coloring)
        if v == n:
            return coloring, ()
        return None, (
            {**coloring, v: c} for c in range(3) if all(coloring.get(w) != c for w in nbrs[v])
        )

    return depth_first({}, expand)


def brute_edge_color(graph: Graph) -> Optional[dict[tuple[int, int], int]]:
    """Proper 3-edge-coloring (edges sharing an endpoint differ), or None."""
    _n, edges = graph
    # the earlier edges that share an endpoint with each edge
    prior = [[e for e in edges[:i] if u in e or v in e] for i, (u, v) in enumerate(edges)]

    def expand(state: tuple[int, dict[tuple[int, int], int]]):
        i, coloring = state
        if i == len(edges):
            return coloring, ()
        return None, (
            (i + 1, {**coloring, edges[i]: c})
            for c in range(3)
            if all(coloring[e] != c for e in prior[i])
        )

    return depth_first((0, {}), expand)


def brute_sat(nvars: int, clauses: list[Clause]) -> Optional[dict[int, bool]]:
    """Exhaustive SAT over variables 1..nvars with unit clause checking."""

    def clause_ok(asg: dict[int, bool], cl: Clause) -> bool:
        # Satisfied or still open under the partial assignment.
        for lit in cl:
            val = asg.get(abs(lit))
            if val is None or val == (lit > 0):
                return True
        return False

    def expand(asg: dict[int, bool]):
        v = len(asg) + 1
        if v > nvars:
            return asg, ()
        return None, (
            new
            for new in ({**asg, v: False}, {**asg, v: True})
            if all(clause_ok(new, cl) for cl in clauses)
        )

    return depth_first({}, expand)


# ---------------------------------------------------------------------------
# Generators


def _random_domains(rng: random.Random, nvars: int, max_colors: int) -> Instance:
    """An unconstrained instance whose variables get 3 colors, or 3 to
    max_colors drawn uniformly when max_colors exceeds 3."""
    return Instance.build(
        {v: range(rng.randint(3, max_colors) if max_colors > 3 else 3) for v in range(nvars)}
    )


def random_csp(
    rng: random.Random,
    nvars: int,
    max_colors: int = 3,
    density: float = 0.25,
) -> Instance:
    """Random (max_colors,2)-CSP: each variable gets 3 or up to max_colors
    colors, each cross-variable pair of pairs becomes a constraint with
    probability density."""
    inst = _random_domains(rng, nvars, max_colors)
    for (v, w) in combinations(range(nvars), 2):
        for c in inst.colors_of(v):
            for d in inst.colors_of(w):
                if rng.random() < density:
                    inst.add_constraint((v, c), (w, d))
    return inst


def planted_csp(
    rng: random.Random,
    nvars: int,
    max_colors: int = 3,
    density: float = 0.4,
) -> tuple[Instance, Assignment]:
    """Random CSP guaranteed satisfiable: a hidden solution is drawn first
    and no constraint touching it is emitted."""
    inst = _random_domains(rng, nvars, max_colors)
    hidden = {v: rng.choice(inst.colors_of(v)) for v in range(nvars)}
    for (v, w) in combinations(range(nvars), 2):
        for c in inst.colors_of(v):
            for d in inst.colors_of(w):
                if hidden[v] == c and hidden[w] == d:
                    continue
                if rng.random() < density:
                    inst.add_constraint((v, c), (w, d))
    assert check(inst, hidden)
    return inst, hidden


def structured_csp(
    rng: random.Random,
    var_degrees: list[int],
    four_vars: int = 0,
) -> Optional[Instance]:
    """CSP whose pairs have controlled constraint counts.

    Variables get the requested degrees in a random simple graph; every
    graph edge becomes a random one-to-one matching between (three of)
    the endpoint color sets.  A pair then has one constraint per
    incident edge and never two constraints into the same variable,
    which steers solving toward the deeper branching rules.  The first
    four_vars variables get four colors.  None when the degree sequence
    could not be realized in 200 tries.
    """
    n = len(var_degrees)
    for _ in range(200):
        stubs = [v for v in range(n) for _ in range(var_degrees[v])]
        if len(stubs) % 2:
            stubs.remove(rng.choice(stubs))
        rng.shuffle(stubs)
        skeleton = set()
        ok = True
        for i in range(0, len(stubs) - 1, 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in skeleton:
                ok = False
                break
            skeleton.add((min(u, v), max(u, v)))
        if ok:
            break
    else:
        return None
    colors = {v: range(4 if v < four_vars else 3) for v in range(n)}
    inst = Instance.build(colors)
    for (u, v) in sorted(skeleton):
        cu = rng.sample(inst.colors_of(u), 3)
        cv = rng.sample(inst.colors_of(v), 3)
        for c, d in zip(cu, cv):
            inst.add_constraint((u, c), (v, d))
    return inst


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for (u, v) in combinations(range(n), 2) if rng.random() < p]
    return n, edges


def planted_3colorable(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Random graph with a hidden 3-partition; edges only cross classes."""
    part = [rng.randrange(3) for _ in range(n)]
    edges = [
        (u, v)
        for (u, v) in combinations(range(n), 2)
        if part[u] != part[v] and rng.random() < p
    ]
    return n, edges


def random_cubic(rng: random.Random, n: int) -> Graph:
    """Simple 3-regular graph on n vertices (n even) by the pairing model,
    rejecting pairings with loops or repeated edges (10,000 tries)."""
    if n % 2 or n < 4:
        raise ValueError("cubic graphs need an even vertex count >= 4")
    for _ in range(10000):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        good = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                good = False
                break
            edges.add((min(u, v), max(u, v)))
        if good:
            return n, sorted(edges)
    raise RuntimeError(f"no simple cubic graph found on {n} vertices")


def planted_cubic_edge_colorable(rng: random.Random, n: int) -> Graph:
    """Cubic, simple, 3-edge-colorable graph: the union of three random
    perfect matchings, rejected if any two matchings share an edge
    (10,000 tries)."""
    if n % 2 or n < 4:
        raise ValueError("need an even vertex count >= 4")
    for _ in range(10000):
        edges = set()
        good = True
        for _m in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            for i in range(0, n, 2):
                u, v = sorted((perm[i], perm[i + 1]))
                if (u, v) in edges:
                    good = False
                    break
                edges.add((u, v))
            if not good:
                break
        if good:
            return n, sorted(edges)
    raise RuntimeError(f"no edge-colorable cubic graph found on {n} vertices")


def random_3cnf(rng: random.Random, nvars: int, nclauses: int) -> list[Clause]:
    """Random 3-CNF with three distinct variables per clause."""
    clauses = []
    for _ in range(nclauses):
        vs = rng.sample(range(1, nvars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses

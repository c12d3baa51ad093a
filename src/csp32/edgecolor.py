"""Exact 3-edge-coloring via splice reductions and the vertex pipeline.

A splice removes an unconstrained edge joining two degree-three vertices
together with its four neighbor edges, replacing them by two new edges
that must get different colors.  Splicing along a maximum matching of
spliceable edges halves the instance before the leftover is 3-colored as
a line graph (difference constraints become extra adjacencies).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .graphalg import general_matching
from .solver import NodeLimitReached
from .vertexcolor import ColorConfig, color_graph

Edge = tuple[int, int]


@dataclass
class EdgeInstance:
    """A 3-edge-coloring problem with difference constraints between edges.

    Edges are tracked by integer id so parallel edges stay distinct; a
    constraint is an unordered id pair whose edges must get different
    colors.  The trace records removals for lifting colorings back.
    """

    edges: dict[int, Edge] = field(default_factory=dict)
    constraints: set[frozenset] = field(default_factory=set)
    next_id: int = 0
    trace: list = field(default_factory=list)
    unsat: bool = False

    @classmethod
    def from_graph(cls, n: int, edges: list[Edge]) -> "EdgeInstance":
        ei = cls()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            ei.edges[ei.next_id] = (u, v)
            ei.next_id += 1
        return ei

    def copy(self) -> "EdgeInstance":
        return replace(
            self,
            edges=dict(self.edges),
            constraints=set(self.constraints),
            trace=list(self.trace),
        )

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges.values() if v in e)

    def incident(self, v: int) -> list[int]:
        return sorted(i for i, e in self.edges.items() if v in e)

    def neighbor_ids(self, eid: int) -> list[int]:
        u, v = self.edges[eid]
        return sorted(
            j
            for j, e in self.edges.items()
            if j != eid and (u in e or v in e)
        )

    def constrained(self, eid: int) -> bool:
        return any(eid in c for c in self.constraints)

    def vertex_count(self) -> int:
        return len({v for e in self.edges.values() for v in e})


@dataclass(frozen=True)
class StrippedEdge:
    eid: int
    neighbor_eids: tuple


@dataclass(frozen=True)
class SpliceStep:
    """Five edges replaced by two difference-constrained edges.

    Each new edge id maps to the two removed edges that share its color;
    the removed center edge takes the remaining third color.
    """

    center: int
    merged: tuple  # ((new_eid, (old_eid, old_eid)), (new_eid, (old_eid, old_eid)))


def strip_low_neighbor_edges(ei: EdgeInstance):
    """Remove edges with two or fewer neighbors; they always extend.

    Only valid while the instance is unconstrained.
    """
    assert not ei.constraints
    changed = True
    while changed:
        changed = False
        for eid in sorted(ei.edges):
            nbrs = ei.neighbor_ids(eid)
            if len(nbrs) <= 2:
                ei.trace.append(StrippedEdge(eid, tuple(nbrs)))
                del ei.edges[eid]
                changed = True


def splice_candidates(ei: EdgeInstance) -> list[int]:
    """Edge ids meeting every splice precondition right now."""
    out = []
    for eid in sorted(ei.edges):
        w, x = ei.edges[eid]
        if ei.constrained(eid):
            continue
        if ei.degree(w) != 3 or ei.degree(x) != 3:
            continue
        side_w = [j for j in ei.incident(w) if j != eid]
        side_x = [j for j in ei.incident(x) if j != eid]
        far = [
            (set(ei.edges[j]) - {w, x} or {w, x}).pop()
            for j in side_w + side_x
        ]
        # the four neighbor edges must leave the pair of spliced vertices
        if any(v in (w, x) for v in far):
            continue
        out.append(eid)
    return out


def splice(ei: EdgeInstance, eid: int) -> list[EdgeInstance]:
    """The two ways to pair the four neighbors of a spliced edge.

    A pairing whose new edge would be a self-loop is still emitted but
    marked unsatisfiable.
    """
    assert eid in splice_candidates(ei)
    w, x = ei.edges[eid]
    ew1, ew2 = (j for j in ei.incident(w) if j != eid)
    ex1, ex2 = (j for j in ei.incident(x) if j != eid)
    u = (set(ei.edges[ew1]) - {w}).pop()
    v = (set(ei.edges[ew2]) - {w}).pop()
    y = (set(ei.edges[ex1]) - {x}).pop()
    z = (set(ei.edges[ex2]) - {x}).pop()

    children = []
    for (a, ea), (b, eb) in (((y, ex1), (z, ex2)), ((z, ex2), (y, ex1))):
        child = ei.copy()
        for j in (eid, ew1, ew2, ex1, ex2):
            del child.edges[j]
        first = child.next_id
        second = child.next_id + 1
        child.next_id += 2
        child.edges[first] = (u, a)
        child.edges[second] = (v, b)
        # a removed neighbor's color lives on in its replacement, so
        # constraints naming it move to the replacement; a constraint
        # collapsing onto a single edge is unsatisfiable
        remap = {ew1: first, ea: first, ew2: second, eb: second}
        moved = set()
        for c in child.constraints:
            if c & remap.keys():
                c = frozenset(remap.get(j, j) for j in c)
                if len(c) == 1:
                    child.unsat = True
                    continue
            moved.add(c)
        child.constraints = moved
        child.constraints.add(frozenset((first, second)))
        child.trace.append(
            SpliceStep(eid, ((first, (ew1, ea)), (second, (ew2, eb))))
        )
        if u == a or v == b:
            child.unsat = True
        children.append(child)
    return children


def select_splices(ei: EdgeInstance) -> list[int]:
    """A maximum matching among edges with four neighbors.

    On a 3-edge-colorable instance the matching has at least a third of
    those edges, and matched splices are pairwise independent.
    """
    four = [
        eid for eid in sorted(ei.edges) if len(ei.neighbor_ids(eid)) == 4
    ]
    nodes = sorted({v for eid in four for v in ei.edges[eid]})
    chosen = general_matching(nodes, [ei.edges[eid] for eid in four])
    by_pair = {tuple(sorted(ei.edges[eid])): eid for eid in four}
    return sorted(by_pair[p] for p in chosen)


def charge_identity(ei: EdgeInstance) -> tuple[int, int, Optional[bool]]:
    """Neighbor-count split (m3, m4) and the count identity check.

    The identity m3 = 6n/5 - 4*m4/5 requires every edge to have exactly
    three or four neighbors; when some edge does not, the counts are
    still returned with check None.
    """
    counts = [len(ei.neighbor_ids(eid)) for eid in sorted(ei.edges)]
    m3 = sum(1 for c in counts if c == 3)
    m4 = sum(1 for c in counts if c == 4)
    if m3 + m4 != len(counts):
        return m3, m4, None
    n = ei.vertex_count()
    return m3, m4, 5 * m3 == 6 * n - 4 * m4


@dataclass
class EdgeColorStats:
    leaves: int = 0
    splices: int = 0
    skipped_splices: int = 0  # matched edges whose preconditions broke


def lift_edge_coloring(coloring: dict[int, int], trace: list) -> dict[int, int]:
    """Restore colors of spliced and stripped edges, most recent first."""
    out = dict(coloring)
    for step in reversed(trace):
        if isinstance(step, SpliceStep):
            (e1, (a1, a2)), (e2, (b1, b2)) = step.merged
            c1 = out.pop(e1)
            c2 = out.pop(e2)
            assert c1 != c2
            out[a1] = out[a2] = c1
            out[b1] = out[b2] = c2
            out[step.center] = 3 - c1 - c2
        else:
            used = {out[j] for j in step.neighbor_eids}
            free = sorted({0, 1, 2} - used)
            assert free
            out[step.eid] = free[0]
    return out


def _line_graph_solve(ei: EdgeInstance, config) -> Optional[dict[int, int]]:
    ids = sorted(ei.edges)
    index = {eid: i for i, eid in enumerate(ids)}
    lg_edges = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if set(ei.edges[a]) & set(ei.edges[b]):
                lg_edges.add((index[a], index[b]))
    for c in ei.constraints:
        a, b = sorted(c)
        lg_edges.add((index[a], index[b]))
    res = color_graph(len(ids), sorted(lg_edges), config)
    if res.colorable is None:
        raise NodeLimitReached
    if not res.colorable:
        return None
    return {eid: res.coloring[index[eid]] for eid in ids}


def _splice_search(
    ei: EdgeInstance, plan: list[int], stats: EdgeColorStats, config
) -> Optional[dict[int, int]]:
    if ei.unsat:
        return None
    for k, eid in enumerate(plan):
        if eid not in splice_candidates(ei):
            stats.skipped_splices += 1
            continue
        stats.splices += 1
        for child in splice(ei, eid):
            got = _splice_search(child, plan[k + 1:], stats, config)
            if got is not None:
                return got
        return None
    stats.leaves += 1
    colors = _line_graph_solve(ei, config)
    if colors is None:
        return None
    return lift_edge_coloring(colors, ei.trace)


def edge_color(
    n: int, edges: list[Edge], config: Optional[ColorConfig] = None
) -> tuple[Optional[dict[Edge, int]], EdgeColorStats]:
    """Proper 3-edge-coloring of a simple graph, or None when impossible.

    Raises NodeLimitReached when a line graph exceeds config's node limit.
    """
    stats = EdgeColorStats()
    ei = EdgeInstance.from_graph(n, edges)
    if any(ei.degree(v) > 3 for v in range(n)):
        return None, stats
    strip_low_neighbor_edges(ei)
    plan = select_splices(ei)
    colors = _splice_search(ei, plan, stats, config)
    if colors is None:
        return None, stats
    out = {tuple(edges[eid]): c for eid, c in colors.items()}
    for i, e in enumerate(edges):
        assert colors[i] in (0, 1, 2)
        for j, f in enumerate(edges):
            if i < j and set(e) & set(f):
                assert colors[i] != colors[j]
    return out, stats

"""Exact 3-edge-coloring via splice reductions and the vertex pipeline.

A splice removes an unconstrained edge joining two degree-three vertices
together with its four neighbor edges, replacing them by two new edges
that must get different colors.  Splicing along a maximum matching of
spliceable edges halves the instance before the leftover is 3-colored as
a line graph (difference constraints become extra adjacencies).

The splice search edits one EdgeInstance in place: a splice removes its
five edges once, builds each live pairing on the same instance only when
the search asks for it (the second after the first subtree fails) and
puts the instance back exactly once its pairings are spent.

The search refutes a pairing whose new edges close a K4 of conflicts
(a K4 needs four colors).  Testing the new edges is enough: only they
gain conflicts, and a simple subcubic graph has no such K4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Optional

from .graphalg import depth_first, general_matching
from .instance import lift
from .solver import SearchStats, SolverConfig
from .vertexcolor import color_graph

Edge = tuple[int, int]


@dataclass
class EdgeInstance:
    """A 3-edge-coloring problem with difference constraints between edges.

    Edges are tracked by integer id so parallel edges stay distinct; a
    constraint is an unordered id pair whose edges must get different
    colors, kept both ways in `partners`: each constrained edge maps to
    the frozenset of ids it must differ from, and an unconstrained edge
    has no entry.  `at` maps each vertex to the ascending ids of its
    edges; add_edge and remove_edge keep it matching `edges`.
    """

    edges: dict[int, Edge] = field(default_factory=dict)
    partners: dict[int, frozenset] = field(default_factory=dict)
    next_id: int = 0
    at: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @classmethod
    def from_graph(cls, n: int, edges: list[Edge]) -> "EdgeInstance":
        ei, seen = cls(), set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a vertex outside 0..{n - 1}")
            if frozenset((u, v)) in seen:
                raise ValueError(f"repeated edge ({u}, {v})")
            seen.add(frozenset((u, v)))
            ei.add_edge(u, v)
        return ei

    def add_edge(self, u: int, v: int) -> int:
        """Add edge (u, v) under the next id, which exceeds every id so
        far and so keeps each vertex's ids ascending."""
        eid = self.next_id
        self.next_id += 1
        self.edges[eid] = (u, v)
        for x in {u, v}:
            self.at[x] = self.at.get(x, ()) + (eid,)
        return eid

    def remove_edge(self, eid: int) -> None:
        for x in set(self.edges.pop(eid)):
            rest = tuple(j for j in self.at[x] if j != eid)
            if rest:
                self.at[x] = rest
            else:
                del self.at[x]

    def neighbor_ids(self, eid: int) -> list[int]:
        u, v = self.edges[eid]
        return sorted(set(self.at[u] + self.at[v]) - {eid})

    def constrained(self, eid: int) -> bool:
        return eid in self.partners


@dataclass(frozen=True)
class StrippedEdge:
    """An edge with at most two neighbors; it takes a color they leave."""

    eid: int
    neighbor_eids: tuple

    def lift(self, out: dict[int, int]):
        out[self.eid] = min({0, 1, 2} - {out[j] for j in self.neighbor_eids})


@dataclass(frozen=True)
class SpliceStep:
    """Five edges replaced by two difference-constrained edges.

    Each new edge id maps to the two removed edges that share its color;
    the removed center edge takes the remaining third color.
    """

    center: int
    merged: tuple  # ((new_eid, (old_eid, old_eid)), (new_eid, (old_eid, old_eid)))

    def lift(self, out: dict[int, int]):
        (e1, (a1, a2)), (e2, (b1, b2)) = self.merged
        c1, c2 = out.pop(e1), out.pop(e2)
        assert c1 != c2
        out[a1] = out[a2] = c1
        out[b1] = out[b2] = c2
        out[self.center] = 3 - c1 - c2


def strip_low_neighbor_edges(ei: EdgeInstance) -> list[StrippedEdge]:
    """Remove edges with two or fewer neighbors; they always extend.
    Returns the lift steps, in removal order.

    Only valid while the instance is unconstrained.
    """
    assert not ei.partners
    steps = []
    changed = True
    while changed:
        changed = False
        for eid in sorted(ei.edges):
            nbrs = ei.neighbor_ids(eid)
            if len(nbrs) <= 2:
                steps.append(StrippedEdge(eid, tuple(nbrs)))
                ei.remove_edge(eid)
                changed = True
    return steps


def spliceable(ei: EdgeInstance, eid: int) -> bool:
    """Whether edge eid exists and meets every splice precondition now."""
    if eid not in ei.edges:
        return False
    w, x = ei.edges[eid]
    at_w, at_x = ei.at[w], ei.at[x]
    # eid is the only edge at both ends (the two triples share only it),
    # so the four neighbor edges leave the pair of spliced vertices
    return (
        len(at_w) == len(at_x) == 3
        and len(set(at_w + at_x)) == 5
        and not ei.constrained(eid)
    )


def splice_candidates(ei: EdgeInstance) -> list[int]:
    """Edge ids meeting every splice precondition right now."""
    return [eid for eid in sorted(ei.edges) if spliceable(ei, eid)]


def splice(ei: EdgeInstance, eid: int) -> Iterator[SpliceStep]:
    """Edit ei into each live way to pair the four neighbors of spliced
    edge eid, yielding the step that lifts a coloring of that child back.

    A generator: while it waits at a yield, ei is that child; the next
    draw builds the next pairing in its place, and once the pairings are
    spent ei is as it was, down to `edges`, `at`, `partners` and
    `next_id`.  A pairing whose new edge would be a self-loop, or that
    collapses a constraint onto one edge, is dropped before any edit.
    The five edges go once; each pairing adds two edges under the same
    two ids and rewrites only the constraints that name a removed
    neighbor edge.
    """
    assert spliceable(ei, eid)
    edges, at, partners = ei.edges, ei.at, ei.partners
    w, x = edges[eid]
    ew1, ew2 = [j for j in at[w] if j != eid]
    ex1, ex2 = [j for j in at[x] if j != eid]
    # the far end of an edge is its endpoint sum less the near end
    u, v = sum(edges[ew1]) - w, sum(edges[ew2]) - w
    y, z = sum(edges[ex1]) - x, sum(edges[ex2]) - x
    # a removed neighbor's color lives on in its replacement, so a
    # constraint between two edges sharing a replacement collapses
    p1, p2 = partners.get(ew1, ()), partners.get(ew2, ())
    live = [
        ((a, ea), (b, eb))
        for (a, ea), (b, eb) in (((y, ex1), (z, ex2)), ((z, ex2), (y, ex1)))
        if u != a and v != b and ea not in p1 and eb not in p2
    ]
    if not live:
        return
    gone = (eid, ew1, ew2, ex1, ex2)
    saved_edges = [edges.pop(j) for j in gone]
    saved_at = {o: at.pop(o) for o in {w, x, u, v, y, z}}
    rest = {o: tuple([j for j in saved_at[o] if j not in gone]) for o in {u, v, y, z}}
    touched = {j: partners.pop(j) for j in gone[1:] if j in partners}
    outside = {q: partners[q] for qs in touched.values() for q in qs if q not in gone}
    first, second = ei.next_id, ei.next_id + 1
    ei.next_id += 2
    for (a, ea), (b, eb) in live:
        # both pairings write the same keys, so the second overwrites the first
        edges[first], edges[second] = (u, a), (v, b)
        at.update(rest)
        for o, j in ((u, first), (a, first), (v, second), (b, second)):
            at[o] += (j,)  # every first before every second keeps ids ascending
        remap = {ew1: first, ea: first, ew2: second, eb: second}
        for q, qs in outside.items():
            partners[q] = frozenset([remap.get(r, r) for r in qs])
        for new, olds, other in ((first, (ew1, ea), second), (second, (ew2, eb), first)):
            mates = {other}
            for j in olds:
                for r in touched.get(j, ()):
                    mates.add(remap.get(r, r))
            partners[new] = frozenset(mates)
        yield SpliceStep(eid, ((first, (ew1, ea)), (second, (ew2, eb))))
    del edges[first], edges[second], partners[first], partners[second]
    ei.next_id = first
    edges.update(zip(gone, saved_edges))
    at.update(saved_at)
    partners.update(touched)
    partners.update(outside)


def in_conflict_k4(ei: EdgeInstance, eid: int) -> bool:
    """Whether edge eid and three other edges all conflict pairwise; two
    edges conflict when they share an endpoint or must differ."""
    edges, at, partners = ei.edges, ei.at, ei.partners
    u, v = edges[eid]
    near = {*at[u], *at[v], *partners.get(eid, ())}
    near.discard(eid)
    seen = {}  # each edge of near so far -> its conflicts inside near
    for f in near:
        x, y = edges[f]
        mine = {*at[x], *at[y], *partners.get(f, ())}
        mine &= near
        mine.discard(f)
        # a triangle inside near completes the K4; it shows at its last edge
        for g in mine:
            if g in seen and not mine.isdisjoint(seen[g]):
                return True
        seen[f] = mine
    return False


def _refuted(ei: EdgeInstance, step: SpliceStep, stats: SearchStats) -> bool:
    """Whether a new edge of the pairing ei was just edited into lies in
    a K4 of conflicts, counting each pairing so refuted."""
    (first, _), (second, _) = step.merged
    dead = in_conflict_k4(ei, first) or in_conflict_k4(ei, second)
    stats.k4_refuted += dead
    return dead


def select_splices(ei: EdgeInstance) -> list[int]:
    """A maximum matching among edges with four neighbors, as edge ids.

    On a 3-edge-colorable instance the matching has at least a third of
    those edges, and matched splices are pairwise independent.  It is
    general_matching's maximum matching, whose tie-break among maximum
    matchings is fixed (networkx's, on sorted vertices and edges): the
    plan decides the splice search, so another maximum matching would
    change splice and leaf counts.
    """
    by_pair = {}  # the edges with four neighbors, by sorted endpoints
    for eid in sorted(ei.edges):
        u, v = ei.edges[eid]
        if len(set(ei.at[u] + ei.at[v])) == 5:  # eid and its four neighbors
            by_pair[(u, v) if u < v else (v, u)] = eid
    nodes = sorted({v for p in by_pair for v in p})
    chosen = general_matching(nodes, list(by_pair))
    return sorted(by_pair[p] for p in chosen)


def proper_edge_coloring(edges: list[Edge], colors: list) -> bool:
    """Whether colors[i], the color of edges[i], is in 0..2 for every i
    and no vertex sees a color twice."""
    ends = [(x, c) for e, c in zip(edges, colors) for x in e]
    return all(c in (0, 1, 2) for c in colors) and len(set(ends)) == len(ends)


def _line_graph_solve(
    ei: EdgeInstance, cfg: SolverConfig, stats: SearchStats
) -> Optional[dict[int, int]]:
    ids = sorted(ei.edges)
    index = {eid: i for i, eid in enumerate(ids)}
    # ids at a vertex ascend, so each pair comes out as (lower, higher)
    lg_edges = {
        (index[a], index[b])
        for at_v in ei.at.values()
        for a, b in combinations(at_v, 2)
    }
    for a, bs in ei.partners.items():
        lg_edges.update((index[a], index[b]) for b in bs if a < b)
    res = color_graph(len(ids), sorted(lg_edges), cfg.charge(stats))
    stats.absorb(res.stats)
    cfg.charge(stats)  # raises when the nested coloring ran out
    if not res.colorable:
        return None
    return {eid: res.coloring[index[eid]] for eid in ids}


def _expand(
    ei: EdgeInstance, plan: list[int], cfg: SolverConfig, stats: SearchStats, state: tuple
):
    """One splice node; a state is the plan index to go on from and its
    lift path from the input, and ei is edited in place into the state's
    instance by the splices above it."""
    start, path = state
    for k in range(start, len(plan)):
        if spliceable(ei, plan[k]):
            stats.splices += 1
            cfg.charge(stats)
            steps = splice(ei, plan[k])
            return None, ((k + 1, path + [s]) for s in steps if not _refuted(ei, s, stats))
        stats.skipped_splices += 1
    stats.leaves += 1
    colors = _line_graph_solve(ei, cfg, stats)
    return (None if colors is None else lift(colors, path)), ()


def edge_color(
    n: int, edges: list[Edge], config: Optional[SolverConfig] = None
) -> tuple[Optional[dict[Edge, int]], SearchStats]:
    """Proper 3-edge-coloring of a simple graph, or None when impossible.
    A self-loop, a repeated edge or a vertex outside range(n) raises ValueError.

    config's node limit counts splices and every line-graph node;
    NodeLimitReached, carrying the stats, is raised when it runs out.
    """
    cfg = config or SolverConfig()
    stats = SearchStats()
    ei = EdgeInstance.from_graph(n, edges)
    if any(len(ids) > 3 for ids in ei.at.values()):
        return None, stats
    steps = strip_low_neighbor_edges(ei)
    plan = select_splices(ei)
    colors = depth_first((0, steps), lambda state: _expand(ei, plan, cfg, stats, state))
    if colors is None:
        return None, stats
    if not proper_edge_coloring(edges, [colors.get(i) for i in range(len(edges))]):
        raise RuntimeError("edge coloring failed verification against the graph")
    return {tuple(edges[eid]): c for eid, c in colors.items()}, stats

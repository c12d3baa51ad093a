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

Sets of edges are int masks, bit i for edge i (Lecoutre & Vion, CP
Letters 2, 2008): the K4 test of an edge with d conflicts is O(d^2) ANDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .graphalg import Adjacency, adjacency, depth_first, general_matching
from .instance import bits, lift
from .solver import SearchStats, SolverConfig
from .vertexcolor import color_graph, strip_low_degree

Edge = tuple[int, int]


@dataclass
class EdgeInstance:
    """A 3-edge-coloring problem with difference constraints between edges.

    Edges are tracked by integer id so parallel edges stay distinct, and
    sets of edges are int masks with bit i for edge i.  A constraint is
    an unordered id pair whose edges must get different colors, kept
    both ways in `partners`: each constrained edge maps to the mask of
    the ids it must differ from, and an unconstrained edge has no entry.
    `at` maps each vertex to the mask of its edges; add_edge and
    remove_edge keep it matching `edges`.  No vertex has more than three
    edges: edge_color rejects the input otherwise, and a splice keeps
    every degree.
    """

    edges: dict[int, Edge] = field(default_factory=dict)
    partners: dict[int, int] = field(default_factory=dict)
    next_id: int = 0
    at: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_graph(cls, n: int, edges: list[Edge]) -> "EdgeInstance":
        adjacency(n, edges)  # rejects a self-loop or a vertex outside 0..n-1
        ei, seen = cls(), set()
        for u, v in edges:
            if frozenset((u, v)) in seen:
                raise ValueError(f"repeated edge ({u}, {v})")
            seen.add(frozenset((u, v)))
            ei.add_edge(u, v)
        return ei

    def add_edge(self, u: int, v: int) -> int:
        """Add edge (u, v) under the next id, which exceeds every id so far."""
        eid = self.next_id
        self.next_id += 1
        self.edges[eid] = (u, v)
        for x in (u, v):
            self.at[x] = self.at.get(x, 0) | 1 << eid
        return eid

    def remove_edge(self, eid: int) -> None:
        for x in self.edges.pop(eid):
            rest = self.at[x] & ~(1 << eid)
            if rest:
                self.at[x] = rest
            else:
                del self.at[x]

    def conflicts(self, eid: int) -> int:
        """The mask of the edges that share an endpoint with eid or must
        differ from it: eid's neighbors in the conflict graph the leaf colors."""
        u, v = self.edges[eid]
        return (self.at[u] | self.at[v] | self.partners.get(eid, 0)) & ~(1 << eid)


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


def conflict_graph(ei: EdgeInstance) -> Adjacency:
    """The conflict graph on the edge ids: each edge is adjacent to its conflicts."""
    return {eid: set(bits(ei.conflicts(eid))) for eid in ei.edges}


def strip_low_neighbor_edges(ei: EdgeInstance) -> list:
    """Remove edges with two or fewer conflicts, as strip_low_degree
    does on the conflict graph; they always extend.  Returns the lift
    steps, in removal order."""
    steps: list = []
    # the conflict graph costs more than this scan, and a cubic input strips nothing
    if any(ei.conflicts(eid).bit_count() <= 2 for eid in ei.edges):
        strip_low_degree(conflict_graph(ei), steps)
    for step in steps:
        ei.remove_edge(step.vertex)
    return steps


def spliceable(ei: EdgeInstance, eid: int) -> bool:
    """Whether edge eid exists and meets every splice precondition now."""
    # unconstrained, eid has four conflicts only when both ends have
    # degree three and share no other edge, so the four neighbor edges
    # leave the pair of spliced vertices
    return eid in ei.edges and eid not in ei.partners and ei.conflicts(eid).bit_count() == 4


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
    ew1, ew2 = bits(at[w] & ~(1 << eid))
    ex1, ex2 = bits(at[x] & ~(1 << eid))
    # the far end of an edge is its endpoint sum less the near end
    u, v = sum(edges[ew1]) - w, sum(edges[ew2]) - w
    y, z = sum(edges[ex1]) - x, sum(edges[ex2]) - x
    # a removed neighbor's color lives on in its replacement, so a
    # constraint between two edges sharing a replacement collapses
    p1, p2 = partners.get(ew1, 0), partners.get(ew2, 0)
    live = [
        ((a, ea), (b, eb))
        for (a, ea), (b, eb) in (((y, ex1), (z, ex2)), ((z, ex2), (y, ex1)))
        if u != a and v != b and not (p1 >> ea & 1 or p2 >> eb & 1)
    ]
    if not live:
        return
    hit = p1 | p2 | partners.get(ex1, 0) | partners.get(ex2, 0)
    gone_ids = (eid, ew1, ew2, ex1, ex2)
    nbrs = 1 << ew1 | 1 << ew2 | 1 << ex1 | 1 << ex2
    gone = nbrs | 1 << eid
    saved_edges = [edges.pop(j) for j in gone_ids]
    saved_at = {o: at.pop(o) for o in {w, x, u, v, y, z}}
    rest = {o: saved_at[o] & ~gone for o in {u, v, y, z}}
    touched = {j: partners.pop(j) for j in gone_ids[1:] if j in partners}
    get = touched.get
    outside = {q: partners[q] for q in bits(hit & ~gone)}
    first, second = ei.next_id, ei.next_id + 1
    fb, sb = 1 << first, 1 << second
    ei.next_id += 2
    for (a, ea), (b, eb) in live:
        # both pairings write the same keys, so the second overwrites the first
        edges[first], edges[second] = (u, a), (v, b)
        at.update(rest)
        for o, j in ((u, fb), (a, fb), (v, sb), (b, sb)):
            at[o] |= j
        to_first, to_second = 1 << ew1 | 1 << ea, 1 << ew2 | 1 << eb
        mates = ((first, sb | get(ew1, 0) | get(ea, 0)), (second, fb | get(ew2, 0) | get(eb, 0)))
        for q, qs in (*outside.items(), *mates):
            # each removed neighbor edge gives way to its new edge
            partners[q] = qs & ~nbrs | (fb if qs & to_first else 0) | (sb if qs & to_second else 0)
        yield SpliceStep(eid, ((first, (ew1, ea)), (second, (ew2, eb))))
    del edges[first], edges[second], partners[first], partners[second]
    ei.next_id = first
    edges.update(zip(gone_ids, saved_edges))
    at.update(saved_at)
    partners.update(touched)
    partners.update(outside)


def in_conflict_k4(ei: EdgeInstance, eid: int) -> bool:
    """Whether edge eid and three other edges all conflict pairwise; two
    edges conflict when they share an endpoint or must differ."""
    edges, at, partners = ei.edges, ei.at, ei.partners
    near = ei.conflicts(eid)
    seen = 0  # the edges of near so far
    prior = {}  # each edge of near so far -> its conflicts among the earlier ones
    for f in bits(near):
        u, v = edges[f]
        # ei.conflicts(f) inlined (& seen clears f): 1.25-1.3x faster per call
        earlier = (at[u] | at[v] | partners.get(f, 0)) & seen
        # a triangle inside near completes the K4; it shows at its last
        # edge f, as two conflicting edges among f's earlier conflicts
        if earlier & (earlier - 1):
            for g in bits(earlier):
                if prior[g] & earlier:
                    return True
        prior[f] = earlier
        seen |= 1 << f
    return False


def _refuted(ei: EdgeInstance, step: SpliceStep, stats: SearchStats) -> bool:
    """Whether a new edge of the pairing ei was just edited into lies in
    a K4 of conflicts, counting each pairing so refuted."""
    (first, _), (second, _) = step.merged
    dead = in_conflict_k4(ei, first) or in_conflict_k4(ei, second)
    stats.k4_refuted += dead
    return dead


def select_splices(ei: EdgeInstance) -> list[int]:
    """A maximum matching among the splice candidates, as edge ids.

    On a 3-edge-colorable instance the matching has at least a third of
    those edges, and matched splices are pairwise independent.  The plan
    is whichever maximum matching general_matching returns, the same one
    for the same instance; splice and leaf counts follow it.
    """
    by_pair = {}  # the candidates by sorted endpoints
    for eid in splice_candidates(ei):
        u, v = ei.edges[eid]
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
    index = {eid: i for i, eid in enumerate(ids)}  # keeps the order of ids
    lg_edges = sorted((index[a], index[b]) for a in ids for b in bits(ei.conflicts(a)) if a < b)
    res = color_graph(len(ids), lg_edges, cfg.nested(stats))
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
    if any(ids.bit_count() > 3 for ids in ei.at.values()):
        return None, stats
    steps = strip_low_neighbor_edges(ei)
    plan = select_splices(ei)
    colors = depth_first((0, steps), lambda state: _expand(ei, plan, cfg, stats, state))
    if colors is None:
        return None, stats
    if not proper_edge_coloring(edges, [colors.get(i) for i in range(len(edges))]):
        raise RuntimeError("edge coloring failed verification against the graph")
    return {tuple(edges[eid]): c for eid, c in colors.items()}, stats

"""Exact 3-edge-coloring via splice reductions and the vertex pipeline.

edge_root builds the conflict graph on the edge ids from the edge list
and strips edges with two or fewer conflicts.  Even, Itai & Shamir's
commit loop (vertexcolor.commit_coloring, two-color edges first, then
the most conflicts, going back over its two-color commits within a
budget of one forward check per edge) runs once, at the root, all three
colors at every edge: a coloring or a refutation it reaches decides the
call, charged as the one-node line-graph leaf it replaces.  Only a root
on which the budget runs out goes on to the loop-free splice search.

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
from typing import Iterable, Iterator, Optional

from .graphalg import Adjacency, adjacency, depth_first, general_matching
from .instance import bits, lift
from .solver import SearchStats, SolverConfig
from .vertexcolor import color_graph, commit_coloring, strip_low_degree

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
    edges: edge_color returns None on such input before from_graph, which
    trusts its input, and a splice keeps every degree.
    """

    edges: dict[int, Edge] = field(default_factory=dict)
    partners: dict[int, int] = field(default_factory=dict)
    next_id: int = 0
    at: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_graph(cls, edges: list[Edge]) -> "EdgeInstance":
        ei = cls()
        for u, v in edges:
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


@dataclass(frozen=True, slots=True)
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


def edge_root(n: int, edges: list[Edge]) -> Optional[tuple[Adjacency, list]]:
    """The conflict graph on edge ids (edge i is id i), stripped, and its lift
    steps; None when a vertex has four edges or more.  Raises as edge_color does."""
    g = adjacency(n, edges)  # rejects a self-loop or a vertex outside 0..n-1
    if sum(map(len, g.values())) != 2 * len(edges):  # a neighbor set holds a repeat once
        first: dict = {}  # each edge's first index; only now, to name the first repeat
        u, v = next(e for i, e in enumerate(edges) if first.setdefault(frozenset(e), i) != i)
        raise ValueError(f"repeated edge ({u}, {v})")
    if any(len(ns) > 3 for ns in g.values()):
        return None
    inc: list[list[int]] = [[] for _ in range(n)]  # each vertex's edge ids
    for eid, (u, v) in enumerate(edges):
        inc[u].append(eid)
        inc[v].append(eid)
    lg: Adjacency = {eid: {*inc[u], *inc[v]} for eid, (u, v) in enumerate(edges)}
    for eid, near in lg.items():
        near.discard(eid)
    strip_low_degree(lg, steps := [])
    return lg, steps


def spliceable(ei: EdgeInstance, eid: int) -> bool:
    """Whether edge eid exists and meets every splice precondition now."""
    # unconstrained, eid has four conflicts (five edges at its ends) only
    # when both ends have degree three and share no other edge, so the four
    # neighbor edges leave the pair of spliced vertices
    if eid not in ei.edges or eid in ei.partners:
        return False
    u, v = ei.edges[eid]
    return (ei.at[u] | ei.at[v]).bit_count() == 5


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
    # each end keeps two other edges: the low and the high bit of its mask
    ws, xs = at[w] & ~(1 << eid), at[x] & ~(1 << eid)
    ew1, ew2 = (ws & -ws).bit_length() - 1, ws.bit_length() - 1
    ex1, ex2 = (xs & -xs).bit_length() - 1, xs.bit_length() - 1
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
    # w and x lose every edge, u, v, y and z keep the rest of theirs; a
    # vertex named twice saves and rewrites the same mask twice
    saved_at = [(o, at[o]) for o in (w, x, u, v, y, z)]
    rest = [(o, m & ~gone) for o, m in saved_at[2:]]
    del at[w], at[x]
    touched = {j: partners.pop(j) for j in gone_ids[1:] if j in partners}
    get = touched.get
    outside = []  # the constraints of other edges that name a removed neighbor
    rim = hit & ~gone
    while rim:
        low = rim & -rim
        rim ^= low
        q = low.bit_length() - 1
        outside.append((q, partners[q]))
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
        for q, qs in (*outside, *mates):
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
    u, v = edges[eid]
    near = (at[u] | at[v] | partners.get(eid, 0)) & ~(1 << eid)
    seen = 0  # the edges of near so far
    prior = {}  # the bit of each edge of near so far -> its conflicts among the earlier ones
    # run on both new edges of every pairing, so it walks the masks a lowest
    # bit at a time and keys prior by bit, building no id list; `& seen`
    # clears the edge's own bit from its conflicts
    while near:
        low = near & -near
        near ^= low
        f = low.bit_length() - 1
        u, v = edges[f]
        earlier = (at[u] | at[v] | partners.get(f, 0)) & seen
        # a triangle inside near completes the K4; it shows at its last
        # edge f, as two conflicting edges among f's earlier conflicts
        # (the lowest of those has no earlier conflict among them)
        rest = earlier & (earlier - 1)
        while rest:
            g = rest & -rest
            if prior[g] & earlier:
                return True
            rest ^= g
        prior[low] = earlier
        seen |= low
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


def _line_graph_solve(ei: EdgeInstance, cfg: SolverConfig, stats: SearchStats):
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


def _splice_search(edges: list[Edge], steps: list, cfg: SolverConfig, stats: SearchStats):
    """The splice search from edge_root's stripped root and its lift steps."""
    ei = EdgeInstance.from_graph(edges)
    for step in steps:
        ei.remove_edge(step.vertex)
    plan = select_splices(ei)
    return depth_first((0, steps), lambda state: _expand(ei, plan, cfg, stats, state))


def edge_color(
    n: int, edges: Iterable[Edge], config: Optional[SolverConfig] = None
) -> tuple[Optional[dict[Edge, int]], SearchStats]:
    """Proper 3-edge-coloring of a simple graph, or None when impossible.
    A self-loop, a repeated edge, a vertex outside range(n) or a negative
    n raises ValueError.

    config's node limit counts splices and every line-graph node, a
    root the commit loop colors or refutes as one; NodeLimitReached,
    carrying the stats, is raised when it runs out.
    """
    cfg = config or SolverConfig()
    stats = SearchStats()
    edges = list(edges)  # an iterator would be spent before the final check
    if (root := edge_root(n, edges)) is None:
        return None, stats
    g, steps = root
    if (colors := commit_coloring(g, steps)) is None:
        colors = _splice_search(edges, steps, cfg, stats)
    else:  # colored or refuted outright, charged as the one-node leaf it replaces
        stats.nodes += 1
        stats.leaves += 1
        cfg.charge(stats)
    if colors is None or colors is False:
        return None, stats
    if not proper_edge_coloring(edges, [colors.get(i) for i in range(len(edges))]):
        raise RuntimeError("edge coloring failed verification against the graph")
    return {tuple(edges[eid]): c for eid, c in colors.items()}, stats

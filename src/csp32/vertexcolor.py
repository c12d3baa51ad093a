"""Exact graph 3-coloring built on top of the binary CSP solver.

The pipeline strips low-degree vertices, branches away cycles and large
trees of degree-three vertices, grows a bushy forest plus a height-two
forest over what is left, enumerates proper colorings of the forest
interiors, and hands each residue to the CSP solver as a list-coloring
instance.  Every success is lifted back to a proper coloring of the
original graph and verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .graphalg import FlowNetwork, max_flow
from .solver import NodeLimitReached, SearchStats, SolverConfig, solve
from .transform import coloring_to_csp

Coloring = dict[int, int]


class MultiGraph:
    """Undirected simple graph supporting vertex merges with lift bookkeeping.

    Each current vertex carries the tuple of original vertices merged into
    it.  Merging two adjacent vertices is refused (their originals would
    need equal colors across an edge).
    """

    __slots__ = ("adj", "members")

    def __init__(self):
        self.adj: dict[int, set[int]] = {}
        self.members: dict[int, tuple[int, ...]] = {}

    @classmethod
    def from_edges(cls, n: int, edges) -> "MultiGraph":
        g = cls()
        for v in range(n):
            g.adj[v] = set()
            g.members[v] = (v,)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            g.adj[u].add(v)
            g.adj[v].add(u)
        return g

    def copy(self) -> "MultiGraph":
        g = MultiGraph()
        g.adj = {v: set(ns) for v, ns in self.adj.items()}
        g.members = dict(self.members)
        return g

    def vertices(self) -> list[int]:
        return sorted(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def rep(self, v: int) -> int:
        return self.members[v][0]

    def add_edge(self, u: int, v: int) -> bool:
        """Add an edge; False signals a self-loop (an impossible demand)."""
        if u == v:
            return False
        self.adj[u].add(v)
        self.adj[v].add(u)
        return True

    def remove_vertex(self, v: int):
        for u in self.adj.pop(v):
            self.adj[u].discard(v)
        del self.members[v]

    def merge(self, u: int, v: int) -> bool:
        """Merge v into u; False if they are adjacent (branch is impossible)."""
        if u == v:
            return True
        if v in self.adj[u]:
            return False
        self.members[u] = self.members[u] + self.members[v]
        for w in self.adj.pop(v):
            self.adj[w].discard(v)
            if w != u:
                self.adj[w].add(u)
                self.adj[u].add(w)
        del self.members[v]
        return True


@dataclass(frozen=True)
class GreedyColored:
    """A vertex removed while at most two distinctly colored neighbors remain.

    Lifting assigns all merged originals the smallest color unused by the
    recorded neighbor representatives.
    """

    members: tuple
    neighbor_reps: tuple


@dataclass(frozen=True)
class CycleColored:
    """A deleted chordless cycle of degree-three vertices.

    Entries hold, in cycle order, each cycle vertex's merged originals and
    a representative of its single outside neighbor.  Lifting recolors the
    cycle from the outside colors: either all outside colors agree and the
    (necessarily even) cycle alternates the other two colors, or coloring
    starts after a differing adjacent pair and proceeds greedily around.
    """

    entries: tuple


def lift_graph_coloring(coloring: Coloring, steps: list) -> Coloring:
    """Extend a coloring of the residue to the removed vertices."""
    out = dict(coloring)
    for step in reversed(steps):
        if isinstance(step, GreedyColored):
            used = {out[r] for r in step.neighbor_reps}
            free = sorted({0, 1, 2} - used)
            assert free, "removed vertex has three distinctly colored neighbors"
            for m in step.members:
                out[m] = free[0]
        else:
            _lift_cycle(out, step)
    return out


def _lift_cycle(out: Coloring, step: CycleColored):
    k = len(step.entries)
    wcols = [out[w] for _, w in step.entries]
    start = next((i for i in range(k) if wcols[i] != wcols[(i + 1) % k]), None)
    if start is None:
        # all outside neighbors share a color: alternate the other two
        assert k % 2 == 0, "odd cycle with identically colored neighbors"
        a, b = sorted({0, 1, 2} - {wcols[0]})
        for i, (mem, _) in enumerate(step.entries):
            for m in mem:
                out[m] = a if i % 2 == 0 else b
        return
    # color v[start+1] like w[start], then continue around the cycle
    cols: dict[int, int] = {(start + 1) % k: wcols[start]}
    for off in range(2, k + 1):
        i = (start + off) % k
        used = {wcols[i]}
        for j in ((i - 1) % k, (i + 1) % k):
            if j in cols:
                used.add(cols[j])
        free = sorted({0, 1, 2} - used)
        assert free, "cycle lift ran out of colors"
        cols[i] = free[0]
    for i, (mem, _) in enumerate(step.entries):
        for m in mem:
            out[m] = cols[i]


def _remove_greedy(g: MultiGraph, steps: list, v: int):
    reps = tuple(g.rep(u) for u in sorted(g.adj[v]))
    steps.append(GreedyColored(g.members[v], reps))
    g.remove_vertex(v)


def strip_low_degree(g: MultiGraph, steps: list):
    """Remove degree <= 2 vertices until none remain, recording lift steps."""
    queue = sorted(v for v in g.adj if g.degree(v) <= 2)
    while queue:
        v = queue.pop()
        if v not in g.adj or g.degree(v) > 2:
            continue
        affected = sorted(g.adj[v])
        _remove_greedy(g, steps, v)
        queue.extend(u for u in affected if g.degree(u) <= 2)


def _degree3_subgraph(g: MultiGraph) -> dict[int, set[int]]:
    low = {v for v in g.adj if g.degree(v) == 3}
    return {v: g.adj[v] & low for v in low}


def find_degree3_cycle(g: MultiGraph) -> Optional[list[int]]:
    """A shortest (hence chordless) cycle of degree-three vertices."""
    sub = _degree3_subgraph(g)
    best: Optional[list[int]] = None
    edges = sorted({tuple(sorted((u, v))) for u in sub for v in sub[u]})
    for u, v in edges:
        # shortest u-v path avoiding this edge closes a shortest cycle on it
        parent: dict[int, Optional[int]] = {u: None}
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


def _delete_cycle(g: MultiGraph, steps: list, cyc: list[int]):
    """Record lift data for a cycle (reading each vertex's current single
    outside neighbor) and remove its vertices."""
    cyc_set = set(cyc)
    entries = []
    for v in cyc:
        others = g.adj[v] - cyc_set
        assert len(others) == 1
        entries.append((g.members[v], g.rep(min(others))))
    steps.append(CycleColored(tuple(entries)))
    for v in cyc:
        g.remove_vertex(v)


def branch_degree3_cycle(g: MultiGraph) -> Optional[list[tuple[MultiGraph, list]]]:
    """Branch set eliminating one cycle of degree-three vertices, if any.

    Returns None when no such cycle exists and an empty list when the
    cycle proves the graph uncolorable.
    """
    cyc = find_degree3_cycle(g)
    if cyc is None:
        return None
    k = len(cyc)
    outs = []
    for i, v in enumerate(cyc):
        others = g.adj[v] - {cyc[i - 1], cyc[(i + 1) % k]}
        assert len(others) == 1
        outs.append(min(others))

    adjacent_pair = any(
        outs[i] != outs[(i + 1) % k] and outs[(i + 1) % k] in g.adj[outs[i]]
        for i in range(k)
    )
    if k % 2 == 0 or adjacent_pair:
        child = g.copy()
        steps: list = []
        _delete_cycle(child, steps, cyc)
        return [(child, steps)]

    if k == 3:
        if outs[0] == outs[1] == outs[2]:
            return []  # one vertex adjacent to a triangle needing all colors
        # rotate so the first two outside neighbors are distinct
        while outs[0] == outs[1]:
            cyc = cyc[1:] + cyc[:1]
            outs = outs[1:] + outs[:1]
        children = []
        a = g.copy()
        a_steps: list = []
        a.add_edge(outs[0], outs[1])
        _delete_cycle(a, a_steps, cyc)
        children.append((a, a_steps))
        b = g.copy()
        b_steps = []
        ok = b.merge(outs[0], outs[1]) and b.merge(outs[0], cyc[2])
        if ok:
            _remove_greedy(b, b_steps, cyc[0])
            _remove_greedy(b, b_steps, cyc[1])
            children.append((b, b_steps))
        return children

    # odd cycle of length five or more: three ways the first three outside
    # neighbors can relate (first two differ / first two equal, third
    # differs / all three equal)
    children = []
    if outs[0] != outs[1]:
        a = g.copy()
        a_steps = []
        a.add_edge(outs[0], outs[1])
        _delete_cycle(a, a_steps, cyc)
        children.append((a, a_steps))
    b = g.copy()
    b_steps = []
    ok = b.merge(outs[0], outs[1])
    if ok:
        third = outs[2] if outs[2] in b.adj else outs[0]
        ok = b.add_edge(outs[0], third)
    if ok:
        _delete_cycle(b, b_steps, cyc)
        children.append((b, b_steps))
    c = g.copy()
    c_steps = []
    ok = c.merge(outs[0], outs[1])
    if ok:
        third = outs[2] if outs[2] in c.adj else outs[0]
        ok = c.merge(outs[0], third) and c.merge(cyc[0], cyc[2])
    if ok:
        _remove_greedy(c, c_steps, cyc[1])
        children.append((c, c_steps))
    return children


def _degree3_components(g: MultiGraph) -> list[list[int]]:
    sub = _degree3_subgraph(g)
    seen: set[int] = set()
    comps = []
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
    return comps


def branch_degree3_tree(g: MultiGraph) -> Optional[list[tuple[MultiGraph, list]]]:
    """Branch set shrinking a tree of eight or more degree-three vertices."""
    sub = _degree3_subgraph(g)
    comp = next((c for c in _degree3_components(g) if len(c) >= 8), None)
    if comp is None:
        return None
    comp_set = set(comp)
    centroid = min(
        comp, key=lambda v: (max(
            (len(t) for t in _subtrees(sub, comp_set, v)), default=0), v)
    )
    k = len(comp)
    assert max(
        (len(t) for t in _subtrees(sub, comp_set, centroid)), default=0
    ) <= k // 2

    nbrs = sorted(g.adj[centroid])
    assert len(nbrs) == 3
    children = []
    for third in nbrs:
        a, b = (u for u in nbrs if u != third)
        child = g.copy()
        steps: list = []
        if not child.merge(a, b):
            continue
        _remove_greedy(child, steps, centroid)
        if third in comp_set:
            for v in _subtree_order(sub, comp_set, centroid, third):
                if v in child.adj:
                    _remove_greedy(child, steps, v)
        children.append((child, steps))
    return children


def _subtrees(sub, comp_set, v) -> list[list[int]]:
    return [
        _subtree_order(sub, comp_set, v, u)
        for u in sorted(sub[v])
        if u in comp_set
    ]


def _subtree_order(sub, comp_set, banned, root) -> list[int]:
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


@dataclass
class BushyForest:
    """Rooted forest whose internal nodes all have tree-degree four or more."""

    roots: list[int] = field(default_factory=list)
    parent: dict[int, int] = field(default_factory=dict)
    children: dict[int, tuple] = field(default_factory=dict)
    internal: set[int] = field(default_factory=set)
    leaves: set[int] = field(default_factory=set)

    @property
    def vertices(self) -> set[int]:
        return self.internal | self.leaves


def build_bushy_forest(g: MultiGraph) -> BushyForest:
    """Grow a maximal bushy forest greedily and assert its maximality."""
    f = BushyForest()
    changed = True
    while changed:
        changed = False
        for v in g.vertices():
            if v in f.internal or v in f.leaves:
                continue
            outside = sorted(u for u in g.adj[v] if u not in f.vertices)
            if len(outside) >= 4:
                f.roots.append(v)
                f.internal.add(v)
                f.children[v] = tuple(outside)
                for u in outside:
                    f.parent[u] = v
                    f.leaves.add(u)
                changed = True
        for v in sorted(f.leaves):
            outside = sorted(u for u in g.adj[v] if u not in f.vertices)
            if len(outside) >= 3:
                f.leaves.discard(v)
                f.internal.add(v)
                f.children[v] = tuple(outside)
                for u in outside:
                    f.parent[u] = v
                    f.leaves.add(u)
                changed = True
    verts = f.vertices
    for v in f.internal:
        assert g.adj[v] <= verts
    for v in f.leaves:
        assert len([u for u in g.adj[v] if u not in verts]) <= 2
    for v in g.adj:
        if v not in verts:
            assert len([u for u in g.adj[v] if u not in verts]) <= 3
    return f


@dataclass
class HeightTwoTree:
    root: int
    children: tuple
    grands: dict  # child -> tuple of grandchildren
    high: bool  # contains a vertex of degree >= 4 in the ambient graph

    @property
    def grand_count(self) -> int:
        return sum(len(v) for v in self.grands.values())


def build_height_two_forest(
    g: MultiGraph, f: BushyForest
) -> tuple[list[HeightTwoTree], set[int], set[int]]:
    """Cover the graph outside the bushy forest by short trees.

    Returns the trees plus the split of the remaining outside vertices
    into X (adjacent to the forest) and Y (assigned to trees by flow).
    """
    outside = set(g.adj) - f.vertices
    out_adj = {v: sorted(g.adj[v] & outside) for v in outside}
    assert all(len(ns) <= 3 for ns in out_adj.values())

    used: set[int] = set()
    packs: list[tuple[int, tuple]] = []
    changed = True
    while changed:
        changed = False
        for v in sorted(outside - used):
            free = [u for u in out_adj[v] if u not in used]
            if len(free) >= 3:
                packs.append((v, tuple(free[:3])))
                used.update((v, *free[:3]))
                changed = True
    # improvement pass: replace one packed star by two disjoint ones
    improved = True
    while improved:
        improved = False
        for idx, (c, ls) in enumerate(packs):
            avail = (outside - used) | {c, *ls}
            two = _two_disjoint_stars(out_adj, avail)
            if two is not None:
                used.difference_update((c, *ls))
                packs.pop(idx)
                for c2, ls2 in two:
                    packs.append((c2, ls2))
                    used.update((c2, *ls2))
                improved = True
                break

    in_pack = set(used)
    x_set = {
        v for v in outside - in_pack if any(u in f.vertices for u in g.adj[v])
    }
    y_set = outside - in_pack - x_set

    trees = {
        c: HeightTwoTree(
            root=c,
            children=ls,
            grands={u: () for u in ls},
            high=any(g.degree(v) >= 4 for v in (c, *ls)),
        )
        for c, ls in sorted(packs)
    }
    leaf_tree = {u: c for c, ls in packs for u in ls}

    net = FlowNetwork(source="s", sink="t")
    for c, tree in trees.items():
        net.add_arc("s", ("tree", c), 5 if tree.high else 3)
    for y in sorted(y_set):
        assert g.degree(y) == 3
        owners = sorted({leaf_tree[u] for u in g.adj[y] if u in leaf_tree})
        assert owners, "uncovered vertex with no packed neighbor"
        for c in owners:
            net.add_arc(("tree", c), ("v", y), 1)
        net.add_arc(("v", y), "t", 1)
    value, flow = max_flow(net)
    assert value == len(y_set), "flow failed to cover all outside vertices"

    for y in sorted(y_set):
        c = next(
            c
            for c in trees
            if flow.get((("tree", c), ("v", y)), 0) == 1
        )
        tree = trees[c]
        leaf = min(u for u in g.adj[y] if leaf_tree.get(u) == c)
        tree.grands[leaf] = tree.grands[leaf] + (y,)

    out = [trees[c] for c in sorted(trees)]
    for tree in out:
        assert tree.grand_count <= (5 if tree.high else 3)
        assert all(len(v) <= 2 for v in tree.grands.values())
    return out, x_set, y_set


def _two_disjoint_stars(out_adj, avail: set[int]):
    """Two vertex-disjoint claws within avail, or None."""
    centers = [
        v
        for v in sorted(avail)
        if len([u for u in out_adj[v] if u in avail]) >= 3
    ]
    for c1, c2 in combinations(centers, 2):
        n1 = [u for u in out_adj[c1] if u in avail and u != c2]
        n2 = [u for u in out_adj[c2] if u in avail and u != c1]
        for l1 in combinations(n1, 3):
            rest = [u for u in n2 if u not in l1]
            if len(rest) >= 3:
                return ((c1, tuple(l1)), (c2, tuple(rest[:3])))
    return None


def _bushy_unit(g: MultiGraph, f: BushyForest, root: int) -> list[Coloring]:
    """Proper colorings of one bushy tree's internal vertices."""
    order = [root]
    head = 0
    while head < len(order):
        order.extend(
            u for u in f.children.get(order[head], ()) if u in f.internal
        )
        head += 1
    outs: list[Coloring] = []

    def walk(i: int, acc: Coloring):
        if i == len(order):
            outs.append(dict(acc))
            return
        v = order[i]
        used = {acc[u] for u in g.adj[v] if u in acc}
        for c in (0, 1, 2):
            if c not in used:
                acc[v] = c
                walk(i + 1, acc)
                del acc[v]

    walk(0, {})
    return outs


def _height_two_unit(tree: HeightTwoTree) -> list[Coloring]:
    """Colorings tried for one height-two tree.

    With five grandchildren the two fork roots are colored nine ways; a
    differing pair forces the tree root's color.  Otherwise the root
    alone is colored three ways.
    """
    if tree.grand_count == 5:
        forks = sorted(u for u in tree.children if len(tree.grands[u]) == 2)
        assert len(forks) == 2
        x, y = forks
        outs = []
        for cx in (0, 1, 2):
            for cy in (0, 1, 2):
                asg = {x: cx, y: cy}
                if cx != cy:
                    asg[tree.root] = 3 - cx - cy
                outs.append(asg)
        return outs
    return [{tree.root: c} for c in (0, 1, 2)]


ColorConfig = SolverConfig  # the coloring front ends take the solver's config


@dataclass
class ColorResult:
    colorable: Optional[bool]  # None when the node limit was hit
    coloring: Optional[Coloring]
    stats: SearchStats


def _solve_leaf(g: MultiGraph, cfg: SolverConfig, stats: SearchStats):
    f = build_bushy_forest(g)
    trees, x_set, y_set = build_height_two_forest(g, f)
    stats.leaves += 1
    p = len(f.roots)
    stats.breakdowns.append(
        (p, len(f.internal) - p, len(f.leaves), len(x_set), 4 * len(trees) + len(y_set))
    )
    if f.roots:
        # coverage guarantee for a maximal forest in a cycle-free residue
        assert len(g.adj) - len(f.vertices) <= 20 * len(f.leaves) / 3 + 1e-9

    units = [_bushy_unit(g, f, root) for root in f.roots]
    units += [_height_two_unit(tree) for tree in trees]

    def consistent(acc: Coloring, asg: Coloring) -> bool:
        for v, c in asg.items():
            for u in g.adj[v]:
                if asg.get(u, acc.get(u)) == c and u != v:
                    return False
        return True

    def run(i: int, acc: Coloring) -> Optional[Coloring]:
        if i == len(units):
            return _residual_solve(g, acc, cfg, stats)
        for asg in units[i]:
            if consistent(acc, asg):
                got = run(i + 1, {**acc, **asg})
                if got is not None:
                    return got
        return None

    return run(0, {})


def _residual_solve(g, colored: Coloring, cfg, stats) -> Optional[Coloring]:
    rest = [v for v in g.vertices() if v not in colored]
    index = {v: i for i, v in enumerate(rest)}
    lists = {
        index[v]: {0, 1, 2}
        - {colored[u] for u in g.adj[v] if u in colored}
        for v in rest
    }
    edges = [
        (index[u], index[v])
        for u in rest
        for v in g.adj[u]
        if v in index and index[u] < index[v]
    ]
    inst = coloring_to_csp(len(rest), edges, lists)
    res = solve(inst, cfg.charge(stats))
    stats.absorb(res.stats, csp=True)
    if res.satisfiable is None:
        raise NodeLimitReached(stats)
    if not res.satisfiable:
        return None
    full = dict(colored)
    for i, v in enumerate(rest):
        full[v] = res.assignment[i]
    return full


def _color_search(
    g: MultiGraph, steps: list, cfg: SolverConfig, stats: SearchStats
) -> Optional[Coloring]:
    stats.nodes += 1
    cfg.charge(stats)
    strip_low_degree(g, steps)
    if not g.adj:
        return lift_graph_coloring({}, steps)
    branch = branch_degree3_cycle(g)
    if branch is None:
        branch = branch_degree3_tree(g)
    if branch is not None:
        for child, extra in branch:
            got = _color_search(child, steps + extra, cfg, stats)
            if got is not None:
                return got
        return None
    leaf = _solve_leaf(g, cfg, stats)
    if leaf is None:
        return None
    expanded: Coloring = {}
    for v, c in leaf.items():
        for m in g.members[v]:
            expanded[m] = c
    return lift_graph_coloring(expanded, steps)


def color_graph(
    n: int, edges, config: Optional[SolverConfig] = None
) -> ColorResult:
    """Find a proper 3-coloring of a simple graph, or report none exists.

    config's node limit counts graph nodes and the nested CSP nodes
    together, and its check_claims reaches the nested CSP solves.
    """
    cfg = config or SolverConfig()
    stats = SearchStats()
    g = MultiGraph.from_edges(n, edges)
    try:
        coloring = _color_search(g, [], cfg, stats)
    except NodeLimitReached:
        return ColorResult(None, None, stats)
    if coloring is None:
        return ColorResult(False, None, stats)
    assert all(coloring[u] != coloring[v] for u, v in edges)
    assert all(coloring[v] in (0, 1, 2) for v in range(n))
    return ColorResult(True, coloring, stats)

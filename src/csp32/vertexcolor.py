"""Exact graph 3-coloring built on top of the binary CSP solver.

The graph is a plain adjacency dict (vertex -> set of neighbors) on the
input's vertex ids.  The pipeline strips low-degree vertices, branches
away cycles and large trees of degree-three vertices, grows a bushy
forest plus a height-two forest over what is left, enumerates proper
colorings of the forest interiors with a forward check, and decides
each leaf the same way.  Even, Itai & Shamir's commit loop colors the
leaf outright if it can; if it gets stuck, the same loop on the 2-SAT
relaxation, the two-color vertices alone, may refute the leaf; otherwise
the vertices still undecided after propagation, with the colors they
have left, go to the CSP solver as a list-coloring instance.

The graph changes only by vertex removals and merges, each recorded as
a lift step (GreedyColored or CycleColored, and Merged).  Lifting
replays them most recent first, so every vertex a step reads is colored
by then, also one a later step merged away or removed.  Every success
is lifted back to a proper coloring of the original graph and verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .graphalg import Adjacency, adjacency, bfs, bfs_path, components, depth_first, max_flow
from .instance import lift
from .solver import NodeLimitReached, SearchStats, SolverConfig, solve
from .transform import coloring_to_csp

Coloring = dict[int, int]


def remove_vertex(g: Adjacency, v: int):
    for u in g.pop(v):
        g[u].discard(v)


def merge(g: Adjacency, u: int, v: int) -> bool:
    """Merge v into u; False if they are adjacent (they would need equal
    colors across an edge, so the branch is impossible)."""
    if u == v:
        return True
    if v in g[u]:
        return False
    for w in g.pop(v):
        g[w].discard(v)
        g[w].add(u)
        g[u].add(w)
    return True


@dataclass(frozen=True)
class Merged:
    """Vertex gone was merged into vertex kept; lifting gives gone kept's color."""

    kept: int
    gone: int

    def lift(self, out: Coloring):
        out[self.gone] = out[self.kept]


@dataclass(frozen=True)
class GreedyColored:
    """A vertex removed while at most two distinctly colored neighbors remain.

    Lifting gives it the smallest color unused by the recorded neighbors.
    """

    vertex: int
    neighbors: tuple

    def lift(self, out: Coloring):
        used = {out[u] for u in self.neighbors}
        free = [c for c in (0, 1, 2) if c not in used]
        assert free, "removed vertex has three distinctly colored neighbors"
        out[self.vertex] = free[0]


@dataclass(frozen=True)
class CycleColored:
    """A deleted chordless cycle of degree-three vertices.

    Entries hold, in cycle order, each cycle vertex and its single outside
    neighbor.  Lifting recolors the cycle from the outside colors: either
    all outside colors agree and the (necessarily even) cycle alternates
    the other two colors, or coloring starts after a differing adjacent
    pair and proceeds greedily around.
    """

    entries: tuple

    def lift(self, out: Coloring):
        k = len(self.entries)
        wcols = [out[w] for _, w in self.entries]
        start = next((i for i in range(k) if wcols[i] != wcols[(i + 1) % k]), None)
        if start is None:
            # all outside neighbors share a color: alternate the other two
            assert k % 2 == 0, "odd cycle with identically colored neighbors"
            a, b = (c for c in (0, 1, 2) if c != wcols[0])
            cols = {i: a if i % 2 == 0 else b for i in range(k)}
        else:
            # color v[start+1] like w[start], then continue around the cycle
            cols = {(start + 1) % k: wcols[start]}
            for off in range(2, k + 1):
                i = (start + off) % k
                used = {wcols[i]}
                for j in ((i - 1) % k, (i + 1) % k):
                    if j in cols:
                        used.add(cols[j])
                free = [c for c in (0, 1, 2) if c not in used]
                assert free, "cycle lift ran out of colors"
                cols[i] = free[0]
        for i, (v, _) in enumerate(self.entries):
            out[v] = cols[i]


def _remove_greedy(g: Adjacency, steps: list, v: int) -> tuple:
    """Remove v, recording its lift step; its neighbors in vertex order."""
    steps.append(GreedyColored(v, neighbors := tuple(sorted(g[v]))))
    remove_vertex(g, v)
    return neighbors


def strip_low_degree(g: Adjacency, steps: list):
    """Remove degree <= 2 vertices until none remain, recording lift steps."""
    queue = sorted(v for v, ns in g.items() if len(ns) <= 2)
    while queue:
        v = queue.pop()
        if v not in g or len(g[v]) > 2:
            continue
        queue.extend(u for u in _remove_greedy(g, steps, v) if len(g[u]) <= 2)


def _degree3_subgraph(g: Adjacency) -> Adjacency:
    low = {v for v, ns in g.items() if len(ns) == 3}
    return {v: g[v] & low for v in low}


def find_degree3_cycle(sub: Adjacency) -> Optional[list[int]]:
    """A shortest (hence chordless) cycle of the degree-three subgraph."""
    best: Optional[list[int]] = None
    edges = sorted((u, v) for u in sub for v in sub[u] if u < v)
    for u, v in edges:
        # shortest u-v path avoiding this edge closes a shortest cycle on it
        path = bfs_path(u, v, lambda x: (y for y in sorted(sub[x]) if (x, y) != (u, v)))
        if path is not None and (best is None or len(path) < len(best)):
            best = path[::-1]
            if len(best) == 3:  # no cycle is shorter, so no later edge wins
                break
    return best


def _delete_cycle(g: Adjacency, steps: list, cyc: list[int]):
    """Record lift data for a cycle (reading each vertex's current single
    outside neighbor) and remove its vertices."""
    cyc_set = set(cyc)
    entries = []
    for v in cyc:
        others = g[v] - cyc_set
        assert len(others) == 1
        entries.append((v, min(others)))
    steps.append(CycleColored(tuple(entries)))
    for v in cyc:
        remove_vertex(g, v)


def _child(g: Adjacency, merges, edge, cycle, greedy) -> Optional[tuple[Adjacency, list]]:
    """One graph branch child and its lift steps: a copy of g with the
    merges, then the edge, applied (None when one is impossible), then
    the cycle deleted or the greedy vertices still present removed."""
    child = {v: set(ns) for v, ns in g.items()}
    if not all(merge(child, u, v) for u, v in merges):
        return None
    if edge is not None:
        u, v = edge
        if u == v:  # a self-loop: no vertex differs from itself
            return None
        child[u].add(v)
        child[v].add(u)
    steps: list = [Merged(u, v) for u, v in merges if u != v]
    if cycle is not None:
        _delete_cycle(child, steps, cycle)
    for v in greedy:
        if v in child:
            _remove_greedy(child, steps, v)
    return child, steps


def branch_degree3_cycle(g: Adjacency, sub: Adjacency) -> Optional[list[tuple[Adjacency, list]]]:
    """Branch set eliminating one cycle of sub, g's degree-three
    subgraph, if any.

    Returns None when no such cycle exists and an empty list when the
    cycle proves the graph uncolorable.
    """
    cyc = find_degree3_cycle(sub)
    if cyc is None:
        return None
    k = len(cyc)
    outs = []
    for i, v in enumerate(cyc):
        others = g[v] - {cyc[i - 1], cyc[(i + 1) % k]}
        assert len(others) == 1
        outs.append(min(others))

    adjacent_pair = any(
        outs[i] != outs[(i + 1) % k] and outs[(i + 1) % k] in g[outs[i]]
        for i in range(k)
    )
    if k % 2 == 0 or adjacent_pair:
        return [_child(g, (), None, cyc, ())]

    if k == 3:
        if outs[0] == outs[1] == outs[2]:
            return []  # one vertex adjacent to a triangle needing all colors
        # rotate so the first two outside neighbors are distinct
        while outs[0] == outs[1]:
            cyc = cyc[1:] + cyc[:1]
            outs = outs[1:] + outs[:1]
        same = [_child(g, ((outs[0], outs[1]), (outs[0], cyc[2])), None, None, cyc[:2])]
    else:
        # odd cycle of length five or more: three ways the first three
        # outside neighbors can relate (first two differ / first two
        # equal, third differs / all three equal); third is what is left
        # of outs[2] once outs[1] is merged into outs[0]
        third = outs[0] if outs[2] == outs[1] else outs[2]
        merged = (outs[0], outs[1])
        same = [
            _child(g, (merged,), (outs[0], third), cyc, ()),
            _child(g, (merged, (outs[0], third), (cyc[0], cyc[2])), None, None, cyc[1:2]),
        ]
    differ = [_child(g, (), (outs[0], outs[1]), cyc, ())] if outs[0] != outs[1] else []
    return [c for c in differ + same if c is not None]


def branch_degree3_tree(g: Adjacency, sub: Adjacency) -> Optional[list[tuple[Adjacency, list]]]:
    """Branch set shrinking a tree of eight or more vertices of sub, g's
    degree-three subgraph."""
    comp = len(sub) >= 8 and next((c for c in components(sub, sub.get) if len(c) >= 8), None)
    if not comp:
        return None

    def branches(v) -> dict[int, list[int]]:
        # each tree neighbor u of v, with the vertices behind u in
        # breadth-first order from u
        return {
            u: [w for w, _ in bfs(u, lambda x: (y for y in sorted(sub[x]) if y != v))]
            for u in sorted(sub[v])
        }

    def heaviest(v) -> int:
        return max(map(len, branches(v).values()), default=0)

    centroid = min(comp, key=lambda v: (heaviest(v), v))
    assert heaviest(centroid) <= len(comp) // 2

    nbrs = sorted(g[centroid])
    assert len(nbrs) == 3
    behind = branches(centroid)
    children = []
    for third in nbrs:
        a, b = (u for u in nbrs if u != third)
        children.append(_child(g, ((a, b),), None, None, (centroid, *behind.get(third, ()))))
    return [c for c in children if c is not None]


@dataclass
class BushyForest:
    """Rooted forest whose internal nodes all have tree-degree four or more."""

    roots: list[int] = field(default_factory=list)
    children: dict[int, tuple] = field(default_factory=dict)
    internal: set[int] = field(default_factory=set)
    leaves: set[int] = field(default_factory=set)
    vertices: set[int] = field(default_factory=set)  # internal | leaves

    def grow(self, v: int, outside: list[int]):
        """Make v internal with the outside vertices as its leaf children."""
        self.leaves.discard(v)
        self.internal.add(v)
        self.children[v] = tuple(outside)
        self.leaves.update(outside)
        self.vertices.update((v, *outside))


def build_bushy_forest(g: Adjacency) -> BushyForest:
    """Grow a maximal bushy forest greedily and assert its maximality.

    Outside sets only shrink, so every root is found in one pass over the
    vertices, and a leaf that cannot grow never can: each later pass
    tries only the leaves the pass before it added, in vertex order."""
    f = BushyForest()
    for v in sorted(g):
        if v not in f.vertices and len(outside := g[v] - f.vertices) >= 4:
            f.roots.append(v)
            f.grow(v, sorted(outside))
    fresh = set(f.leaves)
    while fresh:
        added: set[int] = set()
        for v in sorted(fresh):
            if len(outside := g[v] - f.vertices) >= 3:
                f.grow(v, sorted(outside))
                added.update(outside)
        fresh = added
    for v in f.internal:
        assert g[v] <= f.vertices
    for v in f.leaves:
        assert len(g[v] - f.vertices) <= 2
    for v in g:
        if v not in f.vertices:
            assert len(g[v] - f.vertices) <= 3
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
    g: Adjacency, f: BushyForest
) -> tuple[list[HeightTwoTree], set[int], set[int]]:
    """Cover the graph outside the bushy forest by short trees.

    Returns the trees plus the split of the remaining outside vertices
    into X (adjacent to the forest) and Y (assigned to trees by flow).
    """
    outside = set(g) - f.vertices
    out_adj = {v: sorted(g[v] & outside) for v in outside}
    assert all(len(ns) <= 3 for ns in out_adj.values())

    # one pass packs every star: free lists only shrink, and a vertex
    # packed as a leaf before its turn has its used centre as a neighbour
    used: set[int] = set()
    packs: list[tuple[int, tuple]] = []
    for v in sorted(outside):
        free = [u for u in out_adj[v] if u not in used]
        if len(free) >= 3:
            packs.append((v, tuple(free[:3])))
            used.update((v, *free[:3]))
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
    x_set = {v for v in outside - in_pack if not g[v].isdisjoint(f.vertices)}
    y_set = outside - in_pack - x_set

    trees = {
        c: HeightTwoTree(
            root=c,
            children=ls,
            grands={u: () for u in ls},
            high=any(len(g[v]) >= 4 for v in (c, *ls)),
        )
        for c, ls in sorted(packs)
    }
    leaf_tree = {u: c for c, ls in packs for u in ls}

    edges = []
    for y in sorted(y_set):
        assert len(g[y]) == 3
        owners = sorted({leaf_tree[u] for u in g[y] if u in leaf_tree})
        assert owners, "uncovered vertex with no packed neighbor"
        edges += [(c, y) for c in owners]
    placed = max_flow({c: 5 if tree.high else 3 for c, tree in trees.items()}, edges)
    assert len(placed) == len(y_set), "flow failed to cover all outside vertices"

    for y, c in sorted(placed.items()):
        tree = trees[c]
        leaf = min(u for u in g[y] if leaf_tree.get(u) == c)
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


def _bushy_unit(g: Adjacency, f: BushyForest, root: int):
    """One bushy tree's unit: masks -> the proper colorings of its internal
    vertices that masks allow, drawn one at a time, depth first along the
    tree's breadth-first order with each vertex's colors ascending."""
    order = [
        v for v, _ in bfs(root, lambda v: (u for u in f.children.get(v, ()) if u in f.internal))
    ]
    earlier = [[j for j in range(i) if order[j] in g[v]] for i, v in enumerate(order)]

    # its own loop, not depth_first, which measured 1.7-2.3x slower per unit draw
    def colorings(masks: dict):
        cols = [0] * len(order)
        left = [masks[order[0]]]  # colors still to try at each depth
        while left:
            i = len(left) - 1
            if not (m := left[i]):
                left.pop()
                continue
            left[i] = m & (m - 1)
            cols[i] = (m & -m).bit_length() - 1
            if i + 1 == len(order):
                yield dict(zip(order, cols))
            else:
                m = masks[order[i + 1]]
                for j in earlier[i + 1]:
                    m &= ~(1 << cols[j])
                left.append(m)

    return colorings


def _allowed(outs: list[Coloring]):
    """A unit over fixed colorings: masks -> those the masks allow."""
    return lambda masks: (asg for asg in outs if all(masks[v] >> c & 1 for v, c in asg.items()))


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


def _solve_leaf(g: Adjacency, cfg: SolverConfig, stats: SearchStats):
    f = build_bushy_forest(g)
    trees, x_set, y_set = build_height_two_forest(g, f)
    stats.leaves += 1
    p = len(f.roots)
    split = (p, len(f.internal) - p, len(f.leaves), len(x_set), 4 * len(trees) + len(y_set))
    stats.breakdowns = tuple(map(max, stats.breakdowns, split))
    if f.roots:
        # coverage guarantee for a maximal forest in a cycle-free residue
        assert len(g) - len(f.vertices) <= 20 * len(f.leaves) / 3 + 1e-9

    units = [_bushy_unit(g, f, root) for root in f.roots]
    units += [_allowed(_height_two_unit(tree)) for tree in trees]

    def extensions(i: int, masks: dict):
        # lazy: a partial coloring is drawn and charged once its predecessor
        # is searched, and only when every vertex still has its color
        for asg in units[i](masks):
            stats.nodes += 1  # as a CSP node counts a child simplify refutes
            cfg.charge(stats)
            if (child := _forward_check(g, masks, asg)) is not None:
                yield i + 1, child

    def expand(state):
        i, masks = state
        if i == len(units):
            return _residual_solve(g, masks, cfg, stats), ()
        return None, extensions(i, masks)

    return depth_first((0, dict.fromkeys(g, 7)), expand)


def _forward_check(g: Adjacency, masks: dict, asg: Coloring) -> Optional[dict]:
    """Forward check from the parent's masks (each vertex's colors left
    after propagation, as 3-bit sets; a colored or forced vertex has one):
    color asg, then propagate every forced (singleton) color.  The child's
    masks, or None when some vertex runs out of colors, so no proper
    coloring extends the partial one; two adjacent vertices of asg with
    one color empty each other's masks.  A 0 mask marks a vertex left out
    of the instance: no color is cleared from it, so it never refutes."""
    masks = dict(masks)
    forced = []
    for v, c in asg.items():
        if not masks[v] >> c & 1:
            return None
        masks[v] = 1 << c
        forced.append((v, 1 << c))
    while forced:
        v, bit = forced.pop()
        for u in g[v]:
            m = masks[u]
            if m & bit:
                m ^= bit
                if not m:
                    return None
                masks[u] = m
                if not m & (m - 1):
                    forced.append((u, m))
    return masks


def _commit_loop(g: Adjacency, masks: dict) -> Optional[dict]:
    """Even, Itai & Shamir's (1976) commit loop: each vertex left two or
    three colors, in vertex order, commits the first color, ascending,
    that the forward check keeps.  A kept try fixes every vertex it
    touched and leaves the others' masks as they were, so the rest is a
    sub-instance.  The masks once every vertex has one color left, or
    None when some vertex keeps none.  On two-color masks the loop is
    complete: None refutes them.  With a three-color vertex, the masks it
    returns still give a proper coloring, since each committed or forced
    color was cleared from the neighbours, but None decides nothing.  A 0
    mask is left out: nothing propagates into it and it is never tried."""
    for v in sorted(masks):
        m = masks[v]
        if m & (m - 1):
            for c in range(3):
                if m >> c & 1 and (child := _forward_check(g, masks, {v: c})) is not None:
                    break
            else:
                return None
            masks = child
    return masks


def _residual_solve(g, masks: dict, cfg, stats) -> Optional[Coloring]:
    """The leaf's CSP call on the forward-checked masks of a full interior
    coloring.

    A vertex whose mask holds one color takes it: propagation cleared it
    from every neighbour.  The commit loop first runs on the masks
    themselves, three-color vertices included, and a coloring it reaches
    is the leaf's.  If it gets stuck, it runs again on the 2-SAT
    relaxation, the two-color vertices alone, with the three-color ones
    masked to 0 and so left out with their edges; if that is refuted, no
    coloring of the leaf exists.  Either outcome is charged as the
    one-node CSP solve it replaces.  Otherwise the undecided vertices, in
    vertex order, go to the CSP with their masks' colors as lists; a CSP
    with at most two three-color variables is decided at the root."""
    committed = _commit_loop(g, masks)
    relaxed = committed is None and {v: 0 if m == 7 else m for v, m in masks.items()}
    if not relaxed or _commit_loop(g, relaxed) is None:
        stats.csp_calls += 1
        stats.csp_nodes += 1
        cfg.charge(stats)
        return committed and {v: m.bit_length() - 1 for v, m in committed.items()}
    rest = [v for v in sorted(masks) if masks[v] & (masks[v] - 1)]
    index = {v: i for i, v in enumerate(rest)}
    lists = {i: [c for c in (0, 1, 2) if masks[v] >> c & 1] for i, v in enumerate(rest)}
    edges = [(index[u], index[v]) for u in rest for v in g[u] if index.get(v, -1) > index[u]]
    inst = coloring_to_csp(len(rest), edges, lists)
    res = solve(inst, cfg.nested(stats))
    stats.absorb(res.stats, csp=True)
    cfg.charge(stats)  # raises when the nested solve ran out
    if not res.satisfiable:
        return None
    full = {v: m.bit_length() - 1 for v, m in masks.items()}
    full.update((v, res.assignment[i]) for i, v in enumerate(rest))
    return full


def _expand(cfg: SolverConfig, stats: SearchStats, state: tuple[Adjacency, list]):
    """One graph node; a state is a graph and its lift steps from the input."""
    g, steps = state
    stats.nodes += 1
    cfg.charge(stats)
    strip_low_degree(g, steps)
    if not g:
        return lift({}, steps), ()
    sub = _degree3_subgraph(g)  # g is unchanged when no cycle branches
    branch = branch_degree3_cycle(g, sub)
    if branch is None:
        branch = branch_degree3_tree(g, sub)
    if branch is not None:
        return None, [(child, steps + extra) for child, extra in branch]
    leaf = _solve_leaf(g, cfg, stats)
    return (None if leaf is None else lift(leaf, steps)), ()


def color_graph(
    n: int, edges, config: Optional[SolverConfig] = None
) -> ColorResult:
    """Find a proper 3-coloring of a simple graph, or report none exists.

    config's node limit counts graph nodes and the nested CSP nodes
    together, and its check_claims reaches the nested CSP solves.
    """
    cfg = config or SolverConfig()
    stats = SearchStats()
    g = adjacency(n, edges)
    try:
        coloring = depth_first((g, []), lambda state: _expand(cfg, stats, state))
    except NodeLimitReached:
        return ColorResult(None, None, stats)
    if coloring is None:
        return ColorResult(False, None, stats)
    get = coloring.get
    if not all(get(v) in (0, 1, 2) for v in range(n)) or any(get(u) == get(v) for u, v in edges):
        raise RuntimeError("coloring failed verification against the graph")
    return ColorResult(True, coloring, stats)

"""Classical graph subroutines: graph search, matchings and flow.

depth_first drives every backtracking search in the package: the
branch-and-reduce solvers, the coloring pipelines and the brute-force
oracles.  bfs is every breadth-first traversal: the constraint-graph
components of the solver rules and the degree-three trees of the
coloring pipeline, and through bfs_path, its shortest path, the
degree-three cycle search.  general_matching is the one maximum-matching
search: the edge-coloring splice selection calls it, and so do the
solver endgame through bipartite_matching and the height-two forest
construction through max_flow, whose placement flow is a matching into
capacity slots.  All inputs here are tiny (O(n) nodes), so simple
augmenting-path methods suffice.

general_matching is Edmonds' blossom search (Edmonds, "Paths, trees,
and flowers", 1965).  Which maximum matching it returns decides
edge_color's splice plan, and so every splice and leaf count, so its
tie-break is part of its contract: it returns the matching networkx's
max_weight_matching(maxcardinality=True) returns on the same graph with
sorted nodes and edges, and the tests compare the two.  With unit weights
every edge stays tight and every blossom dies with its stage, so
networkx's primal-dual bookkeeping (vertex and blossom duals, delta
steps, the optimum check) drops out and only its search order remains.
"""

from __future__ import annotations


def depth_first(root, expand):
    """The first solution found depth-first from root, or None.

    expand(state) returns (solution, children): a solution, or None and
    the child states to try in order, drawn one at a time: the next
    child only once the last one's subtree is exhausted, so children
    may be edits of one shared state that each undoes.  A stack of
    child iterators stands in for recursion, so the search depth is not
    bounded by the recursion limit."""
    stack = [iter((root,))]
    while stack:
        for state in stack[-1]:
            solution, children = expand(state)
            if solution is not None:
                return solution
            stack.append(iter(children))
            break
        else:
            stack.pop()
    return None


def bfs(root, neighbors):
    """Breadth-first search from root, yielding (vertex, parent) in
    discovery order: root first, with parent None.

    neighbors(v) is called once v leaves the queue, and its neighbors
    are discovered in the order it lists them."""
    seen = {root}
    queue = [root]
    yield root, None
    for v in queue:  # the loop reaches vertices appended while it runs
        for u in neighbors(v):
            if u not in seen:
                seen.add(u)
                queue.append(u)
                yield u, v


def bfs_path(root, target, neighbors):
    """A shortest path from root to target as a vertex list, root first,
    along bfs's parent links; None when target is unreachable.  The
    search stops once target is discovered."""
    parent = {}
    for v, u in bfs(root, neighbors):
        parent[v] = u
        if v == target:
            path = [v]
            while path[-1] != root:
                path.append(parent[path[-1]])
            return path[::-1]
    return None


def components(vertices, neighbors) -> list[list]:
    """Connected components of the graph that neighbors(v) spans on
    vertices (neighbors outside vertices are ignored), each sorted, in
    order of their least vertex."""
    pool = set(vertices)

    def inside(v):
        return (u for u in neighbors(v) if u in pool)

    seen: set = set()
    comps = []
    for root in sorted(pool):
        if root not in seen:
            comp = sorted(v for v, _ in bfs(root, inside))
            seen.update(comp)
            comps.append(comp)
    return comps


def bipartite_matching(
    left: list, right: list, edges: list[tuple]
) -> set[tuple]:
    """Maximum-cardinality matching of a bipartite graph, as (left, right)
    pairs: general_matching on the sides tagged (0, u) and (1, v), where
    no blossom ever forms.  An edge outside the bipartition raises
    ValueError."""
    left_set, right_set = set(left), set(right)
    for u, v in edges:
        if u not in left_set or v not in right_set:
            raise ValueError(f"edge {(u, v)} not within the given bipartition")
    nodes = [(0, u) for u in left] + [(1, v) for v in right]
    tagged = general_matching(nodes, [((0, u), (1, v)) for u, v in edges])
    return {(u, v) for (_, u), (_, v) in tagged}


def general_matching(nodes: list, edges: list[tuple]) -> set[tuple]:
    """Maximum-cardinality matching in a general graph, as sorted pairs:
    the one networkx's max_weight_matching(maxcardinality=True) returns
    on nodes and edges added in sorted order.  Self-loops are ignored, a
    repeated edge counts once, and an edge endpoint outside nodes raises
    ValueError."""
    order = sorted(set(nodes))
    index = {v: i for i, v in enumerate(order)}
    adj = [set() for _ in order]
    for u, v in edges:
        if u not in index or v not in index:
            raise ValueError(f"edge {(u, v)} has an endpoint outside the nodes")
        if u != v:
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
    adj = [sorted(a) for a in adj]
    mate: list = [None] * len(adj)
    # While the highest free vertex has a free neighbor, a stage pops it
    # first and matches it to the lowest one; a blossom formed on the way
    # has it as base, so augmenting through it changes nothing else.
    for v in reversed(range(len(adj))):
        if mate[v] is None:
            w = next((w for w in adj[v] if mate[w] is None), None)
            if w is None:
                break
            mate[v], mate[w] = w, v
    while _augment_stage(adj, mate):
        pass
    return {(order[v], order[w]) for v, w in enumerate(mate) if w is not None and v < w}


def _augment_stage(adj: list[list[int]], mate: list) -> bool:
    """Augment mate along the first augmenting path one stage of
    networkx's search finds, with every edge tight; False if none.

    Free vertices are labeled outer and queued ascending, the newest is
    scanned first and its neighbors ascending, and blossoms are found,
    shrunk and augmented through as networkx's scanBlossom, addBlossom and
    augmentBlossom do.  Vertices are 0..n-1; this stage's blossoms get ids
    from n up and are dropped when it ends.  Every blossom is outer, so an
    inner vertex is always its own outermost blossom."""
    n = len(adj)
    top = list(range(n))  # outermost blossom holding each vertex
    base = list(range(n))  # base vertex of each blossom
    parent: list = [None] * n  # blossom directly holding each blossom
    label = [0] * n  # 0 unlabeled, 1 outer, 2 inner, 5 outer on a scan path
    labeledge: list = [None] * n  # the edge (v, w) a label came through
    cycle: dict = {}  # blossom -> sub-blossoms from the base, edges between
    queue = [v for v in range(n) if mate[v] is None]
    for v in queue:
        label[v] = 1

    def scan_blossom(v, w):
        # climb from v and w in turn; the first blossom reached twice is
        # the base's, and None means v and w lie in different trees
        path, found = [], None
        while v is not None:
            b = top[v]
            if label[b] & 4:
                found = base[b]
                break
            path.append(b)
            label[b] = 5
            v = None if labeledge[b] is None else labeledge[labeledge[b][0]][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(bs, v, w):
        bb, bv, bw = top[bs], top[v], top[w]
        b = len(base)
        base.append(bs)
        parent.append(None)
        label.append(1)
        labeledge.append(labeledge[bb])
        parent[bb] = b
        kids, edgs = [], [(v, w)]
        while bv != bb:
            parent[bv] = b
            kids.append(bv)
            edgs.append(labeledge[bv])
            bv = top[labeledge[bv][0]]
        kids.append(bb)
        kids.reverse()
        edgs.reverse()
        while bw != bb:
            parent[bw] = b
            kids.append(bw)
            edgs.append(labeledge[bw][::-1])
            bw = top[labeledge[bw][0]]
        cycle[b] = kids, edgs
        stack = kids[:]  # the leaves, in networkx's Blossom.leaves order
        while stack:
            x = stack.pop()
            if x >= n:
                stack.extend(cycle[x][0])
                continue
            if label[top[x]] == 2:
                queue.append(x)
            top[x] = b

    def augment_blossom(b, v):
        # rematch b's cycle so that v is its base, and so on down into the
        # sub-blossoms on the way; nothing is rotated, as the stage ends
        work = [(b, v)]
        while work:
            b, v = work.pop()
            t = v
            while parent[t] != b:
                t = parent[t]
            if t >= n:
                work.append((t, v))
            kids, edgs = cycle[b]
            j = kids.index(t)
            step = 1 if j & 1 else -1
            if step == 1:
                j -= len(kids)
            while j != 0:
                j += step
                w, x = edgs[j] if step == 1 else edgs[j - 1][::-1]
                if kids[j] >= n:
                    work.append((kids[j], w))
                j += step
                if kids[j] >= n:
                    work.append((kids[j], x))
                mate[w], mate[x] = x, w

    while queue:
        v = queue.pop()
        for w in adj[v]:
            bv, bw = top[v], top[w]
            if bv == bw:
                continue
            if label[bw] == 0:  # w is matched: w inner, its mate outer
                m = mate[w]
                label[w], labeledge[w] = 2, (v, w)
                label[m], labeledge[m] = 1, (w, m)
                queue.append(m)
            elif label[bw] == 1:
                bs = scan_blossom(v, w)
                if bs is not None:
                    add_blossom(bs, v, w)
                    continue
                for s, j in ((v, w), (w, v)):  # augment along both trees
                    while True:
                        if top[s] >= n:
                            augment_blossom(top[s], s)
                        mate[s] = j
                        if labeledge[top[s]] is None:
                            break
                        s, j = labeledge[labeledge[top[s]][0]]  # via an inner vertex
                        mate[j] = s
                return True
    return False


def max_flow(capacity: dict, edges: list[tuple]) -> dict:
    """Integer maximum flow of a placement network, as item -> owner for
    every item that gets flow.  The network runs source -> owner with
    capacity capacity[owner], owner -> item 1 for each (owner, item) in
    edges, and item -> sink 1, so its flow is a matching into capacity
    slots: bipartite_matching of the items against the slots (owner, k),
    k < capacity[owner].  Every owner in edges needs a capacity."""
    if not edges:  # almost every coloring leaf: no matching to set up
        return {}
    items = list({y for _, y in edges})
    slots = [(c, k) for c, cap in capacity.items() for k in range(cap)]
    pairs = [(y, (c, k)) for c, y in edges for k in range(capacity[c])]
    return {y: c for y, (c, _) in bipartite_matching(items, slots, pairs)}

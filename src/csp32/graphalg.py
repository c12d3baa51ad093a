"""Classical graph subroutines: graph input, graph search, matchings and flow.

adjacency is the one check of a graph given as a vertex count and an
edge list: vertex coloring, edge coloring, the coloring CSP encoding and
the brute-force coloring oracle all read their input through it.
depth_first drives the backtracking searches: the branch-and-reduce
solver, the coloring graph search and leaf enumeration, the splice
search and the oracles (a bushy tree's colorings have their own loop).
bfs is every breadth-first traversal: the constraint-graph components of
the solver rules and the degree-three trees of the coloring pipeline,
and through bfs_path, its shortest path, the degree-three cycle search.
general_matching is the one maximum-matching search: the edge-coloring
splice selection calls it, and so do the solver endgame through
bipartite_matching and the height-two forest construction through
max_flow, whose placement flow is a matching into capacity slots.  All
inputs here are tiny (O(n) nodes), so simple augmenting-path methods
suffice.

general_matching is Edmonds' blossom search (Edmonds, "Paths, trees,
and flowers", 1965) with a greedy warm start.  It promises a maximum
matching, the same one every time for the same input, not any particular
one among them.
"""

from __future__ import annotations

Adjacency = dict[int, set[int]]


def adjacency(n: int, edges) -> Adjacency:
    """The simple graph on vertices 0..n-1 with the given edges; a
    self-loop or a vertex outside that range raises ValueError."""
    g: Adjacency = {v: set() for v in range(n)}
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u not in g or v not in g:
            raise ValueError(f"edge ({u}, {v}) has a vertex outside 0..{n - 1}")
        g[u].add(v)
        g[v].add(u)
    return g


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
    """Maximum-cardinality matching in a general graph, as sorted pairs,
    the same one every time for the same input.  Self-loops are ignored, a
    repeated edge counts once, and an edge endpoint outside nodes raises
    ValueError.

    A greedy pass matches each free vertex, highest first, to its lowest
    free neighbor.  Then each vertex still free, highest first, roots one
    augmenting-path search; a vertex that roots none now never will."""
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
    for v in reversed(range(len(adj))):
        if mate[v] is None:
            w = next((w for w in adj[v] if mate[w] is None), None)
            if w is not None:
                mate[v], mate[w] = w, v
    for root in reversed(range(len(adj))):
        if mate[root] is None:
            _augment(adj, mate, root)
    return {(order[v], order[w]) for v, w in enumerate(mate) if w is not None and v < w}


def _augment(adj: list[list[int]], mate: list, root: int) -> None:
    """Flip the first augmenting path that a breadth-first search from the
    free vertex root finds, if there is one.

    The search grows one alternating tree.  Outer vertices are the root
    and the mates of inner ones; parent[x] is the outer vertex an inner x
    was reached from.  An edge between two outer vertices closes an odd
    cycle, which is contracted into its base, the two ends' lowest common
    ancestor: base[v] is the base of the contracted blossom holding v, and
    parent links run around the cycle so that a path can pass through it.
    Every vertex of a blossom is outer (Edmonds, "Paths, trees, and
    flowers", 1965)."""
    n = len(adj)
    base = list(range(n))
    parent: list = [None] * n
    outer = [False] * n
    outer[root] = True
    queue = [root]
    for v in queue:  # the loop reaches vertices appended while it runs
        for w in adj[v]:
            if base[v] == base[w]:  # an edge within one blossom
                continue
            if outer[w]:
                a = base[v]
                ancestors = {a}
                while mate[a] is not None:
                    a = base[parent[mate[a]]]
                    ancestors.add(a)
                a = base[w]
                while a not in ancestors:
                    a = base[parent[mate[a]]]
                shrunk = set()  # bases of the blossoms the new cycle passes
                for x, y in ((v, w), (w, v)):
                    while base[x] != a:
                        shrunk.update((base[x], base[mate[x]]))
                        parent[x], y = y, mate[x]
                        x = parent[y]
                for u in range(n):
                    if base[u] in shrunk:
                        base[u] = a
                        if not outer[u]:
                            outer[u] = True
                            queue.append(u)
            elif parent[w] is None:
                parent[w] = v
                if mate[w] is None:  # augment back to the root
                    while w is not None:
                        v, nxt = parent[w], mate[parent[w]]
                        mate[v], mate[w] = w, v
                        w = nxt
                    return
                outer[mate[w]] = True
                queue.append(mate[w])


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

"""Graph 3-coloring pipeline: reductions, forests, and end-to-end solving.

color_graph and edge_color run the commit loop once, at their root, and
it decides nearly every seeded input there.  The tests of the paper's
search, its branchings, forests and leaves, run it directly, with no
loop: helpers.search_color (vertexcolor._search on the stripped root)
and, on line graphs, the same search on the graphs the splice search
hands to its leaves (helpers.splice_line_graphs).
"""

import random
import sys
from collections import Counter
from itertools import chain, combinations, product
from pathlib import Path

import pytest

import csp32.edgecolor as edgecolor
import csp32.vertexcolor as vertexcolor
from csp32.edgecolor import edge_color, edge_root
from csp32.graphalg import bfs
from csp32.instance import Instance, bits, lift
from csp32.oracle import (
    brute_csp,
    brute_vertex_color,
    planted_3colorable,
    planted_cubic_edge_colorable,
    random_cubic,
    random_graph,
)
from csp32.solver import NodeLimitReached, SearchStats, SolverConfig, solve
from csp32.transform import coloring_to_csp
from csp32.vertexcolor import (
    ColorConfig,
    commit_coloring,
    Merged,
    _degree3_subgraph,
    _forward_check,
    adjacency,
    build_bushy_forest,
    build_height_two_forest,
    branch_degree3_cycle,
    branch_degree3_tree,
    color_graph,
    find_degree3_cycle,
    merge,
    remove_vertex,
    strip_low_degree,
)
import helpers
from helpers import (
    brute_branch_degree3_cycle,
    brute_branch_degree3_tree,
    brute_build_bushy_forest,
    brute_bushy_unit,
    brute_backtrack_loop,
    brute_commit_loop,
    brute_degree3_subgraph,
    brute_find_degree3_cycle,
    brute_forward_lists,
    brute_forward_refuted,
    brute_leaf_order,
    brute_solve_leaf,
    extension_graph,
    flower_snark,
    run_fresh,
    search_color,
    search_edge_color,
    splice_line_graphs,
)


def proper(edges, coloring):
    return all(coloring[u] != coloring[v] for (u, v) in edges)


def test_adjacency_basics():
    g = adjacency(4, [(0, 1), (1, 2), (2, 3)])
    assert merge(g, 0, 2)
    # The kept vertex inherits both neighborhoods; the other is gone.
    assert g == {0: {1, 3}, 1: {0}, 3: {0}}
    assert not merge(g, 0, 1)  # adjacent vertices cannot merge
    assert vertexcolor._child(g, (), (0, 0), None, ()) is None  # nor can a self-loop be added
    remove_vertex(g, 3)
    assert g == {0: {1}, 1: {0}}
    # Lifting the merge gives the gone vertex the kept vertex's color.
    assert lift({0: 2, 1: 0, 3: 1}, [Merged(0, 2)]) == {0: 2, 1: 0, 2: 2, 3: 1}


def test_cycle_lift_recolors_the_cycle_from_its_outside_colors():
    # The cycle 10-11-12-13, each vertex with one outside neighbour among
    # 0-3.  When every outside color agrees, the cycle alternates the
    # other two colors; otherwise coloring starts after the first pair
    # that differs and goes greedily around.  End-to-end runs seldom reach
    # the first case: the commit loop colors most graphs before they branch.
    step = vertexcolor.CycleColored(((10, 0), (11, 1), (12, 2), (13, 3)))
    edges = [(10, 11), (11, 12), (12, 13), (13, 10), (10, 0), (11, 1), (12, 2), (13, 3)]
    for outside in ({0: 1, 1: 1, 2: 1, 3: 1}, {0: 0, 1: 0, 2: 2, 3: 0}):
        out = dict(outside)
        step.lift(out)
        assert proper(edges, out) and all(out[v] == c for v, c in outside.items())
    out = {0: 1, 1: 1, 2: 1, 3: 1}
    step.lift(out)
    assert [out[v] for v in (10, 11, 12, 13)] == [0, 2, 0, 2]


def test_strip_low_degree_removes_below_three():
    g = adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    steps = []
    strip_low_degree(g, steps)
    assert not g
    got = lift({}, steps)
    assert proper([(0, 1), (1, 2), (2, 3), (3, 4)], got)


def test_empty_and_edgeless_graphs_are_colored_in_one_node():
    # Stripping empties both graphs and the commit loop returns at once
    # on the empty graph; the empty coloring is an answer, not a refutation.
    for n, want in ((0, {}), (3, {0: 0, 1: 0, 2: 0})):
        res = color_graph(n, [])
        assert (res.colorable, res.coloring) == (True, want), n
        assert (res.stats.nodes, res.stats.leaves, res.stats.csp_calls) == (1, 0, 0), n


def test_find_degree3_cycle_is_chordless():
    rng = random.Random(14)
    found = 0
    for _ in range(100):
        graph = random_cubic(rng, rng.choice([6, 8, 10]))
        if graph is None:
            continue
        n, edges = graph
        g = adjacency(n, edges)
        cyc = find_degree3_cycle(_degree3_subgraph(g))
        if cyc is None:
            continue
        found += 1
        k = len(cyc)
        assert k >= 3
        on = set(cyc)
        for i, v in enumerate(cyc):
            assert cyc[(i + 1) % k] in g[v]
            # No chords: cycle neighbors inside the cycle are only the
            # two ring neighbors.
            inside = g[v] & on
            assert inside == {cyc[i - 1], cyc[(i + 1) % k]}
    assert found > 50


def test_cycle_branch_children_preserve_colorability():
    rng = random.Random(15)
    tried = 0
    for _ in range(200):
        graph = random_cubic(rng, rng.choice([6, 8]))
        if graph is None:
            continue
        n, edges = graph
        g = adjacency(n, edges)
        sub = _degree3_subgraph(g)
        if find_degree3_cycle(sub) is None:
            continue
        children = branch_degree3_cycle(g, sub)
        if children is None:
            continue
        tried += 1
        want = brute_vertex_color((n, edges)) is not None
        have = False
        for child, steps in children:
            # Solve the child exhaustively on the vertices it kept.
            kept = sorted(child)
            idx = {v: i for i, v in enumerate(kept)}
            ce = [(idx[u], idx[v]) for u in kept for v in child[u] if u < v]
            sub = brute_vertex_color((len(kept), ce))
            if sub is None:
                continue
            colored = {v: sub[idx[v]] for v in kept}
            full = lift(colored, steps)
            assert proper(edges, full)
            have = True
        assert have == want, (n, edges)
    assert tried > 30


# Path 0..7 at degree exactly three, anchored in a K5 whose vertices
# have degree above three, so the degree-3 forest is one 8-vertex tree.
TREE8 = (13, [(i, i + 1) for i in range(7)] + list(combinations(range(8, 13), 2))
         + [(0, 8), (0, 9), (1, 10), (2, 11), (3, 12), (4, 8), (5, 9), (6, 10), (7, 11), (7, 12)])

# A planted graph with an odd degree-3 cycle whose second and third
# outside neighbors are the same vertex.
REPEATED_OUTSIDE = planted_3colorable(random.Random("109:469:planted-color:36"), 36, 7 / 36)


# Small seeded graphs whose leaf CSP branches in the paper's search
# (helpers.search_color), from seeds 0-4999 of their families: few leaf
# CSPs branch.  Under color_graph's commit loop, none of the planted 7/n
# graphs of seeds 0-2999 at n = 100-150 builds one.  Each branching has
# a claim to check: dangling, then implication four times.
BRANCHING_LEAVES = (
    planted_3colorable(random.Random(113), 22, 0.25),
    planted_3colorable(random.Random(762), 22, 0.25),
    planted_3colorable(random.Random(2370), 22, 0.25),
    planted_3colorable(random.Random(138), 26, 0.22),
    random_graph(random.Random(3456), 12, 0.4),
)


def test_tree_branch_on_degree3_forest():
    g = adjacency(*TREE8)
    steps = []
    strip_low_degree(g, steps)
    sub = _degree3_subgraph(g)
    assert branch_degree3_cycle(g, sub) is None
    children = branch_degree3_tree(g, sub)
    assert children is not None and len(children) == 3


def test_branch_children_match_brute_reference():
    # Walk the graph branching of seeded graphs depth-first: every cycle,
    # every branching and every child (graph and lift steps) must
    # equal the hand-written references.  The seeds rarely reach a tree
    # or a repeated outside neighbor, so two fixed graphs add those.
    rng = random.Random(23)
    graphs = [TREE8, REPEATED_OUTSIDE]
    for _ in range(100):
        n = rng.randint(10, 30)
        graphs += [random_graph(rng, n, 4.6 / n), planted_3colorable(rng, n, 7 / n),
                   random_cubic(rng, 2 * rng.randint(5, 15))]
    shapes = Counter()
    for graph in graphs:
        pending = [adjacency(*graph)]
        for _node in range(40):
            if not pending:
                break
            g = pending.pop()
            strip_low_degree(g, [])
            sub = _degree3_subgraph(g)
            assert find_degree3_cycle(sub) == brute_find_degree3_cycle(g)
            got, want = branch_degree3_cycle(g, sub), brute_branch_degree3_cycle(g, shapes)
            # the cycle branch edits only copies, so the tree branch may reuse sub
            assert sub == brute_degree3_subgraph(g)
            if got is None:
                got, want = branch_degree3_tree(g, sub), brute_branch_degree3_tree(g)
                shapes["tree"] += got is not None
            assert (got is None) == (want is None)
            for (child, steps), (ref, ref_steps) in zip(got or [], want or [], strict=True):
                assert (child, steps) == (ref, ref_steps)
                pending.append(child)
    reached = {shape for shape, count in shapes.items() if count}
    assert reached == {
        "even-or-adjacent", "k3-differ", "k3-same", "odd-differ",
        "odd-same-edge", "odd-same-merge", "odd-third-merged", "tree",
    }, shapes


def test_bushy_forest_invariants():
    rng = random.Random(16)
    built = 0
    for _ in range(60):
        n, edges = random_graph(rng, rng.randint(8, 14), p=0.45)
        g = adjacency(n, edges)
        steps = []
        strip_low_degree(g, steps)
        if not g:
            continue
        f = build_bushy_forest(g)
        built += 1
        for r in f.roots:
            assert len(f.children[r]) >= 4
        for v in f.internal:
            if v not in f.roots:
                assert len(f.children[v]) >= 3
        assert f.vertices <= set(g)
    assert built > 20


def test_leaf_stage_records_breakdowns():
    # Dense random graphs reach the forest/leaf stage; the stats keep the
    # componentwise max of the leaves' vertex accounting, one 5-tuple
    # however many leaves there are.
    rng = random.Random(23)
    saw_breakdown = False
    for _ in range(40):
        n, edges = random_graph(rng, rng.randint(10, 14), p=0.5)
        res = search_color(n, edges)
        want = brute_vertex_color((n, edges))
        assert res.colorable == (want is not None)
        br = res.stats.breakdowns
        assert len(br) == 5 and all(0 <= v <= n for v in br)
        assert any(br) == (res.stats.leaves > 0)
        saw_breakdown |= any(br)
    assert saw_breakdown


def test_color_graph_matches_brute_force():
    rng = random.Random(17)
    for trial in range(300):
        n, edges = random_graph(rng, rng.randint(1, 9), p=rng.uniform(0.2, 0.8))
        res = color_graph(n, edges)
        want = brute_vertex_color((n, edges))
        assert res.colorable == (want is not None), (trial, n, edges)
        if res.colorable:
            assert proper(edges, res.coloring), trial


def test_color_graph_known_graphs():
    k4 = list(combinations(range(4), 2))
    assert not color_graph(4, k4).colorable
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(i + 5, ((i + 2) % 5) + 5) for i in range(5)]
    petersen += [(i, i + 5) for i in range(5)]
    res = color_graph(10, petersen)
    assert res.colorable and proper(petersen, res.coloring)


def test_color_graph_planted_and_cubic():
    rng = random.Random(18)
    for _ in range(5):
        n, edges = planted_3colorable(rng, 30)
        res = color_graph(n, edges)
        assert res.colorable and proper(edges, res.coloring)
    for _ in range(5):
        graph = random_cubic(rng, 20)
        if graph is None:
            continue
        n, edges = graph
        res = color_graph(n, edges)
        want = brute_vertex_color((n, edges))
        assert res.colorable == (want is not None)


def test_color_graph_node_limit():
    rng = random.Random(19)
    n, edges = planted_3colorable(rng, 25)
    res = color_graph(n, edges, ColorConfig(node_limit=0))
    assert res.colorable is None


def test_odd_cycle_third_child_with_repeated_outside_neighbor():
    # The third child must not merge the repeated outside neighbor a
    # second time.  The commit loop colors this graph at its root node,
    # before any branching, so the root's branching is built here: its
    # five-cycle's second and third outside neighbors are one vertex.
    # Each colorable child lifts to a proper coloring of the graph.
    n, edges = REPEATED_OUTSIDE
    res = color_graph(n, edges)
    assert res.colorable and proper(edges, res.coloring)
    g, steps = adjacency(n, edges), []
    strip_low_degree(g, steps)
    cyc = find_degree3_cycle(_degree3_subgraph(g))
    outs = [min(g[v] - set(cyc)) for v in cyc]
    assert len(cyc) == 5 and outs[1] == outs[2] != outs[0]
    children = branch_degree3_cycle(g, _degree3_subgraph(g))
    lifted = 0
    for child, extra in children:
        kept = sorted(child)
        index = {v: i for i, v in enumerate(kept)}
        sub = color_graph(len(kept), [(index[u], index[v]) for u in kept for v in child[u] if u < v])
        if sub.colorable:
            lifted += 1
            assert proper(edges, lift({v: sub.coloring[index[v]] for v in kept}, steps + extra))
    # the first same-color child would add a self-loop, so it is dropped
    assert (len(children), lifted) == (2, 2)


def test_check_claims_reaches_the_leaf_csp(monkeypatch):
    # This graph has a leaf CSP that branches; with every cap at 0 the
    # claim check must fire inside the search's nested solve.
    graph = BRANCHING_LEAVES[0]
    assert search_color(*graph, SolverConfig(check_claims=True)).colorable
    monkeypatch.setattr("csp32.solver.claim_cap", lambda name: 0.0)
    assert search_color(*graph).colorable
    with pytest.raises(AssertionError):
        search_color(*graph, SolverConfig(check_claims=True))


def test_check_claims_survives_python_O():
    # The same check in a python -O subprocess, which drops assert
    # statements: the claim check must still raise.  The subprocess runs
    # the paper's search alone (helpers.search_color), as the test above
    # does, so that the graph reaches its branching leaf CSP.
    code = (
        "import random, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from csp32 import solver\n"
        "from csp32.oracle import planted_3colorable\n"
        "from helpers import search_color\n"
        "solver.claim_cap = lambda name: 0.0\n"
        "graph = planted_3colorable(random.Random(113), 22, 0.25)\n"
        "search_color(*graph, solver.SolverConfig(check_claims=True))\n"
    )
    run = run_fresh(code, "-O")
    assert run.returncode == 1
    assert "AssertionError: ('dangling', [" in run.stderr


def test_claim_checked_coloring_matches_brute_force():
    def claim_checked(graph) -> bool:
        """The paper's search under the claim check agrees with brute
        force; whether a leaf CSP branched."""
        res = search_color(*graph, SolverConfig(check_claims=True))
        assert res.colorable == (brute_vertex_color(graph) is not None)
        if res.colorable:
            assert proper(graph[1], res.coloring)
        return sum(res.stats.rule_counts.values()) > res.stats.rule_counts["matching"]

    branched = 0
    for seed in range(100):
        for graph in (
            planted_3colorable(random.Random(seed), 20, 0.25),
            random_graph(random.Random(seed), 12, 0.35),
        ):
            branched += claim_checked(graph)
    for graph in BRANCHING_LEAVES:
        branched += claim_checked(graph)
    assert branched >= 2  # some leaf CSPs branched, so their claims were checked


def test_color_graph_rejects_vertex_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        color_graph(2, [(5, 1)])
    for front_end in (color_graph, lambda n, edges: brute_vertex_color((n, edges))):
        with pytest.raises(ValueError, match="negative vertex count -1"):
            front_end(-1, [])


def test_color_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        color_graph(3, [(0, 1), (1, 1)])


def test_color_graph_rejects_unverified_coloring(monkeypatch):
    # A lift bug must surface as an error, also under python -O.
    n, edges = planted_3colorable(random.Random(5), 12, 0.4)
    monkeypatch.setattr(
        "csp32.vertexcolor.lift", lambda coloring, steps: dict.fromkeys(range(n), 0)
    )
    with pytest.raises(RuntimeError, match="failed verification"):
        color_graph(n, edges)


def test_color_graph_verifies_iterator_input(monkeypatch):
    # The edges are read twice (the adjacency and the final check), so an
    # iterator or a generator is read into a list first: a lift bug still
    # surfaces, as it does for the same triangle as a list.
    triangle = [(0, 1), (1, 2), (0, 2)]
    for edges in (iter(triangle), (e for e in triangle)):
        res = color_graph(3, edges)
        assert res.colorable and sorted(res.coloring.values()) == [0, 1, 2]
    monkeypatch.setattr(
        "csp32.vertexcolor.lift", lambda coloring, steps: dict.fromkeys(range(3), 0)
    )
    for edges in (triangle, iter(triangle), (e for e in triangle)):
        with pytest.raises(RuntimeError, match="failed verification"):
            color_graph(3, edges)


def _leaf_graphs(graphs):
    """The residues the paper's search hands to its leaf stage on these
    graphs."""
    seen = []
    solve_leaf = vertexcolor._solve_leaf

    def record(g, cfg, stats):
        seen.append({v: set(ns) for v, ns in g.items()})
        return solve_leaf(g, cfg, stats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vertexcolor, "_solve_leaf", record)
        for graph in graphs:
            search_color(*graph)
    return seen


def _seeded_graphs(count):
    for seed in range(count):
        n = 20 + seed % 21
        yield planted_3colorable(random.Random(seed), n, 7 / n)
        yield random_graph(random.Random(seed), 12 + seed % 9, (0.3, 0.375, 0.45)[seed % 3])


def _planted_graphs(count):
    """Planted 3-colorable graphs at n = 36, mean degree 7 (the
    color-planted benchmark's family), whose leaves often keep three or
    more three-color vertices."""
    for seed in range(count):
        yield planted_3colorable(random.Random(seed), 36, 7 / 36)


def _sparse_planted_graphs(count, degree):
    """Planted 3-colorable graphs at n = 30 to 50 and the given mean
    degree, from seeds 0 to count - 1.  The sparser they are, the more
    three-color vertices their leaves keep."""
    for seed in range(count):
        n = 30 + seed % 21
        yield planted_3colorable(random.Random(seed), n, degree / n)


def _assert_forests(g):
    """Check both forests of a leaf residue against their references and
    the placement invariants; returns (bushy forest, trees, X, Y)."""
    f = build_bushy_forest(g)
    assert (f.roots, f.children, f.internal, f.leaves) == brute_build_bushy_forest(g)
    assert f.vertices == f.internal | f.leaves
    trees, x_set, y_set = build_height_two_forest(g, f)
    outside = set(g) - (f.internal | f.leaves)
    packed = {v for t in trees for v in (t.root, *t.children)}
    want_x = {
        v for v in outside - packed
        if any(u in f.internal | f.leaves for u in g[v])
    }
    assert (x_set, y_set) == (want_x, outside - packed - want_x)
    _assert_placed(g, trees, y_set)
    return f, trees, x_set, y_set


def test_forests_match_brute_reference():
    residues = _leaf_graphs(chain(_seeded_graphs(80), _planted_graphs(300)))
    rooted = adjacent = 0
    for g in residues:
        f, _trees, x_set, _y_set = _assert_forests(g)
        rooted += bool(f.roots)
        adjacent += bool(x_set)
    assert rooted > 40 and adjacent > 20


def planted_y_graph(rng):
    """A graph that is its own leaf residue, with Y vertices to place.

    Vertex 0 roots a bushy forest whose leaves come in adjacent pairs.
    Two or three stars (a centre and three leaves) lie outside it, and
    up to two vertices per star each join three star leaves and nothing
    else; numbered after the centres, the star leaves are packed and
    those vertices form the Y set.  A high star touches the forest from
    every vertex and reaches degree four or more, so its tree may take
    five grandchildren; a low star keeps degree three and takes one
    joining vertex per leaf, so the degree-three vertices form small
    trees and no cycle.  Each forest leaf touches exactly two star
    vertices, so none grows.
    """
    stars = rng.randint(2, 3)
    high = [rng.random() < 0.5 for _ in range(stars)]
    high[rng.randrange(stars)] = True
    centres = range(1, stars + 1)
    leaves = [range(1 + stars + 3 * k, 4 + stars + 3 * k) for k in range(stars)]
    edges = [(c, leaf) for c, ls in zip(centres, leaves) for leaf in ls]
    room = {leaf: 2 if high[k] else 1 for k, ls in enumerate(leaves) for leaf in ls}
    y = 1 + 4 * stars
    for _ in range(rng.randint(1, 2 * stars)):
        open_high = [leaf for k, ls in enumerate(leaves) if high[k] for leaf in ls if room[leaf]]
        open_low = [leaf for k, ls in enumerate(leaves) if not high[k] for leaf in ls if room[leaf]]
        low = rng.randint(0, 1) if open_low else 0
        if len(open_high) < 3 - low:
            break
        for leaf in rng.sample(open_high, 3 - low) + rng.sample(open_low, low):
            room[leaf] -= 1
            edges.append((leaf, y))
        y += 1
    degree = Counter(v for e in edges for v in e)
    slots = sorted(
        v
        for k, (c, ls) in enumerate(zip(centres, leaves))
        for v in (c, *ls)
        for _ in range((4 if high[k] else 3) - degree[v])
    )
    spare = [v for k, (c, ls) in enumerate(zip(centres, leaves)) if high[k] for v in (c, *ls)]
    while len(slots) % 4 or len(slots) < 8:  # forest leaves pair up, four or more
        slots.append(spare[len(slots) % len(spare)])
    slots.sort()
    m = len(slots) // 2
    forest = range(y, y + m)
    edges += [(0, a) for a in forest]
    edges += [(a, a + 1) for a in forest[::2]]
    # a vertex's slots are consecutive, so they reach distinct forest leaves
    shift = rng.randrange(m)
    edges += [(v, forest[(i + shift) % m]) for i, v in enumerate(slots)]
    # forest leaves all see vertex 0, so an odd cycle among them refutes
    chords = [(a, b) for a, b in combinations(forest, 2) if b != a + 1 or a % 2 != y % 2]
    edges += rng.sample(chords, rng.randint(0, m // 2))
    return y + m, edges


def _bfs_numbered(n, edges):
    """A connected graph renumbered in breadth-first order from 0, which
    brute_vertex_color's fixed vertex order backtracks through quickly."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    pos = {v: i for i, (v, _parent) in enumerate(bfs(0, lambda v: sorted(adj[v])))}
    assert len(pos) == n
    return n, [(pos[u], pos[v]) for u, v in edges]


def test_height_two_placement_on_planted_y_vertices():
    # Real leaf residues with a nonempty Y set: every one is placed with
    # each Y vertex under one adjacent leaf, within the 3/5 tree caps and
    # two per leaf, and the search's verdict matches the brute oracle.
    # Each graph reaches one leaf, the whole graph.
    rng = random.Random(50)
    seen = Counter()
    for _ in range(1000):
        graph = planted_y_graph(rng)
        res = search_color(*graph)
        assert res.colorable == (brute_vertex_color(_bfs_numbered(*graph)) is not None)
        (g,) = _leaf_graphs([graph])
        assert len(g) == graph[0]
        _f, trees, _x_set, y_set = _assert_forests(g)
        assert y_set
        seen["high over three"] += any(t.high and t.grand_count > 3 for t in trees)
        seen["low placed"] += any(not t.high and t.grand_count for t in trees)
        seen[res.colorable] += 1
    assert seen["high over three"] > 100 and seen["low placed"] > 200
    assert seen[True] > 700 and seen[False] > 190, seen


def _assert_placed(g, trees, y_set):
    """Each Y vertex sits under exactly one leaf, adjacent to it, and no
    tree or leaf holds more grandchildren than it may."""
    for y in y_set:
        under = [leaf for t in trees for leaf, grands in t.grands.items() if y in grands]
        assert len(under) == 1 and under[0] in g[y]
    assert sorted(y for t in trees for grands in t.grands.values() for y in grands) == sorted(y_set)
    assert all(t.grand_count <= (5 if t.high else 3) for t in trees)
    assert all(len(grands) <= 2 for t in trees for grands in t.grands.values())


def test_flow_places_outside_vertices_under_adjacent_leaves():
    # The leaf residue of this planted graph has an outside vertex that
    # is neither packed nor next to the bushy forest (the flow's Y set).
    # Of the planted graphs of seeds 0-320,000, n 30/40/50/60/80 and mean
    # degree 4.6, 5.5, 6 or 7 by seed, only two reach such a leaf under
    # color_graph, this one among them: the commit loop decides the others
    # first.  Its root is one the loop gets no answer on, so color_graph
    # runs the paper's search from there, as _leaf_graphs does.
    graph = planted_3colorable(random.Random(318189), 80, 5.5 / 80)
    (g,) = _leaf_graphs([graph])
    trees, _x_set, y_set = build_height_two_forest(g, build_bushy_forest(g))
    assert y_set == {21}
    _assert_placed(g, trees, y_set)
    res = color_graph(*graph)
    assert res.colorable and proper(graph[1], res.coloring)


# Leaves with one high height-two tree of five grandchildren, which no
# seeded input reaches: bushy root 0 with the leaves 1-4, and the tree
# rooted at 5 (high, as 5 is also next to the forest leaf 1) with the
# forks 6 (grandchildren 9 and 10) and 7 (11 and 12), and 8 (13).  The
# first is colored with its forks alike.  In the second, 5 is next to 1
# and 2 as well, adjacent vertices that take the two colors 0 leaves, so
# 5 needs 0's color: forks that differ, one of them in 0's color, force
# 5 onto 1's or 2's and are refuted by propagation, and alike forks in
# 0's color fail at the CSP.  The third holds the K4 0, 2, 3, 4.
FIVE_GRANDCHILDREN = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (5, 6), (5, 7), (5, 8), (6, 9),
                      (6, 10), (7, 11), (7, 12), (8, 13)]
FIVE_GRANDCHILD_LEAVES = {
    "colored": [(2, 4), (9, 11), (9, 13), (10, 11), (10, 12), (12, 13)],
    "forced": [(1, 2), (2, 5), (9, 11), (9, 13), (10, 11), (10, 12), (12, 13)],
    "uncolorable": [(2, 3), (2, 4), (3, 4), (9, 11), (9, 12), (10, 12), (10, 13), (11, 13)],
}


def _five_grandchild_leaf(name):
    g = adjacency(14, FIVE_GRANDCHILDREN + FIVE_GRANDCHILD_LEAVES[name])
    f = build_bushy_forest(g)
    trees, _x_set, _y_set = build_height_two_forest(g, f)
    assert f.roots == [0] and f.internal == {0}
    assert [(t.root, t.grands, t.high) for t in trees] == [
        (5, {6: (9, 10), 7: (11, 12), 8: (13,)}, True)
    ]
    return g, f, trees


@pytest.mark.parametrize("name", sorted(FIVE_GRANDCHILD_LEAVES))
def test_leaf_colors_both_forks_of_five_grandchildren(name, monkeypatch):
    # The leaf colors bushy root 0, then the forks 6 and 7 of the
    # five-grandchild tree, never its root 5, each vertex's colors
    # ascending: under each color of 0 the forks take the nine ways in
    # order until one leads to a coloring.  In the second leaf, with 0
    # colored 0, the pairs (0, 1), (0, 2) and (1, 0) are refuted once 7
    # is colored, and (1, 1) leads to a coloring.
    g, f, trees = _five_grandchild_leaf(name)
    assert brute_leaf_order(f, trees) == [0, 6, 7]
    forward_check, tried = vertexcolor._forward_check, []

    def logged(g, masks, v, c):
        child = forward_check(g, masks, v, c)
        tried.append((v, c, child is not None))
        return child

    monkeypatch.setattr(vertexcolor, "_forward_check", logged)
    vertexcolor._solve_leaf(g, SolverConfig(), SearchStats())
    assert {v for v, _, _ in tried} == {0, 6, 7}
    forks = []  # (6's color, 7's color, kept) of each try at 7
    for v, c, kept in tried:
        if v == 6:
            a = c
        elif v == 7:
            forks.append((a, c, kept))
    nine = [(a, b) for a in range(3) for b in range(3)]
    assert [(a, b) for a, b, _ in forks] == (nine * 3 if name == "uncolorable" else nine[: len(forks)])
    if name == "forced":
        assert len(forks) == 5 and all(kept == (a == b) for a, b, kept in forks)


@pytest.mark.parametrize("name", sorted(FIVE_GRANDCHILD_LEAVES))
def test_five_grandchild_leaves_match_brute_reference(name, monkeypatch):
    # End to end through the leaf, each answer and each leaf CSP call's
    # masks are the brute reference's (the product of the forest units,
    # the tree's nine fork colorings among them).  At the CSP, forks that
    # differ have forced 5 to the third color, and alike forks leave it
    # the other two.
    out, cases = [], Counter()
    for leaf in (vertexcolor._solve_leaf, brute_solve_leaf):
        solved = []
        residual_solve = vertexcolor._residual_solve

        def logged(g, masks, cfg, stats):
            solved.append(list(masks))
            return residual_solve(g, masks, cfg, stats)

        monkeypatch.setattr(vertexcolor, "_residual_solve", logged)
        monkeypatch.setattr(helpers, "_residual_solve", logged)
        g, _f, _trees = _five_grandchild_leaf(name)
        out.append((leaf(g, SolverConfig(), SearchStats()), solved))
        monkeypatch.undo()
    (got, got_solved), (want, want_solved) = out
    assert got == want and got_solved == want_solved
    edges = FIVE_GRANDCHILDREN + FIVE_GRANDCHILD_LEAVES[name]
    assert (got is not None) == (name != "uncolorable")
    assert got is None or proper(edges, got)
    for masks in got_solved:
        if masks[6] == masks[7]:
            assert masks[5] == 7 ^ masks[6]
        else:
            assert masks[5] == 7 ^ masks[6] ^ masks[7]
        cases[masks[6] == masks[7]] += 1
    assert cases[True] and (cases[False] or name != "uncolorable")


def _record_csp(monkeypatch):
    """Patch the leaf CSP calls to log the instance (colors and
    constraints) of each one that succeeds, and the leaf residue solves
    (in vertexcolor and in the brute reference) to log each coloring
    they return."""
    solved, decided = [], []
    solve = vertexcolor.solve
    residual_solve = vertexcolor._residual_solve

    def logged_residual_solve(*args):
        full = residual_solve(*args)
        if full is not None:
            decided.append(full)
        return full

    def logged_solve(inst, cfg):
        args = (inst.colors, inst.constraints())
        res = solve(inst, cfg)
        if res.satisfiable:
            solved.append(args)
        return res

    monkeypatch.setattr(vertexcolor, "solve", logged_solve)
    monkeypatch.setattr(vertexcolor, "_residual_solve", logged_residual_solve)
    monkeypatch.setattr(helpers, "_residual_solve", logged_residual_solve)
    return solved, decided


def _cubic_graphs():
    """Seeded planted and random cubic graphs for the splice search.
    Most are colored at its first leaf, so the random ones run to n = 30
    to give the line-graph leaves real enumeration."""
    for s in range(100):
        yield planted_cubic_edge_colorable(random.Random(s), 12 + 2 * (s % 8))
        yield random_cubic(random.Random(s), 10 + 2 * (s % 4))
    for s in range(200):
        yield random_cubic(random.Random(100 + s), 16 + 2 * (s % 8))


def _planted_cubic_graphs(count):
    """Seeded planted cubic graphs from n = 40 up.  Their line-graph
    leaves more often keep vertices that propagation leaves undecided:
    refuted forward checks, and leaf CSPs with three-color vertices."""
    for s in range(count):
        yield planted_cubic_edge_colorable(random.Random(s), 40 + 2 * (s % 20))


# planted cubic seeds at n = 24, 32 and 40, from the first 30,000,
# 20,000 and 15,000, whose edge_color call colored a line-graph leaf
# while a commit loop with no backtrack ran at every graph node (about
# one seed in 1,500); color_graph's root loop now colors those line
# graphs before any leaf, so the tests run the paper's search on them
COLORED_LINE_LEAVES = {
    24: (20, 4512, 5552, 6879, 16240, 17765, 21537, 27249),
    32: (276, 1528, 1955, 2127, 7769, 8175, 9391, 11289, 12816, 14640, 16330, 18788, 19626),
    40: (129, 680, 2277, 3106, 3258, 4358, 4972, 7551, 8194),
}


def _random_cubic_graphs(count):
    """Seeded random cubic graphs from n = 22 to 40.  A few of their
    line-graph leaves go to the leaf CSP with two- and three-color lists."""
    for s in range(count):
        yield random_cubic(random.Random(s), 22 + 2 * (s % 10))


def _both_ways(monkeypatch, run):
    """run() with the forward-checked leaf and with the brute reference:
    (result, successful CSP arguments, decided leaf colorings, stats)
    for each."""
    out = []
    for leaf in (vertexcolor._solve_leaf, brute_solve_leaf):
        with monkeypatch.context() as mp:
            mp.setattr(vertexcolor, "_solve_leaf", leaf)
            solved, decided = _record_csp(mp)
            result, stats = run()
            out.append((result, solved, decided, stats))
    return out


def _assert_matches_brute_leaf(monkeypatch, graphs) -> Counter:
    """The paper's search on each graph, with the forward-checked leaf and
    with the brute reference: the same answers, leaf CSP instances,
    decided leaf colorings, leaves and breakdowns, and no more CSP calls.
    Tallies leaves, the CSP calls of each way and the colorings decided."""
    tally = Counter()
    for graph in graphs:
        (got, got_csp, got_leaf, got_stats), (want, want_csp, want_leaf, want_stats) = _both_ways(
            monkeypatch, lambda: ((res := search_color(*graph)).coloring, res.stats)
        )
        assert got == want and got_csp == want_csp and got_leaf == want_leaf
        assert (got_stats.leaves, got_stats.breakdowns) == (want_stats.leaves, want_stats.breakdowns)
        assert got_stats.csp_calls <= want_stats.csp_calls
        tally.update(leaves=got_stats.leaves, decided=len(got_leaf),
                     calls=got_stats.csp_calls, brute_calls=want_stats.csp_calls)
    return tally


def test_forward_checked_leaf_matches_brute_reference(monkeypatch):
    tally = _assert_matches_brute_leaf(
        monkeypatch, chain(_seeded_graphs(100), _sparse_planted_graphs(300, 7))
    )
    assert tally["decided"] > 350  # leaves their CSP call colored
    assert tally["calls"] < tally["brute_calls"] / 2  # the check prunes most leaf CSP calls


def test_forward_checked_line_graphs_match_brute_reference(monkeypatch):
    # The same on the line graphs of the splice search's leaves: the
    # flower snarks' are uncolorable and refuted, and the cubic graphs'
    # mostly colored.
    colored = (
        planted_cubic_edge_colorable(random.Random(s), n)
        for n, seeds in COLORED_LINE_LEAVES.items() for s in seeds
    )
    tally = _assert_matches_brute_leaf(monkeypatch, splice_line_graphs(
        chain(_cubic_graphs(), _random_cubic_graphs(100), map(flower_snark, (5, 7)), colored)
    ))
    assert tally["leaves"] > 350 and tally["calls"] > 600 and tally["decided"] > 300


def test_leaf_draws_match_brute_reference(monkeypatch):
    # At every leaf of seeded color-planted, G(n, p) and line-graph
    # inputs, the search colors the leaf's interior vertices in the
    # reference's order (brute_leaf_order), one vertex per depth, and
    # reaches the leaf CSP only once all of them are colored.  Each step
    # tries the colors its vertex's current mask keeps, ascending; each
    # try is charged as one node and forward-checked before anything
    # else is tried or charged.  Each start of a bushy tree's coloring is
    # tallied with the tree's proper colorings (brute_bushy_unit) that
    # the masks there rule out.  Line graphs of cubic graphs never
    # restrict a bushy tree's masks here, so only the colored batch
    # prunes.  The search runs no commit loop, so every forward check is
    # the leaf's; the line graphs are gathered before any of it is logged.
    planted = (planted_cubic_edge_colorable(random.Random(s), 24) for s in range(10))
    line_graphs = splice_line_graphs(
        chain(_cubic_graphs(), map(flower_snark, (9, 11, 13)), planted)
    )
    forest, forward_check = vertexcolor.build_height_two_forest, vertexcolor._forward_check
    residual_solve, expand, charge = vertexcolor._residual_solve, vertexcolor._expand, SolverConfig.charge
    events = []  # ("charge",) and ("check",) from the enumeration
    expands = []  # graph nodes of the call in progress
    leaf = {}  # the leaf in progress: its reference order and bushy trees
    depths = {}  # id of a step's masks -> (its depth, those masks, the colors tried from them)
    tally = Counter()

    def forests(g, f):
        out = forest(g, f)
        leaf["order"] = brute_leaf_order(f, out[0])
        leaf["bushy"] = {
            root: (brute_bushy_unit(g, f, root), any(u in f.internal for u in f.children[root]))
            for root in f.roots
        }
        depths.clear()
        return out

    def charged(cfg, stats):
        if sys._getframe(1).f_code.co_name == "extensions":
            events.append(("charge",))
        return charge(cfg, stats)

    def checked(g, masks, v, c):
        if id(masks) not in depths:
            assert masks == [7 * (u in g) for u in range(max(g) + 1)]  # the leaf's root
            depths[id(masks)] = (0, masks, [])
        depth, _, tried = depths[id(masks)]
        assert v == leaf["order"][depth]
        tried.append(c)
        assert tried == bits(masks[v])[: len(tried)]
        if len(tried) == 1 and v in leaf["bushy"]:
            want, deep = leaf["bushy"][v]
            allowed = [asg for asg in want if all(masks[u] >> k & 1 for u, k in asg.items())]
            tally["calls"] += 1
            tally["deep"] += deep  # a tree with two or more internal vertices
            tally["pruned"] += len(allowed) < len(want)
        events.append(("check",))
        child = forward_check(g, masks, v, c)
        if child is not None:
            depths[id(child)] = (depth + 1, child, [])
        return child

    def solved(g, masks, cfg, stats):
        assert depths[id(masks)][0] == len(leaf["order"])
        return residual_solve(g, masks, cfg, stats)

    def counted(*args):
        expands.append(args)
        return expand(*args)

    monkeypatch.setattr(vertexcolor, "build_height_two_forest", forests)
    monkeypatch.setattr(vertexcolor, "_forward_check", checked)
    monkeypatch.setattr(vertexcolor, "_residual_solve", solved)
    monkeypatch.setattr(vertexcolor, "_expand", counted)
    monkeypatch.setattr(SolverConfig, "charge", charged)

    def run(graphs):
        for graph in graphs:
            del events[:], expands[:]
            stats = search_color(*graph).stats
            assert stats.nodes == len(expands) + events.count(("charge",))
            assert events == [("charge",), ("check",)] * (len(events) // 2)

    run(chain(_seeded_graphs(160), _sparse_planted_graphs(600, 6.5)))
    colored = +tally
    run(line_graphs)
    line = tally - colored
    assert colored["calls"] > 3000 and colored["deep"] > 1000 and colored["pruned"] > 650
    assert line["calls"] > 4000 and line["deep"] > 900


def test_incremental_forward_check_matches_brute_reference(monkeypatch):
    # At every enumeration step of seeded color-planted, G(n, p) and
    # line-graph leaves, the masks carried down from the parent give the
    # from-scratch check's verdict, and a kept child's masks are the
    # lists that check propagates.
    line_graphs = splice_line_graphs(
        chain(_cubic_graphs(), _planted_cubic_graphs(30), map(flower_snark, (5, 7, 9)))
    )
    forward_check = vertexcolor._forward_check
    colored = {}  # id of a child's masks -> (those masks, its coloring)
    checks = refuted = 0

    def checked(g, masks, v, c):
        nonlocal checks, refuted
        if id(masks) in colored:
            _, acc = colored[id(masks)]
        else:
            assert masks == [7 * (v in g) for v in range(max(g) + 1)]  # a leaf's root
            acc = {}
        child = forward_check(g, masks, v, c)
        merged = {**acc, v: c}
        assert (child is None) == brute_forward_refuted(g, merged)
        checks += 1
        if child is None:
            refuted += 1
        else:
            want = brute_forward_lists(g, merged)
            assert child == [sum(1 << c for c in want.get(v, ())) for v in range(len(masks))]
            colored[id(child)] = (child, merged)
        return child

    monkeypatch.setattr(vertexcolor, "_forward_check", checked)
    for graph in _seeded_graphs(200):
        search_color(*graph)
        colored.clear()
    assert checks > 3000 and refuted > 1000
    before = checks, refuted
    for graph in line_graphs:
        search_color(*graph)
        colored.clear()
    assert checks - before[0] > 200 and refuted - before[1] > 50  # line graphs


def test_leaf_csp_holds_every_leaf_vertex_with_its_mask(monkeypatch):
    # At every leaf CSP call of seeded color-planted, G(n, p) and
    # line-graph leaves, the CSP holds every leaf vertex, on its own id,
    # with its mask's colors, and one constraint per color shared across
    # each leaf edge.  A vertex left one color has no constraint, as
    # propagation cleared that color from its neighbours; dropping those
    # vertices and renumbering the rest in vertex order gives _leaf_csp.
    # Every full interior coloring goes to the CSP; the line graphs of
    # the splice search's leaves on the flower snarks and 200 random
    # cubic graphs give the line-graph floors their entries.
    line_graphs = splice_line_graphs(
        chain(_random_cubic_graphs(200), map(flower_snark, (5, 7, 9, 11, 13)))
    )
    residual_solve, csp_solve = vertexcolor._residual_solve, vertexcolor.solve
    leaf = {}  # graph and masks of the call in progress
    sizes = Counter()

    def checked_solve(inst, cfg):
        g, masks = leaf["g"], leaf["masks"]
        assert inst.colors == {v: frozenset(bits(masks[v])) for v in g}
        cons = inst.constraints()
        assert cons == sorted(
            ((u, c), (v, c)) for u in g for v in g[u] if u < v for c in bits(masks[u] & masks[v])
        )
        assert all(masks[v] & (masks[v] - 1) for con in cons for v, _ in con)
        index = {v: i for i, v in enumerate(v for v in sorted(g) if masks[v] & (masks[v] - 1))}
        want = _leaf_csp(g, masks)
        assert {index[v]: cs for v, cs in inst.colors.items() if v in index} == want.colors
        assert [((index[u], c), (index[v], d)) for (u, c), (v, d) in cons] == want.constraints()
        for v in index:
            sizes[masks[v].bit_count()] += 1
        return csp_solve(inst, cfg)

    def checked(g, masks, cfg, stats):
        leaf["g"], leaf["masks"] = g, masks
        full = residual_solve(g, masks, cfg, stats)
        forced = {v: masks[v].bit_length() - 1 for v in g if masks[v].bit_count() == 1}
        sizes[1] += len(forced)  # colored vertices and the ones propagation forced
        if full is not None:
            assert full.items() >= forced.items()
        return full

    monkeypatch.setattr(vertexcolor, "solve", checked_solve)
    monkeypatch.setattr(vertexcolor, "_residual_solve", checked)
    for graph in chain(_seeded_graphs(120), _sparse_planted_graphs(400, 6)):
        search_color(*graph)
    before = +sizes
    for graph in line_graphs:
        search_color(*graph)
    line = sizes - before
    assert before[1] > 7000 and before[2] > 9000 and before[3] > 1400
    assert line[2] > 24000 and line[3] > 3400
    assert sizes[1] > 1000 and sizes[2] > 32000 and sizes[3] > 4800

    # A hand-built leaf: the bushy tree 0 -> 1 has interior {0, 1}, and
    # its first coloring forces 2, 3 and 4 (adjacent to both) and then 5,
    # 6 and 7 (adjacent to 1 and 2), so all eight masks hold one color:
    # the leaf's one CSP holds no constraint and no undecided vertex.
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
             (2, 5), (2, 6), (2, 7)]
    g = adjacency(8, edges)
    f = build_bushy_forest(g)
    assert (f.roots, f.internal, f.vertices) == ([0], {0, 1}, set(range(8)))
    before, stats = Counter(sizes), SearchStats()
    coloring = vertexcolor._solve_leaf(g, SolverConfig(), stats)
    assert sizes - before == Counter({1: 8}) and stats.csp_calls == 1
    assert sorted(coloring) == list(range(8)) and proper(edges, coloring)


def _leaf_csp(g, masks):
    """The CSP on a leaf residue's undecided vertices, with their masks
    as lists, whichever step of the leaf's flow decides it."""
    rest = [v for v in sorted(g) if masks[v] & (masks[v] - 1)]
    index = {v: i for i, v in enumerate(rest)}
    lists = {i: [c for c in (0, 1, 2) if masks[v] >> c & 1] for i, v in enumerate(rest)}
    edges = [(index[u], index[v]) for u in rest for v in g[u] if index.get(v, -1) > index[u]]
    return coloring_to_csp(len(rest), edges, lists)


def test_solve_decides_two_color_csps_at_the_root():
    # simplify decides every (3,2)-CSP with at most two three-color
    # variables: eliminating the others leaves at most two, and no
    # reduced instance has one or two variables (with no free pair, every pair
    # of the lower one hits all three colors of the other, so it is
    # dead).  So solve spends one node and fires no rule: all that a
    # leaf residue with at most two three-color vertices charges.
    rng = random.Random(7)
    verdicts = Counter()
    for trial in range(900):
        n = rng.randint(1, 12)
        threes = set(rng.sample(range(n), min(n, trial % 3)))
        sizes = {v: 3 if v in threes else rng.choice((1, 2, 2, 2)) for v in range(n)}
        inst = Instance.build({v: rng.sample(range(4), k) for v, k in sizes.items()})
        for v, w in combinations(range(n), 2):
            for c in sorted(inst.colors[v]):
                for d in sorted(inst.colors[w]):
                    if rng.random() < 0.12:
                        inst.add_constraint((v, c), (w, d))
        res = solve(inst)
        assert (res.stats.nodes, res.stats.rule_counts) == (1, Counter())
        assert res.satisfiable == (brute_csp(inst) is not None)
        verdicts[len(threes), res.satisfiable] += 1
    assert min(verdicts[k, sat] for k in (0, 1, 2) for sat in (True, False)) > 50, verdicts


def test_two_list_leaves_are_decided_by_propagation(monkeypatch):
    # At every leaf of seeded color-planted, G(n, p) and line-graph
    # leaves with at most two three-color vertices, the direct CSP on the
    # residue takes one node and fires no rule, so the one node the leaf
    # is charged is that solve's.  Its verdict is the leaf's, and a
    # coloring that comes back is proper and lies inside the masks.
    line_graphs = splice_line_graphs(
        chain(_cubic_graphs(), _random_cubic_graphs(100), map(flower_snark, (5, 7, 9)))
    )
    residual_solve = vertexcolor._residual_solve
    verdicts, threes = Counter(), Counter()

    def checked(g, masks, cfg, stats):
        full = residual_solve(g, masks, cfg, stats)
        k = masks.count(7)
        if k > 2:
            return full
        res = solve(_leaf_csp(g, masks))
        assert (res.stats.nodes, res.stats.rule_counts) == (1, Counter())
        assert (full is not None) == res.satisfiable
        verdicts[res.satisfiable] += 1
        threes[k] += 1
        if full is not None:
            assert set(full) == set(g)
            assert all(masks[v] >> full[v] & 1 for v in g)
            assert all(full[u] != full[v] for u in g for v in g[u])
        return full

    monkeypatch.setattr(vertexcolor, "_residual_solve", checked)
    for graph in chain(_seeded_graphs(120), _sparse_planted_graphs(200, 7)):
        search_color(*graph)
    before = +verdicts
    for graph in line_graphs:
        search_color(*graph)
    assert verdicts[True] > 100 and verdicts[False] > 300
    assert sum((verdicts - before).values()) > 170  # line graphs
    assert threes[1] > 100 and threes[2] > 70


def test_two_list_leaf_hand_built_cases(monkeypatch):
    # Hand-built leaf residues, each decided by the one CSP solve its
    # leaf builds on every leaf vertex: that solve's nodes are the leaf's
    # csp_nodes (one node when at most two vertices keep three colors),
    # and its verdict is the direct CSP's on the undecided vertices alone.
    # A coloring that comes back lies inside the masks and is proper, and
    # a spent budget trips the nested solve.
    built = []  # (variables, nodes) of each solve

    def logged_solve(inst, cfg):
        res = solve(inst, cfg)
        built.append((inst.n, res.stats.nodes))
        return res

    def decide(g, masks):
        del built[:]
        stats = SearchStats()
        full = vertexcolor._residual_solve(g, masks, SolverConfig(), stats)
        ((n, nodes),) = built
        assert n == len(g) and (stats.csp_calls, stats.csp_nodes, stats.spent) == (1, nodes, nodes)
        assert nodes == 1 or masks.count(7) > 2
        assert (full is not None) == solve(_leaf_csp(g, masks)).satisfiable
        if full is not None:
            assert set(full) == set(g) and all(masks[v] >> full[v] & 1 for v in g)
            assert all(full[u] != full[v] for u in g for v in g[u])
        stats = SearchStats()
        with pytest.raises(NodeLimitReached):
            vertexcolor._residual_solve(g, masks, SolverConfig(node_limit=0), stats)
        assert (stats.csp_calls, stats.csp_nodes, stats.spent) == (1, 1, 1)
        return full is not None

    monkeypatch.setattr(vertexcolor, "solve", logged_solve)

    # An odd cycle with lists {0, 1}.
    assert not decide(adjacency(5, [(i, (i + 1) % 5) for i in range(5)]), [0b011] * 5)
    # A 4-cycle on which vertex 0's first color, 0, forces 1 to 1 and 2
    # to 2, which leaves 3 nothing; its second color colors it.
    g = adjacency(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert _forward_check(g, [0b011, 0b011, 0b101, 0b110], 0, 0) is None
    assert decide(g, [0b011, 0b011, 0b101, 0b110])
    # Two adjacent three-color vertices and a two-color vertex next to both.
    assert decide(adjacency(3, [(0, 1), (0, 2), (1, 2)]), [7, 7, 0b011])
    # K4 less the edge 2-3, with lists {0, 1} at 2 and {1, 2} at 3 and
    # three colors at 0 and 1: only 2 and 3 both taking 1 colors it.
    g = adjacency(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert decide(g, [7, 7, 0b011, 0b110])
    # The same with the edge 2-3: no coloring.
    assert not decide(adjacency(4, list(combinations(range(4), 2))), [7, 7, 0b011, 0b110])

    # A pendant gadget: two-color vertices 0 to k - 1 with lists {0, 1},
    # each with three three-color pendants, beside an odd cycle of
    # two-color vertices with lists {0, 1}, which has no coloring.
    k = 3
    edges = [(i, k + 3 * i + j) for i in range(k) for j in range(3)]
    edges += [(4 * k + i, 4 * k + (i + 1) % 5) for i in range(5)]
    assert not decide(adjacency(4 * k + 5, edges), [0b011] * k + [7] * (3 * k) + [0b011] * 5)
    # The gadget with k = 2 beside a K4 whose vertex 4k + 3 has the list
    # {0, 1}: the two-color vertices alone are colorable, the leaf is not.
    k = 2
    edges = [(i, k + 3 * i + j) for i in range(k) for j in range(3)]
    edges += [(4 * k + a, 4 * k + b) for a, b in combinations(range(4), 2)]
    assert not decide(adjacency(4 * k + 4, edges), [0b011] * k + [7] * (3 * k) + [7, 7, 7, 0b011])


def test_commit_loop_tries_only_open_vertices_of_the_current_masks(monkeypatch):
    # On the stripped root of seeded color-planted graphs, with all three
    # colors at every vertex, as color_graph runs it, the commit loop
    # tries a vertex only while the masks current at that try leave it
    # two or three colors, each color in its mask, and its tries and
    # answer are the reference's, which takes at each step the vertex its
    # order rule picks among those still open, and backtracks as the loop
    # does.  A vertex an earlier commit forced is not tried; a loop that
    # read each mask from the starting masks would try it, though it
    # would keep every answer.
    forward_check = vertexcolor._forward_check
    tried = []  # (vertex, color) tries of the loop in progress
    tally = Counter()

    def checked(g, masks, v, c):
        assert masks[v].bit_count() in (2, 3) and masks[v] >> c & 1, (v, masks[v])
        tally["two-color tries"] += masks[v] != 7
        tried.append((v, c))
        return forward_check(g, masks, v, c)

    for graph in _planted_graphs(200):
        strip_low_degree(g := adjacency(*graph), [])
        masks = [7 * (v in g) for v in range(max(g, default=-1) + 1)]
        want_tries, want = brute_backtrack_loop(g, masks, forward_check)
        descent_tries = brute_commit_loop(g, masks, forward_check)[0]
        del tried[:]
        with monkeypatch.context() as mp:
            mp.setattr(vertexcolor, "_forward_check", checked)
            out = vertexcolor._commit_loop(g, masks)
        assert want_tries == tried and out == want
        tally["tries"] += len(tried)
        tally["backtrack tries"] += len(tried) - len(descent_tries)
        if out:  # every open vertex had its turn
            tally["forced"] += len(g) - len({v for v, _c in tried})
    assert tally["tries"] > 1200 and tally["forced"] > 3000, tally
    assert tally["two-color tries"] > 1000 and tally["backtrack tries"] > 75, tally


def test_commit_loop_matches_brute_force_on_seeded_masks():
    # Seeded graphs on 3 to 12 vertices, each built twice: vertices and
    # edges inserted in id order, and again in a shuffled order, with
    # two-color masks (a 0 mask leaves a vertex out) or mixed masks,
    # forward-checked from a random partial coloring as a leaf's are.
    # On both builds the loop's tries and answer are brute_backtrack_loop's,
    # which recomputes the order rule (fewest colors, highest degree,
    # lowest id) over sorted vertices at every step, so no tie-break
    # follows the order of g's dict or sets; where brute_commit_loop's
    # first descent colors, they are its.  A coloring is proper and inside
    # the masks, False comes exactly when no coloring inside the masks
    # exists (a product brute force), and None, never on two-color masks,
    # only once len(g) tries past the first descent are spent.  Stripped
    # edge roots of planted cubic graphs at n = 100, too big for the brute
    # force, run that budget out.
    rng = random.Random(46)
    forward_check = vertexcolor._forward_check
    tried = []
    tally = Counter()

    def logged(g, masks, v, c):
        tried.append((v, c))
        return forward_check(g, masks, v, c)

    def check(graphs, masks):
        """The loop's answer on each of graphs, the same graph in two
        builds, checked against both references."""
        g = graphs[0]
        want_tries, want = brute_backtrack_loop(g, masks, forward_check)
        descent_tries, descent = brute_commit_loop(g, masks, forward_check)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vertexcolor, "_forward_check", logged)
            for graph in graphs:
                del tried[:]
                out = vertexcolor._commit_loop(graph, list(masks))
                assert out == want and tried == want_tries
        assert want_tries[: len(descent_tries)] == descent_tries
        if descent is not None:
            assert (want_tries, want) == (descent_tries, descent)
        if out is None:
            assert len(want_tries) - len(descent_tries) == len(g)
        if out:
            assert all(out[v].bit_count() == 1 and masks[v] & out[v] for v in g if masks[v])
            assert all(out[u] != out[v] for u in g for v in g[u] if masks[u] and masks[v])
        return out

    for trial in range(1800):
        n = rng.randint(3, 9) if trial < 1200 else rng.randint(10, 12)
        edges = [e for e in combinations(range(n), 2) if rng.random() < rng.choice((0.3, 0.5, 0.7))]
        g = adjacency(n, edges)
        shuffled = {}
        for v in rng.sample(range(n), n):
            shuffled[v] = set()
        for u, v in rng.sample(edges, len(edges)):
            shuffled[u].add(v)
            shuffled[v].add(u)
        two = trial % 2 == 0
        masks = [rng.choice((0, 3, 5, 6) if two else (0, 3, 5, 6, 7, 7)) for _ in range(n)]
        if not two:
            live = [v for v in range(n) if masks[v]]
            partial = {v: rng.choice(bits(masks[v])) for v in rng.sample(live, len(live) // 3)}
            masks = _check_all(g, masks, partial)
            if masks is None:
                continue
        out = check((g, shuffled), masks)
        colorable = any(
            all(c[u] != c[v] for u, v in edges if masks[u] and masks[v])
            for c in product(*(bits(m) if m else (0,) for m in masks))
        )
        assert out is None or bool(out) == colorable
        assert out is not None or not two
        tally[two, colorable, out is not None and bool(out)] += 1
    assert tally[True, True, True] > 440 and tally[True, False, False] > 260, tally
    assert tally[False, True, True] > 350 and tally[False, False, False] > 7, tally

    # A two-color vertex beside a K4: it keeps its other color to go back
    # to until the K4's first pick, a three-color one, forgets it, so the
    # K4's first dead end refutes the masks after the first descent.
    k4 = adjacency(5, list(combinations(range(4), 2)))
    assert check((k4,), [7, 7, 7, 7, 0b011]) is False and tried == brute_commit_loop(
        k4, [7, 7, 7, 7, 0b011], forward_check)[0]

    for s in range(50):
        n, edges = planted_cubic_edge_colorable(random.Random(s), 100)
        g, _ = edgecolor.edge_root(n, edges)
        shuffled = {e: g[e] for e in rng.sample(sorted(g), len(g))}
        out = check((g, shuffled), [7 * (e in g) for e in range(len(edges))])
        tally["edge root", None if out is None else bool(out)] += 1
    assert tally["edge root", None] > 18 and tally["edge root", True] > 21, tally


def test_commit_loop_never_runs_out_on_two_color_masks():
    # On two-color masks (a 0 mask leaves a vertex out) the loop is
    # complete, so it keeps no color to go back to: its first dead end
    # refutes the masks, and it never returns None, on graphs far past
    # the brute force's sizes too.  Its verdict is the CSP's on the
    # same lists.
    rng = random.Random(47)
    tally = Counter()
    for _ in range(300):
        n = rng.randint(20, 120)
        g = adjacency(*random_graph(rng, n, rng.uniform(2, 6) / n))
        masks = [rng.choice((0, 3, 5, 6)) for _ in range(n)]
        out = vertexcolor._commit_loop(g, masks)
        sub = {v: {u for u in ns if masks[u]} for v, ns in g.items() if masks[v]}
        assert out is not None and bool(out) == solve(_leaf_csp(sub, masks)).satisfiable
        tally[bool(out)] += 1
    assert tally[True] > 50 and tally[False] > 50, tally
    # Two-color vertices 0 to 2, each with two two-color pendants, go
    # first (degree two, lowest ids) beside an odd cycle: a loop that
    # kept their other colors to go back to would try all eight ways
    # against the cycle and run out; this one refutes the masks at the
    # cycle's first dead end.
    edges = [(i, 3 + 2 * i + j) for i in range(3) for j in range(2)]
    edges += [(9 + i, 9 + (i + 1) % 5) for i in range(5)]
    assert vertexcolor._commit_loop(adjacency(14, edges), [0b011] * 14) is False


# Colorable graphs on which the commit loop's first descent, run on
# all-three-color masks, gets stuck: each commit passes the forward check,
# yet no proper coloring extends the commits, and then no color left to
# some vertex passes the check.  In the cubic one (random cubic, seed 210)
# every vertex has degree three, so 0 goes first and takes 0; 2, its
# two-color neighbour of lowest id, takes 1, then 1 (next to 2) takes 0
# and 4 (next to 2) takes 0; neither color left to 3, next to 4, 6 and 7,
# then passes the forward check.  The other is a planted 3-colorable graph
# (seed 236624, n = 12, p = 0.7) whose every vertex has degree four or
# more: 2 (degree six, lowest id) takes 0, its neighbour 0 (degree five)
# takes 1, and 6 (degree six, next to 0) takes 0, though 2 and 6 differ
# in every proper coloring; neither color left to 8 then passes the
# forward check.
COMMIT_STUCK = {
    "cubic": ((8, [(0, 2), (0, 5), (0, 7), (1, 2), (1, 5), (1, 6), (2, 4), (3, 4), (3, 6),
                   (3, 7), (4, 5), (6, 7)]), {0: 0, 2: 1, 1: 0, 4: 0}),
    "tripartite": ((12, [(0, 1), (0, 2), (0, 4), (0, 6), (0, 10), (1, 5), (1, 9), (1, 10),
                         (1, 11), (2, 3), (2, 5), (2, 7), (2, 9), (2, 10), (3, 4), (3, 6),
                         (3, 8), (4, 5), (4, 7), (4, 9), (4, 10), (5, 6), (5, 8), (6, 8),
                         (6, 9), (6, 11), (7, 8), (7, 11), (8, 9), (8, 11)]), {2: 0, 0: 1, 6: 0}),
}


@pytest.mark.parametrize("name", sorted(COMMIT_STUCK))
def test_node_commit_loop_stuck_graphs_are_colored_by_the_search(name):
    # Stripping keeps every vertex and the first descent gets stuck at the
    # root graph node after the commits listed, which pass the forward
    # check though no coloring extends them.  The loop goes back over its
    # two-color commits and colors the graph there, charged as that one
    # graph node.  The paper's search, with no loop, colors the graph
    # too, the cubic one by its cycle branching and the other by its leaf.
    (n, edges), commits = COMMIT_STUCK[name]
    g = adjacency(n, edges)
    strip_low_degree(g, [])
    assert len(g) == n
    assert _check_all(g, [7] * n, commits) is not None
    assert brute_vertex_color(extension_graph(n, edges, commits)) is None
    forward_check, kept = vertexcolor._forward_check, {}

    def logged(g, masks, v, c):
        out = forward_check(g, masks, v, c)
        if out is not None:
            kept[v] = c
        return out

    assert brute_commit_loop(g, [7] * n, logged)[1] is None
    assert list(kept.items()) == list(commits.items())
    committed = vertexcolor._commit_loop(g, [7] * n)
    res = color_graph(n, edges)
    assert res.colorable and res.coloring == {v: committed[v].bit_length() - 1 for v in g}
    assert (res.stats.nodes, res.stats.leaves) == (1, 0)
    res = search_color(n, edges)
    assert res.colorable and proper(edges, res.coloring)
    assert res.stats.nodes > 1
    assert res.stats.leaves == (name == "tripartite")


def test_node_commit_loop_on_wheels():
    # A hub joined to every vertex of a cycle: stripping keeps all of it.
    # An odd rim needs four colors, which the loop's backtrack refutes at
    # the root node; on an even rim the loop colors the wheel there.
    # Either way the call is charged as that one graph node, with no leaf
    # and no CSP call.
    for rim in range(3, 10):
        n, edges = rim + 1, [(0, v) for v in range(1, rim + 1)]
        edges += [(v, v % rim + 1) for v in range(1, rim + 1)]
        g = adjacency(n, edges)
        strip_low_degree(g, [])
        assert len(g) == n
        committed = vertexcolor._commit_loop(g, [7] * n)
        res = color_graph(n, edges)
        assert res.colorable == (rim % 2 == 0) == (committed is not False)
        if res.colorable:
            assert res.coloring == {v: committed[v].bit_length() - 1 for v in range(n)}
        assert (res.stats.nodes, res.stats.leaves, res.stats.csp_calls) == (1, 0, 0)
        assert res.stats.breakdowns == (0, 0, 0, 0, 0)


# The seeds s < 300 of G(n, 4.6/n), n = 60 + s % 40, whose stripped root
# the commit loop gets no answer on
GNP_STUCK = (34, 100, 142, 150, 184, 198, 260, 268, 269, 272, 276)
FRONT_ENDS = ("vertexcolor.color_graph", "edgecolor.edge_color")
PROFILED = {
    *FRONT_ENDS, "vertexcolor._commit_loop", "vertexcolor._search", "edgecolor._splice_search",
    "vertexcolor.branch_degree3_cycle", "vertexcolor.branch_degree3_tree",
    "vertexcolor._solve_leaf", "edgecolor.select_splices", "edgecolor.splice",
}


def _profiled(run):
    """run()'s result and its calls to the PROFILED functions in call
    order, each as (module.function, the callee's arguments), as a
    profiler sees them: nothing is patched."""
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_globals["__name__"].startswith("csp32."):
            name = f"{frame.f_globals['__name__'][6:]}.{frame.f_code.co_name}"
            if name in PROFILED:
                calls.append((name, dict(frame.f_locals)))

    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, calls


def test_commit_loop_runs_once_at_each_front_end_root():
    # Each color_graph and edge_color call, a line-graph leaf's among
    # them, runs the commit loop exactly once, first: on its stripped root
    # with all three colors at every vertex (edge), before any branching,
    # leaf, splice plan or splice.  A root the loop decides is charged as
    # one node (for edge_color, the one-node line-graph leaf it replaces)
    # and nothing else runs; on a stuck root the call makes the calls of
    # the paper's search alone (helpers.search_color, search_edge_color),
    # with its answer and stats.  That search never runs the loop but in
    # a line-graph leaf's color_graph call.
    tally = Counter()

    def loop_once_per_front_end(names):
        for i, name in enumerate(names):
            if name == "vertexcolor._commit_loop":
                assert i and names[i - 1] in FRONT_ENDS
            elif name in FRONT_ENDS:
                assert names[i + 1 : i + 2] == ["vertexcolor._commit_loop"]

    def check(front_name, front, search, graph, root):
        (got, stats), calls = _profiled(lambda: front(*graph))
        (want, want_stats), search_calls = _profiled(lambda: search(*graph))
        names, search_names = [name for name, _ in calls], [name for name, _ in search_calls]
        loop_once_per_front_end(names)
        loop_once_per_front_end(search_names)
        g, steps = root
        (first, _), (loop, args) = calls[:2]
        assert (first, loop, args["g"]) == (front_name, "vertexcolor._commit_loop", g)
        assert args["masks"] == [7 * (v in g) for v in range(max(g, default=-1) + 1)]
        decided = commit_coloring({v: set(ns) for v, ns in g.items()}, list(steps))
        if decided is None:
            assert names[2:] == search_names and got == want and vars(stats) == vars(want_stats)
        else:
            assert names == names[:2] and (got is None) == (decided is False)
            assert (stats.nodes, stats.csp_nodes, stats.splices, stats.spent) == (1, 0, 0, 1)
        tally[first, "stuck" if decided is None else bool(decided)] += 1
        return search_names

    def vertex(graph):
        strip_low_degree(g := adjacency(*graph), steps := [])
        search_names = check(
            "vertexcolor.color_graph",
            lambda n, edges: ((res := color_graph(n, edges)).coloring, res.stats),
            lambda n, edges: ((res := search_color(n, edges)).coloring, res.stats),
            graph, (g, steps),
        )
        assert "vertexcolor._commit_loop" not in search_names

    # the loop decides every seeded graph here at its root but the
    # G(n, 4.6/n) graphs and the last two random cubic ones
    gnp = (random_graph(random.Random(s), 60 + s % 40, 4.6 / (60 + s % 40)) for s in GNP_STUCK)
    cubic = (random_cubic(random.Random(s), 10 + 2 * (s % 8)) for s in (*range(200), 410, 514))
    for graph in chain(_seeded_graphs(60), gnp, cubic, [TREE8, COMMIT_STUCK["cubic"][0]]):
        vertex(graph)
    edge_inputs = chain(
        (planted_cubic_edge_colorable(random.Random(s), 24 + 8 * (s % 3)) for s in range(90)),
        (random_cubic(random.Random(s), 16 + 2 * (s % 13)) for s in range(200)),
        map(flower_snark, (5, 7)),
    )
    for graph in edge_inputs:
        check("edgecolor.edge_color", edge_color, search_edge_color, graph, edge_root(*graph))
    vertex_calls, edge_calls = "vertexcolor.color_graph", "edgecolor.edge_color"
    assert tally[vertex_calls, True] > 250 and tally[vertex_calls, False] > 50, tally
    assert tally[vertex_calls, "stuck"] == len(GNP_STUCK) + 2, tally
    assert tally[edge_calls, True] > 250 and tally[edge_calls, False]
    assert tally[edge_calls, "stuck"] > 10, tally


def test_search_colors_a_graph_node_stripping_empties():
    # A graph node of the paper's search that stripping empties returns
    # its steps' lift, charged as that one graph node, with no leaf: the
    # root of a tree, and the one child of the cube's 4-cycle branching,
    # whose deletion leaves a 4-cycle of degree-two vertices.
    tree = (6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
    cube = (8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1])
    for (n, edges), nodes in ((tree, 1), (cube, 2)):
        res = search_color(n, edges)
        assert res.colorable and sorted(res.coloring) == list(range(n))
        assert (res.stats.nodes, res.stats.leaves, res.stats.csp_calls) == (nodes, 0, 0)


def _check_all(g, masks, colored):
    """_forward_check folded over colored's vertices in order: the
    masks, or None once one call refutes."""
    for v, c in colored.items():
        if masks is None:
            break
        masks = _forward_check(g, masks, v, c)
    return masks


def test_forward_check_refutes_only_unextendable_colorings():
    rng = random.Random(31)
    refuted = kept = 0
    while refuted < 150:
        n, edges = random_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.6))
        g = adjacency(n, edges)
        partial = {v: rng.randrange(3) for v in range(n) if rng.random() < 0.4}
        if any(partial.get(u, -1) == partial.get(v, -2) for u, v in edges):
            continue  # improper partial colorings never reach the check
        if _check_all(g, [7] * n, partial) is None:
            refuted += 1
            assert brute_vertex_color(extension_graph(n, edges, partial)) is None
        else:
            kept += 1
    assert kept > 150


def test_forward_check_refutes_a_clash_inside_one_coloring():
    # Two adjacent vertices of one unit coloring with one color: each
    # empties the other's mask, so the check alone refutes the coloring.
    g = adjacency(3, [(0, 1), (1, 2)])
    assert _check_all(g, [7] * 3, {0: 1, 1: 1}) is None
    assert _check_all(g, [7] * 3, {0: 1, 2: 1}) is not None


def test_forward_check_keeps_colored_vertices_as_singletons():
    # On the path 0-1-2-3, coloring 0 and 2 forces 1; every colored or
    # forced vertex stays in the masks with its one color.
    g = adjacency(4, [(0, 1), (1, 2), (2, 3)])
    child = _check_all(g, [7] * 4, {0: 0, 2: 1})
    assert child == [0b001, 0b100, 0b010, 0b101]
    assert _forward_check(g, child, 3, 1) is None  # 2 already has color 1


def test_forward_check_pops_forced_vertices_with_their_one_color():
    # The check stacks vertex ids and reads a forced vertex's color off
    # its mask when it pops it.  On a triangle with lists {0, 1} at 1 and
    # 2, coloring 0 with 0 forces both to 1: the one popped first empties
    # the other before it is popped, which refutes.
    g = adjacency(3, [(0, 1), (0, 2), (1, 2)])
    assert _forward_check(g, [7, 0b011, 0b011], 0, 0) is None
    # Coloring 0 with 0 and then 3 with 1 forces 1 and 2 to 2 in one
    # check; popping 1 forces 4 to 1.
    g = adjacency(5, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3)])
    colored = {0: 0, 3: 1}
    want = brute_forward_lists(g, colored)
    got = _check_all(g, [7] * 5, colored)
    assert got == [sum(1 << c for c in want[v]) for v in range(5)]
    assert got == [0b001, 0b100, 0b100, 0b010, 0b010]


def test_leaf_charges_no_coloring_a_propagated_color_excludes():
    # Bushy roots 0 (interior {0, 1}) and 9.  Coloring 0 -> 0 and then
    # 1 -> 1 forces 2, 3 and 4 to 2 and then 5 to 0, so 9 loses color 0
    # though no colored vertex is next to it.  9 is charged for 9 -> 1
    # alone, which succeeds: three nodes, one per vertex color drawn.
    # (Two while a bushy tree's whole coloring was one node.)
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
             (1, 8), (2, 5), (2, 6), (2, 7), (2, 8), (5, 9), (9, 10), (9, 11), (9, 12)]
    g = adjacency(13, edges)
    f = build_bushy_forest(g)
    assert (f.roots, f.internal) == ([0, 9], {0, 1, 9})
    masks = _check_all(g, [7] * 13, {0: 0, 1: 1})
    assert (masks[5], masks[9]) == (0b001, 0b110)
    stats = SearchStats()
    coloring = vertexcolor._solve_leaf(g, SolverConfig(), stats)
    assert stats.nodes == 3 and (coloring[0], coloring[1], coloring[9]) == (0, 1, 1)
    assert sorted(coloring) == list(range(13)) and proper(edges, coloring)


def test_enumeration_node_limit_stops_before_any_csp_call():
    # Every interior coloring of this graph's one leaf is refuted by the
    # forward check, so the call spends its whole budget enumerating.
    # Each interior vertex color drawn is a node: 85, from 76 while a
    # bushy tree's whole coloring was one.
    graph = random_graph(random.Random(186), 24, 0.25)
    res = search_color(*graph)
    assert res.colorable is False
    assert (res.stats.nodes, res.stats.leaves, res.stats.csp_calls) == (85, 1, 0)
    for limit in range(res.stats.nodes):
        res = search_color(*graph, SolverConfig(node_limit=limit))
        assert res.colorable is None
        assert res.stats.csp_calls == 0 and res.stats.spent == limit + 1

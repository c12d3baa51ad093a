"""Graph 3-coloring pipeline: reductions, forests, and end-to-end solving.

The tests that take the first_descent_loop fixture (tests/conftest.py)
run the commit loop without its backtrack, as it ran before it had one,
so that seeded inputs reach the paper's search; where their comments
say the loop gets stuck, they mean that first descent.
"""

import random
import sys
from collections import Counter
from itertools import chain, combinations, product
from pathlib import Path

import pytest

import csp32.edgecolor as edgecolor
import csp32.vertexcolor as vertexcolor
from csp32.edgecolor import edge_color
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
    HeightTwoTree,
    Merged,
    _degree3_subgraph,
    _forward_check,
    _height_two_unit,
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
    brute_solve_leaf,
    edge_root_stuck,
    extension_graph,
    first_descent,
    flower_snark,
    node_root_stuck,
    run_fresh,
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


# Small seeded graphs whose leaf CSP branches under the commit loop's
# first descent (first_descent_loop), from seeds 0-4999 of their
# families: the loop colors most graphs at a graph node, so few reach a
# leaf, and fewer leaf CSPs branch.  With the backtrack, none of the planted 7/n graphs
# of seeds 0-2999 at n = 100-150 builds one.  Each branching has a claim
# to check: dangling, then implication four times.
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


def test_leaf_stage_records_breakdowns(first_descent_loop):
    # Dense random graphs reach the forest/leaf stage; the stats keep the
    # componentwise max of the leaves' vertex accounting, one 5-tuple
    # however many leaves there are.
    rng = random.Random(23)
    saw_breakdown = False
    for _ in range(40):
        n, edges = random_graph(rng, rng.randint(10, 14), p=0.5)
        res = color_graph(n, edges)
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


def test_check_claims_reaches_the_leaf_csp(monkeypatch, first_descent_loop):
    # This graph has a leaf CSP that branches; with every cap at 0 the
    # claim check must fire inside color_graph's nested solve.
    graph = BRANCHING_LEAVES[0]
    assert color_graph(*graph, SolverConfig(check_claims=True)).colorable
    monkeypatch.setattr("csp32.solver.claim_cap", lambda name: 0.0)
    assert color_graph(*graph).colorable
    with pytest.raises(AssertionError):
        color_graph(*graph, SolverConfig(check_claims=True))


def test_check_claims_survives_python_O():
    # The same check in a python -O subprocess, which drops assert
    # statements: the claim check must still raise.  The subprocess runs
    # the commit loop without its backtrack, as the first_descent_loop
    # fixture does, so that the graph reaches its branching leaf CSP.
    code = (
        "import random, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from csp32 import solver, vertexcolor\n"
        "from csp32.oracle import planted_3colorable\n"
        "from csp32.vertexcolor import color_graph\n"
        "from helpers import first_descent\n"
        "vertexcolor._commit_loop = first_descent\n"
        "solver.claim_cap = lambda name: 0.0\n"
        "graph = planted_3colorable(random.Random(113), 22, 0.25)\n"
        "color_graph(*graph, solver.SolverConfig(check_claims=True))\n"
    )
    run = run_fresh(code, "-O")
    assert run.returncode == 1
    assert "AssertionError: ('dangling', [" in run.stderr


def test_claim_checked_coloring_matches_brute_force(first_descent_loop):
    def claim_checked(graph) -> bool:
        """color_graph under the claim check agrees with brute force;
        whether a leaf CSP branched."""
        res = color_graph(*graph, SolverConfig(check_claims=True))
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
    """The residues color_graph hands to its leaf stage on these graphs."""
    seen = []
    solve_leaf = vertexcolor._solve_leaf

    def record(g, cfg, stats):
        seen.append({v: set(ns) for v, ns in g.items()})
        return solve_leaf(g, cfg, stats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vertexcolor, "_solve_leaf", record)
        for graph in graphs:
            color_graph(*graph)
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


def _stuck_planted_graphs(count, degree):
    """Planted 3-colorable graphs at n = 30 to 50 and the given mean
    degree, from seeds 0 to count - 1, only those whose stripped root the
    commit loop in place gets no answer on (the first descent, under
    first_descent_loop): it colors most planted graphs there, and these
    go on to a leaf.  The sparser they are, the more three-color
    vertices their leaves keep."""
    for seed in range(count):
        n = 30 + seed % 21
        yield from filter(node_root_stuck, [planted_3colorable(random.Random(seed), n, degree / n)])


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


def test_forests_match_brute_reference(first_descent_loop):
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


def test_height_two_placement_on_planted_y_vertices(first_descent_loop):
    # Real leaf residues with a nonempty Y set: every one is placed with
    # each Y vertex under one adjacent leaf, within the 3/5 tree caps and
    # two per leaf, and color_graph's verdict matches the brute oracle.
    # The commit loop colors about three in four of these graphs at their
    # root graph node, so they reach no leaf; the rest reach one leaf, the
    # whole graph, and only those need the oracle.
    rng = random.Random(50)
    seen = Counter()
    for _ in range(2000):
        graph = planted_y_graph(rng)
        res = color_graph(*graph)
        if not node_root_stuck(graph):
            assert res.colorable and proper(graph[1], res.coloring)
            assert (res.stats.nodes, res.stats.leaves) == (1, 0)
            seen["loop colored"] += 1
            continue
        assert res.colorable == (brute_vertex_color(_bfs_numbered(*graph)) is not None)
        if res.colorable:
            assert proper(graph[1], res.coloring)
        (g,) = _leaf_graphs([graph])
        assert len(g) == graph[0]
        _f, trees, _x_set, y_set = _assert_forests(g)
        assert y_set
        seen["high over three"] += any(t.high and t.grand_count > 3 for t in trees)
        seen["low placed"] += any(not t.high and t.grand_count for t in trees)
        seen[res.colorable] += 1
    assert seen["high over three"] > 38 and seen["low placed"] > 75
    assert seen[True] > 50 and seen[False] > 260, seen


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
    # degree 4.6, 5.5, 6 or 7 by seed, only two reach such a leaf, this
    # one among them: the commit loop decides the others at a graph node
    # first or at their leaf without one.
    graph = planted_3colorable(random.Random(318189), 80, 5.5 / 80)
    (g,) = _leaf_graphs([graph])
    trees, _x_set, y_set = build_height_two_forest(g, build_bushy_forest(g))
    assert y_set == {21}
    _assert_placed(g, trees, y_set)
    res = color_graph(*graph)
    assert res.colorable and proper(graph[1], res.coloring)


def test_height_two_unit_colors_both_forks_of_five_grandchildren():
    tree = HeightTwoTree(0, (1, 2, 3), {1: (4, 5), 2: (6, 7), 3: (8,)}, high=True)
    outs = _height_two_unit(tree)
    assert sorted((asg[1], asg[2]) for asg in outs) == [(a, b) for a in range(3) for b in range(3)]
    for asg in outs:
        if asg[1] == asg[2]:
            assert set(asg) == {1, 2}
        else:
            assert set(asg) == {0, 1, 2} and {asg[0], asg[1], asg[2]} == {0, 1, 2}


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
    """Seeded planted and random cubic graphs for edge_color, only those
    whose stripped root the commit loop in place gets no answer on (the
    first descent, under first_descent_loop): the loop colors
    most small ones there, before any splice or line-graph leaf.  Most of
    the rest are colored at the splice search's first leaf, so the random
    ones run to n = 30 to give the line-graph leaves real enumeration."""
    for s in range(100):
        yield from filter(edge_root_stuck, (
            planted_cubic_edge_colorable(random.Random(s), 12 + 2 * (s % 8)),
            random_cubic(random.Random(s), 10 + 2 * (s % 4)),
        ))
    yield from filter(edge_root_stuck, (
        random_cubic(random.Random(100 + s), 16 + 2 * (s % 8)) for s in range(200)
    ))


def _planted_cubic_graphs(count):
    """Seeded planted cubic graphs from n = 40 up.  Their line-graph
    leaves more often keep vertices that propagation leaves undecided:
    refuted forward checks, and leaf CSPs with three-color vertices."""
    for s in range(count):
        yield planted_cubic_edge_colorable(random.Random(s), 40 + 2 * (s % 20))


# planted cubic seeds at n = 24, 32 and 40, from the first 30,000,
# 20,000 and 15,000, whose edge_color call colors a line-graph leaf: the
# commit loop colors nearly every colorable line graph at its root graph
# node, so about one such seed in 1,500 reaches a leaf it colors
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


def test_forward_checked_leaf_matches_brute_reference(monkeypatch, first_descent_loop):
    def run(graph):
        res = color_graph(*graph)
        return (res.colorable, res.coloring), res.stats

    # the commit loop colors most of the seeded graphs at their root
    # graph node, before any leaf, so planted graphs it gets stuck on
    # join the batch
    calls = [0, 0]
    decided = 0
    for graph in chain(_seeded_graphs(100), _stuck_planted_graphs(1600, 7)):
        (got, got_csp, got_leaf, got_stats), (want, want_csp, want_leaf, want_stats) = _both_ways(
            monkeypatch, lambda: run(graph)
        )
        assert got == want and got_csp == want_csp and got_leaf == want_leaf
        decided += len(got_leaf)
        assert (got_stats.leaves, got_stats.breakdowns) == (want_stats.leaves, want_stats.breakdowns)
        assert got_stats.csp_calls <= want_stats.csp_calls
        calls[0] += got_stats.csp_calls
        calls[1] += want_stats.csp_calls
    assert decided > 150  # leaves their CSP call colored
    assert calls[0] < calls[1] / 2  # the check prunes most leaf CSP calls


def test_forward_checked_line_graphs_match_brute_reference(monkeypatch, first_descent_loop):
    # The commit loop colors nearly every colorable line graph at its
    # root graph node, so the line-graph leaves that remain are mostly
    # uncolorable and refuted; residues counts the leaf CSP calls, one
    # per full interior coloring's residue, and
    # the COLORED_LINE_LEAVES seeds give the colored leaves.
    colored = (
        planted_cubic_edge_colorable(random.Random(s), n)
        for n, seeds in COLORED_LINE_LEAVES.items() for s in seeds
    )
    leaves = residues = decided = 0
    for graph in chain(
        _cubic_graphs(), _random_cubic_graphs(100), map(flower_snark, (5, 7)), colored
    ):
        (got, got_csp, got_leaf, got_stats), (want, want_csp, want_leaf, want_stats) = _both_ways(
            monkeypatch, lambda: edge_color(*graph)
        )
        assert got == want and got_csp == want_csp and got_leaf == want_leaf
        assert (got_stats.splices, got_stats.leaves) == (want_stats.splices, want_stats.leaves)
        leaves += got_stats.leaves
        residues += got_stats.csp_calls
        decided += len(got_leaf)
    assert leaves > 180 and residues > 70 and decided > 20


def test_bushy_unit_draws_match_brute_reference(monkeypatch, first_descent_loop):
    # At every leaf of seeded color-planted, G(n, p) and line-graph
    # inputs, each bushy unit, given the masks the search passes it,
    # yields the reference's colorings of its tree that those masks allow,
    # in the reference's order and with the vertices in its order.  Each
    # coloring the search draws from a unit is charged as one node and
    # forward-checked before anything else is drawn or charged.  Line
    # graphs of cubic graphs never restrict a bushy unit's masks here, so
    # only the colored batch prunes.  The commit loop colors most colored
    # inputs at their root graph node, before any leaf, so that batch
    # adds planted graphs it gets stuck on.  An edge_color root the loop
    # colors is charged as one node with no graph node under it.
    bushy_unit, forward_check = vertexcolor._bushy_unit, vertexcolor._forward_check
    expand, charge = vertexcolor._expand, SolverConfig.charge
    root_coloring = edgecolor.commit_coloring
    events = []  # ("draw", id), ("charge",), ("check", id) from the enumeration
    expands = []  # graph nodes of the call in progress
    roots = []  # edge_color's root loop outcomes, True when it colored, of that call
    tally = Counter()

    def unit(g, f, root):
        colorings, want = bushy_unit(g, f, root), brute_bushy_unit(g, f, root)

        def drawn(masks):
            allowed = [asg for asg in want if all(masks[v] >> c & 1 for v, c in asg.items())]
            assert [list(asg.items()) for asg in colorings(masks)] == [
                list(asg.items()) for asg in allowed
            ]
            tally["calls"] += 1
            tally["deep"] += len(want[0]) > 1  # a tree with two or more internal vertices
            tally["pruned"] += len(allowed) < len(want)
            for asg in colorings(masks):
                events.append(("draw", id(asg)))
                yield asg

        return drawn

    def charged(cfg, stats):
        if sys._getframe(1).f_code.co_name == "extensions":
            events.append(("charge",))
        return charge(cfg, stats)

    def checked(g, masks, asg):
        if sys._getframe(1).f_code.co_name == "extensions":
            events.append(("check", id(asg)))
        return forward_check(g, masks, asg)

    def counted(*args):
        expands.append(args)
        return expand(*args)

    def logged_root(g, steps):
        out = root_coloring(g, steps)
        roots.append(out is not None)
        return out

    monkeypatch.setattr(vertexcolor, "_bushy_unit", unit)
    monkeypatch.setattr(vertexcolor, "_forward_check", checked)
    monkeypatch.setattr(vertexcolor, "_expand", counted)
    monkeypatch.setattr(SolverConfig, "charge", charged)
    monkeypatch.setattr(edgecolor, "commit_coloring", logged_root)

    def run(solve, graphs):
        for graph in graphs:
            del events[:], expands[:], roots[:]
            stats = solve(graph)
            assert stats.nodes == len(expands) + events.count(("charge",)) + sum(roots)
            tally["root colored"] += sum(roots)
            for p, e in enumerate(events):
                if e[0] == "draw":
                    assert events[p + 1 : p + 3] == [("charge",), ("check", e[1])]
                    tally["draws"] += 1

    run(lambda graph: color_graph(*graph).stats,
        chain(_seeded_graphs(160), _stuck_planted_graphs(3000, 6.5)))
    colored = +tally
    planted = (planted_cubic_edge_colorable(random.Random(s), 24) for s in range(10))
    run(lambda graph: edge_color(*graph)[1],
        chain(_cubic_graphs(), map(flower_snark, (9, 11, 13)), planted))
    line = tally - colored
    assert colored["calls"] > 1500 and colored["deep"] > 500 and colored["pruned"] > 400
    assert line["calls"] > 700 and line["deep"] > 150 and line["root colored"] > 3


def test_incremental_forward_check_matches_brute_reference(monkeypatch, first_descent_loop):
    # At every enumeration step of seeded color-planted, G(n, p) and
    # line-graph leaves, the masks carried down from the parent give the
    # from-scratch check's verdict, and a kept child's masks are the
    # lists that check propagates.
    forward_check = vertexcolor._forward_check
    colored = {}  # id of a child's masks -> (those masks, its coloring)
    checks = refuted = 0

    def checked(g, masks, asg):
        nonlocal checks, refuted
        if id(masks) in colored:
            _, acc = colored[id(masks)]
        else:
            assert masks == [7 * (v in g) for v in range(max(g) + 1)]  # a leaf's root
            acc = {}
        child = forward_check(g, masks, asg)
        merged = {**acc, **asg}
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
        color_graph(*graph)
        colored.clear()
    assert checks > 3000 and refuted > 1000
    before = checks, refuted
    for graph in (*_cubic_graphs(), *_planted_cubic_graphs(30)):
        edge_color(*graph)
        colored.clear()
    assert checks - before[0] > 200 and refuted - before[1] > 50  # line graphs


def test_leaf_csp_holds_every_leaf_vertex_with_its_mask(monkeypatch, first_descent_loop):
    # At every leaf CSP call of seeded color-planted, G(n, p) and
    # line-graph leaves, the CSP holds every leaf vertex, on its own id,
    # with its mask's colors, and one constraint per color shared across
    # each leaf edge.  A vertex left one color has no constraint, as
    # propagation cleared that color from its neighbours; dropping those
    # vertices and renumbering the rest in vertex order gives _leaf_csp.
    # Every full interior coloring goes to the CSP; the commit loop
    # colors most graphs at their root graph node before any leaf, so
    # the planted batch holds only graphs the loop gets stuck on at the
    # root, from 4,000 seeds, and the flower snarks and 200 random cubic
    # graphs give the line-graph floors their entries.
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
    for graph in _seeded_graphs(120):
        color_graph(*graph)
    for graph in _stuck_planted_graphs(4000, 6):
        color_graph(*graph)
    before = +sizes
    for graph in (*_random_cubic_graphs(200), *map(flower_snark, (5, 7, 9, 11, 13))):
        edge_color(*graph)
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


def test_two_list_leaves_are_decided_by_propagation(monkeypatch, first_descent_loop):
    # At every leaf of seeded color-planted, G(n, p) and line-graph
    # leaves with at most two three-color vertices, the direct CSP on the
    # residue takes one node and fires no rule, so the one node the leaf
    # is charged is that solve's.  Its verdict is the leaf's, and a
    # coloring that comes back is proper and lies inside the masks.  The
    # commit loop colors most graphs and line graphs at their root graph
    # node, before any leaf, so planted graphs it gets stuck on join the
    # colored batch, and random cubic graphs and flower snarks the
    # line-graph batch.
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
    for graph in chain(_seeded_graphs(120), _stuck_planted_graphs(1000, 7)):
        color_graph(*graph)
    before = +verdicts
    for graph in chain(_cubic_graphs(), _random_cubic_graphs(100), map(flower_snark, (5, 7, 9))):
        edge_color(*graph)
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
    assert _forward_check(g, [0b011, 0b011, 0b101, 0b110], {0: 0}) is None
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


def test_commit_loop_tries_only_open_vertices_of_the_current_leaf_masks(monkeypatch):
    # At every graph node and leaf of seeded color-planted graphs, the
    # commit loop tries a vertex only while the masks current at that try
    # leave it two or three colors, each color in its mask, and its tries
    # and answer are the reference's, which takes at each step the vertex
    # its order rule picks among those still open, and backtracks as the
    # loop does.  A vertex an earlier commit forced is not tried; a loop
    # that read each mask from the leaf's starting masks would try it,
    # though it would keep every answer.
    commit_loop, forward_check = vertexcolor._commit_loop, vertexcolor._forward_check
    tried = []  # (vertex, color) tries of the loop in progress
    tally = Counter()

    def checked(g, masks, asg):
        if sys._getframe(1).f_code.co_name == "_commit_loop":
            ((v, c),) = asg.items()
            assert masks[v].bit_count() in (2, 3) and masks[v] >> c & 1, (v, masks[v])
            tally["two-color tries"] += masks[v] != 7
            tried.append((v, c))
        return forward_check(g, masks, asg)

    def logged_loop(g, masks):
        del tried[:]
        want_tries, want = brute_backtrack_loop(g, masks, forward_check)
        out = commit_loop(g, masks)
        assert [t for (t,) in want_tries] == tried and out == want
        tally["tries"] += len(tried)
        tally["backtrack tries"] += len(tried) - len(brute_commit_loop(g, masks, forward_check)[0])
        if out:  # every open vertex had its turn
            tally["forced"] += sum(masks[v].bit_count() > 1 for v in g) - len({v for v, _c in tried})
        return out

    monkeypatch.setattr(vertexcolor, "_forward_check", checked)
    monkeypatch.setattr(vertexcolor, "_commit_loop", logged_loop)
    for graph in _planted_graphs(200):
        color_graph(*graph)
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

    def logged(g, masks, asg):
        tried.append(tuple(asg.items()))
        return forward_check(g, masks, asg)

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
            masks = _forward_check(g, masks, partial)
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
def test_node_commit_loop_stuck_graphs_are_colored_by_the_search(name, monkeypatch):
    # Stripping keeps every vertex and the first descent gets stuck at the
    # root graph node after the commits listed, which pass the forward
    # check though no coloring extends them.  The loop goes back over its
    # two-color commits and colors the graph there, charged as that one
    # graph node.  Without the backtrack the search goes on, the cubic
    # graph by its cycle branching and the other by its leaf, and colors
    # the graph.
    (n, edges), commits = COMMIT_STUCK[name]
    g = adjacency(n, edges)
    strip_low_degree(g, [])
    assert len(g) == n
    assert _forward_check(g, [7] * n, commits) is not None
    assert brute_vertex_color(extension_graph(n, edges, commits)) is None
    forward_check, kept = vertexcolor._forward_check, {}

    def logged(g, masks, asg):
        out = forward_check(g, masks, asg)
        if out is not None:
            kept.update(asg)
        return out

    monkeypatch.setattr(vertexcolor, "_forward_check", logged)
    assert first_descent(g, [7] * n) is None
    assert list(kept.items()) == list(commits.items())
    monkeypatch.undo()
    committed = vertexcolor._commit_loop(g, [7] * n)
    res = color_graph(n, edges)
    assert res.colorable and res.coloring == {v: committed[v].bit_length() - 1 for v in g}
    assert (res.stats.nodes, res.stats.leaves) == (1, 0)
    monkeypatch.setattr(vertexcolor, "_commit_loop", first_descent)
    res = color_graph(n, edges)
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


def test_node_commit_loop_decides_nodes_before_branching_and_leaves(monkeypatch):
    # At every graph node of seeded color-planted, G(n, p) and cubic
    # graphs, the commit loop runs once, first, on the stripped graph's
    # all-three-color masks, through commit_coloring; on a graph that
    # stripping empties it returns at once, and the node returns its
    # steps' lift.  A node it colors returns the loop's coloring lifted
    # through the node's steps, and a node it refutes returns None
    # (tested with `is False`, as an empty coloring is an answer); either
    # way with no children,
    # calling no branch builder, forest or leaf, and charging only its
    # own graph node.  A node it gets no answer on goes on to branching
    # or its leaf as before.  The backtrack decides nearly every node, so
    # the stuck nodes come from a second pass that runs the loop without
    # it (first_descent).
    expand = vertexcolor._expand
    calls = []  # (name, arguments, result) within the node in progress
    tally = Counter()

    def logged(name, fn):
        def call(*args):
            out = fn(*args)
            if name != "_commit_loop" or sys._getframe(1).f_code.co_name == "commit_coloring":
                calls.append((name, args, out))
            return out
        return call

    def node(cfg, stats, state):
        del calls[:]
        before = dict(vars(stats))
        value, children = expand(cfg, stats, state)
        g, steps = state  # stripped in place by the node
        (first, (loop_g, masks), committed), *rest = calls
        assert first == "_commit_loop" and loop_g is g
        assert masks == [7 * (v in g) for v in range(max(g, default=-1) + 1)]
        if committed is not None:
            colored = committed is not False
            want = lift({v: committed[v].bit_length() - 1 for v in g}, steps) if colored else None
            assert value == want and children == () and rest == []
            assert vars(stats) == dict(before, nodes=before["nodes"] + 1)
            tally["refuted" if not colored else "colored" if g else "stripped"] += 1
        else:
            names = [name for name, _, _ in rest]
            branched = any(out is not None for name, _, out in rest if name.startswith("branch"))
            assert names[0] == "branch_degree3_cycle" and branched != ("_solve_leaf" in names)
            tally["branched" if branched else "leaf"] += 1
        return value, children

    for name in ("_commit_loop", "_solve_leaf", "branch_degree3_cycle", "branch_degree3_tree",
                 "build_bushy_forest", "build_height_two_forest"):
        monkeypatch.setattr(vertexcolor, name, logged(name, getattr(vertexcolor, name)))
    monkeypatch.setattr(vertexcolor, "_expand", node)
    for graph in chain(_planted_graphs(300), _seeded_graphs(100)):
        color_graph(*graph)
    decided = +tally
    monkeypatch.setattr(vertexcolor, "_commit_loop", logged("_commit_loop", first_descent))
    for graph in chain(_planted_graphs(300), _stuck_planted_graphs(2500, 7)):
        res = color_graph(*graph)
        assert res.colorable and proper(graph[1], res.coloring)
    # the loop colors most graphs that would branch at their root node,
    # so random cubic graphs and two hand-built ones give the branchings
    cubic = (random_cubic(random.Random(s), 10 + 2 * (s % 8)) for s in range(1000))
    for graph in chain(_seeded_graphs(100), cubic, [TREE8, COMMIT_STUCK["cubic"][0]]):
        color_graph(*graph)
    assert decided["colored"] > 300 and decided["refuted"] > 65 and decided["stripped"] > 5, decided
    assert tally["colored"] > 1000 and tally["leaf"] > 300 and tally["branched"] > 26, tally


def test_forward_check_refutes_only_unextendable_colorings():
    rng = random.Random(31)
    refuted = kept = 0
    while refuted < 150:
        n, edges = random_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.6))
        g = adjacency(n, edges)
        partial = {v: rng.randrange(3) for v in range(n) if rng.random() < 0.4}
        if any(partial.get(u, -1) == partial.get(v, -2) for u, v in edges):
            continue  # improper partial colorings never reach the check
        if _forward_check(g, [7] * n, partial) is None:
            refuted += 1
            assert brute_vertex_color(extension_graph(n, edges, partial)) is None
        else:
            kept += 1
    assert kept > 150


def test_forward_check_refutes_a_clash_inside_one_coloring():
    # Two adjacent vertices of one unit coloring with one color: each
    # empties the other's mask, so the check alone refutes the coloring.
    g = adjacency(3, [(0, 1), (1, 2)])
    assert _forward_check(g, [7] * 3, {0: 1, 1: 1}) is None
    assert _forward_check(g, [7] * 3, {0: 1, 2: 1}) is not None


def test_forward_check_keeps_colored_vertices_as_singletons():
    # On the path 0-1-2-3, coloring 0 and 2 forces 1; every colored or
    # forced vertex stays in the masks with its one color.
    g = adjacency(4, [(0, 1), (1, 2), (2, 3)])
    child = _forward_check(g, [7] * 4, {0: 0, 2: 1})
    assert child == [0b001, 0b100, 0b010, 0b101]
    assert _forward_check(g, child, {3: 1}) is None  # 2 already has color 1


def test_leaf_charges_no_coloring_a_propagated_color_excludes():
    # Bushy roots 0 (interior {0, 1}) and 9.  The first coloring of 0's
    # tree, 0 -> 0 and 1 -> 1, forces 2, 3 and 4 to 2 and then 5 to 0, so
    # 9 loses color 0 though no colored vertex is next to it.  9's tree
    # is charged for 9 -> 1 alone, which succeeds.
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
             (1, 8), (2, 5), (2, 6), (2, 7), (2, 8), (5, 9), (9, 10), (9, 11), (9, 12)]
    g = adjacency(13, edges)
    f = build_bushy_forest(g)
    assert (f.roots, f.internal) == ([0, 9], {0, 1, 9})
    masks = _forward_check(g, [7] * 13, {0: 0, 1: 1})
    assert (masks[5], masks[9]) == (0b001, 0b110)
    stats = SearchStats()
    coloring = vertexcolor._solve_leaf(g, SolverConfig(), stats)
    assert stats.nodes == 2 and (coloring[0], coloring[1], coloring[9]) == (0, 1, 1)
    assert sorted(coloring) == list(range(13)) and proper(edges, coloring)


def test_enumeration_node_limit_stops_before_any_csp_call(first_descent_loop):
    # Every interior coloring of this graph's one leaf is refuted by the
    # forward check, so the call spends its whole budget enumerating.
    graph = random_graph(random.Random(186), 24, 0.25)
    res = color_graph(*graph)
    assert res.colorable is False
    assert (res.stats.nodes, res.stats.leaves, res.stats.csp_calls) == (76, 1, 0)
    for limit in range(res.stats.nodes):
        res = color_graph(*graph, SolverConfig(node_limit=limit))
        assert res.colorable is None
        assert res.stats.csp_calls == 0 and res.stats.spent == limit + 1

"""Pinned search-node counts on fixed-seed instances.

`test_stats_are_deterministic` only compares two runs of the same code,
so a change to the lemma order or a rule's tie-breaking would still pass
it.  These counts were recorded before the in-place simplification
rewrite; a refactor that claims identical search must keep them.  The
two benchmark-scale entries (structured n=50, 3-SAT n=35) were recorded
before the partner-indexed free-pair search replaced the O(P^2) scan.
The three 3-SAT n=50 entries, whose simplify calls run long lemma
cascades, were recorded before simplify began dropping every dominated
or dead pair of a round at once.  The edge-coloring entries, the deep ones stopped by a node limit
included, were re-recorded when the splice search began refuting each
pairing whose new edges close a K4 of conflicts: the search reaches the
same first colored leaf through fewer splices and leaves, and the last
column counts the refuted pairings.  They were re-recorded again when
general_matching stopped copying networkx's choice among maximum
matchings: the splice plan is another maximum matching, so the search
takes another path; the colorability column is unchanged.  The coloring
node counts (color_graph, and EDGE's nodes + csp_nodes) were rerecorded when the
leaf enumeration gained its forward check: `nodes` now also counts each
checked partial interior coloring, and `csp_nodes` falls with the leaf
CSP calls the check prunes.  The color_graph counts fell again when the
forward-check masks became the leaf's only state: a unit coloring is
charged only when each of its vertices still has its color in its mask,
so one that a propagated (not a colored neighbor's) color excludes is no
longer counted.  The same colorings are searched in the same order, and
the EDGE and EDGE_DEEP entries did not move.  The planted EDGE entries'
nodes + csp_nodes fell from 3 to 1 when each graph node began with the
commit loop on all-three-color masks: their line graphs are colored at
the root graph node, before any forest or leaf CSP call.  Splices, skips,
leaves and K4 refutations did not move.  Planted n=24 and n=40 seed 1
and random n=16 seed 0 fell to no splice and one leaf node when
edge_color began with the commit loop on the stripped root's conflict
graph: the loop colors them there, before the splice plan.  Planted
n=24 seed 13 and n=40 seed 0, added then, are roots the loop gets stuck
on, and keep the counts their splice search had before it.  When the
commit loop began to take its vertices in saturation order (fewest
colors, then highest degree, then lowest id), the loop colored planted
n=60 seed 0 at its root graph node, planted n=24 seed 13 and n=40 seed 0
at the edge root, and the one line graph of planted n=100 seed 1 at its
root graph node; planted n=40 seed 1 and random n=16 seed 0 became
stuck roots again, whose splice search is the one they had before the
root loop, its line graph now colored at its root graph node.  Planted
n=60 seed 145 and planted n=24 seed 3, added then, reach a coloring
leaf and a splice search.  No colorability moved.  When the commit
loop began to go back over its two-color commits, within a budget of
one forward check per vertex after its first dead end, it colored
planted n=40 seed 1, n=24 seed 3 and random n=16 seed 0 at the edge
root, refuted random n=12 and n=20 seed 2 there (one leaf node each, as
a colored root is charged), and colored planted n=60 seed 145 at its
root graph node; each of these was a root the loop got stuck on before.
Planted n=100 seed 1 and the EDGE_DEEP roots run the budget out, and
keep their counts.  Planted n=24 seed 149, random n=16 seed 48 and
planted n=135 seed 35 (mean degree 7), added then, are roots that run
it out: two splice searches and a coloring leaf.  No colorability moved.
"""

import random

import pytest

from csp32.edgecolor import edge_color
from csp32.oracle import (
    planted_3colorable,
    planted_cubic_edge_colorable,
    random_3cnf,
    random_cubic,
    structured_csp,
)
from csp32.solver import NodeLimitReached, SolverConfig, solve
from csp32.transform import sat_to_csp
from csp32.vertexcolor import color_graph

# (seed, n) -> (satisfiable, nodes, rule_counts)
STRUCTURED = {
    (1, 20): (True, 6, {"dangling": 4, "implication": 1}),
    (2, 24): (True, 5, {"dangling": 4}),
    (4, 36): (True, 10, {"dangling": 9}),
    (3, 50): (True, 14, {"dangling": 11, "isolated": 2}),
}

SAT = {
    (12, 12): (True, 4, {"high-degree": 2}),
    (16, 12): (False, 5, {"high-degree": 1, "implication": 1}),
    (17, 12): (False, 7, {"high-degree": 2, "implication": 1}),
    (1, 35): (True, 7, {"high-degree": 1, "dangling": 2, "implication": 1}),
    (1, 50): (False, 293, {"dangling": 58, "high-degree": 17, "implication": 71}),
    (2, 50): (True, 12, {"dangling": 1, "high-degree": 3, "implication": 4}),
    (3, 50): (True, 121, {"dangling": 12, "high-degree": 10, "implication": 40}),
}

# (generator, seed, n) -> (colorable, splices, skipped_splices, leaves,
# nodes + csp_nodes, k4_refuted)
EDGE = {
    ("planted", 1, 24): (True, 0, 0, 1, 1, 0),
    ("planted", 1, 40): (True, 0, 0, 1, 1, 0),
    ("planted", 1, 100): (True, 15700, 338, 1, 1, 11788),
    ("planted", 3, 24): (True, 0, 0, 1, 1, 0),
    ("planted", 13, 24): (True, 0, 0, 1, 1, 0),
    ("planted", 0, 40): (True, 0, 0, 1, 1, 0),
    ("planted", 149, 24): (True, 35, 2, 1, 1, 21),
    ("random", 0, 16): (True, 0, 0, 1, 1, 0),
    ("random", 2, 12): (False, 0, 0, 1, 1, 0),
    ("random", 2, 20): (False, 0, 0, 1, 1, 0),
    ("random", 48, 16): (False, 6, 0, 0, 0, 4),
}

# (seed, n, node_limit) -> (splices, skipped_splices, leaves, nodes + csp_nodes,
# k4_refuted) for planted cubic graphs whose splice search runs into the node limit
EDGE_DEEP = {
    (1, 200, 3000): (3001, 0, 0, 0, 1948),
    (2, 200, 5000): (5001, 68, 0, 0, 3564),
}


@pytest.mark.parametrize("seed,n", sorted(STRUCTURED))
def test_structured_csp_node_counts(seed, n):
    rng = random.Random(seed)
    inst = structured_csp(rng, [rng.choice((3, 4)) for _ in range(n)], four_vars=n // 4)
    res = solve(inst)
    assert (res.satisfiable, res.stats.nodes, dict(res.stats.rule_counts)) == STRUCTURED[(seed, n)]


@pytest.mark.parametrize("seed,n", sorted(SAT))
def test_sat_node_counts(seed, n):
    rng = random.Random(seed)
    inst, _smap = sat_to_csp(n, random_3cnf(rng, n, round(4.26 * n)))
    res = solve(inst)
    assert (res.satisfiable, res.stats.nodes, dict(res.stats.rule_counts)) == SAT[(seed, n)]


# (seed, n, mean degree) -> (nodes, csp_nodes, csp_calls) of planted graphs;
# nodes counts the graph nodes and each interior vertex color a leaf draws
# (35, 135, 7 read 33 while a bushy tree's whole coloring was one node)
COLOR = {(0, 60, 5): (1, 0, 0), (145, 60, 5): (1, 0, 0), (35, 135, 7): (38, 1, 1)}


def test_color_graph_node_count():
    for (seed, n, degree), counts in COLOR.items():
        n, edges = planted_3colorable(random.Random(seed), n, degree / n)
        res = color_graph(n, edges)
        assert res.colorable
        assert (res.stats.nodes, res.stats.csp_nodes, res.stats.csp_calls) == counts


def test_planted_240_needs_one_csp_call():
    # Before the forward check this graph hit a 200k node limit after
    # about ten minutes of leaf CSP calls.  The commit loop at its root
    # graph node now colors it outright: one node, no leaf, no CSP call.
    res = color_graph(*planted_3colorable(random.Random(1), 240, 7 / 240))
    assert res.colorable
    assert (res.stats.nodes, res.stats.csp_calls) == (1, 0)


def test_planted_300_seed_2_enumerates_to_the_limit():
    # One leaf with 33 bushy trees: the forward check refutes every
    # interior coloring it reaches, so the budget runs out before any
    # CSP call.  The count predates the incremental forward check.
    res = color_graph(*planted_3colorable(random.Random(2), 300, 7 / 300),
                      SolverConfig(node_limit=20000))
    assert res.colorable is None
    assert (res.stats.nodes, res.stats.csp_calls) == (20001, 0)


@pytest.mark.parametrize("kind,seed,n", sorted(EDGE))
def test_edge_color_splice_counts(kind, seed, n):
    make = planted_cubic_edge_colorable if kind == "planted" else random_cubic
    coloring, stats = edge_color(*make(random.Random(seed), n))
    got = (coloring is not None, stats.splices, stats.skipped_splices, stats.leaves,
           stats.nodes + stats.csp_nodes, stats.k4_refuted)
    assert got == EDGE[(kind, seed, n)]


@pytest.mark.parametrize("seed,n,limit", sorted(EDGE_DEEP))
def test_deep_edge_search_counts(seed, n, limit):
    graph = planted_cubic_edge_colorable(random.Random(seed), n)
    with pytest.raises(NodeLimitReached) as info:
        edge_color(*graph, SolverConfig(node_limit=limit))
    stats = info.value.stats
    got = (stats.splices, stats.skipped_splices, stats.leaves, stats.nodes + stats.csp_nodes,
           stats.k4_refuted)
    assert got == EDGE_DEEP[(seed, n, limit)]

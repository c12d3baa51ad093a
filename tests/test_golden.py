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
the EDGE and EDGE_DEEP entries did not move.
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
    ("planted", 1, 24): (True, 44, 4, 1, 3, 26),
    ("planted", 1, 40): (True, 93, 4, 1, 3, 53),
    ("planted", 1, 100): (True, 15700, 338, 1, 3, 11788),
    ("random", 0, 16): (True, 6, 2, 1, 3, 1),
    ("random", 2, 12): (False, 1, 0, 0, 0, 1),
    ("random", 2, 20): (False, 3, 0, 0, 0, 1),
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


def test_color_graph_node_count():
    n, edges = planted_3colorable(random.Random(0), 60, 5 / 60)
    res = color_graph(n, edges)
    assert res.colorable
    assert (res.stats.nodes, res.stats.csp_nodes, res.stats.csp_calls) == (26, 2, 2)


def test_planted_240_needs_one_csp_call():
    # Before the forward check this graph hit a 200k node limit after
    # about ten minutes of leaf CSP calls.
    res = color_graph(*planted_3colorable(random.Random(1), 240, 7 / 240))
    assert res.colorable
    assert (res.stats.nodes, res.stats.csp_calls) == (23, 1)


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

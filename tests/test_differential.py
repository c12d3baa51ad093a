"""Answers checked against independent searches beyond brute-force sizes.

The brute oracles stop at a dozen variables, and an UNSAT answer carries
no certificate.  Here seeded threshold instances, past that size, are
decided both by the package and by a short textbook search from
tests/helpers.py: DPLL for 3-SAT and DSATUR for 3-coloring.  A SAT
answer is also verified against the input by the package itself.
"""

import random

import csp32.vertexcolor as vertexcolor
from csp32.edgecolor import edge_color
from csp32.oracle import random_3cnf, random_cubic, random_graph
from csp32.solver import solve
from csp32.transform import coloring_to_csp, sat_to_csp
from csp32.vertexcolor import color_graph
from helpers import dpll, dsatur_color, line_graph, search_color


def test_answers_match_dpll_and_dsatur_past_brute_force_sizes(monkeypatch):
    # 3-SAT at clause ratio 4.26, n = 30-40, through the dual CSP: 8 of
    # the 24 formulas are unsatisfiable.
    verdicts = []
    for seed in range(24):
        rng = random.Random(seed)
        n = 30 + seed % 11
        clauses = random_3cnf(rng, n, round(4.26 * n))
        want = dpll(clauses)
        inst, smap = sat_to_csp(n, clauses)
        res = inst and solve(inst)
        assert bool(res and res.satisfiable) == (want is not None), seed
        if want is not None:
            got = smap.decode(res.assignment)
            assert all(any(got[abs(lit)] == (lit > 0) for lit in cl) for cl in clauses)
        verdicts.append(want is not None)
    assert verdicts.count(False) == 8

    # G(n, 4.6/n), n = 40-70, through color_graph and, for every third
    # graph, the direct encoding: 181 of the 300 graphs are uncolorable.
    # The commit loop at color_graph's root decides nearly every one, so
    # the paper's search runs on each too (helpers.search_color), and its
    # leaves reach the leaf CSP.
    leaf_csps = []
    csp_solve = vertexcolor.solve

    def counted(inst, cfg):
        leaf_csps.append(inst.n)
        return csp_solve(inst, cfg)

    monkeypatch.setattr(vertexcolor, "solve", counted)
    colorable = []
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(40, 70)
        graph = random_graph(rng, n, 4.6 / n)
        want = dsatur_color(*graph) is not None
        assert color_graph(*graph).colorable == want, seed
        assert search_color(*graph).colorable == want, seed
        if seed % 3 == 0:
            assert solve(coloring_to_csp(*graph)).satisfiable == want, seed
        colorable.append(want)
    assert colorable.count(False) == 181 and len(leaf_csps) > 600

    # 3-edge-coloring of random cubic graphs, n = 20-34, against DSATUR
    # on their line graphs: two of the 200 have none.
    edge_colorable = []
    for seed in range(200):
        graph = random_cubic(random.Random(seed), 20 + 2 * (seed % 8))
        want = dsatur_color(*line_graph(*graph)) is not None
        assert (edge_color(*graph)[0] is not None) == want, seed
        edge_colorable.append(want)
    assert edge_colorable.count(False) == 2

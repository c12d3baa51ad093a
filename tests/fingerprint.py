"""Four SHA-256 digests over the answers and search counts of a fixed seeded batch.

Run as `PYTHONPATH=src python tests/fingerprint.py`.  The batch calls
solve, sat_to_csp + solve, color_graph and edge_color on seeded random
inputs, some under a node limit.  The first digest hashes every verdict,
solution and SearchStats field; the second leaves the solutions out; the
third hashes only the verdicts and solutions of the calls with no node
limit, and the fourth only their verdicts.  A refactor that claims an
identical search prints the same first digest as its parent commit.  A
change that alters only which valid solution comes back prints the same
second digest, one that prunes only dead branches prints the same third
digest with smaller counts, and one that reaches another valid solution
by another search prints the same fourth digest.
tests/test_fingerprint.py pins all four.  The file name keeps pytest
from collecting it.  Besides the random families, the batch holds inputs
chosen for reach: relabeled copies of every rule-trigger instance of
tests/helpers.py, small structured CSPs whose rules (two- and
three-component, the matching endgame, a fallback) the large ones never
reach, planted graphs whose coloring leaf assigns outside vertices to
height-two trees by flow, and cubic graphs whose stripped root the
commit loop runs out of budget on, so that edge_color splices them.
"""

import hashlib
import json
import random

from csp32.edgecolor import edge_color
from csp32.oracle import (
    planted_3colorable,
    planted_csp,
    planted_cubic_edge_colorable,
    random_3cnf,
    random_csp,
    random_cubic,
    random_graph,
    structured_csp,
)
from csp32.solver import NodeLimitReached, SolverConfig, solve
from csp32.transform import sat_to_csp
from csp32.vertexcolor import color_graph
from helpers import RULE_BASES, build_instance, flower_snark, relabel

LIMITS = (None, 4, 25)  # node limits each input runs under


def _stats(stats) -> dict:
    return dict(vars(stats), rule_counts=sorted(stats.rule_counts.items()))


def _csp_inputs():
    for seed in range(60):
        rng = random.Random(seed)
        yield "random", random_csp(rng, rng.randint(6, 12), rng.choice((3, 4)), 0.2)
        yield "planted", planted_csp(rng, rng.randint(8, 14), rng.choice((3, 4)), 0.35)[0]
        inst = structured_csp(rng, [rng.choice((3, 4)) for _ in range(24)], four_vars=seed % 5)
        if inst is not None:
            yield "structured", inst
    for seed in range(200):
        # every degree two: two-component rules and the matching endgame;
        # degree three on four or six variables: three-component rules,
        # of which about one in forty on six variables takes a fallback
        rng = random.Random(5000 + seed)
        profiles = (([2] * rng.randint(8, 16), seed % 3), ([3] * (4 + seed % 2 * 2), 0))
        for degrees, four_vars in profiles:
            inst = structured_csp(rng, degrees, four_vars)
            if inst is not None:
                yield "small", inst
    for seed in range(10):
        rng = random.Random(6000 + seed)
        for name, base in RULE_BASES.items():
            yield name, relabel(rng, build_instance(*base))


def _sat_inputs():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        nvars = rng.randint(8, 20)
        yield nvars, random_3cnf(rng, nvars, round(4.26 * nvars))


def _graphs():
    for seed in range(80):
        rng = random.Random(2000 + seed)
        n = rng.randint(10, 40)
        yield "gnp", random_graph(rng, n, 4.6 / n)
        yield "planted", planted_3colorable(rng, n, 7 / n)
        yield "cubic", random_cubic(rng, 2 * rng.randint(4, 10))
    # the two planted graphs of seeds 0-320,000 (n 30/40/50/60/80 and
    # mean degree 4.6, 5.5, 6 or 7, by seed) whose coloring leaf has
    # outside vertices to place by flow, with the commit loop and its
    # backtrack run at every graph node first
    for seed, n, degree in ((303612, 50, 6), (318189, 80, 5.5)):
        yield "flow", planted_3colorable(random.Random(seed), n, degree / n)


def _tree_graphs():
    # A random tree of degree-three vertices hooked into an octahedron
    # (every core vertex has degree four or more), so that color_graph
    # reaches its tree branching, which the random graphs above seldom do.
    for seed in range(20):
        rng = random.Random(4000 + seed)
        m = rng.randint(8, 14)
        edges = []
        for v in range(1, m):
            edges.append((rng.choice([u for u in range(v) if sum(u in e for e in edges) < 3]), v))
        core = range(m, m + 6)
        edges += [(a, b) for a in core for b in core if a < b and b - a != 3]
        for v in range(m):
            edges += [(v, c) for c in rng.sample(core, 3 - sum(v in e for e in edges))]
        yield "tree", (m + 6, edges)


# the first 17 planted cubic seeds at n = 24 and the first 22 at n = 40
# whose stripped root the commit loop runs out of budget on: edge_color
# decides most graphs of the random families above at their root, so
# these and the snarks are the batch's splice searches
STUCK_PLANTED = {
    24: (149, 216, 260, 307, 323, 513, 549, 694, 847, 966, 1079, 1150, 1620, 1634, 1680, 1693,
         1941),
    40: (18, 32, 39, 92, 95, 112, 127, 133, 137, 145, 153, 165, 188, 198, 201, 217, 222, 238, 244,
         257, 284, 293),
}


def _cubic_graphs():
    for seed in range(40):
        rng = random.Random(3000 + seed)
        yield "planted", planted_cubic_edge_colorable(rng, 2 * rng.randint(4, 10))
        yield "random", random_cubic(rng, 2 * rng.randint(4, 8))
    for n, seeds in STUCK_PLANTED.items():
        for seed in seeds:
            yield "stuck", planted_cubic_edge_colorable(random.Random(seed), n)
    for k in (5, 7):
        yield "snark", flower_snark(k)


def records():
    """(call, input label, node limit, verdict, solution, stats) per call."""
    for limit in LIMITS:
        cfg = SolverConfig(node_limit=limit)
        for label, inst in _csp_inputs():
            res = solve(inst, cfg)
            yield ("solve", label, limit, res.satisfiable,
                   sorted(res.assignment.items()) if res.assignment else None, _stats(res.stats))
        for nvars, clauses in _sat_inputs():
            inst, _smap = sat_to_csp(nvars, clauses)
            if inst is None:
                yield "sat", nvars, limit, False, None, None
                continue
            res = solve(inst, cfg)
            yield ("sat", nvars, limit, res.satisfiable,
                   sorted(res.assignment.items()) if res.assignment else None, _stats(res.stats))
        for label, graph in (*_graphs(), *_tree_graphs()):
            res = color_graph(*graph, cfg)
            yield ("color", label, limit, res.colorable,
                   sorted(res.coloring.items()) if res.coloring else None, _stats(res.stats))
        for label, graph in _cubic_graphs():
            try:
                colors, stats = edge_color(*graph, cfg)
                verdict = colors is not None
            except NodeLimitReached as exc:
                colors, stats, verdict = None, exc.stats, None
            yield ("edge", label, limit, verdict,
                   sorted(colors.items()) if colors else None, _stats(stats))


def digests() -> tuple[str, str, str, str, int]:
    """(full digest, counts-only digest, answers-only digest,
    verdicts-only digest, number of calls) of the batch."""
    full, counts, answers, verdicts = (hashlib.sha256() for _ in range(4))
    calls = 0
    for rec in records():
        full.update(json.dumps(rec, sort_keys=True).encode() + b"\n")
        counts.update(json.dumps(rec[:4] + rec[5:], sort_keys=True).encode() + b"\n")
        if rec[2] is None:  # no node limit, so the verdict is final
            answers.update(json.dumps(rec[:2] + rec[3:5], sort_keys=True).encode() + b"\n")
            verdicts.update(json.dumps(rec[:2] + rec[3:4], sort_keys=True).encode() + b"\n")
        calls += 1
    return full.hexdigest(), counts.hexdigest(), answers.hexdigest(), verdicts.hexdigest(), calls


def main():
    full, counts, answers, verdicts, calls = digests()
    print(f"{full}  {calls} calls")
    print(f"{counts}  {calls} calls, counts only")
    print(f"{answers}  unlimited calls, answers only")
    print(f"{verdicts}  unlimited calls, verdicts only")


if __name__ == "__main__":
    main()

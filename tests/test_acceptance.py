"""Acceptance gate: one checked claim per criterion, one printed line each."""

import itertools
import random
import time
from collections import Counter

from csp32.analysis import (
    LAMBDA,
    bound_report,
    optimize_epsilon,
    work_factor,
)
from csp32.instance import check, measure, simplify
from csp32.oracle import (
    brute_csp,
    brute_edge_color,
    brute_sat,
    brute_vertex_color,
    planted_3colorable,
    planted_csp,
    planted_cubic_edge_colorable,
    random_3cnf,
    random_csp,
    random_graph,
    structured_csp,
)
from csp32.solver import solve, solve_randomized_32, two_color_restrictions
from csp32.transform import sat_to_csp
from csp32.vertexcolor import color_graph
from csp32.edgecolor import edge_color

from helpers import RULE_BASES, build_instance, relabel, walk_rules


def report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_work_factor_table():
    t0 = time.perf_counter()
    table = {
        (4, 4, 5, 5): 1.36443,
        (2, 5, 6): 1.3247,
        (5, 6, 7, 8): 1.2433,
        (3, 4): 1.2207,
        (4, 7, 8): 1.1987,
    }
    ok = all(abs(work_factor(*vec) - val) <= 1e-4 for vec, val in table.items())
    ok = ok and time.perf_counter() - t0 < 1.0
    report(1, "work-factor table within 1e-4 in under a second", ok)


def test_criterion_2_epsilon_optimization():
    eps, lam = optimize_epsilon()
    ok = abs(eps - 0.095543) <= 1e-5
    a = work_factor(3 - eps, 4 - eps, 4 - eps)
    b = work_factor(1 + eps, 4)
    ok = ok and abs(a - b) <= 1e-6 and abs(a - lam) <= 1e-6
    ok = ok and abs(lam - work_factor(4, 4, 5, 5)) <= 1e-6
    report(2, "epsilon 0.095543 equalizes the three branch factors", ok)


def test_criterion_3_composed_bounds():
    rep = bound_report()
    targets = {
        "tree_cost": 1.3366,
        "five_grandchild_cost": 1.3351,
        "first_cut": 1.34488,
        "vertex_bound": 1.3289,
        "four_color_cost": 1.8072,
    }
    ok = all(abs(rep[k] - v) <= 5e-4 for k, v in targets.items())
    row = {3: 1.3645, 4: 1.8072, 5: 2.2590, 6: 2.7108}
    ok = ok and all(
        abs(rep["d2_coefficients"][d] - v) <= 5e-4 for d, v in row.items()
    )
    report(3, "composed bounds and degree-coefficient row within 5e-4", ok)


def test_criterion_4_solver_vs_oracle():
    t0 = time.perf_counter()
    densities = (0.05, 0.1, 0.2, 0.3, 0.5)
    bad = 0
    for i in range(2000):
        rng = random.Random(40_000 + i)
        inst = random_csp(
            rng, rng.randint(3, 10), 3 + i % 2, densities[i % len(densities)]
        )
        want = brute_csp(inst.copy()) is not None
        res = solve(inst.copy())
        if res.satisfiable is not want:
            bad += 1
        elif res.satisfiable and not check(inst, res.assignment):
            bad += 1
    ok = bad == 0 and time.perf_counter() - t0 < 300
    report(4, f"2000 desk-scale instances, {bad} oracle disagreements", ok)


def test_criterion_5_rule_applications():
    rng = random.Random(50)
    tally = Counter()
    for _name, (colors, cons) in RULE_BASES.items():
        base = build_instance(colors, cons)
        for _ in range(300):
            walk_rules(relabel(rng, base), tally)
    profiles = [
        ([3] * 8, 0, 400),
        ([2] * 10, 0, 300),
        ([4, 4] + [3] * 6, 0, 300),
        ([3, 3, 3, 3], 0, 220),
    ]
    for degrees, four_vars, count in profiles:
        for _ in range(count):
            inst = structured_csp(rng, degrees, four_vars)
            if inst is not None:
                walk_rules(inst, tally)
    rules = [
        "isolated", "dangling", "implication", "implication-cycle",
        "four-color-restriction", "high-degree", "triple-with-four",
        "triple-with-two", "small-three-component", "large-three-component",
        "large-two-component", "two-component-parity",
    ]
    merged = Counter()
    for name, cnt in tally.items():
        merged[name.replace("-fallback", "")] += cnt
    short = {r: merged[r] for r in rules if merged[r] < 200}
    report(5, f"every branching rule checked 200+ times (short: {short})",
           not short)


def test_criterion_6_leaf_count_bound():
    ok = True
    for i in range(200):
        rng = random.Random(60_000 + i)
        inst = random_csp(rng, rng.randint(4, 10), 3 + i % 2, 0.1 + (i % 4) * 0.1)
        red, _ = simplify(inst.copy())
        res = solve(inst)
        cap = 10 * LAMBDA ** (0 if red is None else measure(red))
        ok = ok and res.stats.leaves <= cap
    for i in range(3):
        inst, _hidden = planted_csp(random.Random(61_000 + i), 35, 3, 0.15)
        red, _ = simplify(inst.copy())
        res = solve(inst)
        ok = ok and res.stats.leaves <= 10 * LAMBDA ** measure(red)
    report(6, "recursion leaves within 10 * Lambda^measure", ok)


def test_criterion_7_vertex_coloring():
    bad = 0
    for i in range(500):
        rng = random.Random(70_000 + i)
        g = random_graph(rng, rng.randint(4, 14), 0.2 + (i % 4) * 0.15)
        want = brute_vertex_color(g) is not None
        res = color_graph(*g)
        if res.colorable is not want:
            bad += 1
        elif want:
            n, edges = g
            if any(res.coloring[u] == res.coloring[v] for u, v in edges):
                bad += 1
    t0 = time.perf_counter()
    n, edges = planted_3colorable(random.Random(71_000), 40, 0.4)
    res = color_graph(n, edges)
    proper = res.colorable and not any(
        res.coloring[u] == res.coloring[v] for u, v in edges
    )
    ok = bad == 0 and proper and time.perf_counter() - t0 < 60
    report(7, f"500 graphs vs oracle ({bad} bad), planted n=40 colored", ok)


def test_criterion_8_edge_coloring():
    bad = 0
    for i in range(300):
        rng = random.Random(80_000 + i)
        n = rng.randint(3, 9)
        g = random_graph(rng, n, 0.3 + (i % 3) * 0.15)
        want = brute_edge_color(g) is not None
        colors, _stats = edge_color(*g)
        if (colors is not None) is not want:
            bad += 1
    k4 = (4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    k4_colors, _ = edge_color(*k4)
    petersen_edges = [(i, (i + 1) % 5) for i in range(5)]
    petersen_edges += [(i, i + 5) for i in range(5)]
    petersen_edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pet_colors, _ = edge_color(10, petersen_edges)
    t0 = time.perf_counter()
    n, edges = planted_cubic_edge_colorable(random.Random(81_000), 20)
    planted_colors, _ = edge_color(n, edges)
    ok = (bad == 0 and k4_colors is not None and pet_colors is None
          and planted_colors is not None and time.perf_counter() - t0 < 60)
    report(8, f"300 small graphs vs oracle ({bad} bad), K4/Petersen/cubic", ok)


def test_criterion_9_sat_path():
    bad = 0
    for i in range(300):
        rng = random.Random(90_000 + i)
        nvars = rng.randint(3, 8)
        clauses = random_3cnf(rng, nvars, rng.randint(1, 10))
        want = brute_sat(nvars, clauses) is not None
        inst, smap = sat_to_csp(nvars, clauses)
        if inst is None:
            got = False
        else:
            res = solve(inst)
            got = bool(res.satisfiable)
            if got:
                model = smap.decode(res.assignment)
                if not all(
                    any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses
                ):
                    bad += 1
        if got is not want:
            bad += 1
    example = [(1, 2, 3), (-1, 2, 4), (-2, 3, -4)]
    inst, smap = sat_to_csp(4, example)
    res = solve(inst)
    model = smap.decode(res.assignment) if res.satisfiable else None
    decoded = model is not None and all(
        any(model[abs(l)] == (l > 0) for l in cl) for cl in example
    )
    ok = bad == 0 and decoded
    report(9, f"300 formulas vs oracle ({bad} bad), example decodes", ok)


def test_criterion_10_randomized():
    # every solution of an instance survives in exactly 2 of the 4
    # two-color restrictions of any constraint
    checked = 0
    ok = True
    for i in range(50):
        rng = random.Random(100_000 + i)
        inst = random_csp(rng, 5, 3, 0.2)
        cons = inst.constraints()
        if not cons:
            continue
        con = cons[0]
        parts = two_color_restrictions(inst, con)
        vs = inst.variables()
        for combo in itertools.product(*(sorted(inst.colors[v]) for v in vs)):
            asg = dict(zip(vs, combo))
            if not check(inst, asg):
                continue
            kept = sum(
                all(asg[v] in p.colors.get(v, ()) for v in vs) and check(p, asg)
                for p in parts
            )
            ok = ok and kept == 2
            checked += 1
    ok = ok and checked > 100

    hits = 0
    for i in range(100):
        rng = random.Random(101_000 + i)
        n = rng.randint(8, 16)
        inst, _hidden = planted_csp(rng, n, 3, 0.25)
        asg, _ = solve_randomized_32(inst.copy(), seed=i)
        if asg is not None and check(inst, asg):
            hits += 1
    ok = ok and hits >= 99
    report(10, f"restriction keeps 1/2 of solutions, {hits}/100 walks hit", ok)


def test_criterion_11_determinism():
    ok = True
    for i in range(20):
        rng = random.Random(110_000 + i)
        inst = random_csp(rng, 9, 3 + i % 2, 0.15)
        first = solve(inst.copy())
        second = solve(inst.copy())
        ok = ok and first.stats == second.stats
        ok = ok and first.satisfiable == second.satisfiable
    report(11, "repeated runs reproduce identical search statistics", ok)

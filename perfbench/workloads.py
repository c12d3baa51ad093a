"""Seeded workloads for the time-to-verdict benchmark.

Each workload is a fixed cycle of instance families.  A family knows how
to generate one input from a random source, how to compute its reference
verdict without the solver under test, how to call the program's public
entry point on it, and how to check the answer against the original
input.  The program receives only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

SAT, UNSAT, UNDECIDED = "sat", "unsat", "undecided"
VERIFIED, WRONG, UNVERIFIED = "verified", "wrong", "unverified"

# Generous limits: the chosen sizes finish far inside both, so hitting
# one means the program got slower or looped, and the instance counts
# as undecided.
NODE_LIMIT = 200_000
DEADLINE_S = 10.0


@dataclass
class Outcome:
    verdict: str  # SAT, UNSAT or UNDECIDED
    nodes: int = 0  # the front end's own search-node count
    witness: object = None  # assignment or coloring backing a SAT verdict
    error: str = ""  # why the instance is undecided


@dataclass
class Case:
    family: "Family"
    data: tuple  # exactly what the program receives
    reference: Optional[str]  # SAT/UNSAT; None until computed


@dataclass(frozen=True)
class Family:
    """One kind of instance and everything needed to run and judge it.

    generate(rng, size) -> data; run(csp32, data) -> Outcome;
    witness_ok(data, witness) -> bool; reference(csp32, data) -> SAT or
    UNSAT, from the construction or an oracle, never from the solver
    under test.  An eager reference is computed for every instance at
    set-up; a lazy one only to confirm an unsat claim after the run.
    """

    name: str
    size: int
    generate: Callable
    run: Callable
    witness_ok: Callable
    reference: Callable
    eager: bool = True


# ---------------------------------------------------------------------------
# Independent answer checks (they use no code of the program under test)


def csp_assignment_ok(colors, constraints, asg) -> bool:
    if asg is None or any(asg.get(v) not in cs for v, cs in colors.items()):
        return False
    return not any(asg[a[0]] == a[1] and asg[b[0]] == b[1] for a, b in constraints)


def clauses_ok(nvars, clauses, model) -> bool:
    if model is None or any(not isinstance(model.get(x), bool) for x in range(1, nvars + 1)):
        return False
    return all(any(model[abs(lit)] == (lit > 0) for lit in cl) for cl in clauses)


def vertex_coloring_ok(n, edges, coloring) -> bool:
    if coloring is None or any(coloring.get(v) not in (0, 1, 2) for v in range(n)):
        return False
    return all(coloring[u] != coloring[v] for u, v in edges)


def edge_coloring_ok(edges, coloring) -> bool:
    if coloring is None or any(coloring.get(e) not in (0, 1, 2) for e in edges):
        return False
    at: dict[int, set[int]] = {}
    for (u, v) in edges:
        c = coloring[(u, v)]
        for w in (u, v):
            if c in at.setdefault(w, set()):
                return False
            at[w].add(c)
    return True


# ---------------------------------------------------------------------------
# Families


def _gen_structured(rng: random.Random, n: int):
    from csp32.oracle import structured_csp

    while True:
        inst = structured_csp(rng, [rng.choice((3, 4)) for _ in range(n)], four_vars=n // 4)
        if inst is not None:
            # The snapshot is what answers are checked against.
            colors = {v: frozenset(cs) for v, cs in inst.colors.items()}
            return inst, colors, tuple(inst.constraints())


def _run_structured(csp32, data) -> Outcome:
    inst, _colors, _constraints = data
    res = csp32.solve(inst, csp32.SolverConfig(node_limit=NODE_LIMIT))
    return _csp_outcome(res, res.assignment if res.satisfiable else None)


def _csp_outcome(res, witness) -> Outcome:
    verdict = {True: SAT, False: UNSAT, None: UNDECIDED}[res.satisfiable]
    return Outcome(verdict, res.stats.nodes, witness, "node limit" if verdict == UNDECIDED else "")


def _ref_csp(csp32, data) -> str:
    from csp32.oracle import brute_csp

    _inst, colors, constraints = data
    return UNSAT if brute_csp(csp32.Instance.build(colors, constraints)) is None else SAT


def _gen_3sat(rng: random.Random, n: int):
    from csp32.oracle import random_3cnf

    return n, tuple(random_3cnf(rng, n, round(4.26 * n)))


def _ref_3sat(csp32, data) -> str:
    from csp32.oracle import brute_sat

    return UNSAT if brute_sat(data[0], list(data[1])) is None else SAT


def _run_3sat(csp32, data) -> Outcome:
    nvars, clauses = data
    inst, smap = csp32.sat_to_csp(nvars, list(clauses))
    if inst is None:
        return Outcome(UNSAT)
    res = csp32.solve(inst, csp32.SolverConfig(node_limit=NODE_LIMIT))
    return _csp_outcome(res, smap.decode(res.assignment) if res.satisfiable else None)


def _gen_planted_color(rng: random.Random, n: int):
    from csp32.oracle import planted_3colorable

    return planted_3colorable(rng, n, 7 / n)


def _run_color(csp32, data) -> Outcome:
    res = csp32.color_graph(*data, csp32.ColorConfig(node_limit=NODE_LIMIT))
    verdict = {True: SAT, False: UNSAT, None: UNDECIDED}[res.colorable]
    return Outcome(
        verdict, res.stats.nodes + res.stats.csp_nodes, res.coloring,
        "node limit" if verdict == UNDECIDED else "",
    )


def _gen_planted_cubic(rng: random.Random, n: int):
    from csp32.oracle import planted_cubic_edge_colorable

    return planted_cubic_edge_colorable(rng, n)


def _gen_random_cubic(rng: random.Random, n: int):
    from csp32.oracle import random_cubic

    return random_cubic(rng, n)


def _ref_edge(csp32, data) -> str:
    from csp32.oracle import brute_edge_color

    return UNSAT if brute_edge_color(data) is None else SAT


def _run_edge(csp32, data) -> Outcome:
    # edge_color raises RuntimeError when a line graph hits the node
    # limit; the caller's guard counts that as undecided.
    coloring, stats = csp32.edge_color(*data, csp32.ColorConfig(node_limit=NODE_LIMIT))
    return Outcome(SAT if coloring is not None else UNSAT, stats.splices + stats.leaves, coloring)


def _by_construction(csp32, data) -> str:
    return SAT


def structured(n: int) -> Family:
    # Brute force is too slow to run on every instance at this size, and
    # the solver has found every one satisfiable; an unsat claim is
    # checked by the oracle after the run.
    return Family(
        "structured", n, _gen_structured, _run_structured,
        lambda data, asg: csp_assignment_ok(data[1], data[2], asg), _ref_csp, eager=False,
    )


def sat3(n: int) -> Family:
    return Family(
        "3sat", n, _gen_3sat, _run_3sat,
        lambda data, model: clauses_ok(data[0], data[1], model), _ref_3sat,
    )


def planted_color(n: int) -> Family:
    return Family(
        "planted-color", n, _gen_planted_color, _run_color,
        lambda data, col: vertex_coloring_ok(data[0], data[1], col), _by_construction,
    )


def planted_cubic(n: int) -> Family:
    return Family(
        "planted-cubic", n, _gen_planted_cubic, _run_edge,
        lambda data, col: edge_coloring_ok(data[1], col), _by_construction,
    )


def random_cubic(n: int) -> Family:
    return Family(
        "random-cubic", n, _gen_random_cubic, _run_edge,
        lambda data, col: edge_coloring_ok(data[1], col), _ref_edge,
    )


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple  # cycled by instance index
    rate: float  # instances per second on the reference machine; sizes the batch
    smoke: tuple  # the same families at tiny sizes

    def batch_size(self, seconds: float) -> int:
        # At least 100 so that the p90 has ten samples beyond it.
        return max(100, round(self.rate * seconds))


WORKLOADS = {
    w.name: w
    for w in (
        # Two structured instances per formula put the median inside the
        # structured cluster instead of in the gap between the families.
        Workload("csp-direct", (structured(50), structured(50), sat3(8)), 9.0,
                 (structured(12), sat3(6))),
        Workload("color-planted", (planted_color(36),), 115.0, (planted_color(15),)),
        Workload("edge-cubic", (planted_cubic(24),) * 3 + (random_cubic(16),), 50.0,
                 (planted_cubic(10), random_cubic(8))),
    )
}


def make_cases(families, seed: int, count: int) -> list[Case]:
    """The seeded batch; instance i depends only on (seed, i, its family).
    References are filled in by reference_verdicts."""
    cases = []
    for i in range(count):
        fam = families[i % len(families)]
        rng = random.Random(f"{seed}:{i}:{fam.name}:{fam.size}")
        cases.append(Case(fam, fam.generate(rng, fam.size), None))
    return cases


def reference_verdicts(csp32, cases: list[Case]):
    for case in cases:
        if case.family.eager:
            case.reference = case.family.reference(csp32, case.data)


def judge(case: Case, outcome: Outcome) -> str:
    """VERIFIED, WRONG, UNVERIFIED (an unsat claim with no reference) or
    UNDECIDED.  A SAT verdict is wrong when its witness fails the check
    against the original input or the reference says UNSAT; an UNSAT
    verdict is wrong when the reference says SAT."""
    if outcome.verdict == SAT:
        ok = case.reference != UNSAT and case.family.witness_ok(case.data, outcome.witness)
    elif outcome.verdict == UNSAT:
        if case.reference is None:
            return UNVERIFIED
        ok = case.reference == UNSAT
    else:
        return UNDECIDED
    return VERIFIED if ok else WRONG

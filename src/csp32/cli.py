"""Command-line front end: solving, translating, analyzing, fuzzing.

File formats: CSP instances as JSON ({"variables": [{"id": 0, "colors":
["R", "G", "B"]}, ...], "constraints": [[[0, "R"], [1, "R"]], ...]}),
graphs as DIMACS .col (p edge N M / e U V lines, 1-indexed), CNF as
DIMACS .cnf.  Exit codes: 0 solved/satisfiable, 1 unsatisfiable or no
solution found, 2 usage or input error, 3 resource limit reached.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional

from . import analysis, oracle
from .instance import Instance, check
from .solver import (
    NodeLimitReached,
    SearchStats,
    SolverConfig,
    solve,
    solve_randomized_32,
    solve_randomized_d2,
)
from .transform import coloring_to_csp, dualize, GeneralCSP, sat_to_csp
from .vertexcolor import color_graph
from .edgecolor import edge_color

try:  # pragma: no cover - metadata lookup
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("csp32")
except Exception:  # pragma: no cover
    VERSION = "0.0.0"

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class InputError(Exception):
    """Malformed input file, annotated with position information."""


# ---------------------------------------------------------------------------
# Formats


def load_csp_json(path: str) -> tuple[Instance, dict[int, object]]:
    """Read the JSON instance format; returns the instance and a map from
    internal color ints back to the file's color tokens."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(str(exc))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(data, dict) or "variables" not in data:
        raise InputError(f"{path}: top-level object needs a 'variables' list")
    tokens = set()
    domains: dict[int, list] = {}
    for i, var in enumerate(data["variables"]):
        if not isinstance(var, dict) or "id" not in var or "colors" not in var:
            raise InputError(f"{path}: variables[{i}] needs 'id' and 'colors'")
        if var["id"] in domains:
            raise InputError(f"{path}: variables[{i}]: duplicate id {var['id']}")
        domains[var["id"]] = list(var["colors"])
        tokens.update(var["colors"])
    to_int = {tok: i for i, tok in enumerate(sorted(tokens, key=str))}
    inst = Instance.build(
        {v: {to_int[c] for c in cs} for v, cs in domains.items()}
    )
    for i, con in enumerate(data.get("constraints", [])):
        try:
            (va, ca), (vb, cb) = con
        except (TypeError, ValueError):
            raise InputError(f"{path}: constraints[{i}] is not a pair of pairs")
        for v, c in ((va, ca), (vb, cb)):
            if v not in domains or c not in to_int or to_int[c] not in inst.colors.get(v, ()):
                raise InputError(
                    f"{path}: constraints[{i}]: unknown pair ({v!r}, {c!r})"
                )
        inst.add_constraint((va, to_int[ca]), (vb, to_int[cb]))
    return inst, {i: tok for tok, i in to_int.items()}


def emit_csp_json(inst: Instance, names: Optional[dict[int, object]] = None) -> dict:
    names = names or {}

    def tok(c):
        return names.get(c, c)

    return {
        "variables": [
            {"id": v, "colors": [tok(c) for c in sorted(inst.colors[v])]}
            for v in sorted(inst.colors)
        ],
        "constraints": [
            [[p, tok(cp)], [q, tok(cq)]]
            for ((p, cp), (q, cq)) in inst.constraints()
        ],
    }


def load_col(path: str) -> tuple[int, list[tuple[int, int]]]:
    n = None
    edges = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(str(exc))
    for no, line in enumerate(lines, 1):
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise InputError(f"{path}:{no}: expected 'p edge N M'")
            n = int(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"{path}:{no}: edge before the 'p' line")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except (IndexError, ValueError):
                raise InputError(f"{path}:{no}: expected 'e U V'")
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InputError(f"{path}:{no}: bad edge {parts[1]} {parts[2]}")
            edges.append(tuple(sorted((u, v))))
        else:
            raise InputError(f"{path}:{no}: unrecognized line {parts[0]!r}")
    if n is None:
        raise InputError(f"{path}: missing 'p edge' line")
    return n, sorted(set(edges))


def load_cnf(path: str) -> tuple[int, list[tuple[int, ...]]]:
    nvars = None
    clauses: list[tuple[int, ...]] = []
    lits: list[int] = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(str(exc))
    for no, line in enumerate(lines, 1):
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "cnf":
                raise InputError(f"{path}:{no}: expected 'p cnf V C'")
            nvars = int(parts[2])
            continue
        if nvars is None:
            raise InputError(f"{path}:{no}: clause before the 'p' line")
        for tokn in parts:
            try:
                lit = int(tokn)
            except ValueError:
                raise InputError(f"{path}:{no}: bad literal {tokn!r}")
            if lit == 0:
                clauses.append(tuple(lits))
                lits = []
            elif 1 <= abs(lit) <= nvars:
                lits.append(lit)
            else:
                raise InputError(f"{path}:{no}: literal {lit} out of range")
    if lits:
        clauses.append(tuple(lits))
    if nvars is None:
        raise InputError(f"{path}: missing 'p cnf' line")
    return nvars, clauses


# ---------------------------------------------------------------------------
# Reporting


@dataclass
class RunReport:
    input: str
    mode: str
    result: str  # sat | unsat | not-found | limit
    solution: Optional[dict]
    stats: Optional[dict]
    wall_time_s: float
    seed: Optional[int]
    version: str

    def emit(self, as_json: bool, show_stats: bool):
        if as_json:
            payload = asdict(self)
            if not show_stats:
                payload.pop("stats")
            print(json.dumps(payload, sort_keys=True))
            return
        print(f"{self.result}")
        if self.solution is not None:
            print(json.dumps(self.solution, sort_keys=True))
        if show_stats and self.stats is not None:
            print(json.dumps(self.stats, sort_keys=True))


VERDICT = {True: "sat", False: "unsat", None: "limit"}


def _report(args, t0: float, result: str, solution, stats, mode="det", seed=None) -> int:
    """Print the run report and return its exit code.  A SearchStats
    prints as the one --stats schema shared by every solver: its fields."""
    if isinstance(stats, SearchStats):
        stats = asdict(stats)
        stats["rule_counts"] = dict(sorted(stats["rule_counts"].items()))
    RunReport(
        args.file, mode, result, solution, stats,
        time.perf_counter() - t0, seed, VERSION,
    ).emit(args.json, args.stats)
    return {"sat": EXIT_SAT, "unsat": EXIT_UNSAT, "not-found": EXIT_UNSAT}.get(
        result, EXIT_LIMIT
    )


def _failed_verification() -> int:
    print("solution failed verification", file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(args) -> int:
    inst, names = load_csp_json(args.file)
    t0 = time.perf_counter()
    cfg = SolverConfig(node_limit=args.node_limit)
    if args.mode == "det":
        res = solve(inst.copy(), cfg)
        asg, stats, result = res.assignment, res.stats, VERDICT[res.satisfiable]
    else:
        d = max((len(cs) for cs in inst.colors.values()), default=0)
        runner = solve_randomized_32 if d <= 3 else solve_randomized_d2
        try:
            asg, trials = runner(inst.copy(), seed=args.seed, config=cfg)
            result = "sat" if asg is not None else "not-found"
        except NodeLimitReached:
            asg, trials, result = None, None, "limit"
        stats = {"trials": trials}
    solution = None
    if asg is not None:
        if args.verify and not check(inst, asg):
            return _failed_verification()
        solution = {str(v): names.get(c, c) for v, c in sorted(asg.items())}
    return _report(args, t0, result, solution, stats, args.mode, args.seed)


def cmd_color(args) -> int:
    n, edges = load_col(args.file)
    t0 = time.perf_counter()
    res = color_graph(n, edges, SolverConfig(node_limit=args.node_limit))
    result = VERDICT[res.colorable]
    solution = None
    if res.coloring is not None:
        if args.verify and any(res.coloring[u] == res.coloring[v] for u, v in edges):
            return _failed_verification()
        solution = {str(v): res.coloring[v] for v in range(n)}
    return _report(args, t0, result, solution, res.stats)


def _proper_edge_coloring(edges, colors) -> bool:
    """Every edge has a color in 0..2 and no vertex sees a color twice."""
    ends = [(x, colors.get(e)) for e in edges for x in e]
    return all(c in (0, 1, 2) for _x, c in ends) and len(set(ends)) == len(ends)


def cmd_edge_color(args) -> int:
    n, edges = load_col(args.file)
    t0 = time.perf_counter()
    try:
        colors, stats = edge_color(n, edges, SolverConfig(node_limit=args.node_limit))
        result = "sat" if colors is not None else "unsat"
    except NodeLimitReached as exc:
        colors, stats, result = None, exc.stats, "limit"
    solution = None
    if colors is not None:
        if args.verify and not _proper_edge_coloring(edges, colors):
            return _failed_verification()
        solution = {f"{u}-{v}": c for (u, v), c in sorted(colors.items())}
    return _report(args, t0, result, solution, stats)


def cmd_sat(args) -> int:
    nvars, clauses = load_cnf(args.file)
    if any(len(cl) > 3 for cl in clauses):
        raise InputError(f"{args.file}: clauses of size > 3 are not supported")
    t0 = time.perf_counter()
    inst, smap = sat_to_csp(nvars, clauses)
    stats = SearchStats()  # stays empty when sat_to_csp refutes the formula
    if inst is None:
        result, model = "unsat", None
    else:
        res = solve(inst.copy(), SolverConfig(node_limit=args.node_limit))
        stats = res.stats
        result = VERDICT[res.satisfiable]
        model = smap.decode(res.assignment) if res.satisfiable else None
    solution = None
    if model is not None:
        if args.verify and not all(
            any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses
        ):
            return _failed_verification()
        solution = {str(x): model[x] for x in sorted(model)}
    return _report(args, t0, result, solution, stats)


def cmd_translate(args) -> int:
    if args.kind == "sat":
        nvars, clauses = load_cnf(args.file)
        inst, _smap = sat_to_csp(nvars, clauses)
        payload = {"unsat": True} if inst is None else emit_csp_json(inst)
    elif args.kind == "color":
        n, edges = load_col(args.file)
        payload = emit_csp_json(coloring_to_csp(n, edges))
    else:  # dual
        inst, names = load_csp_json(args.file)
        csp = GeneralCSP(
            {v: set(cs) for v, cs in inst.colors.items()},
            [tuple(con) for con in inst.constraints()],
        )
        dual, _dmap = dualize(csp)
        payload = {
            "variables": [
                {"id": v, "colors": sorted(dual.domains[v])}
                for v in sorted(dual.domains)
            ],
            "constraints": [
                [[v, c] for v, c in con] for con in dual.constraints
            ],
        }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_SAT


def cmd_factors(args) -> int:
    report = analysis.bound_report()
    report["lambda_4455"] = analysis.LAMBDA
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")
    return EXIT_SAT


def cmd_oracle(args) -> int:
    if args.kind == "csp":
        inst, _names = load_csp_json(args.file)
        got = oracle.brute_csp(inst)
    elif args.kind == "color":
        got = oracle.brute_vertex_color(load_col(args.file))
    elif args.kind == "edge-color":
        got = oracle.brute_edge_color(load_col(args.file))
    else:
        nvars, clauses = load_cnf(args.file)
        got = oracle.brute_sat(nvars, clauses)
    print("sat" if got is not None else "unsat")
    return EXIT_SAT if got is not None else EXIT_UNSAT


def _fuzz_one(kind: str, seed: int, size: int) -> bool:
    """One generator+solve+oracle comparison; True when they agree."""
    rng = random.Random(seed)
    if kind == "random-csp":
        inst = oracle.random_csp(rng, size, 3, 0.25)
        ref = oracle.brute_csp(inst.copy()) is not None
        got = solve(inst.copy()).satisfiable
        return got == ref
    if kind == "random-graph":
        g = oracle.random_graph(rng, size, 0.4)
    elif kind == "random-cubic":
        g = oracle.random_cubic(rng, size + size % 2)
    elif kind == "planted-3-colorable":
        g = oracle.planted_3colorable(rng, size, 0.5)
    elif kind == "random-3cnf":
        nvars = min(size, 8)
        clauses = oracle.random_3cnf(rng, nvars, nvars + 2)
        inst, smap = sat_to_csp(nvars, clauses)
        ref = oracle.brute_sat(nvars, clauses) is not None
        got = False if inst is None else bool(solve(inst).satisfiable)
        return got == ref
    else:
        raise InputError(f"unknown fuzz kind {kind!r}")
    ref = oracle.brute_vertex_color(g) is not None
    return color_graph(*g).colorable == ref


def cmd_fuzz(args) -> int:
    bad = 0
    for i in range(args.count):
        if not _fuzz_one(args.kind, args.seed + i, args.size):
            bad += 1
            print(f"mismatch: kind={args.kind} seed={args.seed + i}")
    print(f"{args.count - bad}/{args.count} agreed")
    return EXIT_SAT if bad == 0 else EXIT_UNSAT


def cmd_bench(args) -> int:
    rows = []
    for i in range(args.count):
        rng = random.Random(args.seed + i)
        if args.kind == "planted-3-colorable":
            g = oracle.planted_3colorable(rng, args.size, 0.3)
            t0 = time.perf_counter()
            res = color_graph(*g)
            rows.append(
                {"seed": args.seed + i, "result": res.colorable,
                 "wall_time_s": time.perf_counter() - t0,
                 "nodes": res.stats.nodes + res.stats.csp_nodes}
            )
        elif args.kind == "random-csp":
            inst, _hidden = oracle.planted_csp(rng, args.size, 3, 0.3)
            t0 = time.perf_counter()
            res = solve(inst)
            rows.append(
                {"seed": args.seed + i, "result": res.satisfiable,
                 "wall_time_s": time.perf_counter() - t0,
                 "nodes": res.stats.nodes}
            )
        else:
            raise InputError(f"unsupported bench kind {args.kind!r}")
    print(json.dumps(rows))
    return EXIT_SAT


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="csp32", description=__doc__)
    top.add_argument("--version", action="version", version=VERSION)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, seedable=False):
        p.add_argument("--node-limit", type=int, default=None)
        p.add_argument("--stats", action="store_true")
        p.add_argument("--verify", action="store_true")
        p.add_argument("--json", action="store_true")
        if seedable:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="decide a CSP instance (JSON)")
    p.add_argument("file")
    p.add_argument("--mode", choices=("det", "rand"), default="det")
    common(p, seedable=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("color", help="3-color a graph (DIMACS .col)")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("edge-color", help="3-edge-color a graph (DIMACS .col)")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_edge_color)

    p = sub.add_parser("sat", help="decide a 3-CNF formula (DIMACS .cnf)")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("translate", help="emit the CSP encoding of an input")
    p.add_argument("kind", choices=("sat", "color", "dual"))
    p.add_argument("file")
    p.add_argument("--emit", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("factors", help="print the work-factor constants")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("oracle", help="answer by brute force")
    p.add_argument("kind", choices=("csp", "color", "edge-color", "sat"))
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fuzz", help="compare solver and oracle on random inputs")
    p.add_argument("kind")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("bench", help="time solves on generated instances")
    p.add_argument("kind")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--size", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

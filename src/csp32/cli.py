"""Command-line front end: solving, translating, analyzing.

File formats: CSP instances as JSON ({"variables": [{"id": 0, "colors":
["R", "G", "B"]}, ...], "constraints": [[[0, "R"], [1, "R"]], ...]}),
graphs as DIMACS .col (p edge N M / e U V lines, 1-indexed), CNF as
DIMACS .cnf.  Exit codes: 0 solved/satisfiable, 1 unsatisfiable or no
solution found, 2 usage or input error, or a solution that failed the
library's verification, 3 resource limit reached.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__ as VERSION
from . import analysis
from .instance import Instance
from .solver import (
    NodeLimitReached,
    SearchStats,
    SolveResult,
    SolverConfig,
    solve,
    solve_randomized_32,
    solve_randomized_d2,
)
from .transform import coloring_to_csp, dualize, GeneralCSP, sat_to_csp
from .vertexcolor import color_graph
from .edgecolor import edge_color

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
    internal color ints back to the file's color tokens.  Tokens are told
    apart by their JSON text, so 0, false and 0.0 are three colors.
    Errors name the offending entry (variables[i], constraints[i])."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(str(exc))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(data, dict) or not isinstance(data.get("variables"), list):
        raise InputError(f"{path}: top-level object needs a 'variables' list")
    constraints = data.get("constraints", [])
    if not isinstance(constraints, list):
        raise InputError(f"{path}: 'constraints' is not a list")
    domains: dict[int, list] = {}
    for i, var in enumerate(data["variables"]):
        if not isinstance(var, dict) or "id" not in var or "colors" not in var:
            raise InputError(f"{path}: variables[{i}] needs 'id' and 'colors'")
        vid, colors = var["id"], var["colors"]
        if type(vid) is not int:
            raise InputError(f"{path}: variables[{i}]: id {vid!r} is not an integer")
        if not isinstance(colors, list) or any(isinstance(c, (list, dict)) for c in colors):
            raise InputError(f"{path}: variables[{i}]: 'colors' is not a list of scalars")
        if vid in domains:
            raise InputError(f"{path}: variables[{i}]: duplicate id {vid}")
        domains[vid] = {json.dumps(c): c for c in colors}
    tokens = {k: c for cs in domains.values() for k, c in cs.items()}
    to_int = {k: i for i, k in enumerate(sorted(tokens, key=lambda k: (str(tokens[k]), k)))}
    inst = Instance.build({v: {to_int[k] for k in cs} for v, cs in domains.items()})
    for i, con in enumerate(constraints):
        try:
            (va, ca), (vb, cb) = con
        except (TypeError, ValueError):
            raise InputError(f"{path}: constraints[{i}] is not a pair of pairs")
        for v, c in ((va, ca), (vb, cb)):
            if type(v) is not int or v not in domains or json.dumps(c) not in domains[v]:
                raise InputError(
                    f"{path}: constraints[{i}]: unknown pair ({v!r}, {c!r})"
                )
        inst.add_constraint((va, to_int[json.dumps(ca)]), (vb, to_int[json.dumps(cb)]))
    return inst, {i: tokens[k] for k, i in to_int.items()}


def _csp_payload(domains: dict, constraints, tok=lambda c: c) -> dict:
    """The JSON instance format of variables with the given domains and of
    the constraints in the order given; tok maps a color to its token."""
    return {
        "variables": [
            {"id": v, "colors": [tok(c) for c in sorted(domains[v])]}
            for v in sorted(domains)
        ],
        "constraints": [[[v, tok(c)] for v, c in con] for con in constraints],
    }


def emit_csp_json(inst: Instance, names: Optional[dict[int, object]] = None) -> dict:
    names = names or {}
    return _csp_payload(inst.colors, inst.constraints(), lambda c: names.get(c, c))


def _read_dimacs(path: str, fmt: str, counts: str) -> tuple[int, list]:
    """The first count on a DIMACS file's one 'p FMT ...' line (counts names
    its fields in messages) and the data lines after it as (file:line,
    fields); comment and blank lines are skipped."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(str(exc))
    count, body = None, []
    for no, line in enumerate(lines, 1):
        parts, where = line.split(), f"{path}:{no}"
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != fmt or not (parts[2] + parts[3]).isdecimal():
                raise InputError(f"{where}: expected 'p {fmt} {counts}'")
            if count is not None:
                raise InputError(f"{where}: second 'p' line")
            count = int(parts[2])
        elif count is None:
            raise InputError(f"{where}: data before the 'p' line")
        else:
            body.append((where, parts))
    if count is None:
        raise InputError(f"{path}: missing 'p {fmt}' line")
    return count, body


def load_col(path: str) -> tuple[int, list[tuple[int, int]]]:
    n, body = _read_dimacs(path, "edge", "N M")
    edges = set()
    for where, parts in body:
        if parts[0] != "e":
            raise InputError(f"{where}: unrecognized line {parts[0]!r}")
        try:
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
        except (IndexError, ValueError):
            raise InputError(f"{where}: expected 'e U V'")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InputError(f"{where}: bad edge {parts[1]} {parts[2]}")
        edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def load_cnf(path: str) -> tuple[int, list[tuple[int, ...]]]:
    nvars, body = _read_dimacs(path, "cnf", "V C")
    clauses: list[tuple[int, ...]] = []
    lits: list[int] = []
    for where, parts in body:
        for tokn in parts:
            try:
                lit = int(tokn)
            except ValueError:
                raise InputError(f"{where}: bad literal {tokn!r}")
            if lit == 0:
                clauses.append(tuple(lits))
                lits = []
            elif 1 <= abs(lit) <= nvars:
                lits.append(lit)
            else:
                raise InputError(f"{where}: literal {lit} out of range")
    if lits:
        clauses.append(tuple(lits))
    return nvars, clauses


# ---------------------------------------------------------------------------
# Reporting


VERDICT = {True: "sat", False: "unsat", None: "limit"}
EXIT_CODE = {
    "sat": EXIT_SAT, "unsat": EXIT_UNSAT, "not-found": EXIT_UNSAT, "limit": EXIT_LIMIT,
}


def _limited(run, miss: str):
    """Call a solver that returns (solution, SearchStats) and raises
    NodeLimitReached; returns (solution, stats, verdict), where miss is
    the verdict when it finds no solution."""
    try:
        solution, stats = run()
    except NodeLimitReached as exc:
        return None, exc.stats, "limit"
    return solution, stats, "sat" if solution is not None else miss


def _report(args, t0: float, result: str, solution, stats: SearchStats) -> int:
    """Print the run report and return its exit code.  --stats prints the
    one schema shared by every solver: the SearchStats fields."""
    # not asdict, which rebuilds the rule_counts Counter from (rule, count) pairs
    stats = dict(vars(stats), rule_counts=dict(sorted(stats.rule_counts.items())))
    if args.json:
        report = {
            "input": args.file, "mode": getattr(args, "mode", "det"),
            "result": result, "solution": solution,
            "wall_time_s": time.perf_counter() - t0,
            "seed": getattr(args, "seed", None), "version": VERSION,
        }
        if args.stats:
            report["stats"] = stats
        print(json.dumps(report, sort_keys=True))
    else:
        print(result)
        if solution is not None:
            print(json.dumps(solution, sort_keys=True))
        if args.stats:
            print(json.dumps(stats, sort_keys=True))
    return EXIT_CODE[result]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(args) -> int:
    inst, names = load_csp_json(args.file)
    t0 = time.perf_counter()
    cfg = SolverConfig(node_limit=args.node_limit)
    if args.mode == "det":
        res = solve(inst, cfg)
        asg, stats, result = res.assignment, res.stats, VERDICT[res.satisfiable]
    else:
        d = max((len(cs) for cs in inst.colors.values()), default=0)
        runner = solve_randomized_32 if d <= 3 else solve_randomized_d2
        asg, stats, result = _limited(
            lambda: runner(inst, seed=args.seed, config=cfg), "not-found"
        )
    solution = None if asg is None else {
        str(v): names.get(c, c) for v, c in sorted(asg.items())
    }
    return _report(args, t0, result, solution, stats)


def cmd_color(args) -> int:
    n, edges = load_col(args.file)
    t0 = time.perf_counter()
    res = color_graph(n, edges, SolverConfig(node_limit=args.node_limit))
    solution = None if res.coloring is None else {str(v): res.coloring[v] for v in range(n)}
    return _report(args, t0, VERDICT[res.colorable], solution, res.stats)


def cmd_edge_color(args) -> int:
    n, edges = load_col(args.file)
    t0 = time.perf_counter()
    cfg = SolverConfig(node_limit=args.node_limit)
    colors, stats, result = _limited(lambda: edge_color(n, edges, cfg), "unsat")
    solution = None if colors is None else {
        f"{u}-{v}": c for (u, v), c in sorted(colors.items())
    }
    return _report(args, t0, result, solution, stats)


def cmd_sat(args) -> int:
    nvars, clauses = load_cnf(args.file)
    if any(len(set(map(abs, cl))) > 3 for cl in clauses):
        raise InputError(f"{args.file}: clauses over more than 3 variables are not supported")
    t0 = time.perf_counter()
    inst, smap = sat_to_csp(nvars, clauses)
    if inst is None:  # refuted by sat_to_csp itself, with no search
        res = SolveResult(False, None, SearchStats())
    else:
        res = solve(inst, SolverConfig(node_limit=args.node_limit))
    solution = None
    if res.satisfiable:
        model = smap.decode(res.assignment)
        # solve checked the CSP solution; this checks its decoding
        if not all(any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses):
            raise RuntimeError("model failed verification against the formula")
        solution = {str(x): model[x] for x in sorted(model)}
    return _report(args, t0, VERDICT[res.satisfiable], solution, res.stats)


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
        payload = _csp_payload(dual.domains, dual.constraints)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_SAT


def cmd_factors(args) -> int:
    report = analysis.bound_report()
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")
    return EXIT_SAT


# ---------------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    if (limit := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {limit}")
    return limit


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="csp32", description=__doc__)
    top.add_argument("--version", action="version", version=VERSION)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, seedable=False):
        p.add_argument("--node-limit", type=non_negative_int, default=None)
        p.add_argument("--stats", action="store_true")
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

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, RuntimeError) as exc:
        # RuntimeError: a solution failed the library's own verification
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

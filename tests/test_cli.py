"""Command line interface: file formats, subcommands, exit codes."""

import argparse
import json
import random
import re
from pathlib import Path

import pytest

import csp32
from csp32 import cli
from csp32.cli import EXIT_LIMIT, EXIT_SAT, EXIT_UNSAT, EXIT_USAGE, main
from csp32.oracle import brute_csp, random_cubic
from csp32.solver import SearchStats


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def csp_json(tmp_path, name, variables, constraints):
    return write(tmp_path, name, json.dumps(
        {"variables": variables, "constraints": constraints}
    ))


TRIANGLE_COL = "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
K4_COL = "p edge 4 6\n" + "".join(
    f"e {u} {v}\n" for u in range(1, 5) for v in range(u + 1, 5)
)
STAR4_COL = "p edge 5 4\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n"
PETERSEN_COL = "p edge 10 15\n" + "".join(
    f"e {u + 1} {v + 1}\n"
    for i in range(5)
    for u, v in ((i, (i + 1) % 5), (i + 5, (i + 2) % 5 + 5), (i, i + 5))
)
SAT_CNF = "c tiny\np cnf 3 3\n1 2 3 0\n-1 2 0\n-2 -3 0\n"
UNSAT_CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


def sat_csp(tmp_path):
    # two variables, string color tokens, one forbidden pairing
    return csp_json(
        tmp_path, "sat.json",
        [{"id": 0, "colors": ["r", "g", "b"]},
         {"id": 1, "colors": ["r", "g", "b"]}],
        [[[0, "r"], [1, "r"]]],
    )


def unsat_csp(tmp_path):
    # single variable with every color forbidden against a second one-color var
    return csp_json(
        tmp_path, "unsat.json",
        [{"id": 0, "colors": ["a", "b", "c"]}, {"id": 1, "colors": ["z"]}],
        [[[0, "a"], [1, "z"]], [[0, "b"], [1, "z"]], [[0, "c"], [1, "z"]]],
    )


def k4_csp(tmp_path):
    # coloring K4: unsatisfiable, so a randomized run uses its whole budget
    return csp_json(
        tmp_path, "k4.json",
        [{"id": v, "colors": [0, 1, 2]} for v in range(4)],
        [[[v, c], [w, c]] for v in range(4) for w in range(v + 1, 4) for c in range(3)],
    )


def test_version_is_the_package_version(capsys):
    # a source checkout has no installed metadata, so the version is read
    # from the package; it must match pyproject's (a regex, as Python 3.10
    # has no tomllib)
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == csp32.__version__
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == csp32.__version__


def test_solve_sat_and_unsat(tmp_path, capsys):
    assert main(["solve", sat_csp(tmp_path)]) == EXIT_SAT
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sat"
    sol = json.loads(out[1])
    assert set(sol) == {"0", "1"}
    assert sol["0"] in ("r", "g", "b")

    assert main(["solve", unsat_csp(tmp_path)]) == EXIT_UNSAT
    assert capsys.readouterr().out.splitlines()[0] == "unsat"


def test_solve_json_report(tmp_path, capsys):
    assert main(["solve", sat_csp(tmp_path), "--json", "--stats"]) == EXIT_SAT
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "sat"
    assert payload["mode"] == "det"
    assert payload["stats"]["nodes"] >= 1
    assert payload["wall_time_s"] >= 0


def test_solve_rand_mode(tmp_path, capsys):
    assert main(
        ["solve", sat_csp(tmp_path), "--mode", "rand", "--seed", "7",
         "--json", "--stats"]
    ) == EXIT_SAT
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "sat"
    assert payload["stats"]["nodes"] >= 1  # one node per walk


def test_solve_node_limit(tmp_path, capsys):
    assert main(
        ["solve", sat_csp(tmp_path), "--node-limit", "0"]
    ) == EXIT_LIMIT
    assert capsys.readouterr().out.splitlines()[0] == "limit"


def test_solve_rand_mode_node_limit(tmp_path, capsys):
    # Without the limit all 200 walks run.
    k4 = k4_csp(tmp_path)
    assert main(["solve", k4, "--mode", "rand"]) == EXIT_UNSAT
    assert capsys.readouterr().out.splitlines()[0] == "not-found"
    assert main(["solve", k4, "--mode", "rand", "--node-limit", "1"]) == EXIT_LIMIT
    assert capsys.readouterr().out.splitlines()[0] == "limit"


@pytest.mark.parametrize("n,d", [(2048, 3), (310, 40)])
def test_solve_rand_mode_budget_past_float_range(tmp_path, capsys, n, d):
    # 50 * 2^(n/2) walks for three colors and 50 * (d/4)^n restrictions
    # for forty are past float range; the budget must not overflow.
    variables = [{"id": v, "colors": list(range(d))} for v in range(n)]
    path = csp_json(tmp_path, "wide.json", variables, [])
    assert main(["solve", path, "--mode", "rand", "--node-limit", "5"]) == EXIT_SAT
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "sat" and err == ""


@pytest.mark.parametrize("d", [3, 5])
def test_solve_rand_mode_refuted_input_exits_at_once(tmp_path, capsys, d):
    # the last of 41 variables has no color, so the reduction refutes the
    # input before any walk (d = 3) or restricted solve (d = 5); the node
    # limit turns a run that starts them into exit 3
    variables = [{"id": v, "colors": list(range(d)) if v < 40 else []} for v in range(41)]
    path = csp_json(tmp_path, "refuted.json", variables, [])
    argv = ["solve", path, "--mode", "rand", "--node-limit", "100", "--json", "--stats"]
    assert main(argv) == EXIT_UNSAT
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "not-found"
    assert payload["stats"]["nodes"] == payload["stats"]["csp_calls"] == 0


def test_stats_have_one_key_set(tmp_path, capsys):
    # sat, unsat and limit runs of every solver print the SearchStats fields.
    keys = set(SearchStats.__dataclass_fields__)
    k4 = write(tmp_path, "k4.col", K4_COL)
    rand = ["--mode", "rand"]
    runs = [
        (["solve", sat_csp(tmp_path)], EXIT_SAT),
        (["solve", unsat_csp(tmp_path)], EXIT_UNSAT),
        (["solve", k4_csp(tmp_path)], EXIT_UNSAT),  # counts one rule
        (["solve", sat_csp(tmp_path), "--node-limit", "0"], EXIT_LIMIT),
        (["solve", sat_csp(tmp_path)] + rand, EXIT_SAT),
        (["solve", k4_csp(tmp_path)] + rand, EXIT_UNSAT),
        (["solve", k4_csp(tmp_path), "--node-limit", "1"] + rand, EXIT_LIMIT),
        (["sat", write(tmp_path, "f.cnf", SAT_CNF)], EXIT_SAT),
        (["sat", write(tmp_path, "g.cnf", UNSAT_CNF)], EXIT_UNSAT),
        (["sat", write(tmp_path, "h.cnf", "p cnf 1 2\n1 0\n-1 0\n")], EXIT_UNSAT),
        (["sat", write(tmp_path, "f.cnf", SAT_CNF), "--node-limit", "0"], EXIT_LIMIT),
        (["color", write(tmp_path, "tri.col", TRIANGLE_COL)], EXIT_SAT),
        (["color", k4], EXIT_UNSAT),
        (["color", k4, "--node-limit", "0"], EXIT_LIMIT),
        (["edge-color", k4], EXIT_SAT),
        (["edge-color", write(tmp_path, "star.col", STAR4_COL)], EXIT_UNSAT),
        (["edge-color", k4, "--node-limit", "0"], EXIT_LIMIT),
    ]
    for argv, code in runs:
        assert main(argv + ["--stats", "--json"]) == code, argv
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert set(stats) == keys, argv
        assert all(type(n) is int for n in stats["rule_counts"].values()), argv


def test_stats_without_json_follow_the_solution(tmp_path, capsys):
    assert main(["solve", sat_csp(tmp_path), "--stats"]) == EXIT_SAT
    verdict, solution, stats = capsys.readouterr().out.splitlines()
    assert verdict == "sat" and set(json.loads(solution)) == {"0", "1"}
    assert set(json.loads(stats)) == set(SearchStats.__dataclass_fields__)


def test_color_exit_codes(tmp_path, capsys):
    tri = write(tmp_path, "tri.col", TRIANGLE_COL)
    assert main(["color", tri]) == EXIT_SAT
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sat"
    sol = json.loads(out[1])
    assert len({sol["0"], sol["1"], sol["2"]}) == 3

    k4 = write(tmp_path, "k4.col", K4_COL)
    assert main(["color", k4]) == EXIT_UNSAT
    capsys.readouterr()
    assert main(["color", k4, "--node-limit", "0"]) == EXIT_LIMIT


def test_edge_color_exit_codes(tmp_path, capsys):
    k4 = write(tmp_path, "k4.col", K4_COL)
    assert main(["edge-color", k4, "--json"]) == EXIT_SAT
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "sat"
    assert len(payload["solution"]) == 6

    star = write(tmp_path, "star.col", STAR4_COL)
    assert main(["edge-color", star]) == EXIT_UNSAT
    capsys.readouterr()

    assert main(["edge-color", k4, "--node-limit", "0"]) == EXIT_LIMIT
    assert capsys.readouterr().out.splitlines()[0] == "limit"


def test_edge_color_stats_count_k4_refutations(tmp_path, capsys):
    # This random cubic graph (seed 48, n = 16) has no 3-edge-coloring,
    # and the commit loop runs out of budget at its root, so it is refuted
    # by the splice search before any line graph: each branch ends in
    # pairings that close a K4 of conflicts.  The Petersen graph's root
    # loop refutes it outright, charged as one leaf.
    n, edges = random_cubic(random.Random(48), 16)
    text = f"p edge {n} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)
    cubic = write(tmp_path, "cubic.col", text)
    assert main(["edge-color", cubic, "--stats", "--json"]) == EXIT_UNSAT
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert (stats["splices"], stats["k4_refuted"], stats["leaves"]) == (6, 4, 0)
    petersen = write(tmp_path, "petersen.col", PETERSEN_COL)
    assert main(["edge-color", petersen, "--stats", "--json"]) == EXIT_UNSAT
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert (stats["splices"], stats["k4_refuted"], stats["leaves"], stats["nodes"]) == (0, 0, 1, 1)


def test_failed_library_verification_is_an_error(tmp_path, capsys, monkeypatch):
    # A bad solution below the library's own check: each solver command
    # reports the check's RuntimeError as an error (exit 2), not a traceback.
    tri = write(tmp_path, "tri.col", TRIANGLE_COL)
    k4 = write(tmp_path, "k4.col", K4_COL)
    cases = [
        # both variables on r, the one forbidden pairing
        ("csp32.solver.lift", lambda asg, trace: {0: 2, 1: 2}, ["solve", sat_csp(tmp_path)]),
        ("csp32.vertexcolor.lift", lambda col, steps: {0: 0, 1: 0, 2: 0},
         ["color", tri]),
        # the commit loop colors K4's edge root, lifted in vertexcolor
        ("csp32.vertexcolor.lift", lambda col, steps: {i: 0 for i in range(6)},
         ["edge-color", k4]),
        ("csp32.transform.SatMap.decode", lambda smap, asg: {1: False, 2: False, 3: False},
         ["sat", write(tmp_path, "f.cnf", SAT_CNF)]),
    ]
    for target, bad, argv in cases:
        with monkeypatch.context() as m:
            m.setattr(target, bad)
            assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "failed verification" in err, argv


def test_sat_exit_codes(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", SAT_CNF)
    assert main(["sat", cnf]) == EXIT_SAT
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sat"
    model = json.loads(out[1])
    assert set(model) == {"1", "2", "3"}

    bad = write(tmp_path, "g.cnf", UNSAT_CNF)
    assert main(["sat", bad]) == EXIT_UNSAT


def test_sat_rejects_wide_clauses(tmp_path, capsys):
    cnf = write(tmp_path, "wide.cnf", "p cnf 4 1\n1 2 3 4 0\n")
    assert main(["sat", cnf]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_sat_accepts_a_repeated_literal(tmp_path, capsys):
    # four literals over three variables is a 3-clause
    cnf = write(tmp_path, "rep.cnf", "p cnf 3 1\n1 1 2 3 0\n")
    assert main(["sat", cnf]) == EXIT_SAT
    model = json.loads(capsys.readouterr().out.splitlines()[1])
    assert model["1"] or model["2"] or model["3"]


def test_csp_json_round_trip(tmp_path):
    inst, names = cli.load_csp_json(sat_csp(tmp_path))
    assert sorted(names.values()) == ["b", "g", "r"]
    payload = cli.emit_csp_json(inst, names)
    again = csp_json(
        tmp_path, "again.json", payload["variables"], payload["constraints"]
    )
    inst2, names2 = cli.load_csp_json(again)
    assert inst2.colors == inst.colors
    assert sorted(inst2.constraints()) == sorted(inst.constraints())
    assert names2 == names


def test_equal_valued_color_tokens_stay_distinct(tmp_path, capsys):
    # 0, false and 0.0 compare equal in Python but are three JSON tokens;
    # only variable 0 = false escapes both constraints.
    path = csp_json(
        tmp_path, "tokens.json",
        [{"id": 0, "colors": [0, False]}, {"id": 1, "colors": [0, 1]}],
        [[[0, 0], [1, 0]], [[0, 0], [1, 1]]],
    )
    assert main(["solve", path]) == EXIT_SAT
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sat" and json.loads(out[1])["0"] is False
    assert brute_csp(cli.load_csp_json(path)[0]) is not None
    inst, names = cli.load_csp_json(csp_json(
        tmp_path, "three.json", [{"id": 0, "colors": [0, False, 0.0, 1, True]}], [],
    ))
    assert len(inst.colors[0]) == 5
    assert sorted(map(json.dumps, names.values())) == ["0", "0.0", "1", "false", "true"]


def test_load_col_errors(tmp_path):
    cases = [
        ("e 1 2\n", "before the 'p' line"),
        ("p edge 3\n", "p edge N M"),
        ("p edge 3 1\ne 1 4\n", "bad edge"),
        ("p edge 3 1\ne 1 1\n", "bad edge"),
        ("p edge 3 1\nq 1 2\n", "unrecognized"),
        ("c nothing\n", "missing 'p edge'"),
        ("p edge -2 0\n", ":1: expected 'p edge N M'"),
        ("p edge x 3\n", ":1: expected 'p edge N M'"),
        ("p edge 3 1\ne 1 y\n", ":2: expected 'e U V'"),
        ("p edge 3 0\np edge 5 0\ne 4 5\n", ":2: second 'p' line"),
    ]
    for i, (text, msg) in enumerate(cases):
        path = write(tmp_path, f"bad{i}.col", text)
        with pytest.raises(cli.InputError, match=msg):
            cli.load_col(path)


def test_load_cnf_errors_and_trailing_clause(tmp_path):
    cases = [
        ("1 2 0\n", "before the 'p' line"),
        ("p cnf 2 1\n1 x 0\n", "bad literal"),
        ("p cnf 2 1\n1 3 0\n", "out of range"),
        ("c only comments\n", "missing 'p cnf'"),
        ("p cnf x 3\n1 0\n", ":1: expected 'p cnf V C'"),
        ("p cnf -2 0\n", ":1: expected 'p cnf V C'"),
        ("p cnf 2 1\n1 2 0\np cnf 2\n", ":3: expected 'p cnf V C'"),
        ("p cnf 2 1\n1 2 0\np cnf 3 1\n3 0\n", ":3: second 'p' line"),
    ]
    for i, (text, msg) in enumerate(cases):
        path = write(tmp_path, f"bad{i}.cnf", text)
        with pytest.raises(cli.InputError, match=msg):
            cli.load_cnf(path)
    # final clause without the terminating 0 is still accepted
    path = write(tmp_path, "trail.cnf", "p cnf 3 2\n1 -2 0\n2 3\n")
    nvars, clauses = cli.load_cnf(path)
    assert nvars == 3 and clauses == [(1, -2), (2, 3)]


def test_load_csp_json_errors(tmp_path):
    cases = [
        ("[1, 2]", "'variables' list"),
        ('{"variables": [{"id": 0}]}', "needs 'id' and 'colors'"),
        ('{"variables": [{"id": 0, "colors": [1]},'
         ' {"id": 0, "colors": [1]}]}', "duplicate id"),
        ('{"variables": [{"id": 0, "colors": [1, 2]}],'
         ' "constraints": [[[0, 1], [5, 2]]]}', "unknown pair"),
        ('{"variables": [], "constraints": [[0, 1]]}', "pair of pairs"),
        ('{"variables": [', "Expecting"),
        ('{"variables": 5}', "'variables' list"),
        ('{"variables": [], "constraints": 5}', "'constraints' is not a list"),
        ('{"variables": [{"id": 0, "colors": [[1]]}]}', r"variables\[0\]: 'colors' is not"),
        ('{"variables": [{"id": 0, "colors": "rgb"}]}', r"variables\[0\]: 'colors' is not"),
        ('{"variables": [{"id": [0], "colors": [1]}]}', r"variables\[0\]: id \[0\] is not"),
        ('{"variables": [{"id": 0, "colors": [1]}, {"id": "a", "colors": [1]}]}',
         r"variables\[1\]: id 'a' is not"),
        ('{"variables": [{"id": 0, "colors": [1]}],'
         ' "constraints": [[[[0], 1], [0, 1]]]}', "unknown pair"),
        # true is not variable 1, nor false variable 0
        ('{"variables": [{"id": 0, "colors": ["R", "G"]}, {"id": 1, "colors": ["R"]}],'
         ' "constraints": [[[true, "R"], [0, "R"]]]}', r"constraints\[0\]: unknown pair"),
    ]
    for i, (text, msg) in enumerate(cases):
        path = write(tmp_path, f"bad{i}.json", text)
        with pytest.raises(cli.InputError, match=msg):
            cli.load_csp_json(path)


def test_missing_file_is_usage_error(capsys):
    assert main(["solve", "/nonexistent/x.json"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    # the DIMACS readers report an unreadable file the same way
    for cmd, name in (("color", "x.col"), ("edge-color", "x.col"), ("sat", "x.cnf")):
        assert main([cmd, f"/nonexistent/{name}"]) == EXIT_USAGE, cmd
        err = capsys.readouterr().err
        assert "error" in err and f"/nonexistent/{name}" in err, cmd


def test_negative_node_limit_is_usage_error(tmp_path, capsys):
    # every subcommand that searches takes --node-limit and is looped over
    # here, so a new one that searches without a limit fails this test
    tri = write(tmp_path, "tri.col", TRIANGLE_COL)
    cnf = write(tmp_path, "f.cnf", SAT_CNF)
    runs = (["solve", sat_csp(tmp_path)], ["color", tri], ["edge-color", tri], ["sat", cnf])
    (subparsers,) = (
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    searching = {
        name: parser for name, parser in subparsers.choices.items()
        if name not in ("translate", "factors")
    }
    assert set(searching) == {argv[0] for argv in runs}
    for name, parser in searching.items():
        assert "--node-limit" in parser._option_string_actions, name
    for argv in runs:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--node-limit", "-1"])
        assert exc.value.code == EXIT_USAGE, argv
        assert "--node-limit: must be non-negative, got -1" in capsys.readouterr().err, argv
    assert main(["color", tri, "--node-limit", "0"]) == EXIT_LIMIT


def test_translate_color_and_solve(tmp_path, capsys):
    tri = write(tmp_path, "tri.col", TRIANGLE_COL)
    out_path = str(tmp_path / "tri.json")
    assert main(["translate", "color", tri, "--emit", out_path]) == EXIT_SAT
    capsys.readouterr()
    # the emitted CSP must agree with the direct coloring answer
    assert main(["solve", out_path]) == EXIT_SAT
    capsys.readouterr()

    k4 = write(tmp_path, "k4.col", K4_COL)
    assert main(["translate", "color", k4]) == EXIT_SAT
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["variables"]) == 4
    k4_json = csp_json(
        tmp_path, "k4.json", payload["variables"], payload["constraints"]
    )
    assert main(["solve", k4_json]) == EXIT_UNSAT


def test_translate_sat(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", SAT_CNF)
    assert main(["translate", "sat", cnf]) == EXIT_SAT
    payload = json.loads(capsys.readouterr().out)
    assert "variables" in payload
    # a formula refuted during translation reports that directly
    trivially_false = write(tmp_path, "empty.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    assert main(["translate", "sat", trivially_false]) == EXIT_SAT
    assert json.loads(capsys.readouterr().out) == {"unsat": True}


def test_translate_dual(tmp_path, capsys):
    src = sat_csp(tmp_path)
    assert main(["translate", "dual", src]) == EXIT_SAT
    payload = json.loads(capsys.readouterr().out)
    # dual variables are the original constraints
    assert len(payload["variables"]) == 1
    assert all(len(con) == 2 for con in payload["constraints"])


def test_factors_output(capsys):
    assert main(["factors", "--json"]) == EXIT_SAT
    report = json.loads(capsys.readouterr().out)
    assert report["lambda_4455"] == pytest.approx(1.3645, abs=1e-4)
    assert report["vertex_bound"] == pytest.approx(1.3289, abs=1e-4)
    assert main(["factors"]) == EXIT_SAT
    text = capsys.readouterr().out
    assert "vertex_bound" in text

"""Command line interface: file formats, subcommands, exit codes."""

import json

import pytest

from csp32 import cli
from csp32.cli import EXIT_LIMIT, EXIT_SAT, EXIT_UNSAT, EXIT_USAGE, main
from csp32.solver import SearchStats
from csp32.vertexcolor import ColorResult


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


def test_solve_sat_and_unsat(tmp_path, capsys):
    assert main(["solve", sat_csp(tmp_path), "--verify"]) == EXIT_SAT
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
         "--verify", "--json", "--stats"]
    ) == EXIT_SAT
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "sat"
    assert payload["stats"]["trials"] >= 1


def test_solve_node_limit(tmp_path, capsys):
    assert main(
        ["solve", sat_csp(tmp_path), "--node-limit", "0"]
    ) == EXIT_LIMIT
    assert capsys.readouterr().out.splitlines()[0] == "limit"


def test_solve_rand_mode_node_limit(tmp_path, capsys):
    # Coloring K4: unsatisfiable, so without the limit all 200 walks run.
    k4 = csp_json(
        tmp_path, "k4.json",
        [{"id": v, "colors": [0, 1, 2]} for v in range(4)],
        [[[v, c], [w, c]] for v in range(4) for w in range(v + 1, 4) for c in range(3)],
    )
    assert main(["solve", k4, "--mode", "rand"]) == EXIT_UNSAT
    assert capsys.readouterr().out.splitlines()[0] == "not-found"
    assert main(["solve", k4, "--mode", "rand", "--node-limit", "1"]) == EXIT_LIMIT
    assert capsys.readouterr().out.splitlines()[0] == "limit"


def test_stats_have_one_key_set(tmp_path, capsys):
    # sat, unsat and limit runs of every solver print the SearchStats fields.
    keys = set(SearchStats.__dataclass_fields__)
    k4 = write(tmp_path, "k4.col", K4_COL)
    runs = [
        (["solve", sat_csp(tmp_path)], EXIT_SAT),
        (["solve", unsat_csp(tmp_path)], EXIT_UNSAT),
        (["solve", sat_csp(tmp_path), "--node-limit", "0"], EXIT_LIMIT),
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
        assert set(json.loads(capsys.readouterr().out)["stats"]) == keys, argv


def test_color_exit_codes(tmp_path, capsys):
    tri = write(tmp_path, "tri.col", TRIANGLE_COL)
    assert main(["color", tri, "--verify"]) == EXIT_SAT
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


def test_verify_rejects_bad_solutions(tmp_path, capsys, monkeypatch):
    tri = write(tmp_path, "tri.col", TRIANGLE_COL)
    monkeypatch.setattr(
        cli, "color_graph",
        lambda n, edges, cfg: ColorResult(True, {v: 0 for v in range(n)}, SearchStats()),
    )
    assert main(["color", tri, "--verify"]) == EXIT_USAGE
    assert "solution failed verification" in capsys.readouterr().err

    monkeypatch.setattr(
        cli, "edge_color", lambda n, edges, cfg: ({e: 0 for e in edges}, SearchStats())
    )
    assert main(["edge-color", tri, "--verify"]) == EXIT_USAGE
    assert "solution failed verification" in capsys.readouterr().err

    real_sat_to_csp = cli.sat_to_csp

    def all_false_model(nvars, clauses):
        inst, smap = real_sat_to_csp(nvars, clauses)
        smap.decode = lambda asg: {x: False for x in range(1, nvars + 1)}
        return inst, smap

    monkeypatch.setattr(cli, "sat_to_csp", all_false_model)
    assert main(["sat", write(tmp_path, "f.cnf", SAT_CNF), "--verify"]) == EXIT_USAGE
    assert "solution failed verification" in capsys.readouterr().err


def test_sat_exit_codes(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", SAT_CNF)
    assert main(["sat", cnf, "--verify"]) == EXIT_SAT
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


def test_load_col_errors(tmp_path):
    cases = [
        ("e 1 2\n", "before the 'p' line"),
        ("p edge 3\n", "p edge N M"),
        ("p edge 3 1\ne 1 4\n", "bad edge"),
        ("p edge 3 1\ne 1 1\n", "bad edge"),
        ("p edge 3 1\nq 1 2\n", "unrecognized"),
        ("c nothing\n", "missing 'p edge'"),
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
    ]
    for i, (text, msg) in enumerate(cases):
        path = write(tmp_path, f"bad{i}.json", text)
        with pytest.raises(cli.InputError, match=msg):
            cli.load_csp_json(path)


def test_missing_file_is_usage_error(capsys):
    assert main(["solve", "/nonexistent/x.json"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


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


def test_oracle_subcommand(tmp_path, capsys):
    tri = write(tmp_path, "tri.col", TRIANGLE_COL)
    k4 = write(tmp_path, "k4.col", K4_COL)
    assert main(["oracle", "color", tri]) == EXIT_SAT
    assert main(["oracle", "color", k4]) == EXIT_UNSAT
    assert main(["oracle", "edge-color", k4]) == EXIT_SAT
    cnf = write(tmp_path, "f.cnf", SAT_CNF)
    assert main(["oracle", "sat", cnf]) == EXIT_SAT
    assert main(["oracle", "csp", unsat_csp(tmp_path)]) == EXIT_UNSAT
    capsys.readouterr()


def test_fuzz_subcommand(capsys):
    assert main(
        ["fuzz", "random-csp", "--count", "10", "--size", "6", "--seed", "1"]
    ) == EXIT_SAT
    assert "10/10 agreed" in capsys.readouterr().out
    assert main(["fuzz", "no-such-kind", "--count", "1"]) == EXIT_USAGE


def test_bench_subcommand(capsys):
    assert main(
        ["bench", "random-csp", "--count", "2", "--size", "10"]
    ) == EXIT_SAT
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(row["result"] for row in rows)
    assert all(row["wall_time_s"] >= 0 for row in rows)

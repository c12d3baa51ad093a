"""Start-up cost: scipy and numpy load only where they are called,
networkx never, and the brute-force oracle module only when asked for.

analysis.worst_case_breakdown is the one user of scipy, so importing the
package and running the solvers loads none of them; networkx is only a
reference in the tests.  Each case runs in a fresh interpreter, because a
module imports only once per process.
"""

import json

from helpers import run_fresh

HEAVY = ("scipy", "numpy", "networkx")


def loaded_after(body: str) -> set[str]:
    """The HEAVY modules in sys.modules after body runs in a fresh interpreter."""
    code = body + (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    run = run_fresh(code)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_solvers_without_matching_or_lp_load_no_heavy_module():
    body = (
        "import random\n"
        "import csp32, csp32.cli\n"
        "from csp32.oracle import planted_3colorable, random_3cnf, structured_csp\n"
        "rng = random.Random(1)\n"
        "assert csp32.solve(structured_csp(rng, [3] * 20, four_vars=5)).satisfiable\n"
        "inst, _smap = csp32.sat_to_csp(12, random_3cnf(rng, 12, 40))\n"
        "assert inst is None or csp32.solve(inst).satisfiable is not None\n"
        "assert csp32.color_graph(*planted_3colorable(rng, 30, 7 / 30)).colorable\n"
        "assert csp32.cli.main(['factors']) == 0\n"
    )
    assert loaded_after(body) == set()


def test_edge_color_loads_no_heavy_module():
    body = (
        "import random\n"
        "import csp32\n"
        "from csp32.oracle import planted_cubic_edge_colorable\n"
        "graph = planted_cubic_edge_colorable(random.Random(1), 16)\n"
        "assert csp32.edge_color(*graph)[0] is not None\n"
    )
    assert loaded_after(body) == set()


def test_importing_the_package_leaves_the_oracle_unloaded():
    # the solvers and the CLI reach nothing in csp32.oracle; only the
    # tests and perfbench/ import it
    for body in (
        "import csp32",
        "import csp32.cli",
        "import csp32.cli\nassert csp32.cli.main(['factors']) == 0",
    ):
        run = run_fresh(f"import sys\n{body}\nprint('csp32.oracle' in sys.modules)")
        assert run.returncode == 0, run.stderr
        assert run.stdout.split()[-1] == "False", body

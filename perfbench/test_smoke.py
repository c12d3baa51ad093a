"""The benchmark's own check: `python3 -m pytest perfbench` from the repository root.

Runs the smoke mode, which decides a few tiny instances of every
workload untraced and traced, and fails unless every metric declared in
BENCHMARK.json prints and every verdict verifies.
"""

import run


def test_smoke_mode_prints_every_metric_and_verifies_every_verdict():
    assert run.main(["--smoke"]) == 0

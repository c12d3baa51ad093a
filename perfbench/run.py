"""Time-to-verdict benchmark for csp32.

    python3 perfbench/run.py --workload csp-direct --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ./src.  A run
generates a seeded batch of instances sized to take about --seconds on
the reference machine, decides each one through the package's public
entry points (solve, sat_to_csp, color_graph, edge_color) under a node
limit and a SIGALRM wall deadline, and then checks every verdict against
the original input: sat witnesses directly, unsat verdicts against an
oracle reference.  Load comes from this one process, one instance at a
time, with no extra threads.

Every metric prints as "<workload> <name> <value> <unit>", and the last
line is a JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 decides the first
half of the batch untraced and then traced, and reports per-layer
metrics from spans recorded around calls into the package (see
spans.py), written to perfbench/out/.  The exit code is 1 when a verdict
is wrong and 2 on a usage error or when ./src/csp32 is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import (  # noqa: E402
    DEADLINE_S, UNDECIDED, UNSAT, VERIFIED, WORKLOADS, WRONG, Outcome, judge, make_cases,
    reference_verdicts,
)

# Seconds since start after which no instance is started (the rest count
# as undecided) and no unsat claim is sent to the oracle (it stays
# unverified), so a run always ends well inside three minutes.
DECIDE_BUDGET_S = 150.0
VERIFY_BUDGET_S = 170.0
SETUP_REPS = 3
SMOKE_COUNT = 6
# Times `import csp32` in a fresh interpreter, for set-up repetitions
# after the first, in-process import.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import csp32, csp32.oracle; print(time.perf_counter() - t)"
)


class Deadline(Exception):
    """An instance ran past its wall deadline."""


class Guard:
    """Runs one program call under a SIGALRM deadline; any failure of the
    program (deadline, node limit error, exception) becomes an undecided
    outcome instead of ending the run."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:  # a signal landing after the call returned is ignored
            raise Deadline

    def call(self, run, csp32, data, seconds: float) -> Outcome:
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                return run(csp32, data)
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            return Outcome(UNDECIDED, error="deadline")
        except Exception as exc:  # the program's failure is a result here, not a crash
            return Outcome(UNDECIDED, error=f"{type(exc).__name__}: {exc}")


class Pass:
    """One pass over a batch: outcomes, and per attempted case its
    time scaled to reference speed, the scale used and the raw time."""

    def __init__(self):
        self.outcomes: list[Outcome] = []
        self.times: list[float] = []
        self.factors: list[float] = []
        self.raw: list[float] = []

    @property
    def wall(self) -> float:
        return sum(self.times)


def decide(csp32, cases, guard: Guard, clock: SpeedClock, stop_at: float,
           tracer: Tracer | None = None) -> Pass:
    """Decide every case in order, one at a time, with a speed probe
    between consecutive cases."""
    out = Pass()
    before = clock.probe()
    for i, case in enumerate(cases):
        left = stop_at - perf_counter()
        if left <= 0:
            break
        if tracer is not None:
            tracer.begin_instance(i)
        t0 = perf_counter()
        out.outcomes.append(guard.call(case.family.run, csp32, case.data, min(DEADLINE_S, left)))
        elapsed = perf_counter() - t0
        after = clock.probe()
        factor = clock.factor(before, after)
        out.times.append(elapsed * factor)
        out.factors.append(factor)
        out.raw.append(elapsed)
        before = after
    out.outcomes += [Outcome(UNDECIDED, error="run budget spent")] * (len(cases) - len(out.outcomes))
    return out


def probe_import() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def import_package():
    importlib.import_module("csp32.oracle")
    return importlib.import_module("csp32")


def set_up(families, seed: int, count: int, reps: int, guard: Guard, clock: SpeedClock):
    """Import, generate, compute references and warm up, `reps` times.

    The first import is this process's own; later ones are timed in a
    fresh interpreter.  Returns the package, the batch and the median
    of each part and of the totals, in reference-speed seconds.
    """
    parts: dict[str, list[float]] = {"import_s": [], "generate_s": [], "reference_s": []}
    totals = []
    for rep in range(reps):
        if rep == 0:
            csp32, imported = clock.timed(import_package)
        else:
            before = clock.probe()
            imported = probe_import() * clock.factor(before, clock.probe())
        cases, generated = clock.timed(make_cases, families, seed, count)
        _, referenced = clock.timed(reference_verdicts, csp32, cases)
        _, warmed = clock.timed(warm_up, csp32, cases[:2], guard)
        parts["import_s"].append(imported)
        parts["generate_s"].append(generated)
        parts["reference_s"].append(referenced)
        totals.append(imported + generated + referenced + warmed)
    medians = {f"setup.{k}": statistics.median(v) for k, v in parts.items()}
    medians["setup_s"] = statistics.median(totals)
    return csp32, cases, medians


def warm_up(csp32, cases, guard: Guard):
    for case in cases:
        guard.call(case.family.run, csp32, case.data, DEADLINE_S)


def verify(csp32, cases, outcomes, guard: Guard, stop_at: float) -> tuple[int, int]:
    """(verified, wrong) verdict counts.  An unsat claim on an instance
    with only a lazy reference gets it now, under the same deadline as a
    program call."""
    for case, out in zip(cases, outcomes):
        left = min(DEADLINE_S, stop_at - perf_counter())
        if out.verdict == UNSAT and case.reference is None and left > 0:
            ref = guard.call(lambda c, d: Outcome(case.family.reference(c, d)), csp32, case.data, left)
            if ref.verdict != UNDECIDED:
                case.reference = ref.verdict
    verdicts = [judge(case, out) for case, out in zip(cases, outcomes)]
    return verdicts.count(VERIFIED), verdicts.count(WRONG)


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool = False) -> dict:
    started = perf_counter()
    wl = WORKLOADS[name]
    families = wl.smoke if smoke else wl.families
    count = SMOKE_COUNT if smoke else wl.batch_size(seconds)
    guard = Guard()
    clock = SpeedClock()
    csp32, cases, setup = set_up(families, seed, count, 2 if smoke else SETUP_REPS, guard, clock)
    stop_at = started + DECIDE_BUDGET_S
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        run = decide(csp32, cases, guard, clock, stop_at)
        metrics["wall_s"] = (run.wall, "s")
        metrics["verdict_s.p50"] = (statistics.median(run.times), "s")
        metrics["verdict_s.p90"] = (statistics.quantiles(run.times, n=10)[-1], "s")
        extra = {"samples": (len(run.times), "count"), "raw_wall_s": (sum(run.raw), "s")}
        outcomes = run.outcomes
    else:
        cases = cases[: max(2, len(cases) // 2)]
        plain = decide(csp32, cases, guard, clock, stop_at)
        tracer = Tracer()
        tracer.install()
        try:
            traced = decide(csp32, cases, guard, clock, stop_at, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{name}-seed{seed}")
        metrics.update(layer_metrics(tracer, traced.factors))
        metrics.update({k: (v, "s") for k, v in setup.items() if k.startswith("setup.")})
        metrics["trace.overhead_frac"] = (traced.wall / plain.wall - 1, "frac")
        extra = {"untraced_wall_s": (plain.wall, "s"), "traced_wall_s": (traced.wall, "s"),
                 "spans": (len(tracer.buf) // 5, "count")}
        extra.update(shares(metrics, traced.wall))
        outcomes = plain.outcomes + traced.outcomes
        cases = cases + cases
    verified, wrong = verify(csp32, cases, outcomes, guard, started + VERIFY_BUDGET_S)
    if not trace:
        metrics["decided_frac"] = (verified / len(cases), "frac")
        metrics["search_nodes"] = (sum(o.nodes for o in outcomes), "count")
        metrics["setup_s"] = (setup["setup_s"], "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    extra["unsat_verdicts"] = (sum(o.verdict == UNSAT for o in outcomes), "count")
    extra["wrong_verdicts"] = (wrong, "count")
    extra["undecided"] = (sum(o.verdict == UNDECIDED for o in outcomes), "count")
    for key, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name}  {key}  {value:.6g}  {unit}")
    for err in sorted({o.error for o in outcomes if o.error}):
        print(f"{name}  undecided-because  {err}")
    return {
        "correct": wrong == 0,
        "attempted": len(cases),
        "failed": len(cases) - verified,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def shares(metrics, traced_s: float) -> dict:
    """Each layer's self time as a share of traced decision time."""
    return {
        f"share.{k[: -len('.self_s')]}": (v / traced_s, "frac")
        for k, (v, _u) in metrics.items()
        if k.endswith(".self_s") and v > 0.001 * traced_s
    }


def smoke() -> int:
    """Tiny batches of every workload in both modes; checks that every
    declared metric prints and every verdict verifies."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, 1, 1, trace, smoke=True)
            want = {m["name"] for m in declared[key]}
            missing = want - result["metrics"].keys()
            if missing or not result["correct"] or result["failed"]:
                print(f"smoke FAIL {name} trace={int(trace)} missing={sorted(missing)} "
                      f"failed={result['failed']}")
                ok = False
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "csp32" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'csp32'}; run from a csp32 checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None or args.seconds < 1:
        parser.error("--workload and a positive --seconds are required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    last = results[args.workload] if args.workload != "all" else results
    print(json.dumps(last))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

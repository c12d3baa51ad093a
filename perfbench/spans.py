"""Spans around calls into csp32's layers, recorded from outside the package.

The package binds names with ``from .x import y``, so a call from one
module into another goes through the caller's own global.  Installing
the tracer therefore replaces every global in the solve-path modules
that refers to a traced function, and uninstalling puts the originals
back.  The program's code is not changed.

Spans live in memory in one flat float array, five numbers per span:
name id, parent span index, instance id, start and end.  A span is
appended with a single ``extend`` call, so a deadline signal cannot
leave a half-written record; a span cut short by one keeps end 0.0 and
is skipped.  A layer's self time is its spans' time minus the time of
their direct child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path
from time import perf_counter

FIELDS = ("name", "parent", "instance", "start", "end")
WIDTH = len(FIELDS)

# Traced functions per module; span names are "<module>.<function>".
# analysis, oracle and cli are off the solve path and are not timed.
LAYERS = {
    "instance": ("simplify", "lift", "check"),
    "solver": ("solve", "choose_rule", "matching_solve"),
    "transform": ("sat_to_csp", "coloring_to_csp"),
    "vertexcolor": (
        "color_graph", "strip_low_degree", "branch_degree3_cycle",
        "branch_degree3_tree", "build_bushy_forest", "build_height_two_forest",
    ),
    "edgecolor": ("edge_color", "splice_candidates", "splice", "select_splices"),
    "graphalg": ("bipartite_matching", "max_flow", "general_matching"),
}
PATCHED_MODULES = ("csp32",) + tuple(f"csp32.{m}" for m in LAYERS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.buf = array("d")
        self.stack: list[int] = []  # buffer offsets of the open spans
        self.instance_id = -1
        self.counts: Counter = Counter()  # read from returned stats objects
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def begin_instance(self, instance_id: int):
        self.instance_id = instance_id
        self.stack.clear()  # drop spans a deadline left open

    def parent_name(self, offset: int) -> str:
        parent = int(self.buf[offset + 1])
        return self.names[int(self.buf[parent])] if parent >= 0 else ""

    def _wrap(self, name: str, fn, on_return):
        name_id = float(len(self.names))
        self.names.append(name)
        buf, stack = self.buf, self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            offset = len(buf)
            buf.extend((name_id, stack[-1] if stack else -1, self.instance_id, perf_counter(), 0.0))
            try:
                stack.append(offset)
                result = fn(*args, **kwargs)
            finally:
                buf[offset + 4] = perf_counter()
                if stack and stack[-1] == offset:
                    stack.pop()
            if on_return is not None:
                on_return(self, offset, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(m) for m in PATCHED_MODULES]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"csp32.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                traced = self._wrap(f"{layer}.{fname}", original, ON_RETURN.get(f"{layer}.{fname}"))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, traced)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- output -------------------------------------------------------------

    def spans(self):
        """(name, parent offset, instance, start, end) per finished span."""
        buf = self.buf
        for off in range(0, len(buf), WIDTH):
            if buf[off + 4] > 0.0:
                yield self.names[int(buf[off])], int(buf[off + 1]), int(buf[off + 2]), buf[off + 3], buf[off + 4]

    def write(self, path: Path):
        """Raw float64 records plus a JSON header naming fields and spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".f64"), "wb") as f:
            self.buf.tofile(f)
        header = {"fields": FIELDS, "names": self.names, "records": len(self.buf) // WIDTH,
                  "parent": "buffer offset of the parent record (record index * 5), -1 for none"}
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def _on_simplify(tracer: Tracer, offset: int, result):
    if result[0] is None:
        tracer.counts["simplify.refuted"] += 1


def _on_solve(tracer: Tracer, offset: int, result):
    stats = result.stats
    for rule, n in stats.rule_counts.items():
        tracer.counts[f"rule.{rule}"] += n
    tracer.counts["fallbacks"] += stats.fallbacks
    if tracer.parent_name(offset) == "vertexcolor.color_graph":
        tracer.counts["vertexcolor.csp_calls"] += 1
        tracer.counts["vertexcolor.csp_sat"] += result.satisfiable is True


def _on_edge_color(tracer: Tracer, offset: int, result):
    stats = result[1]
    tracer.counts["edgecolor.splices"] += stats.splices
    tracer.counts["edgecolor.skipped"] += stats.skipped_splices


ON_RETURN = {
    "instance.simplify": _on_simplify,
    "solver.solve": _on_solve,
    "edgecolor.edge_color": _on_edge_color,
}

# Rules reported one by one: every rule name the solver can record.
RULES = (
    "dangling", "implication", "implication-cycle", "high-degree", "isolated",
    "four-color-restriction", "triple-with-four", "triple-with-two",
    "small-three-component", "large-three-component", "large-two-component",
    "two-component-parity", "matching",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, factors: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and the counted stats; span times
    are scaled by their instance's reference-speed factor."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    line_graphs = 0
    line_graph_s = 0.0
    names = tracer.names
    buf = tracer.buf
    for name, parent, inst, start, end in tracer.spans():
        dur = (end - start) * factors[inst]
        calls[name] += 1
        self_s[name] += dur
        if parent >= 0:
            parent_name = names[int(buf[parent])]
            self_s[parent_name] -= dur
            if name == "vertexcolor.color_graph" and parent_name.startswith("edgecolor."):
                line_graphs += 1
                line_graph_s += dur
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for layer, functions in LAYERS.items():
        for fname in functions:
            span = f"{layer}.{fname}"
            out[f"{span}.calls"] = (calls[span], "count")
            out[f"{span}.self_s"] = (self_s[span], "s")
    out["instance.simplify.refuted_frac"] = (_ratio(c["simplify.refuted"], calls["instance.simplify"]), "frac")
    for rule in RULES:
        out[f"solver.rule.{rule}"] = (c[f"rule.{rule}"], "count")
    out["solver.fallbacks"] = (c["fallbacks"], "count")
    out["vertexcolor.csp_calls"] = (c["vertexcolor.csp_calls"], "count")
    out["vertexcolor.csp_sat_frac"] = (_ratio(c["vertexcolor.csp_sat"], c["vertexcolor.csp_calls"]), "frac")
    attempted = c["edgecolor.splices"] + c["edgecolor.skipped"]
    out["edgecolor.skipped_frac"] = (_ratio(c["edgecolor.skipped"], attempted), "frac")
    out["edgecolor.line_graphs"] = (line_graphs, "count")
    out["edgecolor.line_graph_s"] = (line_graph_s, "s")
    return out

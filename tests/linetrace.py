"""A pytest plugin that lists the lines of the csp32 package a run never executed.

Run it over the whole suite, or any part of it, with

    PYTHONPATH=src:tests python -m pytest -p linetrace

and the summary ends with one `path:line: source` entry per line of
`src/csp32` that no test executed in the pytest process.  Lines run only
in a subprocess (the tests that start `python -m csp32.cli`) count as not
executed.  The plugin traces with `sys.settrace`, so the run is a few
times slower; it is not a test module, and pytest does not collect it.
"""

import importlib.util
import os
import sys
import threading
from pathlib import Path

_PACKAGE = Path(importlib.util.find_spec("csp32").submodule_search_locations[0]).resolve()
_executed: dict[str, set[int]] = {}  # module path -> lines run
_routes: dict[str, "set[int] | None"] = {}  # co_filename -> its module's set, None outside


def _lines_of(filename: str) -> "set[int] | None":
    path = Path(os.path.abspath(filename))
    if path.parent != _PACKAGE or path.suffix != ".py":
        return None
    return _executed.setdefault(str(path), set())


def _tracer(frame, event, arg):
    filename = frame.f_code.co_filename
    lines = _routes.get(filename, False)
    if lines is False:
        lines = _routes[filename] = _lines_of(filename)
    if lines is None:
        return None
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local

    return local


def _code_lines(code) -> set[int]:
    """Every line some instruction of code, or of a code object nested in
    it, belongs to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _missed() -> list[tuple[Path, int, str]]:
    out = []
    for path in sorted(_PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = _code_lines(compile(source, str(path), "exec"))
        text = source.splitlines()
        for line in sorted(lines - _executed.get(str(path), set())):
            out.append((path, line, text[line - 1].strip()))
    return out


def pytest_configure(config):
    if "csp32" in sys.modules:
        raise RuntimeError("linetrace must start before csp32 is imported")
    sys.settrace(_tracer)
    threading.settrace(_tracer)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed = _missed()
    terminalreporter.section(f"csp32 lines never executed: {len(missed)}")
    root = _PACKAGE.parent.parent
    for path, line, text in missed:
        terminalreporter.write_line(f"{path.relative_to(root)}:{line}: {text}")

"""Static guard: ``src/`` starts threads only in the live telemetry plane.

LP solves are bounded by HiGHS's own time limit, so no solve needs a worker
thread; the only thread the package starts is the live plane's HTTP server.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ALLOWED = {Path("obs/live.py")}


def _thread_calls(tree: ast.AST):
    """Line numbers of ``threading.Thread(...)`` / imported ``Thread(...)`` calls."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "threading"
        for alias in node.names
        if alias.name == "Thread"
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (isinstance(fn, ast.Attribute) and fn.attr == "Thread") or (
            isinstance(fn, ast.Name) and fn.id in aliases
        ):
            yield node.lineno


def test_threads_are_started_only_by_the_live_plane():
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = list(_thread_calls(ast.parse(path.read_text(), filename=str(path))))
        if lines:
            sites[path.relative_to(SRC)] = lines
    assert set(sites) == ALLOWED, sites


def test_the_guard_sees_both_spellings():
    source = "import threading\nfrom threading import Thread as T\nthreading.Thread()\nT()\n"
    assert list(_thread_calls(ast.parse(source))) == [3, 4]

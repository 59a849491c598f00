"""Every ``src/repro`` module is reached by a command, a claim or the benchmark.

A static import walk, imports inside functions included, starts from
``repro.cli``, every experiment module ``cli.COMMANDS`` names, and the
``repro`` names the benchmark (``perfbench/``) imports.  An import counts
for the module that defines the name, not for one that re-exports it:
``from repro.schedulers import LipsScheduler`` reaches
``repro.schedulers.lips`` only, and a module follows only the imports it
reads, so a package ``__init__``'s re-exports keep no module alive.  A
module the walk misses is run by nothing but tests and examples; it earns
a ``repro check`` claim or goes.
"""

import ast
from pathlib import Path

from repro.cli import COMMANDS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: the ``python -m repro`` shim: an entry point, imported by no module
ALLOWED = {"repro.__main__"}


def _module_files():
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        files[".".join(parts)] = path
    return files


FILES = _module_files()
TREES = {name: ast.parse(path.read_text(), filename=str(path)) for name, path in FILES.items()}


def _imports(tree):
    """``(module, name, local)`` per imported name; ``name`` is None for ``import m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def _used_imports(module):
    """The imports ``module`` reads; an unread one (a re-export) reaches nothing."""
    tree = TREES[module]
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(m, n) for m, n, local in _imports(tree) if local in loaded and m in FILES]


def _defining_module(module, name):
    """The module that defines ``module.name``, following re-exports."""
    if name is not None and f"{module}.{name}" in FILES:
        return f"{module}.{name}"
    if name is None:
        return module
    for source, imported, local in _imports(TREES[module]):
        if local == name and source in FILES:
            return _defining_module(source, imported)
    return module  # defined in ``module`` itself


def _packages_of(module):
    parts = module.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts))}


def reachable(starts):
    """Every module a walk from ``starts`` (``(module, name)`` pairs) reaches."""
    reached, walked = set(), set()
    todo = [_defining_module(m, n) for m, n in starts if m in FILES]
    while todo:
        module = todo.pop()
        reached |= _packages_of(module) | {module}
        if module in walked:
            continue
        walked.add(module)
        todo.extend(_defining_module(m, n) for m, n in _used_imports(module))
    return reached


def entry_points():
    starts = [("repro.cli", None)]
    starts += [(f"repro.experiments.{module}", None) for module in COMMANDS.values()]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        starts += [(m, n) for m, n, _ in _imports(tree)]
    return starts


def test_every_module_is_reached():
    unreached = sorted(set(FILES) - reachable(entry_points()) - ALLOWED)
    assert not unreached, (
        f"{len(unreached)} module(s) reached only by re-exports, tests or examples: "
        + ", ".join(unreached)
    )


def test_a_re_export_alone_reaches_nothing_but_its_definition():
    reached = reachable([("repro.schedulers", "LipsScheduler")])
    assert "repro.schedulers.lips" in reached
    assert "repro.schedulers.fifo" not in reached

"""Determinism pass (``FLOW001-003``): nondeterminism reachable from entry points.

A seeded LiPS run must be byte-reproducible — golden traces, ``repro diff``
gating and the parallel==serial sweep contract all depend on it.  This pass
finds the three ways reproductions rot, *interprocedurally*:

``FLOW001``
    ambient or unseeded RNG — module-level ``np.random.*`` draws,
    ``np.random.default_rng()``/``random.Random()`` with no seed, stdlib
    ``random.*`` draws — in any function reachable from a simulation/solve
    entry point.  Explicit ``Generator`` parameters and seeded constructors
    pass.
``FLOW002``
    wall-clock reads (``time.time``, ``datetime.now``, ``date.today``, …)
    on a reachable path.  ``time.perf_counter`` is exempt: the repo-wide
    convention is that *measured wall time* rides along as an attribute
    (``wall_seconds``) and never feeds simulation state.
``FLOW003``
    order-unstable iteration — looping/comprehending directly over a
    ``set``/``frozenset`` (or set algebra), or over ``os.listdir``/
    ``glob.glob`` output — reachable from an entry point.  This is the
    interprocedural sibling of syntactic rule ``AST001``.

Reachability follows CALL and POOL edges: code run by a pool task is
still code a seeded run executes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List

from repro.lint.findings import Finding, Severity
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.symbols import FunctionInfo, ModuleInfo, _dotted
from repro.lint.runner import suppressed_rules

#: numpy.random module-level draw/seed functions (legacy global RNG).
_NP_RANDOM_FNS = frozenset(
    {
        "random", "rand", "randn", "randint", "random_integers", "random_sample",
        "choice", "shuffle", "permutation", "seed", "uniform", "normal",
        "standard_normal", "exponential", "poisson", "binomial", "beta", "gamma",
    }
)

#: stdlib ``random`` module draw functions (module-level global RNG).
_STDLIB_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "seed", "triangular", "vonmisesvariate",
    }
)

#: wall-clock reads (module attr -> flagged names).  ``perf_counter`` is
#: deliberately absent — see module docstring.
_TIME_FNS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns"})
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: calls whose result iterates in filesystem order.
_FS_ORDER_FNS = frozenset({"listdir", "glob", "iglob", "iterdir", "scandir"})


@dataclass(frozen=True)
class Hazard:
    """One nondeterminism site inside a single function."""

    rule: str
    lineno: int
    detail: str


def _imports_module(module: ModuleInfo, alias: str, target: str) -> bool:
    """True when ``alias`` is ``target`` (or a submodule of it) here."""
    resolved = module.imports.get(alias)
    return resolved is not None and (resolved == target or resolved.startswith(target + "."))


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.Sub)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_fs_order_expr(module: ModuleInfo, node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    name = fn.attr if isinstance(fn, ast.Attribute) else (fn.id if isinstance(fn, ast.Name) else None)
    if name not in _FS_ORDER_FNS:
        return False
    if isinstance(fn, ast.Attribute):
        dotted = _dotted(fn)
        if dotted is not None:
            head = dotted.split(".")[0]
            if _imports_module(module, head, "os") or _imports_module(module, head, "glob"):
                return True
        return name in ("iterdir", "scandir")  # Path.iterdir() etc.
    return _imports_module(module, name, f"os.{name}") or _imports_module(
        module, name, f"glob.{name}"
    )


def function_hazards(module: ModuleInfo, fn: FunctionInfo, own_nodes) -> List[Hazard]:
    """Nondeterminism sites lexically inside ``fn`` (no reachability yet)."""
    hazards: List[Hazard] = []
    for node in own_nodes:
        # -- RNG + clock calls ------------------------------------------------
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func) or ""
            parts = dotted.split(".")
            leaf = parts[-1] if dotted else ""
            head = parts[0] if dotted else ""
            # np.random.<draw>(...) via the numpy module object
            if (
                len(parts) >= 3
                and parts[-2] == "random"
                and leaf in _NP_RANDOM_FNS
                and _imports_module(module, head, "numpy")
            ):
                hazards.append(
                    Hazard("FLOW001", node.lineno, f"ambient numpy RNG {dotted}()")
                )
            # from numpy.random import shuffle — rare but cheap to cover
            elif (
                len(parts) == 1
                and module.imports.get(leaf, "").startswith("numpy.random.")
                and leaf in _NP_RANDOM_FNS
            ):
                hazards.append(
                    Hazard("FLOW001", node.lineno, f"ambient numpy RNG {leaf}()")
                )
            # unseeded default_rng() / Random() / Generator construction
            elif leaf == "default_rng" and not node.args and not node.keywords:
                is_np = (len(parts) >= 2 and _imports_module(module, head, "numpy")) or (
                    len(parts) == 1
                    and module.imports.get(leaf, "") == "numpy.random.default_rng"
                )
                if is_np:
                    hazards.append(
                        Hazard(
                            "FLOW001",
                            node.lineno,
                            "np.random.default_rng() without a seed",
                        )
                    )
            elif (
                leaf == "Random"
                and not node.args
                and (
                    (len(parts) >= 2 and _imports_module(module, head, "random"))
                    or module.imports.get(leaf, "") == "random.Random"
                )
            ):
                hazards.append(
                    Hazard("FLOW001", node.lineno, "random.Random() without a seed")
                )
            # stdlib random module draws
            elif (
                len(parts) == 2
                and leaf in _STDLIB_RANDOM_FNS
                and _imports_module(module, head, "random")
            ):
                hazards.append(
                    Hazard("FLOW001", node.lineno, f"ambient stdlib RNG {dotted}()")
                )
            elif (
                len(parts) == 1
                and module.imports.get(leaf, "") == f"random.{leaf}"
                and leaf in _STDLIB_RANDOM_FNS
            ):
                hazards.append(
                    Hazard("FLOW001", node.lineno, f"ambient stdlib RNG {leaf}()")
                )
            # wall clock
            elif (
                len(parts) == 2
                and leaf in _TIME_FNS
                and _imports_module(module, head, "time")
            ) or (len(parts) == 1 and module.imports.get(leaf, "") == f"time.{leaf}"):
                hazards.append(
                    Hazard("FLOW002", node.lineno, f"wall-clock read time.{leaf}()")
                )
            elif leaf in _DATETIME_FNS and len(parts) >= 2:
                prev = parts[-2]
                if prev in ("datetime", "date") and (
                    _imports_module(module, head, "datetime")
                    or module.imports.get(head, "") == f"datetime.{head}"
                ):
                    hazards.append(
                        Hazard(
                            "FLOW002", node.lineno, f"wall-clock read {prev}.{leaf}()"
                        )
                    )
        # -- order-unstable iteration ----------------------------------------
        iters: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it):
                hazards.append(
                    Hazard(
                        "FLOW003",
                        it.lineno,
                        "iteration over a set (order salted per process)",
                    )
                )
            elif _is_fs_order_expr(module, it):
                hazards.append(
                    Hazard(
                        "FLOW003",
                        it.lineno,
                        "iteration in filesystem order (wrap in sorted(...))",
                    )
                )
    return hazards


def run_determinism_pass(
    graph: CallGraph, entry_points: Dict[str, List[str]]
) -> List[Finding]:
    """Flag hazards in functions reachable from any resolved entry point.

    ``entry_points`` maps the requested entry spec (e.g.
    ``"HadoopSimulator.run"``) to its resolved function qnames.
    """
    from repro.lint.flow.callgraph import _own_nodes

    table = graph.table
    roots: List[str] = []
    root_label: Dict[str, str] = {}
    for spec, qnames in entry_points.items():
        for q in qnames:
            roots.append(q)
            root_label.setdefault(q, spec)
    parents = graph.reachable(roots)
    findings: List[Finding] = []
    for qname in sorted(parents):
        fn = table.functions[qname]
        module = table.modules[fn.module]
        for hazard in function_hazards(module, fn, _own_nodes(fn)):
            if hazard.rule in suppressed_rules(module.line(hazard.lineno)):
                continue
            chain = CallGraph.chain(parents, qname)
            entry = root_label.get(chain[0], chain[0])
            via = " -> ".join(c.split(":")[-1] for c in chain)
            findings.append(
                Finding(
                    rule=hazard.rule,
                    severity=Severity.WARNING,
                    message=(
                        f"{hazard.detail} in {fn.qname.split(':')[-1]}() is "
                        f"reachable from entry point {entry} (via {via}); "
                        "seeded runs will diverge"
                    ),
                    location=str(module.path),
                    line=hazard.lineno,
                    symbol=fn.qname,
                )
            )
    return findings

"""Determinism pass (``FLOW001``, ``FLOW002``, ``FLOW103``): nondeterminism
reachable from entry points or run inside a pool worker.

A seeded LiPS run must be byte-reproducible — golden traces, ``repro diff``
gating and the parallel==serial sweep contract all depend on it.  This pass
finds the ways reproductions rot that need the call graph:

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
``FLOW103``
    a process-pool task (``pool.submit``/``pool.map``/``run_tasks``) whose
    transitive closure draws from ambient RNG, so worker results depend on
    per-process RNG state instead of the seeds carried in the task tuple.
    It fires at the dispatch whatever the entry points.

Reachability follows CALL and POOL edges: code run by a pool task is
still code a seeded run executes.  Order-unstable iteration (sets,
directory listings) is per-module rule ``AST001``'s job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, List, Set

from repro.lint.findings import Finding, Severity, suppressed_rules
from repro.lint.flow.callgraph import CallGraph, EdgeKind, _own_nodes
from repro.lint.flow.symbols import FunctionInfo, ModuleInfo, _dotted

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


def function_hazards(module: ModuleInfo, fn: FunctionInfo) -> List[Hazard]:
    """RNG and clock sites lexically inside ``fn`` (no reachability yet)."""
    hazards: List[Hazard] = []
    for node in _own_nodes(fn):
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
    return hazards


def run_determinism_pass(
    graph: CallGraph, entry_points: Dict[str, List[str]]
) -> List[Finding]:
    """FLOW001/002 in functions reachable from any resolved entry point,
    plus FLOW103 at every pool dispatch.

    ``entry_points`` maps the requested entry spec (e.g.
    ``"HadoopSimulator.run"``) to its resolved function qnames.
    """
    table = graph.table
    roots: List[str] = []
    root_label: Dict[str, str] = {}
    for spec, qnames in entry_points.items():
        for q in qnames:
            roots.append(q)
            root_label.setdefault(q, spec)
    cache: Dict[str, List[Hazard]] = {}

    def hazards_of(qname: str) -> List[Hazard]:
        if qname not in cache:
            fn = table.functions[qname]
            cache[qname] = function_hazards(table.modules[fn.module], fn)
        return cache[qname]

    parents = graph.reachable(roots)
    findings: List[Finding] = []
    for qname in sorted(parents):
        fn = table.functions[qname]
        module = table.modules[fn.module]
        for hazard in hazards_of(qname):
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
    return findings + _pool_task_findings(graph, hazards_of)


def _pool_task_findings(
    graph: CallGraph, hazards_of: Callable[[str], List[Hazard]]
) -> List[Finding]:
    """FLOW103: pool tasks whose call closure draws from ambient RNG."""
    table = graph.table
    findings: List[Finding] = []
    seen: Set[str] = set()
    for edge in sorted(graph.pool_dispatches, key=lambda e: (e.src, e.dst)):
        task = table.functions.get(edge.dst)
        if task is None or task.qname in seen:
            continue
        seen.add(task.qname)
        rng_sites: List[str] = []
        for q in sorted(graph.reachable([task.qname], kinds={EdgeKind.CALL})):
            for hazard in hazards_of(q):
                if hazard.rule == "FLOW001":
                    rng_sites.append(f"{q.split(':')[-1]}:{hazard.lineno} ({hazard.detail})")
        module = table.modules[task.module]
        if not rng_sites or "FLOW103" in suppressed_rules(module.line(task.lineno)):
            continue
        seeded = [p for p in task.params if "seed" in p.lower() or p.lower() == "rng"]
        hint = (
            f"thread the explicit seed parameter ({seeded[0]}) through instead"
            if seeded
            else "add a seed/rng parameter to the task tuple and derive all draws from it"
        )
        findings.append(
            Finding(
                rule="FLOW103",
                severity=Severity.ERROR,
                message=(
                    f"pool task {task.qname.split(':')[-1]}() draws from ambient RNG "
                    f"({'; '.join(rng_sites[:3])}); worker results "
                    f"depend on per-process RNG state — {hint}"
                ),
                location=str(module.path),
                line=task.lineno,
                symbol=task.qname,
            )
        )
    return findings

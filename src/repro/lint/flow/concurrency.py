"""Concurrency pass (``FLOW101-103``): races and impure process fan-out.

The one real race this repo has shipped — ``Tracer.emit`` corruption from
abandoned ``ResilientSolver`` timeout threads writing the shared record
list concurrently with the main thread — was found dynamically and patched
after the fact.  This pass finds the pattern statically:

``FLOW101``
    **shared mutable state written without a lock from code both sides can
    run.**  The *worker side* is everything reachable from a
    ``threading.Thread(target=...)``; the *main side* is everything
    reachable from the entry points via plain calls.  Tracked state:
    module-level globals (rebinding, container mutation, reads) and
    instance attributes of classes marked ``# flow: shared`` (the ambient
    tracer/metrics-registry singletons).  An access lexically inside
    ``with <...lock...>:`` counts as locked; ``__init__``-time writes are
    exempt (the object is not yet shared).
``FLOW102``
    **impure process-pool tasks** — a task function handed to
    ``pool.submit``/``pool.map``/``run_tasks`` that is a closure (captures
    the spawning frame; may not pickle, silently forks mutable state) or
    that transitively reads/writes mutable module globals (each worker
    process sees its own stale copy).
``FLOW103``
    **pool tasks with ambient randomness** — the dataflow-backed upgrade of
    syntactic rule ``AST006``: a task function whose transitive closure
    draws from ambient/unseeded RNG (``np.random.*``, unseeded
    ``default_rng()``), so worker results depend on per-process RNG state
    instead of explicit seed parameters carried in the task tuple.

Soundness limits are documented in DESIGN.md §11: lock detection is lexical
(``with`` statements naming something lock-ish), receiver types resolve by
name-based CHA, and aliasing through containers is invisible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.flow.callgraph import CallGraph, EdgeKind, _own_nodes
from repro.lint.flow.determinism import function_hazards
from repro.lint.flow.symbols import FunctionInfo, ModuleInfo, SymbolTable, _dotted
from repro.lint.runner import suppressed_rules

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "pop", "popitem",
        "remove", "discard", "clear", "setdefault", "sort", "reverse",
        "appendleft", "popleft", "write",
    }
)

#: Methods that never see a shared instance: the object is under
#: construction (or being pickled back) while they run.
_CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__setstate__"})

#: A state element: ("global", module, name) or ("attr", class_qname, attr).
StateKey = Tuple[str, str, str]


@dataclass(frozen=True)
class Access:
    """One read or write of a tracked state element."""

    state: StateKey
    fn: str  #: function qname the access occurs in
    lineno: int
    write: bool
    locked: bool

    def describe(self) -> str:
        """Human-readable ``write of module:name``-style form."""
        kind, owner, name = self.state
        target = f"{owner}.{name}" if kind == "attr" else f"{owner}:{name}"
        return f"{'write' if self.write else 'read'} of {target}"


def _lockish(node: ast.AST) -> bool:
    """True for ``with`` context expressions that look like a lock."""
    expr = node
    if isinstance(expr, ast.Call):
        expr = expr.func
    dotted = _dotted(expr) or ""
    return "lock" in dotted.lower()


class _AccessCollector:
    """Collects tracked-state accesses in one function body."""

    def __init__(
        self,
        table: SymbolTable,
        module: ModuleInfo,
        fn: FunctionInfo,
        shared_classes: Dict[str, Set[str]],
    ) -> None:
        self.table = table
        self.module = module
        self.fn = fn
        self.shared_classes = shared_classes
        self.accesses: List[Access] = []
        # names declared ``global`` in this function
        self.global_decls: Set[str] = set()
        # locally-bound names (params, assignments, loop vars, withitems)
        self.local_names: Set[str] = set(fn.params)
        self._scan_bindings()

    def _scan_bindings(self) -> None:
        for node in _own_nodes(self.fn):
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                self.local_names.add(node.id)
        self.local_names -= self.global_decls

    # -- state resolution --------------------------------------------------
    def _global_state(self, name: str) -> Optional[StateKey]:
        """The module-global behind a bare name, if it is one here."""
        if name in self.local_names:
            return None
        if name in self.module.globals:
            return ("global", self.module.name, name)
        target = self.module.imports.get(name)
        if target is not None:
            mod, _, leaf = target.rpartition(".")
            other = self.table.modules.get(mod)
            if other is not None and leaf in other.globals:
                return ("global", mod, leaf)
        return None

    def _attr_state(self, node: ast.Attribute) -> Optional[StateKey]:
        """self.attr inside a ``# flow: shared`` class method."""
        if not (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.fn.class_name
            and self.fn.name not in _CONSTRUCTION_METHODS
        ):
            return None
        owner = self.module.classes.get(self.fn.class_name)
        if owner is None or not owner.shared:
            return None
        return ("attr", owner.qname, node.attr)

    def _module_attr_state(self, node: ast.Attribute) -> Optional[StateKey]:
        """``mod.GLOBAL`` through an imported-module alias."""
        if not isinstance(node.value, ast.Name):
            return None
        target = self.module.imports.get(node.value.id)
        if target is None:
            return None
        other = self.table.modules.get(target)
        if other is not None and node.attr in other.globals:
            return ("global", target, node.attr)
        return None

    def _state_of(self, node: ast.AST) -> Optional[StateKey]:
        if isinstance(node, ast.Name):
            return self._global_state(node.id)
        if isinstance(node, ast.Attribute):
            return self._attr_state(node) or self._module_attr_state(node)
        return None

    # -- walking -----------------------------------------------------------
    def collect(self) -> List[Access]:
        """All tracked accesses, with per-site lock status."""
        for stmt in self.fn.node.body:
            self._walk(stmt, locked=False)
        return self.accesses

    def _record(self, state: Optional[StateKey], node: ast.AST, write: bool, locked: bool) -> None:
        if state is None:
            return
        self.accesses.append(
            Access(state=state, fn=self.fn.qname, lineno=node.lineno, write=write, locked=locked)
        )

    def _walk(self, node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are separate functions
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = locked or any(_lockish(item.context_expr) for item in node.items)
            for item in node.items:
                self._walk(item.context_expr, locked)
            for stmt in node.body:
                self._walk(stmt, inner)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                self._target_write(target, locked)
            if getattr(node, "value", None) is not None:
                self._walk(node.value, locked)
            if isinstance(node, ast.AugAssign):
                # augmented assignment reads the target too
                self._record(self._state_of(node.target), node.target, False, locked)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._target_write(target, locked)
            return
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr in _MUTATOR_METHODS:
                # X.append(...) mutates X (also X.attr.append -> X.attr)
                self._record(self._state_of(fn.value), fn.value, True, locked)
            self._walk(fn, locked)
            for arg in node.args:
                self._walk(arg, locked)
            for kw in node.keywords:
                self._walk(kw.value, locked)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._record(self._global_state(node.id), node, False, locked)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            self._record(
                self._attr_state(node) or self._module_attr_state(node), node, False, locked
            )
            self._walk(node.value, locked)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, locked)

    def _target_write(self, target: ast.AST, locked: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target_write(elt, locked)
            return
        if isinstance(target, ast.Subscript):
            # X[k] = v mutates X
            self._record(self._state_of(target.value), target.value, True, locked)
            self._walk(target.slice, locked)
            return
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self._record(("global", self.module.name, target.id), target, True, locked)
        elif isinstance(target, ast.Attribute):
            self._record(
                self._attr_state(target) or self._module_attr_state(target),
                target,
                True,
                locked,
            )
            self._walk(target.value, locked)


def _collect_all_accesses(table: SymbolTable) -> Dict[str, List[Access]]:
    """Accesses per function qname, program-wide."""
    shared: Dict[str, Set[str]] = {}
    out: Dict[str, List[Access]] = {}
    for fn in table.functions.values():
        module = table.modules[fn.module]
        collector = _AccessCollector(table, module, fn, shared)
        accesses = collector.collect()
        if accesses:
            out[fn.qname] = accesses
    return out


def _closure(graph: CallGraph, roots: Iterable[str], kinds: Set[EdgeKind]) -> Set[str]:
    return set(graph.reachable(roots, kinds=kinds))


def _race_findings(
    graph: CallGraph,
    entry_points: Dict[str, List[str]],
    accesses_by_fn: Dict[str, List[Access]],
) -> List[Finding]:
    """FLOW101: shared-state races between Thread targets and the main path.

    The *worker side* is everything reachable from a ``Thread(target=...)``
    spawn site; the *main side* is everything reachable from the entry
    points (plus the spawners themselves — the race partner is whatever the
    spawner does after, or instead of, joining) via plain calls.  Tracked
    state with an unlocked write visible from both sides is a finding.
    """
    table = graph.table
    findings: List[Finding] = []
    spawns = graph.thread_spawns
    worker_roots = [e.dst for e in spawns]
    if not worker_roots:
        return findings
    worker_side = _closure(graph, worker_roots, {EdgeKind.CALL, EdgeKind.THREAD})
    main_roots = [q for qs in entry_points.values() for q in qs]
    main_roots += [e.src for e in spawns]
    main_side = _closure(graph, main_roots, {EdgeKind.CALL})

    by_state: Dict[StateKey, Dict[str, List[Access]]] = {}
    for qname, accesses in accesses_by_fn.items():
        on_worker = qname in worker_side
        on_main = qname in main_side
        if not (on_worker or on_main):
            continue
        for access in accesses:
            sides = by_state.setdefault(access.state, {"worker": [], "main": []})
            if on_worker:
                sides["worker"].append(access)
            if on_main:
                sides["main"].append(access)

    for state in sorted(by_state):
        sides = by_state[state]
        if not sides["worker"] or not sides["main"]:
            continue
        writes = [a for a in sides["worker"] + sides["main"] if a.write]
        if not writes:
            continue
        unlocked_writes = sorted(
            {a for a in writes if not a.locked}, key=lambda a: (a.fn, a.lineno)
        )
        if not unlocked_writes:
            continue
        anchor = unlocked_writes[0]
        module = table.module_of(anchor.fn)
        if module is None:
            continue
        if "FLOW101" in suppressed_rules(module.line(anchor.lineno)):
            continue
        kind, owner, name = state
        target = f"{owner}.{name}" if kind == "attr" else f"{owner}:{name}"
        worker_fns = sorted({a.fn.split(":")[-1] for a in sides["worker"]})
        main_fns = sorted({a.fn.split(":")[-1] for a in sides["main"]})
        findings.append(
            Finding(
                rule="FLOW101",
                severity=Severity.ERROR,
                message=(
                    f"shared mutable state {target} is written without a "
                    f"lock ({anchor.describe()} in {anchor.fn.split(':')[-1]}) "
                    f"and is reachable from both a Thread target "
                    f"(via {', '.join(worker_fns[:3])}) and the main path "
                    f"(via {', '.join(main_fns[:3])}); guard every access with one lock"
                ),
                location=str(module.path),
                line=anchor.lineno,
                symbol=target,
            )
        )
    return findings


def run_concurrency_pass(
    graph: CallGraph, entry_points: Dict[str, List[str]]
) -> List[Finding]:
    """FLOW101 shared-state races + FLOW102/103 pool-task checks."""
    table = graph.table
    accesses_by_fn = _collect_all_accesses(table)

    # -- FLOW101: thread/main shared state -------------------------------
    findings = _race_findings(graph, entry_points, accesses_by_fn)

    # -- FLOW102/103: pool task purity ------------------------------------
    seen: Set[Tuple[str, str]] = set()
    for edge in sorted(graph.pool_dispatches, key=lambda e: (e.src, e.dst)):
        task = table.functions.get(edge.dst)
        if task is None:
            continue
        module = table.modules[task.module]
        task_label = task.qname.split(":")[-1]
        closure = _closure(graph, [edge.dst], {EdgeKind.CALL})

        if ("FLOW102", edge.dst) not in seen:
            problems: List[str] = []
            if "<locals>" in task.qname:
                problems.append("it is a closure (captures the spawning frame)")
            global_touches: List[str] = []
            for q in sorted(closure):
                for access in accesses_by_fn.get(q, []):
                    kind, owner, name = access.state
                    if kind != "global":
                        continue
                    if not access.write and name.isupper():
                        continue  # ALL_CAPS reads: constant by convention
                    glob = table.globals.get(f"{owner}:{name}")
                    if access.write or (glob is not None and glob.mutable):
                        global_touches.append(f"{owner}:{name}")
            if global_touches:
                uniq = sorted(set(global_touches))
                problems.append(
                    "it touches mutable module state "
                    f"({', '.join(uniq[:3])}) each worker process copies"
                )
            if problems:
                seen.add(("FLOW102", edge.dst))
                if "FLOW102" not in suppressed_rules(module.line(task.lineno)):
                    findings.append(
                        Finding(
                            rule="FLOW102",
                            severity=Severity.WARNING,
                            message=(
                                f"{task_label}() is dispatched to a worker "
                                f"pool but is not process-pure: "
                                f"{'; '.join(problems)}"
                            ),
                            location=str(module.path),
                            line=task.lineno,
                            symbol=task.qname,
                        )
                    )

        if ("FLOW103", edge.dst) not in seen:
            rng_sites: List[str] = []
            for q in sorted(closure):
                f = table.functions[q]
                m = table.modules[f.module]
                for hazard in function_hazards(m, f, _own_nodes(f)):
                    if hazard.rule == "FLOW001":
                        rng_sites.append(f"{f.qname.split(':')[-1]}:{hazard.lineno} ({hazard.detail})")
            if rng_sites:
                seen.add(("FLOW103", edge.dst))
                seeded = [p for p in task.params if "seed" in p.lower() or p.lower() == "rng"]
                hint = (
                    f"thread the explicit seed parameter ({seeded[0]}) through instead"
                    if seeded
                    else "add a seed/rng parameter to the task tuple and derive all draws from it"
                )
                if "FLOW103" not in suppressed_rules(module.line(task.lineno)):
                    findings.append(
                        Finding(
                            rule="FLOW103",
                            severity=Severity.ERROR,
                            message=(
                                f"pool task {task_label}() draws from ambient RNG "
                                f"({'; '.join(rng_sites[:3])}); worker results "
                                f"depend on per-process RNG state — {hint}"
                            ),
                            location=str(module.path),
                            line=task.lineno,
                            symbol=task.qname,
                        )
                    )
    return findings

"""Concurrency pass (``FLOW102-103``): impure process fan-out.

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

Soundness limits are documented in DESIGN.md §11: receiver types resolve
by name-based CHA, and aliasing through containers is invisible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.flow.callgraph import CallGraph, EdgeKind, _own_nodes
from repro.lint.flow.determinism import function_hazards
from repro.lint.flow.symbols import FunctionInfo, ModuleInfo, SymbolTable
from repro.lint.runner import suppressed_rules

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "pop", "popitem",
        "remove", "discard", "clear", "setdefault", "sort", "reverse",
        "appendleft", "popleft", "write",
    }
)

#: A module global: (module, name).
StateKey = Tuple[str, str]


@dataclass(frozen=True)
class Access:
    """One read or write of a module global."""

    state: StateKey
    fn: str  #: function qname the access occurs in
    lineno: int
    write: bool


class _AccessCollector:
    """Collects module-global accesses in one function body."""

    def __init__(self, table: SymbolTable, module: ModuleInfo, fn: FunctionInfo) -> None:
        self.table = table
        self.module = module
        self.fn = fn
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
            return (self.module.name, name)
        target = self.module.imports.get(name)
        if target is not None:
            mod, _, leaf = target.rpartition(".")
            other = self.table.modules.get(mod)
            if other is not None and leaf in other.globals:
                return (mod, leaf)
        return None

    def _module_attr_state(self, node: ast.Attribute) -> Optional[StateKey]:
        """``mod.GLOBAL`` through an imported-module alias."""
        if not isinstance(node.value, ast.Name):
            return None
        target = self.module.imports.get(node.value.id)
        if target is None:
            return None
        other = self.table.modules.get(target)
        if other is not None and node.attr in other.globals:
            return (target, node.attr)
        return None

    def _state_of(self, node: ast.AST) -> Optional[StateKey]:
        if isinstance(node, ast.Name):
            return self._global_state(node.id)
        if isinstance(node, ast.Attribute):
            return self._module_attr_state(node)
        return None

    # -- walking -----------------------------------------------------------
    def collect(self) -> List[Access]:
        """All module-global accesses of the function."""
        for stmt in self.fn.node.body:
            self._walk(stmt)
        return self.accesses

    def _record(self, state: Optional[StateKey], node: ast.AST, write: bool) -> None:
        if state is None:
            return
        self.accesses.append(Access(state=state, fn=self.fn.qname, lineno=node.lineno, write=write))

    def _walk(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are separate functions
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                self._target_write(target)
            if getattr(node, "value", None) is not None:
                self._walk(node.value)
            if isinstance(node, ast.AugAssign):
                # augmented assignment reads the target too
                self._record(self._state_of(node.target), node.target, False)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._target_write(target)
            return
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr in _MUTATOR_METHODS:
                # X.append(...) mutates X (also X.attr.append -> X.attr)
                self._record(self._state_of(fn.value), fn.value, True)
            self._walk(fn)
            for arg in node.args:
                self._walk(arg)
            for kw in node.keywords:
                self._walk(kw.value)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._record(self._global_state(node.id), node, False)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            self._record(self._module_attr_state(node), node, False)
            self._walk(node.value)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    def _target_write(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target_write(elt)
            return
        if isinstance(target, ast.Subscript):
            # X[k] = v mutates X
            self._record(self._state_of(target.value), target.value, True)
            self._walk(target.slice)
            return
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self._record((self.module.name, target.id), target, True)
        elif isinstance(target, ast.Attribute):
            self._record(self._module_attr_state(target), target, True)
            self._walk(target.value)


def _collect_all_accesses(table: SymbolTable) -> Dict[str, List[Access]]:
    """Accesses per function qname, program-wide."""
    out: Dict[str, List[Access]] = {}
    for fn in table.functions.values():
        module = table.modules[fn.module]
        accesses = _AccessCollector(table, module, fn).collect()
        if accesses:
            out[fn.qname] = accesses
    return out


def _closure(graph: CallGraph, roots: Iterable[str], kinds: Set[EdgeKind]) -> Set[str]:
    return set(graph.reachable(roots, kinds=kinds))


def run_concurrency_pass(graph: CallGraph) -> List[Finding]:
    """FLOW102/103 pool-task checks."""
    table = graph.table
    accesses_by_fn = _collect_all_accesses(table)
    findings: List[Finding] = []
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
                    owner, name = access.state
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

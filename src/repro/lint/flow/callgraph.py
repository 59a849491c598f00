"""Interprocedural call graph over a :class:`~repro.lint.flow.symbols.SymbolTable`.

Edges are *over-approximate* by design: the flow passes use reachability to
decide which functions execute on the simulation path or in a pool worker,
and a missed edge silently hides a finding while a spurious edge at worst
widens the audit surface.  Resolution strategy, in order:

1. **Direct names** — calls to module-level functions of the same module,
   from-imported functions of analyzed modules, and nested functions.
2. **``self.method()``** — resolved through the enclosing class, then its
   analyzed base classes.
3. **Constructor calls** — ``ClassName(...)`` binds to ``Class.__init__``.
4. **Name-based CHA** — an attribute call ``obj.method(...)`` whose receiver
   type is unknown resolves to *every* analyzed class method named
   ``method`` (classic class-hierarchy-analysis fallback, keyed by name).
5. **References** — a function *mentioned* without being called (a callback
   handed to ``events.schedule``, a ``target=`` argument) gets an edge too:
   callbacks execute eventually, and reachability must follow them.
6. **Nested defs** — defining a closure counts as potentially running it.

One special edge kind is recorded alongside plain calls: ``POOL`` —
process/executor fan-out (``pool.submit(f)``, ``pool.map(f)``,
:func:`repro.experiments.parallel.run_tasks`).  The determinism pass walks
POOL edges to find task functions that draw from ambient RNG (FLOW103).
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.lint.flow.symbols import FunctionInfo, ModuleInfo, SymbolTable, _dotted


class EdgeKind(enum.Enum):
    """How control can flow from one function to another."""

    CALL = "call"
    POOL = "pool"  #: dst runs in a worker process


@dataclass(frozen=True)
class Edge:
    """One resolved control-flow edge."""

    src: str
    dst: str
    kind: EdgeKind
    lineno: int


@dataclass
class CallGraph:
    """Edges plus the pool dispatch index FLOW103 needs."""

    table: SymbolTable
    edges: Dict[str, List[Edge]] = field(default_factory=dict)
    #: (dispatching function, task qname, lineno) per pool fan-out site
    pool_dispatches: List[Edge] = field(default_factory=list)

    def add(self, edge: Edge) -> None:
        """Record an edge (deduplicated per src/dst/kind)."""
        bucket = self.edges.setdefault(edge.src, [])
        for existing in bucket:
            if existing.dst == edge.dst and existing.kind == edge.kind:
                return
        bucket.append(edge)
        if edge.kind is EdgeKind.POOL:
            self.pool_dispatches.append(edge)

    @property
    def num_edges(self) -> int:
        """Total resolved edges."""
        return sum(len(v) for v in self.edges.values())

    def successors(self, qname: str, kinds: Optional[Set[EdgeKind]] = None) -> List[Edge]:
        """Outgoing edges of ``qname`` (optionally filtered by kind)."""
        out = self.edges.get(qname, [])
        if kinds is None:
            return out
        return [e for e in out if e.kind in kinds]

    def reachable(
        self,
        roots: Iterable[str],
        kinds: Optional[Set[EdgeKind]] = None,
    ) -> Dict[str, Optional[str]]:
        """BFS closure from ``roots``; returns ``{qname: predecessor}``.

        ``kinds`` filters which edges are followed (default: all — code a
        pool worker runs is still code the program runs).
        """
        if kinds is None:
            kinds = set(EdgeKind)
        parents: Dict[str, Optional[str]] = {}
        queue: List[str] = []
        for root in roots:
            if root in self.table.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for edge in self.successors(current, kinds):
                if edge.dst not in parents:
                    parents[edge.dst] = current
                    queue.append(edge.dst)
        return parents

    @staticmethod
    def chain(parents: Dict[str, Optional[str]], qname: str, limit: int = 6) -> List[str]:
        """The call chain from a BFS root to ``qname`` (root first)."""
        chain: List[str] = []
        cursor: Optional[str] = qname
        while cursor is not None and len(chain) < limit * 4:
            chain.append(cursor)
            cursor = parents.get(cursor)
        chain.reverse()
        if len(chain) > limit:
            chain = chain[: limit // 2] + ["..."] + chain[-(limit - limit // 2) :]
        return chain


#: Callable attribute names treated as pool fan-out when called on any
#: receiver (``pool.map(f, ...)``, ``executor.submit(f, ...)``).
_POOL_METHODS = frozenset({"submit", "map"})

#: Function names (suffix match on the resolved target) treated as pool
#: fan-out helpers whose first argument is the task function.
_POOL_HELPERS = ("run_tasks",)


class _FunctionResolver:
    """Resolves call/reference expressions inside one function body."""

    def __init__(self, table: SymbolTable, module: ModuleInfo, fn: FunctionInfo) -> None:
        self.table = table
        self.module = module
        self.fn = fn

    # -- name resolution ---------------------------------------------------
    def _local_function(self, name: str) -> Optional[str]:
        """A function of this module visible under ``name``."""
        # nested sibling first: outer.<locals>.name
        prefix = self.fn.qname.split(":", 1)[1]
        nested = f"{prefix}.<locals>.{name}"
        if nested in self.module.functions:
            return self.module.functions[nested].qname
        if name in self.module.functions:
            return self.module.functions[name].qname
        return None

    def _imported(self, name: str) -> Optional[str]:
        """The table qname behind a from-imported function or class."""
        target = self.module.imports.get(name)
        if target is None:
            return None
        mod, _, leaf = target.rpartition(".")
        other = self.table.modules.get(mod)
        if other is None:
            return None
        if leaf in other.functions:
            return other.functions[leaf].qname
        if leaf in other.classes:
            return other.classes[leaf].qname
        return None

    def _class_init(self, class_qname: str) -> List[str]:
        cls = self.table.classes.get(class_qname)
        if cls is None:
            return []
        init = cls.methods.get("__init__")
        out = [init] if init is not None else []
        post = cls.methods.get("__post_init__")
        if post is not None:
            out.append(post)
        return out

    def _resolve_class_name(self, name: str) -> Optional[str]:
        """Class qname visible under ``name`` in this module."""
        if name in self.module.classes:
            return self.module.classes[name].qname
        resolved = self._imported(name)
        if resolved is not None and resolved in self.table.classes:
            return resolved
        return None

    def _method_in_class(self, class_qname: str, method: str, seen=None) -> Optional[str]:
        """Resolve ``method`` through a class and its analyzed bases."""
        if seen is None:
            seen = set()
        if class_qname in seen:
            return None
        seen.add(class_qname)
        cls = self.table.classes.get(class_qname)
        if cls is None:
            return None
        if method in cls.methods:
            return cls.methods[method]
        owner = self.table.modules.get(cls.module)
        for base in cls.bases:
            if not base:
                continue
            leaf = base.split(".")[-1]
            base_qname = None
            if owner is not None and leaf in owner.classes:
                base_qname = owner.classes[leaf].qname
            else:
                imported = owner.imports.get(base.split(".")[0]) if owner else None
                if imported is not None:
                    mod = self.table.modules.get(imported.rpartition(".")[0])
                    if mod and leaf in mod.classes:
                        base_qname = mod.classes[leaf].qname
            if base_qname is not None:
                found = self._method_in_class(base_qname, method, seen)
                if found is not None:
                    return found
        return None

    def resolve_callable(self, node: ast.AST) -> List[str]:
        """Function qnames a callable expression may denote (possibly [])."""
        if isinstance(node, ast.Name):
            local = self._local_function(node.id)
            if local is not None:
                return [local]
            imported = self._imported(node.id)
            if imported is not None:
                if imported in self.table.classes:
                    return self._class_init(imported)
                return [imported]
            cls = self._resolve_class_name(node.id)
            if cls is not None:
                return self._class_init(cls)
            return []
        if isinstance(node, ast.Attribute):
            # self.method / cls.method
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                if self.fn.class_name:
                    owner = self.module.classes.get(self.fn.class_name)
                    if owner is not None:
                        found = self._method_in_class(owner.qname, node.attr)
                        if found is not None:
                            return [found]
                return self.table.methods_by_name.get(node.attr, [])
            dotted = _dotted(node)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                target = self.module.imports.get(head)
                if target is not None and rest:
                    # module alias: mod.func or mod.Class
                    mod = self.table.modules.get(target)
                    if mod is not None:
                        leaf = rest.split(".")[0]
                        if leaf in mod.functions:
                            return [mod.functions[leaf].qname]
                        if leaf in mod.classes:
                            if "." in rest:  # mod.Class.method
                                return [
                                    q
                                    for q in [
                                        self._method_in_class(
                                            mod.classes[leaf].qname, rest.split(".")[1]
                                        )
                                    ]
                                    if q
                                ]
                            return self._class_init(mod.classes[leaf].qname)
                # ClassName.method in this module
                cls = self._resolve_class_name(head)
                if cls is not None and rest:
                    found = self._method_in_class(cls, rest.split(".")[0])
                    if found is not None:
                        return [found]
            # unknown receiver: name-based CHA over analyzed methods
            return self.table.methods_by_name.get(node.attr, [])
        return []


def _pool_task(call: ast.Call, resolver: _FunctionResolver) -> Optional[ast.AST]:
    """The task-function expression of a pool fan-out call, if any."""
    fn = call.func
    if isinstance(fn, ast.Attribute) and fn.attr in _POOL_METHODS and call.args:
        # only count it when the first argument resolves to a known
        # function — cuts `somedict.map(...)`-style false positives
        if resolver.resolve_callable(call.args[0]):
            return call.args[0]
        return None
    if isinstance(fn, (ast.Name, ast.Attribute)):
        for target in resolver.resolve_callable(fn):
            if target.split(":")[-1].split(".")[-1] in _POOL_HELPERS and call.args:
                return call.args[0]
    return None


def build_call_graph(table: SymbolTable) -> CallGraph:
    """Resolve every call/reference site of every analyzed function."""
    graph = CallGraph(table=table)
    for fn in table.functions.values():
        module = table.modules[fn.module]
        resolver = _FunctionResolver(table, module, fn)
        _resolve_body(graph, resolver, fn)
    return graph


def _own_nodes(fn: FunctionInfo) -> List[ast.AST]:
    """The statements of ``fn`` excluding nested function/class bodies."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn.node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # separate FunctionInfo covers it
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _resolve_body(graph: CallGraph, resolver: _FunctionResolver, fn: FunctionInfo) -> None:
    table = graph.table
    module = resolver.module
    # nested defs: defining a closure may run it (callbacks, factories)
    prefix = fn.qname.split(":", 1)[1] + ".<locals>."
    for qualpath, nested in module.functions.items():
        if qualpath.startswith(prefix) and "." not in qualpath[len(prefix):]:
            graph.add(Edge(fn.qname, nested.qname, EdgeKind.CALL, nested.lineno))

    nodes = _own_nodes(fn)
    called_nodes: Set[int] = set()
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        called_nodes.add(id(node.func))
        task_expr = _pool_task(node, resolver)
        if task_expr is not None:
            for dst in resolver.resolve_callable(task_expr):
                graph.add(Edge(fn.qname, dst, EdgeKind.POOL, node.lineno))
            called_nodes.add(id(task_expr))
            # the dispatch helper itself is still a plain call below
        for dst in resolver.resolve_callable(node.func):
            graph.add(Edge(fn.qname, dst, EdgeKind.CALL, node.lineno))

    # bare references (callbacks): a Name/self.attr mentioning a function
    # without calling it right there
    for node in nodes:
        if id(node) in called_nodes:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            local = resolver._local_function(node.id)
            if local is not None:
                graph.add(Edge(fn.qname, local, EdgeKind.CALL, node.lineno))
            else:
                imported = resolver._imported(node.id)
                if imported is not None and imported in table.functions:
                    graph.add(Edge(fn.qname, imported, EdgeKind.CALL, node.lineno))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
            and fn.class_name
        ):
            owner = module.classes.get(fn.class_name)
            if owner is not None:
                found = resolver._method_in_class(owner.qname, node.attr)
                if found is not None:
                    graph.add(Edge(fn.qname, found, EdgeKind.CALL, node.lineno))

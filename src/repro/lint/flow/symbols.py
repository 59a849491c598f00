"""Module-level symbol table: the program view the flow passes share.

One :class:`SymbolTable` covers every ``.py`` file handed to
:func:`build_symbol_table`.  Per module it records

* **imports** — local alias → fully-qualified name (``np`` → ``numpy``,
  ``current_tracer`` → ``repro.obs.trace.current_tracer``);
* **functions** — every ``def``, including methods and nested functions,
  keyed by a qualified name of the form ``pkg.mod:Class.method`` (nested
  functions use ``outer.<locals>.inner``, mirroring ``__qualname__``);
* **classes** — base-class expressions and methods.

Everything is derived from one ``ast.parse`` per file (:func:`parse_paths`),
and the per-module AST rules run over the same trees; the table keeps the
source lines around so passes can honour per-line suppressions.
"""

from __future__ import annotations

import ast
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.findings import Finding, Severity


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str  #: ``module:qualpath`` (e.g. ``repro.obs.trace:Tracer.emit``)
    module: str
    name: str
    node: ast.AST  #: the FunctionDef/AsyncFunctionDef node
    lineno: int
    #: enclosing class name ("" for module-level / nested-in-function defs)
    class_name: str = ""
    params: Tuple[str, ...] = ()
    decorators: Tuple[ast.AST, ...] = ()

    @property
    def is_method(self) -> bool:
        """True when defined directly inside a class body."""
        return bool(self.class_name)


@dataclass
class ClassInfo:
    """One class definition."""

    qname: str  #: ``module:Class``
    module: str
    name: str
    lineno: int
    #: base-class expressions as dotted strings ("" when unresolvable)
    bases: Tuple[str, ...] = ()
    #: method name -> function qname
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything recorded about one parsed module."""

    name: str
    path: Path
    tree: ast.Module
    source_lines: List[str]
    #: local alias -> fully qualified name
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)  # by qualpath
    classes: Dict[str, ClassInfo] = field(default_factory=dict)  # by class name

    def line(self, lineno: int) -> str:
        """The 1-based source line (empty string out of range)."""
        if 0 < lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1]
        return ""


@dataclass
class SymbolTable:
    """The merged program view over every analyzed module."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: function qname -> FunctionInfo, across all modules
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: class qname -> ClassInfo
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: method name -> [function qnames] (the name-based CHA index)
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)

    def module_of(self, qname: str) -> Optional[ModuleInfo]:
        """The module a function/class qname belongs to."""
        return self.modules.get(qname.split(":", 1)[0])

    def resolve_suffix(self, dotted: str) -> List[str]:
        """Function qnames whose ``module:qualpath`` ends in ``dotted``.

        ``dotted`` uses plain dots (``HadoopSimulator.run``,
        ``repro.core.co_online.solve_co_online``); both the module part and
        the qualpath part participate in the match, so entry points can be
        named as loosely or as fully as the caller likes.
        """
        out = []
        want = dotted.split(".")
        for qname in self.functions:
            parts = qname.replace(":", ".").split(".")
            if parts[-len(want):] == want:
                out.append(qname)
        return sorted(out)


def module_name_for(path: Path) -> str:
    """Dotted module name derived from package ``__init__.py`` ancestry."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _param_names(node) -> Tuple[str, ...]:
    args = node.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    if args.vararg is not None:
        params.append(args.vararg)
    if args.kwarg is not None:
        params.append(args.kwarg)
    return tuple(a.arg for a in params)


class _ModuleVisitor(ast.NodeVisitor):
    """Collects imports, functions and classes for one module."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self._qual: List[str] = []  # qualname stack (Class / func.<locals>)
        self._class: List[Optional[ClassInfo]] = []  # innermost class or None

    # -- imports -----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.info.imports[local] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            # relative imports: resolve against this module's package
            pkg = self.info.name.rsplit(".", node.level)[0] if node.level else ""
            base = f"{pkg}.{node.module}" if node.module else pkg
        else:
            base = node.module
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.info.imports[local] = f"{base}.{alias.name}"
        self.generic_visit(node)

    # -- defs --------------------------------------------------------------
    def _add_function(self, node) -> None:
        qualpath = ".".join([*self._qual, node.name]) if self._qual else node.name
        qname = f"{self.info.name}:{qualpath}"
        enclosing = self._class[-1] if self._class else None
        fn = FunctionInfo(
            qname=qname,
            module=self.info.name,
            name=node.name,
            node=node,
            lineno=node.lineno,
            class_name=enclosing.name if enclosing is not None else "",
            params=_param_names(node),
            decorators=tuple(node.decorator_list),
        )
        self.info.functions[qualpath] = fn
        if enclosing is not None:
            enclosing.methods[node.name] = qname
        self._qual.append(node.name)
        self._qual.append("<locals>")
        self._class.append(None)  # nested defs are not methods
        self.generic_visit(node)
        self._class.pop()
        self._qual.pop()
        self._qual.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._add_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._add_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = tuple(_dotted(b) or "" for b in node.bases)
        cls = ClassInfo(
            qname=f"{self.info.name}:{node.name}",
            module=self.info.name,
            name=node.name,
            lineno=node.lineno,
            bases=bases,
        )
        self.info.classes[node.name] = cls
        self._qual.append(node.name)
        self._class.append(cls)
        self.generic_visit(node)
        self._class.pop()
        self._qual.pop()


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            out.extend(path.rglob("*.py"))
        elif path.suffix == ".py":
            out.append(path)
    return sorted(set(out))


def parse_module(path: Path, module_name: Optional[str] = None) -> ModuleInfo:
    """Read and parse one file (raises on unreadable files and syntax errors)."""
    with tokenize.open(path) as fh:  # honours PEP 263 encodings
        source = fh.read()
    tree = ast.parse(source, filename=str(path))
    info = ModuleInfo(
        name=module_name if module_name is not None else module_name_for(path),
        path=path,
        tree=tree,
        source_lines=source.splitlines(),
    )
    _ModuleVisitor(info).visit(tree)
    return info


def parse_paths(paths: Iterable[Path]) -> Tuple[List[ModuleInfo], List[Finding]]:
    """Parse every ``.py`` under ``paths`` once.

    Returns the parsed modules and one ERROR finding per file that could
    not be parsed (``AST999``) or read (``AST998``), so one bad file does
    not take down the whole program view.
    """
    modules: List[ModuleInfo] = []
    failures: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            modules.append(parse_module(path))
        except SyntaxError as exc:
            failures.append(
                Finding(
                    "AST999",
                    Severity.ERROR,
                    f"cannot parse: {exc.msg}",
                    location=str(path),
                    line=exc.lineno,
                )
            )
        except (OSError, UnicodeDecodeError) as exc:
            failures.append(
                Finding("AST998", Severity.ERROR, f"cannot read: {exc}", location=str(path))
            )
    return modules, failures


def symbol_table(modules: Iterable[ModuleInfo]) -> SymbolTable:
    """Merge parsed modules into one :class:`SymbolTable`."""
    table = SymbolTable()
    for info in modules:
        # last parse wins on duplicate module names (shadowed fixtures)
        table.modules[info.name] = info
    for info in table.modules.values():
        for fn in info.functions.values():
            table.functions[fn.qname] = fn
            if fn.is_method:
                table.methods_by_name.setdefault(fn.name, []).append(fn.qname)
        for cls in info.classes.values():
            table.classes[cls.qname] = cls
    for names in table.methods_by_name.values():
        names.sort()
    return table


def build_symbol_table(paths: Iterable[Path]) -> SymbolTable:
    """Parse every ``.py`` under ``paths`` into one :class:`SymbolTable`
    (unreadable and unparsable files are left out)."""
    return symbol_table(parse_paths(paths)[0])

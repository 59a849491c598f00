"""Units pass (``FLOW201``): cross-unit arithmetic in the cost model.

LiPS minimizes a **dollar** objective assembled from **second**- and
**byte**-denominated inputs; mixing those produces plausible-looking
nonsense.  This pass runs a lightweight abstract interpretation per
function:

* **sources** — functions/properties decorated ``@returns(DOLLARS)`` (etc.,
  see :mod:`repro.units`) are read *statically* from the decorator list;
  calling one taints the result with its unit tag;
* **propagation** — tags flow through assignments, ``+``/``-`` (tags must
  agree), unary minus and conditional expressions; ``*`` and ``/`` derive
  composite tags (``"cpu_seconds*dollars"``), and dividing equal tags
  yields a dimensionless value;
* **sinks** — ``+``/``-``/augmented-assign/comparisons between two *known,
  different* tags raise ``FLOW201``, as does returning a known tag from a
  function annotated with a different one.

Untagged values (constants, un-annotated calls, parameters) unify with
anything — this is a linter biased against false positives, not a type
system.  Soundness limits in DESIGN.md §11.3.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.lint.findings import Finding, Severity, suppressed_rules
from repro.lint.flow.callgraph import CallGraph, _FunctionResolver
from repro.lint.flow.symbols import FunctionInfo, ModuleInfo, SymbolTable, _dotted

#: comparison ops that are unit sinks (``is``/``in`` are not arithmetic)
_CMP_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _annotated_unit(fn: FunctionInfo) -> Optional[str]:
    """The ``@returns("<unit>")`` tag on a function, read statically."""
    for dec in fn.decorators:
        if not isinstance(dec, ast.Call):
            continue
        name = _dotted(dec.func)
        if name is None or name.split(".")[-1] != "returns":
            continue
        if dec.args and isinstance(dec.args[0], ast.Constant) and isinstance(
            dec.args[0].value, str
        ):
            return dec.args[0].value
        # @returns(DOLLARS) — resolve the constant name to its tag
        if dec.args and isinstance(dec.args[0], ast.Name):
            return dec.args[0].id.lower()
    return None


def annotation_map(table: SymbolTable) -> Dict[str, str]:
    """function qname -> declared unit, across the whole program."""
    out: Dict[str, str] = {}
    for fn in table.functions.values():
        unit = _annotated_unit(fn)
        if unit is not None:
            out[fn.qname] = unit
    return out


def _mul_tag(left: str, right: str) -> str:
    return "*".join(sorted([left, right]))


class _UnitInterp:
    """Abstract interpretation of one function body over unit tags."""

    def __init__(
        self,
        module: ModuleInfo,
        fn: FunctionInfo,
        resolver: _FunctionResolver,
        annotations: Dict[str, str],
    ) -> None:
        self.module = module
        self.fn = fn
        self.resolver = resolver
        self.annotations = annotations
        self.env: Dict[str, Optional[str]] = {}
        self.findings: List[Finding] = []

    # -- reporting ---------------------------------------------------------
    def _flag(self, node: ast.AST, what: str, left: str, right: str) -> None:
        lineno = getattr(node, "lineno", self.fn.lineno)
        if "FLOW201" in suppressed_rules(self.module.line(lineno)):
            return
        self.findings.append(
            Finding(
                rule="FLOW201",
                severity=Severity.WARNING,
                message=(
                    f"{what} mixes units: {left} vs {right} in "
                    f"{self.fn.qname.split(':')[-1]}()"
                ),
                location=str(self.module.path),
                line=lineno,
                symbol=self.fn.qname,
            )
        )

    # -- expression evaluation ---------------------------------------------
    def _call_unit(self, node: ast.Call) -> Optional[str]:
        units = {
            self.annotations[q]
            for q in self.resolver.resolve_callable(node.func)
            if q in self.annotations
        }
        return units.pop() if len(units) == 1 else None

    def _attr_unit(self, node: ast.Attribute) -> Optional[str]:
        """Unit of a bare attribute read — annotated ``@property`` access."""
        units = {
            self.annotations[q]
            for q in self.resolver.resolve_callable(node)
            if q in self.annotations
        }
        return units.pop() if len(units) == 1 else None

    def eval(self, node: ast.AST) -> Optional[str]:
        """The unit tag of an expression (None = unknown/dimensionless)."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Call):
            for arg in node.args:
                self.eval(arg)
            for kw in node.keywords:
                self.eval(kw.value)
            return self._call_unit(node)
        if isinstance(node, ast.Attribute):
            self.eval(node.value)
            return self._attr_unit(node)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                if left is not None and right is not None and left != right:
                    op = "addition" if isinstance(node.op, ast.Add) else "subtraction"
                    self._flag(node, op, left, right)
                    return None
                return left if left is not None else right
            if isinstance(node.op, ast.Mult):
                if left is not None and right is not None:
                    return _mul_tag(left, right)
                return None
            if isinstance(node.op, ast.Div):
                if left is not None and right is not None:
                    return None if left == right else f"{left}/{right}"
                return None
            return None
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            prev = node.left
            prev_unit = self.eval(prev)
            for op, comparator in zip(node.ops, node.comparators):
                unit = self.eval(comparator)
                if (
                    isinstance(op, _CMP_OPS)
                    and prev_unit is not None
                    and unit is not None
                    and prev_unit != unit
                ):
                    self._flag(node, "comparison", prev_unit, unit)
                prev_unit = unit
            return None
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            a = self.eval(node.body)
            b = self.eval(node.orelse)
            return a if a == b else None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self.eval(elt)
            return None
        if isinstance(node, ast.Dict):
            for v in node.values:
                if v is not None:
                    self.eval(v)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            # comprehensions: evaluate for nested sinks, no tag propagation
            for child in ast.walk(node):
                if isinstance(child, (ast.BinOp, ast.Compare)) and child is not node:
                    self.eval(child)
            return None
        return None

    # -- statement walk ----------------------------------------------------
    def run(self) -> List[Finding]:
        declared = self.annotations.get(self.fn.qname)
        for stmt in self.fn.node.body:
            self._stmt(stmt, declared)
        return self.findings

    def _stmt(self, node: ast.AST, declared: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.Assign):
            unit = self.eval(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env[target.id] = unit
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                unit = self.eval(node.value)
                if isinstance(node.target, ast.Name):
                    self.env[node.target.id] = unit
            return
        if isinstance(node, ast.AugAssign):
            right = self.eval(node.value)
            left = (
                self.env.get(node.target.id)
                if isinstance(node.target, ast.Name)
                else None
            )
            if (
                isinstance(node.op, (ast.Add, ast.Sub))
                and left is not None
                and right is not None
                and left != right
            ):
                self._flag(node, "augmented assignment", left, right)
            elif isinstance(node.target, ast.Name) and right is not None:
                if left is None:
                    self.env[node.target.id] = right
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                unit = self.eval(node.value)
                if declared is not None and unit is not None and unit != declared:
                    self._flag(node, "return", unit, f"declared {declared}")
            return
        if isinstance(node, ast.Expr):
            self.eval(node.value)
            return
        # compound statements: evaluate tests, then walk bodies in order
        for attr in ("test", "iter", "subject"):
            sub = getattr(node, attr, None)
            if sub is not None:
                self.eval(sub)
        for attr in ("body", "orelse", "finalbody"):
            for stmt in getattr(node, attr, []) or []:
                if isinstance(stmt, ast.AST):
                    self._stmt(stmt, declared)
        for handler in getattr(node, "handlers", []) or []:
            for stmt in handler.body:
                self._stmt(stmt, declared)
        for item in getattr(node, "items", []) or []:
            self.eval(item.context_expr)


def run_units_pass(graph: CallGraph) -> List[Finding]:
    """FLOW201 over every analyzed function (no reachability gate —
    a unit mix-up is wrong wherever it sits)."""
    table = graph.table
    annotations = annotation_map(table)
    findings: List[Finding] = []
    if not annotations:
        return findings
    for qname in sorted(table.functions):
        fn = table.functions[qname]
        module = table.modules[fn.module]
        resolver = _FunctionResolver(table, module, fn)
        findings.extend(_UnitInterp(module, fn, resolver, annotations).run())
    return findings

"""Repo-specific AST lint rules for the scheduler/simulator code.

Four rules, each encoding a bug class this codebase has actually hit or is
structurally exposed to:

==========  ==============================================================
``AST001``  iterating directly over a ``set``/``frozenset`` (or set
            algebra), or over a filesystem listing (``os.listdir``,
            ``glob.glob``, ``Path.iterdir``/``glob``, ...) — set order is
            salted per process and listing order is up to the
            filesystem, so seeded runs diverge; wrap in ``sorted(...)``
``AST002``  ``==``/``!=`` against a non-integral float literal — LP
            outputs carry solver noise; compare with a tolerance
            (``math.isclose`` / ``pytest.approx``).  Comparisons against
            integral floats (``0.0``, ``1.0``) are allowed: exact-zero
            sentinel checks are legitimate and deliberate
``AST003``  ``int(round(x))`` — Python 3 ``round`` is banker's rounding
            (``round(2.5) == 2``), so task counts computed from exact
            ``.5`` fractions silently lose a task; use
            ``repro.core.rounding.round_half_up`` (or
            ``largest_remainder_round`` for apportionment)
``AST004``  mutable default argument (``def f(x=[])``)
==========  ==============================================================

Hazards that need the call graph (ambient RNG, wall-clock reads, pool
tasks, unit mixing) are the flow passes' job (:mod:`repro.lint.flow`).

Suppression: append ``# lint: ok=AST003`` (comma-separate several ids) to
the flagged line; the runner drops matching findings.  Every rule is a
:class:`Rule` with a pure ``check(tree)`` so tests can drive them on
string fixtures.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

RawFinding = Tuple[int, str]  # (lineno, message)


class Rule:
    """One AST rule: stable ``id`` plus a pure check over a parsed module."""

    id: str = "AST000"
    summary: str = ""

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:  # pragma: no cover
        """Yield ``(lineno, message)`` for every violation in ``tree``."""
        raise NotImplementedError


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that evaluate to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.Sub)):
        # set algebra: a & b, a | b, a - b over set-ish operands
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


#: calls whose result iterates in filesystem order
_FS_ORDER_FNS = frozenset({"listdir", "scandir", "iterdir", "glob", "iglob", "rglob"})


def _fs_order_names(tree: ast.Module) -> frozenset:
    """Local names bound by module-level ``from os import listdir``-style imports."""
    return frozenset(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in ("os", "glob")
        for alias in node.names
        if alias.name in _FS_ORDER_FNS
    )


def _is_fs_order_expr(node: ast.AST, fs_names: frozenset) -> bool:
    """True for a filesystem listing call (``os.listdir(d)``, ``p.glob(g)``)."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Attribute):
        return fn.attr in _FS_ORDER_FNS
    return isinstance(fn, ast.Name) and fn.id in fs_names


class SetIterationRule(Rule):
    """AST001 — iteration in an unstable order in deterministic code."""

    id = "AST001"
    summary = "iterating a set or a directory listing: wrap in sorted()"

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag for-loops and comprehensions that draw from a set or listing."""
        fs_names = _fs_order_names(tree)
        for node in ast.walk(tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    yield (
                        it.lineno,
                        "iteration over a set is order-nondeterministic; "
                        "use sorted(...) to fix the order",
                    )
                elif _is_fs_order_expr(it, fs_names):
                    yield (
                        it.lineno,
                        "iteration in filesystem order is host-dependent; "
                        "use sorted(...) to fix the order",
                    )


class FloatEqualityRule(Rule):
    """AST002 — exact equality against a non-integral float literal."""

    id = "AST002"
    summary = "float ==/!= needs a tolerance"

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag ``==``/``!=`` with a non-integral float literal operand."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, rhs in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for operand in operands:
                    if (
                        isinstance(operand, ast.Constant)
                        and isinstance(operand.value, float)
                        and not float(operand.value).is_integer()
                    ):
                        yield (
                            node.lineno,
                            f"exact ==/!= against float {operand.value!r}; LP "
                            "outputs carry solver noise — compare with a "
                            "tolerance",
                        )
                        break
                else:
                    continue
                break


class IntRoundRule(Rule):
    """AST003 — ``int(round(x))`` banker's-rounding hazard."""

    id = "AST003"
    summary = "int(round(x)) is banker's rounding; use round_half_up"

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag single-argument ``round`` calls wrapped in ``int``."""
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "int"
                and len(node.args) == 1
            ):
                continue
            inner = node.args[0]
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "round"
                and len(inner.args) == 1
            ):
                yield (
                    node.lineno,
                    "int(round(x)) rounds halves to even (round(2.5) == 2); "
                    "use repro.core.rounding.round_half_up for task counts",
                )


class MutableDefaultRule(Rule):
    """AST004 — mutable default argument."""

    id = "AST004"
    summary = "mutable default argument"

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag list/dict/set (literal or call) default values."""
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set", "bytearray")
                )
                if mutable:
                    yield (
                        default.lineno,
                        f"mutable default argument in {node.name}(); it is shared "
                        "across calls — default to None and construct inside",
                    )


#: The default rule set, in id order.
ALL_RULES: Tuple[Rule, ...] = (
    SetIterationRule(),
    FloatEqualityRule(),
    IntRoundRule(),
    MutableDefaultRule(),
)

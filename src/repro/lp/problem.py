"""LP model builder with sparse constraint assembly.

:class:`LinearProgram` is a minimal modelling layer in the spirit of
PuLP/GLPK's MathProg: create named variables, add ``<=``/``>=``/``==``
constraints built from :class:`~repro.lp.expr.LinExpr`, set a linear
objective, and hand the assembled sparse matrices to a solver backend.
The matrices are :class:`CsrMatrix` values: plain numpy compressed-row
arrays, which is what HiGHS takes, so assembling and solving a model
never loads ``scipy.sparse``.

Only what the LiPS scheduling models need is implemented — continuous
variables, linear constraints, minimisation — but that subset is complete and
exactly mirrors the formulations in the paper's Figures 2–4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lp.expr import LinExpr, Variable
from repro.lp.result import LPResult


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Constraint:
    """A stored constraint ``expr (sense) rhs``.

    The expression's constant term has already been folded into ``rhs`` by
    :meth:`LinearProgram.add_constraint`.
    """

    name: str
    coeffs: Dict[int, float]
    sense: Sense
    rhs: float


class LinearProgram:
    """A minimisation LP over continuous variables.

    Example
    -------
    >>> lp = LinearProgram("diet")
    >>> x = lp.new_var("x", lower=0.0)
    >>> y = lp.new_var("y", lower=0.0)
    >>> lp.add_constraint(x + y, Sense.GE, 1.0, name="cover")
    >>> lp.set_objective(2.0 * x + 3.0 * y)
    >>> res = lp.solve()
    >>> round(res.objective, 6)
    2.0
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._variables: List[Variable] = []
        self._constraints: List[Constraint] = []
        self._objective: LinExpr = LinExpr.zero()
        self._var_names: Dict[str, int] = {}

    # -- variables --------------------------------------------------------
    def new_var(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = float("inf"),
    ) -> Variable:
        """Create a continuous variable with the given bounds.

        Names must be unique within the model; the scheduling code uses
        structured names like ``xt[k,l,m]`` so collisions indicate bugs.
        """
        if name in self._var_names:
            raise ValueError(f"duplicate variable name {name!r}")
        var = Variable(index=len(self._variables), name=name, lower=lower, upper=upper)
        self._variables.append(var)
        self._var_names[name] = var.index
        return var

    def new_vars(self, names: Sequence[str], lower: float = 0.0, upper: float = float("inf")) -> List[Variable]:
        """Create several variables with shared bounds."""
        return [self.new_var(n, lower=lower, upper=upper) for n in names]

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables in creation order."""
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        """Number of variables."""
        return len(self._variables)

    def variable_by_name(self, name: str) -> Variable:
        """Look a variable up by its unique name."""
        try:
            return self._variables[self._var_names[name]]
        except KeyError:
            raise KeyError(f"no variable named {name!r}") from None

    # -- constraints --------------------------------------------------------
    def add_constraint(
        self,
        expr: LinExpr | Variable,
        sense: Sense,
        rhs: float,
        name: Optional[str] = None,
    ) -> Constraint:
        """Add ``expr (sense) rhs``; the expression's constant is moved to rhs."""
        if isinstance(expr, Variable):
            expr = expr + 0.0
        if not isinstance(expr, LinExpr):
            raise TypeError("constraint left-hand side must be a LinExpr or Variable")
        con = Constraint(
            name=name or f"c{len(self._constraints)}",
            coeffs=expr.nonzero_terms(),
            sense=sense,
            rhs=float(rhs) - expr.constant,
        )
        self._constraints.append(con)
        return con

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """All constraints in insertion order."""
        return tuple(self._constraints)

    @property
    def num_constraints(self) -> int:
        """Number of constraints."""
        return len(self._constraints)

    # -- objective ----------------------------------------------------------
    def set_objective(self, expr: LinExpr | Variable) -> None:
        """Set the (minimisation) objective."""
        if isinstance(expr, Variable):
            expr = expr + 0.0
        if not isinstance(expr, LinExpr):
            raise TypeError("objective must be a LinExpr or Variable")
        self._objective = expr.copy()

    @property
    def objective(self) -> LinExpr:
        """The (minimisation) objective expression."""
        return self._objective

    # -- matrix assembly ------------------------------------------------------
    def assemble(self) -> "AssembledLP":
        """Assemble the model into the sparse matrix form backends consume.

        Returns matrices for ``min c @ x`` subject to ``A_ub @ x <= b_ub``,
        ``A_eq @ x == b_eq`` and variable bounds.  ``>=`` rows are negated
        into ``<=`` rows.
        """
        n = self.num_variables
        c = np.zeros(n)
        for idx, coeff in self._objective.coeffs.items():
            c[idx] = coeff

        ub_rows: List[Tuple[int, Dict[int, float], float]] = []
        eq_rows: List[Tuple[int, Dict[int, float], float]] = []
        for con in self._constraints:
            if con.sense is Sense.LE:
                ub_rows.append((len(ub_rows), con.coeffs, con.rhs))
            elif con.sense is Sense.GE:
                negated = {i: -v for i, v in con.coeffs.items()}
                ub_rows.append((len(ub_rows), negated, -con.rhs))
            else:
                eq_rows.append((len(eq_rows), con.coeffs, con.rhs))

        def build(rows: List[Tuple[int, Dict[int, float], float]]) -> Tuple[CsrMatrix, np.ndarray]:
            data, ri, ci = [], [], []
            b = np.zeros(len(rows))
            for r, coeffs, rhs in rows:
                b[r] = rhs
                for i, v in coeffs.items():
                    ri.append(r)
                    ci.append(i)
                    data.append(v)
            return CsrMatrix.from_coo(ri, ci, data, (len(rows), n)), b

        a_ub, b_ub = build(ub_rows)
        a_eq, b_eq = build(eq_rows)
        bounds = np.array([[v.lower, v.upper] for v in self._variables]) if n else np.zeros((0, 2))
        return AssembledLP(
            c=c,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            objective_constant=self._objective.constant,
            name=self.name,
        )

    # -- solving ----------------------------------------------------------
    def solve(self, backend: object = None) -> LPResult:
        """Solve the model; defaults to the HiGHS backend."""
        if backend is None:
            from repro.lp import DEFAULT_BACKEND

            backend = DEFAULT_BACKEND
        return backend.solve(self)  # type: ignore[attr-defined]

    def value_map(self, x: np.ndarray) -> Dict[str, float]:
        """Map a raw solution vector to ``{variable-name: value}``."""
        return {v.name: float(x[v.index]) for v in self._variables}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinearProgram({self.name!r}, vars={self.num_variables}, "
            f"cons={self.num_constraints})"
        )


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix as plain numpy compressed-row (CSR) arrays.

    Row ``r`` holds columns ``indices[indptr[r]:indptr[r + 1]]``, sorted,
    with values ``data[indptr[r]:indptr[r + 1]]``.  HiGHS takes these
    arrays as they are (row-wise), so the solve path needs no
    ``scipy.sparse``; code that does sparse algebra asks for
    :meth:`to_scipy`.  ``np.asarray`` gives the dense matrix.
    """

    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_coo(cls, rows, cols, vals, shape: Tuple[int, int]) -> "CsrMatrix":
        """Compress COO triplets exactly as ``scipy.sparse.csr_matrix`` does.

        Column indices end up sorted within each row, duplicate entries are
        summed and explicit zeros are kept.  Indices are int32 unless a
        dimension or the entry count needs int64 (scipy's rule); values are
        float64.
        """
        m, n = int(shape[0]), int(shape[1])
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not rows.shape == cols.shape == vals.shape or rows.ndim != 1:
            raise ValueError("rows, cols and vals must be 1-D and of one length")
        if rows.size and (rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n):
            raise ValueError(f"COO index outside a {m}x{n} matrix")
        index_dtype = np.int32 if max(m, n, rows.size) <= np.iinfo(np.int32).max else np.int64
        # sort entries row-major by one key; stable, so duplicates keep
        # their input order
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        if key.size > 1:
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            if not first.all():
                starts = np.flatnonzero(first)
                key, vals = key[starts], np.add.reduceat(vals, starts)
        indptr = np.searchsorted(key, np.arange(m + 1) * n).astype(index_dtype)
        indices = (key % max(n, 1)).astype(index_dtype)
        return cls(shape=(m, n), indptr=indptr, indices=indices, data=vals)

    @property
    def nnz(self) -> int:
        """Number of stored entries (explicit zeros included)."""
        return int(self.indptr[-1])

    def to_scipy(self):
        """The same matrix as a ``scipy.sparse.csr_matrix``, sharing the arrays."""
        # deferred: scipy.sparse is needed only for sparse algebra
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense matrix, for ``np.asarray`` (and linprog's dense input)."""
        dense = np.zeros(self.shape, dtype=dtype or np.float64)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense


@dataclass
class AssembledLP:
    """Sparse matrix form of a :class:`LinearProgram` (minimisation).

    ``a_ub`` and ``a_eq`` are :class:`CsrMatrix` values.  ``HighsBackend``
    and the model linter read only their ``shape``, ``indptr``, ``indices``
    and ``data``, so a ``scipy.sparse.csr_matrix`` works there too.
    """

    c: np.ndarray
    a_ub: CsrMatrix
    b_ub: np.ndarray
    a_eq: CsrMatrix
    b_eq: np.ndarray
    bounds: np.ndarray  # shape (n, 2): [lower, upper]
    objective_constant: float = 0.0
    #: model name carried into LP solve profiles (see repro.obs.lpprof)
    name: str = "lp"

    @property
    def num_variables(self) -> int:
        """Number of columns in the assembled system."""
        return int(self.c.shape[0])

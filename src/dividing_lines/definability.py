"""Cesaro averages of columns and optimal convex sup-norm approximation
of a target column."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EvalTable
from .errors import BoundViolation, EmptySelection, IndexOutOfRange, SolverFailure


@dataclass(frozen=True)
class ConvexApproximation:
    """Weights on candidate columns minimizing the sup-norm distance to a
    target vector.  `achieved` is recomputed from the weights independently
    of the solver; `certified_gap` bounds the suboptimality via LP duality."""

    candidate_cols: tuple[int, ...]
    weights: tuple[float, ...]
    achieved: float
    certified_gap: float


def cesaro_column(t: EvalTable, cols: Sequence[int]) -> np.ndarray:
    """Per-row arithmetic mean of the selected columns."""
    cols = list(cols)
    if not cols:
        raise EmptySelection("cols must be nonempty")
    for c in cols:
        if not (0 <= c < t.n_cols):
            raise IndexOutOfRange(f"col index {c} out of range")
    return t.entries[:, cols].mean(axis=1)


def _sup_distance(A: np.ndarray, weights: np.ndarray, target: np.ndarray) -> float:
    return float(np.max(np.abs(A @ weights - target)))


def mazur_approximate(
    t: EvalTable,
    candidate_cols: Sequence[int],
    target: Sequence[float],
    tol: float = 1e-9,
) -> ConvexApproximation:
    """Minimize max_p |sum_j w_j T[p][c_j] - target[p]| over the simplex.

    Solved as a linear min-max program (auxiliary variable z bounding the
    residual on both sides).  The certified gap comes from the LP dual
    objective; SolverFailure is raised when it cannot be brought below tol.
    """
    cols = tuple(int(c) for c in candidate_cols)
    if not cols:
        raise EmptySelection("candidate_cols must be nonempty")
    for c in cols:
        if not (0 <= c < t.n_cols):
            raise IndexOutOfRange(f"col index {c} out of range")
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (t.n_rows,):
        raise ValueError("target length must equal n_rows")
    if not np.all(np.isfinite(target)):
        raise BoundViolation("target entries must be finite")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    A = t.entries[:, cols]
    k = len(cols)

    # exact-member fast path keeps the zero certificate exact
    for j in range(k):
        if np.array_equal(A[:, j], target):
            w = tuple(1.0 if i == j else 0.0 for i in range(k))
            return ConvexApproximation(cols, w, 0.0, 0.0)

    n = t.n_rows
    # variables: w_1..w_k, z; minimize z
    c_vec = np.zeros(k + 1)
    c_vec[-1] = 1.0
    A_ub = np.zeros((2 * n, k + 1))
    b_ub = np.zeros(2 * n)
    A_ub[:n, :k] = A
    A_ub[:n, -1] = -1.0
    b_ub[:n] = target
    A_ub[n:, :k] = -A
    A_ub[n:, -1] = -1.0
    b_ub[n:] = -target
    A_eq = np.zeros((1, k + 1))
    A_eq[0, :k] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * k + [(0.0, None)]
    # deferred: scipy.optimize takes most of `import dividing_lines` otherwise
    from scipy.optimize import linprog

    res = linprog(c_vec, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise SolverFailure(f"linear program failed: {res.message}")
    weights = np.maximum(res.x[:k], 0.0)
    weights = weights / weights.sum()
    achieved = _sup_distance(A, weights, target)

    # never report worse than the uniform Cesaro baseline, which is feasible
    uniform = np.full(k, 1.0 / k)
    if _sup_distance(A, uniform, target) < achieved:
        weights = uniform
        achieved = _sup_distance(A, uniform, target)

    dual_bound = float(b_ub @ res.ineqlin.marginals + b_eq @ res.eqlin.marginals)
    certified_gap = max(0.0, achieved - dual_bound)
    if certified_gap > tol:
        raise SolverFailure(
            f"could not certify tolerance {tol}: duality gap {certified_gap}"
        )
    return ConvexApproximation(cols, tuple(float(w) for w in weights), achieved, certified_gap)

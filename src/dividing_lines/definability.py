"""Cesaro averages of columns and optimal convex sup-norm approximation
of a target column."""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, sub
from typing import Sequence

import numpy as np

from .core import EvalTable
from .errors import BoundViolation, EmptySelection, IndexOutOfRange, SolverFailure


@dataclass(frozen=True)
class ConvexApproximation:
    """Weights on candidate columns minimizing the sup-norm distance to a
    target vector.

    `achieved` is recomputed from the weights independently of the solver.
    `certified_gap` is `achieved` minus a lower bound on the optimum: the dual
    value min_j (A_j . y) - target . y of a vector y with ||y||_1 <= 1, which
    for every w in the simplex is at most y . (A w - target) <= ||A w - target||_inf.
    The bound is evaluated on the caller's data, so it holds whatever the
    solver did."""

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


def _sup_distance(A: list[list[float]], weights: Sequence[float], target: list[float]) -> float:
    """max_p |sum_j w_j A[j][p] - target[p]|, with A[j] the j-th column."""
    fit = [0.0] * len(target)
    for w, col in zip(weights, A):
        if w:
            fit = [f + w * x for f, x in zip(fit, col)]
    return max(map(abs, map(sub, fit, target)))


def _invert(B: list[list[float]]) -> list[list[float]]:
    """Inverse of the square matrix with rows B, by Gauss-Jordan elimination
    with partial pivoting; SolverFailure if it is singular."""
    m = len(B)
    rows = [row + [float(i == j) for j in range(m)] for i, row in enumerate(B)]
    for c in range(m):
        p = max(range(c, m), key=lambda i: abs(rows[i][c]))
        pivot = rows[p][c]
        if pivot == 0.0:
            raise SolverFailure("simplex basis became singular")
        prow = [x / pivot for x in rows[p]]
        rows[p] = rows[c]
        rows[c] = prow
        for i in range(m):
            f = rows[i][c]
            if f and i != c:
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
    return [row[m:] for row in rows]


class _ListBasis:
    """The data and the basis inverse as Python lists, for the few candidates
    of a Mazur step: a pivot is then a few list comprehensions over the rows
    of the table.

    On the 0/1 Cantor corpus, solved in a few pivots, this is faster than
    numpy arrays (0.18 against 0.21 ms a solve on `cantor_example(4, 6)`),
    and its time keeps pace with the interpreter when the machine gets busy;
    the many short numpy calls of the array version slow down more.  On a
    shared 2-core x86 box, solve rates scaled by the calibration loop of
    `perfbench/speed.py` spread by 6-9 % (interquartile, 0.6 s windows) on
    lists against 20-22 % on arrays.  On dense uniform data, with many
    pivots, lists are slower: 1.2 times at k = 4, 1.9 times at k = 8.
    """

    def __init__(self, A: list[list[float]], target: list[float]):
        self.A = A
        self.target = target
        m = len(A) + 1
        self.inv = [[float(i == j) for j in range(m)] for i in range(m)]

    def prices(self, pi: list[float]) -> list[float]:
        """target + A pi[:k]"""
        g = self.target
        for p, col in zip(pi, self.A):
            if p:
                g = [x + p * y for x, y in zip(g, col)]
        return g

    def row(self, p: int) -> list[float]:
        return [col[p] for col in self.A]

    def ftran(self, a: list[float]) -> list[float]:
        """B^-1 a"""
        return [sum(map(mul, row, a)) for row in self.inv]

    def btran(self, c: list[float]) -> list[float]:
        """c B^-1"""
        out = [0.0] * len(c)
        for ci, row in zip(c, self.inv):
            if ci:
                out = [o + ci * x for o, x in zip(out, row)]
        return out

    def basic(self) -> list[float]:
        """B^-1 e_k, the basic values: the right-hand side is e_k"""
        return [row[-1] for row in self.inv]

    def pivot(self, r: int, col: list[float]) -> list[float]:
        """Replace basic r by the column with B^-1 a = col; return the new row r."""
        inv = self.inv
        pivot_row = [x / col[r] for x in inv[r]]
        for i, c in enumerate(col):
            if c and i != r:
                inv[i] = [x - c * y for x, y in zip(inv[i], pivot_row)]
        inv[r] = pivot_row
        return pivot_row

    def refactorise(self, cols: list[list[float]]) -> None:
        self.inv = _invert([list(row) for row in zip(*cols)])


class _ArrayBasis:
    """The operations of `_ListBasis` on numpy arrays, for many candidates,
    where the list arithmetic grows as k^2 per pivot."""

    def __init__(self, A: list[list[float]], target: list[float]):
        self.A = np.array(A).T
        self.G = np.column_stack([self.A, target])
        self.inv = np.eye(len(A) + 1)

    def prices(self, pi: list[float]) -> list[float]:
        return (self.G @ np.array(pi[:-1] + [1.0])).tolist()

    def row(self, p: int) -> list[float]:
        return self.A[p].tolist()

    def ftran(self, a: list[float]) -> list[float]:
        return (self.inv @ np.array(a)).tolist()

    def btran(self, c: list[float]) -> list[float]:
        return (np.array(c) @ self.inv).tolist()

    def basic(self) -> list[float]:
        return self.inv[:, -1].tolist()

    def pivot(self, r: int, col: list[float]) -> list[float]:
        pivot_row = self.inv[r] / col[r]
        self.inv -= np.outer(col, pivot_row)
        self.inv[r] = pivot_row
        return pivot_row.tolist()

    def refactorise(self, cols: list[list[float]]) -> None:
        try:
            self.inv = np.linalg.inv(np.array(cols).T)
        except np.linalg.LinAlgError:
            raise SolverFailure("simplex basis became singular") from None


# Simplex tolerances, for data scaled into [-1, 1]: reduced costs, ratio ties
# and degenerate steps are compared with _TOL, pivot elements with _PIVOT_TOL.
_TOL = 1e-12
_PIVOT_TOL = 1e-9
# iteration cap, per column of the standard form
_PIVOTS_PER_COLUMN = 20
# up to this many candidates the simplex works on lists, beyond on arrays
_LIST_CANDIDATES = 8


def _chebyshev_dual(
    A: list[list[float]], target: list[float]
) -> tuple[list[float], dict[int, float]]:
    """Primal simplex on the dual of min over the simplex of ||A w - target||_inf,
    that is max over ||y||_1 <= 1 of min_j (A_j . y) - target . y, with A[j]
    the column A_j.

    Standard form, minimising target . (u - v) - s+ + s-, with y = u - v and
    s = s+ - s-: row j < k reads -A_j . u + A_j . v + s+ - s- + slack_j = 0 and
    the norm row sum(u) + sum(v) + slack_k = 1.  The m = k + 1 rows keep an
    explicit inverse of the basis, updated by rank-1 pivots and refactorised
    every m pivots.  The all-slack start (y = 0) is feasible.  Pricing is
    Dantzig's rule; after m degenerate pivots in a row both the entering and
    the leaving choice follow Bland's rule until a pivot makes progress.

    Returns the primal weights, not yet normalised (minus the basis duals of
    rows 0..k-1, clipped at 0), and the basic y as {row: value}.  Raises
    SolverFailure on a singular basis, an unbounded ray (only rounding can
    produce one) or the iteration cap.
    """
    k = len(A)
    n = len(target)
    m = k + 1
    B = (_ListBasis if k <= _LIST_CANDIDATES else _ArrayBasis)(A, target)
    # columns: u_0..u_n-1, v_0..v_n-1, s+, s-, then the m slacks
    slack = 2 * n + 2

    def column(q: int) -> list[float]:
        if q < n:
            return [-x for x in B.row(q)] + [1.0]
        if q < 2 * n:
            return B.row(q - n) + [1.0]
        if q < slack:
            return [1.0 if q == 2 * n else -1.0] * k + [0.0]
        return [float(i == q - slack) for i in range(m)]

    def cost(q: int) -> float:
        if q < n:
            return target[q]
        if q < 2 * n:
            return -target[q - n]
        if q < slack:
            return -1.0 if q == 2 * n else 1.0
        return 0.0

    basis = list(range(slack, slack + m))
    pi = [0.0] * m
    degenerate = 0
    for pivots in range(_PIVOTS_PER_COLUMN * (slack + m)):
        if pivots and pivots % m == 0:
            B.refactorise([column(q) for q in basis])
            pi = B.btran([cost(q) for q in basis])
        # reduced costs: g_p - pi_k for u_p, -g_p - pi_k for v_p, with
        # g = target + A pi[:k]; then s+, s- and the slacks
        g = B.prices(pi)
        pk = pi[k]
        s = sum(pi[:k])
        tail = [-1.0 - s, 1.0 + s] + [-p for p in pi]
        bland = degenerate >= m
        if bland:
            q = next((p for p, x in enumerate(g) if x - pk < -_TOL), None)
            if q is None:
                q = next((n + p for p, x in enumerate(g) if -x - pk < -_TOL), None)
            if q is None:
                improving = [2 * n + j for j, d in enumerate(tail) if d < -_TOL]
                if not improving:
                    break
                q = improving[0]
        else:
            low, high = min(g), max(g)
            q = g.index(low) if low <= -high else n + g.index(high)
            j = min(range(m + 2), key=tail.__getitem__)
            if tail[j] < min(low, -high) - pk:
                q = 2 * n + j
        reduced = g[q] - pk if q < n else -g[q - n] - pk if q < 2 * n else tail[q - 2 * n]
        if not bland and reduced >= -_TOL:
            break
        col = B.ftran(column(q))
        rows = [i for i in range(m) if col[i] > _PIVOT_TOL]
        if not rows:
            raise SolverFailure("simplex found an unbounded ray")
        x = B.basic()
        ratios = [max(x[i], 0.0) / col[i] for i in rows]
        step = min(ratios)
        ties = [i for i, ratio in zip(rows, ratios) if ratio <= step + _TOL]
        r = min(ties, key=basis.__getitem__) if bland else max(ties, key=col.__getitem__)
        degenerate = degenerate + 1 if step <= _TOL else 0
        pivot_row = B.pivot(r, col)
        basis[r] = q
        # the entering column's reduced cost becomes 0
        pi = [p + reduced * y for p, y in zip(pi, pivot_row)]
    else:
        raise SolverFailure("simplex hit its iteration cap")
    # one step of iterative refinement on a fresh inverse halves the worst
    # gap on data of size 1e6, where tol = 1e-9 is a few units in the last place
    cols = [column(q) for q in basis]
    costs = [cost(q) for q in basis]
    B.refactorise(cols)
    e_k = [float(i == k) for i in range(m)]
    x = B.ftran(e_k)
    residual = [-e for e in e_k]
    for xj, c in zip(x, cols):
        residual = [r + xj * y for r, y in zip(residual, c)]
    x = list(map(sub, x, B.ftran(residual)))
    duals = B.btran(costs)
    residual = [sum(map(mul, duals, c)) - cq for c, cq in zip(cols, costs)]
    duals = list(map(sub, duals, B.btran(residual)))
    y: dict[int, float] = {}
    for xi, q in zip(x, basis):
        if q < 2 * n:
            p, sign = (q, 1.0) if q < n else (q - n, -1.0)
            y[p] = y.get(p, 0.0) + sign * xi
    return [max(-d, 0.0) for d in duals[:k]], y


def mazur_approximate(
    t: EvalTable,
    candidate_cols: Sequence[int],
    target: Sequence[float],
    tol: float = 1e-9,
) -> ConvexApproximation:
    """Minimize max_p |sum_j w_j T[p][c_j] - target[p]| over the simplex.

    A small dense primal simplex (`_chebyshev_dual`) solves the dual program,
    max over ||y||_1 <= 1 of min_j (A_j . y) - target . y, on the data divided
    by its largest absolute entry, so its tolerances are relative.  The weights
    are the optimal basis duals; the uniform Cesaro weights replace them if
    they do better.  The certificate is the basic y, scaled to ||y||_1 <= 1:
    its dual value, evaluated here on the unscaled data, is a lower bound on
    the optimum by weak duality (see `ConvexApproximation`), and
    SolverFailure is raised when `achieved` exceeds it by more than tol.

    The simplex keeps a dense (k+1)-square basis inverse and prices all
    2 n + k + 3 columns on each pivot, so a pivot costs O(k^2 + n k).  Up to
    `_LIST_CANDIDATES` candidates it runs on Python lists (`_ListBasis`),
    beyond that on numpy arrays (`_ArrayBasis`); see `_ListBasis` for why.
    Many candidates cost more than with HiGHS: on a 2-core x86 box a uniform
    200 x 200 problem takes about 0.5 s (HiGHS: 0.12-0.17 s).
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
    target = target.tolist()
    if not all(map(math.isfinite, target)):
        raise BoundViolation("target entries must be finite")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    A = [t.entries[:, c].tolist() for c in cols]
    k = len(cols)

    # exact-member fast path keeps the zero certificate exact
    for j, col in enumerate(A):
        if col == target:
            w = tuple(1.0 if i == j else 0.0 for i in range(k))
            return ConvexApproximation(cols, w, 0.0, 0.0)

    # positive: otherwise A and target are all zero, an exact member
    scale = max(max(map(abs, col)) for col in A + [target])
    weights, y = _chebyshev_dual([[x / scale for x in col] for col in A],
                                 [x / scale for x in target])
    total = sum(weights)
    if not total > 0:
        raise SolverFailure("simplex returned no weights")
    weights = [w / total for w in weights]
    achieved = _sup_distance(A, weights, target)

    # never report worse than the uniform Cesaro baseline, which is feasible
    uniform = [1.0 / k] * k
    baseline = _sup_distance(A, uniform, target)
    if baseline < achieved:
        weights, achieved = uniform, baseline

    norm = max(1.0, sum(map(abs, y.values())))
    y = {p: v / norm for p, v in y.items()}
    dual_bound = (min(sum(col[p] * v for p, v in y.items()) for col in A)
                  - sum(target[p] * v for p, v in y.items()))
    certified_gap = max(0.0, achieved - dual_bound)
    if certified_gap > tol:
        raise SolverFailure(
            f"could not certify tolerance {tol}: duality gap {certified_gap}"
        )
    return ConvexApproximation(cols, tuple(weights), achieved, certified_gap)

"""Strict-order-property detection: the pointwise pre-order among columns,
polynomial strict-chain search, the literal witness search, and the
chain-to-alternation converter."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Epsilon, EvalTable
from .errors import IndexOutOfRange, InvalidWitness, SearchBudgetExceeded
from .op import DEFAULT_EXACT_LIMIT, AlternationWitness


@dataclass(frozen=True)
class ChainWitness:
    """Literal strict-order certificate.

    Valid against T iff columns and witness rows are each pairwise
    distinct, (a) the columns are pointwise nondecreasing along the chain
    for every row, and (b) for all t < u:
    T[rows[u]][cols[t]] + eps < T[rows[t]][cols[u]].
    """

    cols: tuple[int, ...]
    witness_rows: tuple[int, ...]
    eps: Epsilon

    def __post_init__(self):
        if len(self.cols) != len(self.witness_rows):
            raise ValueError("cols and witness_rows must have equal length")

    @property
    def length(self) -> int:
        return len(self.cols)

    def first_violation(self, t: EvalTable):
        for c in self.cols:
            if not (0 <= c < t.n_cols):
                raise IndexOutOfRange(f"col index {c} out of range")
        for w in self.witness_rows:
            if not (0 <= w < t.n_rows):
                raise IndexOutOfRange(f"row index {w} out of range")
        m = len(self.cols)
        if len(set(self.cols)) != m:
            return None, "duplicate col index"
        if len(set(self.witness_rows)) != m:
            return None, "duplicate row index"
        for pos in range(m - 1):
            c1, c2 = self.cols[pos], self.cols[pos + 1]
            for p in range(t.n_rows):
                if not (t.entries[p, c1] <= t.entries[p, c2]):
                    return ("pointwise", pos, p), (
                        f"T[{p}][{c1}]={t.entries[p, c1]} > T[{p}][{c2}]={t.entries[p, c2]}"
                    )
        e = self.eps.eps
        for tt in range(m):
            for u in range(tt + 1, m):
                a = t.entries[self.witness_rows[u], self.cols[tt]]
                b = t.entries[self.witness_rows[tt], self.cols[u]]
                if not (a + e < b):
                    return ("cross", tt, u), f"{a} + eps={e} !< {b}"
        return None

    def is_valid(self, t: EvalTable) -> bool:
        return self.first_violation(t) is None

    def to_dict(self) -> dict:
        return {
            "kind": "chain",
            "cols": list(self.cols),
            "rows": list(self.witness_rows),
            "eps": self.eps.eps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChainWitness":
        return cls(tuple(d["cols"]), tuple(d["rows"]), Epsilon(d["eps"]))


@dataclass(frozen=True)
class PreorderMatrix:
    """psi[c1][c2] = max over rows of max(0, T[row][c1] - T[row][c2]);
    zero exactly when column c1 is pointwise <= column c2."""

    psi: np.ndarray

    def dominates(self, c1: int, c2: int) -> bool:
        """True iff column c1 <= column c2 pointwise."""
        return self.psi[c1, c2] <= 0


@dataclass(frozen=True)
class StrictChainResult:
    m: int
    cols: tuple[int, ...]
    step_rows: tuple[int, ...]


def preorder_psi(t: EvalTable) -> PreorderMatrix:
    """The truncated-difference pre-order matrix over columns."""
    cols = t.entries[:, :, None]  # rows x c1 x 1
    diffs = cols - t.entries[:, None, :]  # rows x c1 x c2
    psi = np.maximum(diffs, 0.0).max(axis=0)
    np.fill_diagonal(psi, 0.0)
    psi.setflags(write=False)
    return PreorderMatrix(psi)


def strict_chain(t: EvalTable, e: Epsilon) -> StrictChainResult:
    """Longest column chain under pointwise <= with an eps-gap row per step.

    Edge c -> c' exists iff psi[c][c'] = 0 and some row p has
    T[p][c'] >= T[p][c] + eps.  A strict edge is incompatible with mutual
    pointwise domination, so the edge graph is acyclic and the longest
    path is exact in polynomial time.  m >= 1 always.
    """
    psi = preorder_psi(t).psi
    n = t.n_cols
    edges: dict[int, list[tuple[int, int]]] = {c: [] for c in range(n)}
    for c1 in range(n):
        for c2 in range(n):
            if c1 != c2 and psi[c1, c2] <= 0:
                gaps = np.flatnonzero(t.entries[:, c2] >= t.entries[:, c1] + e.eps)
                if gaps.size:
                    edges[c1].append((c2, int(gaps[0])))

    best_from: dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]] = {}

    def walk(c: int):
        if c in best_from:
            return best_from[c]
        best = (1, (c,), ())
        for c2, gap_row in sorted(edges[c]):
            m2, cols2, rows2 = walk(c2)
            cand = (m2 + 1, (c,) + cols2, (gap_row,) + rows2)
            if cand[0] > best[0]:
                best = cand
        best_from[c] = best
        return best

    best = (0, (), ())
    for c in range(n):
        cand = walk(c)
        if cand[0] > best[0]:
            best = cand
    return StrictChainResult(*best)


def sop_witness(
    t: EvalTable,
    e: Epsilon,
    target_m: int,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> ChainWitness | None:
    """Backtracking search for a literal chain witness of length >= target_m.

    Column chains are restricted to the pointwise pre-order; rows are
    assigned greedily with full backtracking.  Returns None only when the
    exhaustive search finishes below the node budget; raises
    SearchBudgetExceeded otherwise.
    """
    if target_m < 2:
        raise ValueError("target_m must be >= 2")
    psi = preorder_psi(t).psi
    vals = t.entries
    n_cols, n_rows = t.n_cols, t.n_rows
    nodes = 0

    chain_cols: list[int] = []
    chain_rows: list[int] = []

    def rec() -> ChainWitness | None:
        nonlocal nodes
        if len(chain_cols) >= target_m:
            return ChainWitness(tuple(chain_cols), tuple(chain_rows), e)
        for c in range(n_cols):
            if c in chain_cols:
                continue
            if chain_cols and not (psi[chain_cols[-1], c] <= 0):
                continue
            for w in range(n_rows):
                if w in chain_rows:
                    continue
                nodes += 1
                if nodes > exact_limit:
                    raise SearchBudgetExceeded(
                        f"sop_witness budget {exact_limit} exhausted"
                    )
                ok = True
                for tt in range(len(chain_cols)):
                    if not (vals[w, chain_cols[tt]] + e.eps < vals[chain_rows[tt], c]):
                        ok = False
                        break
                if ok:
                    chain_cols.append(c)
                    chain_rows.append(w)
                    found = rec()
                    if found is not None:
                        return found
                    chain_cols.pop()
                    chain_rows.pop()
        return None

    return rec()


def sop_to_alternation(w: ChainWitness, t: EvalTable) -> AlternationWitness:
    """Convert a chain witness into a variant-ii alternation witness.

    The cross gap forces |T[w_t][c_u] - T[w_u][c_t]| >= eps for t < u.
    """
    if w.first_violation(t) is not None:
        raise InvalidWitness("chain witness fails validation against the table")
    pairs = tuple(zip(w.witness_rows, w.cols))
    return AlternationWitness("ii", pairs, w.eps)

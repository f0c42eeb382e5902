"""Strict-order-property detection: the pointwise pre-order among columns,
polynomial strict-chain search, the literal witness search, and the
chain-to-alternation converter."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .core import Epsilon, EvalTable, Witness, bitmasks, column_blocks, distinct_indices, integer
from .errors import SearchBudgetExceeded
from .op import DEFAULT_EXACT_LIMIT, AlternationWitness


@dataclass(frozen=True)
class ChainWitness(Witness):
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
        (cols, rows), duplicate = distinct_indices(t, (self.cols, 1), (self.witness_rows, 0))
        if duplicate:
            return duplicate
        m = len(cols)
        for pos in range(m - 1):
            c1, c2 = cols[pos], cols[pos + 1]
            for p in range(t.n_rows):
                if not (t.entries[p, c1] <= t.entries[p, c2]):
                    return ("pointwise", pos, p), (
                        f"T[{p}][{c1}]={t.entries[p, c1]} > T[{p}][{c2}]={t.entries[p, c2]}"
                    )
        e = self.eps.eps
        for tt in range(m):
            for u in range(tt + 1, m):
                a = t.entries[rows[u], cols[tt]]
                b = t.entries[rows[tt], cols[u]]
                if not (a + e < b):
                    return ("cross", tt, u), f"{a} + eps={e} !< {b}"
        return None

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
    """The truncated-difference pre-order matrix over columns.

    Built one block of columns c1 at a time (`column_blocks`), so it costs
    O(rows * cols^2) time and holds cols^2 floats plus one small block
    temporary, never a rows x cols x cols array."""
    vals = t.entries
    psi = np.empty((t.n_cols, t.n_cols))
    for block in column_blocks(t):
        diffs = vals[:, block, None] - vals[:, None, :]  # rows x c1 x c2
        psi[block] = np.maximum(diffs, 0.0).max(axis=0)
    np.fill_diagonal(psi, 0.0)
    psi.setflags(write=False)
    return PreorderMatrix(psi)


def _low_bit(mask: int) -> int:
    """The index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def strict_chain(t: EvalTable, e: Epsilon) -> StrictChainResult:
    """Longest column chain under pointwise <= with an eps-gap row per step.

    Edge c -> c' exists iff column c <= column c' pointwise and some row p
    has T[p][c'] >= T[p][c] + eps.  An edge's target has strictly fewer
    columns above it than its source, so one pass over the columns in
    ascending count of columns above finds the longest path from each,
    without recursion and so without a depth limit.  Ties go to the lowest
    column index, at the start and at each step.  It costs O(rows * cols^2)
    time and cols^2 booleans built in column blocks, for the gaps and (once
    per table) the pre-order `t.masks.above`, plus O(cols * m) operations
    on cols-bit masks.  m >= 1 always.
    """
    vals = t.entries
    above = t.masks.above
    gaps: list[int] = []
    for block in column_blocks(t):
        # flags[c - block.start, c2] = some row p has T[p][c2] >= T[p][c] + eps
        flags = (vals[:, None, :] >= vals[:, block, None] + e.eps).any(axis=0)
        gaps += bitmasks(flags)

    # ends[l] has bit c set iff the longest path from column c has l columns;
    # a column's successor is the lowest-index one in the longest class it
    # reaches, which is the first strictly longer one in ascending order
    ends = [0]
    nxt = [-1] * t.n_cols
    for c in sorted(range(t.n_cols), key=lambda c: above[c].bit_count()):
        succ = above[c] & gaps[c]
        l = len(ends) - 1
        while l and not succ & ends[l]:
            l -= 1
        if l:
            nxt[c] = _low_bit(succ & ends[l])
        if l + 1 == len(ends):
            ends.append(0)
        ends[l + 1] |= 1 << c

    c = _low_bit(ends[-1])
    cols = [c]
    while nxt[c] >= 0:
        c = nxt[c]
        cols.append(c)
    # each step is an edge, so some row qualifies, and argmax finds the first
    step_rows = tuple(np.argmax(vals[:, cols[1:]] >= vals[:, cols[:-1]] + e.eps, axis=0).tolist())
    return StrictChainResult(len(cols), tuple(cols), step_rows)


def sop_witness(
    t: EvalTable,
    e: Epsilon,
    target_m: int,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> ChainWitness | None:
    """Backtracking search for a literal chain witness of length >= target_m
    (`backend.chain_witness_search`, which costs one node per (column, row)
    pair tried and has no depth limit).  Returns None when the exhaustive
    search finishes below the node budget, or with no search at all when
    the table's value range is too narrow for one chain step (min(T) + eps
    < max(T) fails, as in every {0,1} table at eps >= 1); raises
    SearchBudgetExceeded otherwise.  It shares `t.masks.above` with `strict_chain`.
    """
    target_m = integer(target_m, "target_m", 2)
    exact_limit = integer(exact_limit, "exact_limit", 0)
    # a step needs T[w][c'] + eps < T[w'][c]; rounding is monotone, so when
    # min + eps < max fails, that fails for every pair of cells too
    if not (t.entries.min() + e.eps < t.entries.max()):
        return None
    cols, rows, exact = backend.chain_witness_search(
        t.entries.tolist(), t.masks.above, e.eps, target_m, exact_limit
    )
    if not exact:
        raise SearchBudgetExceeded(f"sop_witness budget {exact_limit} exhausted")
    return ChainWitness(cols, rows, e) if cols else None


def sop_to_alternation(w: ChainWitness, t: EvalTable) -> AlternationWitness:
    """Convert a chain witness into a variant-ii alternation witness.

    The cross gap forces |T[w_t][c_u] - T[w_u][c_t]| >= eps for t < u.
    """
    return AlternationWitness("ii", tuple(zip(w.checked(t).witness_rows, w.cols)), w.eps)

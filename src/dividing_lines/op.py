"""Order-property detection: ladders, alternation ranks, the stability
spectrum, and the finite double-limit diagnostic."""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import ge, le
from typing import Literal, Sequence

import numpy as np

from . import backend
from .core import (Epsilon, EvalTable, ThresholdMasks, ThresholdPair, Witness, bitmasks, blocks,
                   column_blocks, distinct_indices, indices, integer)

DEFAULT_EXACT_LIMIT = 10**6
# nodes for the first forward ladder pass and for the transposed probe; most
# ladder calls finish inside the first slice and never pay for the probe
_LADDER_SLICE = 10**4


@dataclass(frozen=True)
class LadderWitness(Witness):
    """Index certificate for an order-property staircase.

    Valid against T iff row indices are pairwise distinct, column indices
    are pairwise distinct, and for positions k > l: T[rows[k]][cols[l]] >= r
    while for k < l: T[rows[k]][cols[l]] <= s (diagonal cells free).
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    thresholds: ThresholdPair

    def __post_init__(self):
        if len(self.rows) != len(self.cols):
            raise ValueError("rows and cols must have equal length")

    @property
    def length(self) -> int:
        return len(self.rows)

    def first_violation(self, t: EvalTable):
        """None if valid, else ((row_pos, col_pos), description)."""
        (rows, cols), duplicate = distinct_indices(t, (self.rows, 0), (self.cols, 1))
        if duplicate:
            return duplicate
        n = len(rows)
        s, r = self.thresholds.s, self.thresholds.r
        for k in range(n):
            for l in range(n):
                v = t.entries[rows[k], cols[l]]
                if k > l and not (v >= r):
                    return (k, l), f"T[{rows[k]}][{cols[l]}]={v} < r={r}"
                if k < l and not (v <= s):
                    return (k, l), f"T[{rows[k]}][{cols[l]}]={v} > s={s}"
        return None

    def to_dict(self) -> dict:
        return {
            "kind": "ladder",
            "rows": list(self.rows),
            "cols": list(self.cols),
            "s": self.thresholds.s,
            "r": self.thresholds.r,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LadderWitness":
        return cls(tuple(d["rows"]), tuple(d["cols"]), ThresholdPair(d["s"], d["r"]))


@dataclass(frozen=True)
class AlternationWitness(Witness):
    """Pair-sequence certificate for the epsilon-alternation variants "ii" and "iii".

    Row indices and column indices are each pairwise distinct across pairs.
    Variant "ii": for all t < u, |T[i_t][j_u] - T[i_u][j_t]| >= eps.
    Variant "iii": for all t < u < v, |T[i_u][j_t] - T[i_u][j_v]| >= eps.
    """

    variant: Literal["ii", "iii"]
    pairs: tuple[tuple[int, int], ...]
    eps: Epsilon

    def __post_init__(self):
        if self.variant not in ("ii", "iii"):
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def length(self) -> int:
        return len(self.pairs)

    def first_violation(self, t: EvalTable):
        (rows, cols), duplicate = distinct_indices(
            t, ((i for i, _ in self.pairs), 0), ((j for _, j in self.pairs), 1))
        if duplicate:
            return duplicate
        n = len(self.pairs)
        e = self.eps.eps
        if self.variant == "ii":
            for u in range(n):
                for v in range(u + 1, n):
                    a = t.entries[rows[u], cols[v]]
                    b = t.entries[rows[v], cols[u]]
                    if not (abs(a - b) >= e):
                        return (u, v), f"|{a} - {b}| < eps={e}"
        else:
            for tt in range(n):
                for u in range(tt + 1, n):
                    for v in range(u + 1, n):
                        a = t.entries[rows[u], cols[tt]]
                        b = t.entries[rows[u], cols[v]]
                        if not (abs(a - b) >= e):
                            return (tt, u, v), f"|{a} - {b}| < eps={e}"
        return None

    def to_dict(self) -> dict:
        return {
            "kind": "alternation",
            "variant": self.variant,
            "pairs": [list(p) for p in self.pairs],
            "eps": self.eps.eps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AlternationWitness":
        return cls(d["variant"], tuple((i, j) for i, j in d["pairs"]), Epsilon(d["eps"]))


@dataclass(frozen=True)
class LadderResult:
    length: int
    witness: LadderWitness | None  # None only from a floored private call
    exact: bool


@dataclass(frozen=True)
class AlternationResult:
    rank: int
    witness: AlternationWitness
    exact: bool


def max_ladder(
    t: EvalTable, th: ThresholdPair, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> LadderResult:
    """Maximum ladder length with one witness.

    Length 1 always exists (a one-step ladder carries no constraints).
    The forward search gets a first slice of the budget.  If it runs out,
    the transposed table is probed with at most one more slice (a ladder of
    T, reversed, is a ladder of T^T at the same (s, r)), and the forward
    search runs again on what is left, with records starting one below the
    best length found so far and, when the probe was exact, stopping at the
    probe's length.  An exact result is therefore the lexicographically
    first maximum ladder, as one unsliced forward search would return.
    When the passes, which share `exact_limit` nodes, run out, the result
    is the longest ladder any pass found, a sound lower bound flagged
    `exact=False`.
    """
    return _ladder(ThresholdMasks(t), th, integer(exact_limit, "exact_limit", 0))


def _ladder(masks: ThresholdMasks, th: ThresholdPair, exact_limit: int,
            floor: int = 0) -> LadderResult:
    """`max_ladder` of the mask set's table, looking only for ladders
    longer than `floor`.  When `floor` >= 1 and no longer ladder is found,
    the result has length `floor` and no witness; `exact` then says that
    none exists."""
    ge_by_col, le_by_row = masks[ge, th.r, True], masks[le, th.s, False]
    budget = min(exact_limit, _LADDER_SLICE)
    length, rows, cols, exact = backend.ladder_search(ge_by_col, le_by_row, budget, floor)
    left = exact_limit - budget
    if not exact and left > 0:
        budget = min(left, _LADDER_SLICE)
        left -= budget
        t_len, t_rows, t_cols, t_exact = backend.ladder_search(
            masks[ge, th.r, False], masks[le, th.s, True], budget, floor
        )
        if t_len > length:
            length, rows, cols = t_len, t_cols[::-1], t_rows[::-1]
        if t_exact and not t_rows:
            exact = True  # the probe proved that no ladder is longer than floor
        elif left > 0:
            f_len, f_rows, f_cols, exact = backend.ladder_search(
                ge_by_col,
                le_by_row,
                left,
                floor=max(floor, length - 1),
                cap=t_len if t_exact else None,  # an exact probe found the maximum
            )
            if f_rows:
                length, rows, cols = f_len, f_rows, f_cols
    if not rows:
        if floor:
            return LadderResult(floor, None, exact)
        length, rows, cols = 1, (0,), (0,)
    return LadderResult(length, LadderWitness(rows, cols, th), exact)


def alternation_ii_adjacency(t: EvalTable, e: Epsilon) -> list[int]:
    """Compatibility graph of alternation ii on the cells (i, j), numbered
    v = i * n_cols + j: bit u of mask v is set iff the cells share no row or
    column and |T[i1][j2] - T[i2][j1]| >= eps.  One broadcast and one
    `bitmasks` call per block of rows i1 (`blocks`, n_cols x n_rows x n_cols
    cells per row), so a temporary stays small at any table size."""
    vals = t.entries
    cols = np.arange(t.n_cols)
    adj = []
    for block in blocks(t.n_rows, t.n_cols * t.n_rows * t.n_cols):
        # flags[i1 - block.start, j1, i2, j2] = |T[i1][j2] - T[i2][j1]| >= eps
        flags = np.abs(vals[block, None, None, :] - vals.T[None, :, :, None]) >= e.eps
        k = np.arange(len(flags))
        flags[k, :, block.start + k, :] = False
        flags[:, cols, :, cols] = False
        adj += bitmasks(flags.reshape(-1, t.n_rows * t.n_cols))
    return adj


def alternation_iii_masks(t: EvalTable, e: Epsilon) -> list[list[int]]:
    """Separation masks of alternation iii: sep[j][i] has bit c set iff
    |T[i][c] - T[i][j]| >= eps.  One broadcast and one `bitmasks` call per
    block of columns j (`column_blocks`), split per column afterwards."""
    vals = t.entries
    masks = []
    for block in column_blocks(t):
        # flags[j - block.start, i, c] = |T[i][c] - T[i][j]| >= eps
        flags = np.abs(vals[None, :, :] - vals.T[block, :, None]) >= e.eps
        masks += bitmasks(flags.reshape(-1, t.n_cols))
    return [masks[j * t.n_rows : (j + 1) * t.n_rows] for j in range(t.n_cols)]


def alternation_rank(
    t: EvalTable,
    e: Epsilon,
    variant: Literal["ii", "iii"] = "ii",
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> AlternationResult:
    """Maximum length of a valid alternation witness of the given variant."""
    exact_limit = integer(exact_limit, "exact_limit", 0)
    if variant == "ii":
        adj = alternation_ii_adjacency(t, e)
        # a clique uses at most one cell per row and per column
        cap = min(t.n_rows, t.n_cols)
        size, verts, exact = backend.clique_search(adj, exact_limit, cap, t.n_cols)
        pairs = tuple(divmod(v, t.n_cols) for v in verts)
        if size == 0:
            size, pairs = 1, ((0, 0),)
        return AlternationResult(size, AlternationWitness("ii", pairs, e), exact)
    if variant == "iii":
        sep_by_col = alternation_iii_masks(t, e)
        length, pairs, exact = backend.alternation_iii_search(sep_by_col, t.n_cols, exact_limit)
        if length == 0:
            length, pairs = 1, ((0, 0),)
        return AlternationResult(length, AlternationWitness("iii", tuple(pairs), e), exact)
    raise ValueError(f"unknown variant {variant!r}")


def _own_gap(entries: list[list[float]], w: LadderWitness) -> float:
    """The widest r - s at which `w` (length >= 2) is a ladder: its smallest
    below-diagonal entry minus its largest above-diagonal entry, read from
    the table's `entries.tolist()`."""
    cells = [[entries[i][j] for j in w.cols] for i in w.rows]
    below = min(v for k, row in enumerate(cells) for v in row[:k])
    above = max(v for k, row in enumerate(cells) for v in row[k + 1 :])
    return below - above


def stability_spectrum(
    t: EvalTable, max_len: int, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> list[tuple[int, float | None]]:
    """For each ladder length l in 2..max_len, the widest gap r - s over
    threshold pairs drawn from the table's distinct entry values that still
    admit a ladder of length l; None when no such pair exists.

    With values sorted, the ladder length at (values[a], values[b]) never
    falls as a rises and never rises as b rises, so for each l the largest
    feasible b is nondecreasing in a.  One downward staircase walk per l
    (saddleback search) follows it with decision calls: the ladder call at
    a cell asks only for ladders longer than l - 1, so its bound cuts prune
    at full strength from the first node.  A cell is asked only when its
    gap beats the best gap so far (b stays an upper bound on the staircase,
    which never rises as a falls).  A ladder found credits its own gap, its
    smallest below-diagonal entry minus its largest above-diagonal entry: a
    pair of table values at least as wide as the cell's, so cells that
    cannot beat it are never asked, at l and at every longer length the
    ladder reaches.  Each pair is searched at most once.  Every call reads
    one `core.ThresholdMasks`, whose forward lists (`>= r` by column, `<= s`
    by row) one sorted sweep over the cells builds for every value before
    the walk (`ThresholdMasks.sweep`): the walk reads nearly all of them.
    Every reported gap is attained by a ladder that exists, so it is a sound
    lower bound even when a call exhausts `exact_limit`; it equals the
    all-pairs maximum whenever every ladder call is exact.
    """
    max_len = integer(max_len, "max_len", 2)
    exact_limit = integer(exact_limit, "exact_limit", 0)
    masks = ThresholdMasks(t)
    values = masks.sweep()
    entries = t.entries.tolist()
    # (a, b) -> (length of the ladder found, its own gap), or (l - 1, None)
    # when the call asking for length l found none
    searched: dict[tuple[int, int], tuple[int, float | None]] = {}

    def own_gap(a: int, b: int, length: int) -> float | None:
        """The own gap of a ladder of at least `length` at (a, b), if found."""
        if (a, b) not in searched:
            th = ThresholdPair(values[a], values[b])
            res = _ladder(masks, th, exact_limit, floor=length - 1)
            gap = None if res.witness is None else _own_gap(entries, res.witness)
            searched[a, b] = (res.length, gap)
        found, gap = searched[a, b]
        return gap if found >= length else None

    spectrum = []
    for length in range(2, max_len + 1):
        best = max(
            (gap for found, gap in searched.values() if gap is not None and found >= length),
            default=-math.inf,
        )
        b = len(values) - 1
        for a in range(len(values) - 2, -1, -1):
            # pairs with b <= a are out of range, not infeasible: go on to a - 1
            while b > a and values[b] - values[a] > best:
                gap = own_gap(a, b, length)
                if gap is None:
                    b -= 1
                else:
                    best = gap  # at least values[b] - values[a]
        spectrum.append((length, best if best > -math.inf else None))
    return spectrum


def iterated_means(
    t: EvalTable,
    row_seq: Sequence[int],
    col_seq: Sequence[int],
    tail_fraction: float = 1.0,
) -> tuple[float, float, float]:
    """Cesaro-tail proxy for the double-limit criterion.

    Over the last ceil(tail_fraction * L) positions (at least 2), averages
    T[row_seq[k]][col_seq[l]] over k > l (below_mean) and k < l
    (above_mean); the defect is their absolute difference.
    """
    if len(row_seq) != len(col_seq):
        raise ValueError("row_seq and col_seq must have equal length")
    L = len(row_seq)
    if L < 2:
        raise ValueError("sequences must have length >= 2")
    if not (0 < tail_fraction <= 1):
        raise ValueError("tail_fraction must lie in (0, 1]")
    row_seq, col_seq = indices(t, row_seq, 0), indices(t, col_seq, 1)
    m = max(2, math.ceil(tail_fraction * L))
    tail = range(L - m, L)
    below = [t.entries[row_seq[k], col_seq[l]] for k in tail for l in tail if k > l]
    above = [t.entries[row_seq[k], col_seq[l]] for k in tail for l in tail if k < l]
    below_mean = float(np.mean(below))
    above_mean = float(np.mean(above))
    return below_mean, above_mean, abs(below_mean - above_mean)

"""Independence-property detection: (s,r)-shattering of column sets by
rows, the shattering dimension, and the shatter-to-ladder converter."""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import ge, le
from typing import Mapping, Sequence

from . import backend
from .core import (EvalTable, ThresholdMasks, ThresholdPair, Witness, distinct_indices, indices,
                   integer)
from .errors import TooManyColumns
from .op import DEFAULT_EXACT_LIMIT, LadderWitness

MAX_SHATTER_COLS = 24


@dataclass(frozen=True)
class ShatterWitness(Witness):
    """Certificate that `cols` is (s,r)-shattered by the table's rows.

    selector maps each pattern bitmask p (bit b set <=> cols[b] on the low
    side) to a row realizing it: entry <= s on low-side columns, >= r on
    the rest.
    """

    cols: tuple[int, ...]
    thresholds: ThresholdPair
    selector: Mapping[int, int]

    @property
    def dim(self) -> int:
        return len(self.cols)

    def first_violation(self, t: EvalTable):
        cols = indices(t, self.cols, 1)
        for pattern in range(1 << len(cols)):
            if pattern not in self.selector:
                return pattern, "IncompleteSelector: missing pattern"
            (row,) = indices(t, (self.selector[pattern],), 0)
            for b, c in enumerate(cols):
                v = t.entries[row, c]
                if pattern & (1 << b):
                    if not (v <= self.thresholds.s):
                        return pattern, f"T[{row}][{c}]={v} > s={self.thresholds.s}"
                else:
                    if not (v >= self.thresholds.r):
                        return pattern, f"T[{row}][{c}]={v} < r={self.thresholds.r}"
        return None

    def to_dict(self) -> dict:
        return {
            "kind": "shatter",
            "cols": list(self.cols),
            "s": self.thresholds.s,
            "r": self.thresholds.r,
            "selector": {str(p): int(row) for p, row in sorted(self.selector.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ShatterWitness":
        return cls(
            tuple(d["cols"]),
            ThresholdPair(d["s"], d["r"]),
            {int(p): row for p, row in d["selector"].items()},
        )


@dataclass(frozen=True)
class ShatterDimResult:
    dim: int
    witness: ShatterWitness | None
    exact: bool


def is_shattered(
    t: EvalTable, cols: Sequence[int], th: ThresholdPair
) -> ShatterWitness | None:
    """Witness with a selector row for every pattern, or None.

    A pattern is realizable iff the intersection of the chosen columns'
    low/high row bitsets is nonempty; the selector picks the lowest row.
    """
    cols = tuple(cols)
    if not cols:
        raise ValueError("cols must be nonempty")
    if len(cols) > MAX_SHATTER_COLS:
        raise TooManyColumns(f"{len(cols)} columns exceed the limit of {MAX_SHATTER_COLS}")
    (cols,), duplicate = distinct_indices(t, (cols, 1))
    if duplicate:
        raise ValueError("cols must be distinct")
    masks = ThresholdMasks(t)
    low_by_col, high_by_col = masks[le, th.s, True], masks[ge, th.r, True]
    full = (1 << t.n_rows) - 1
    selector = {}
    for pattern in range(1 << len(cols)):
        m = full
        for b, c in enumerate(cols):
            m &= low_by_col[c] if pattern & (1 << b) else high_by_col[c]
            if m == 0:
                return None
        selector[pattern] = (m & -m).bit_length() - 1
    return ShatterWitness(cols, th, selector)


def shattering_dimension(
    t: EvalTable, th: ThresholdPair, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> ShatterDimResult:
    """Largest k such that some k-column set is shattered (0 when none).

    The dual dimension is shattering_dimension(core.transpose(t), th).
    Distinct patterns need distinct selector rows, so the dimension is
    capped at floor(log2(n_rows)).  Twin columns (the same rows <= s and
    the same rows >= r) are searched once, at the first of them, and the
    cap is also the number of distinct columns.  An exact result is the
    same as a search over every column would give; one cut short by
    `exact_limit` walks the same order over fewer nodes, so its dimension
    is never lower.
    """
    return _shattering_dimension(ThresholdMasks(t), th, integer(exact_limit, "exact_limit", 0))


def _shattering_dimension(masks: ThresholdMasks, th: ThresholdPair, exact_limit: int,
                          dual: bool = False) -> ShatterDimResult:
    """`shattering_dimension` of the mask set's table, or with `dual` of its
    transpose, whose columns are the table's rows."""
    n_rows = masks.t.n_cols if dual else masks.t.n_rows
    low_by_col, high_by_col = masks[le, th.s, not dual], masks[ge, th.r, not dual]
    # twin columns (equal low and high masks) are searched once, at the
    # first: a shattered set holds no two twins, and one that holds a later
    # twin stays shattered, and sorts first, with the earlier twin in place
    first: dict[tuple[int, int], int] = {}
    for c, key in enumerate(zip(low_by_col, high_by_col)):
        first.setdefault(key, c)
    originals = list(first.values())  # ascending, in insertion order
    low_by_col = [low_by_col[c] for c in originals]
    high_by_col = [high_by_col[c] for c in originals]
    max_k = min(int(math.log2(n_rows)) if n_rows > 1 else 0, MAX_SHATTER_COLS, len(low_by_col))
    if max_k == 0:
        return ShatterDimResult(0, None, True)
    dim, cols, selector_masks, exact = backend.shatter_dim_search(
        low_by_col, high_by_col, n_rows, max_k, exact_limit
    )
    if dim == 0:
        return ShatterDimResult(0, None, exact)
    cols = tuple(originals[c] for c in cols)
    selector = {p: (m & -m).bit_length() - 1 for p, m in enumerate(selector_masks)}
    return ShatterDimResult(dim, ShatterWitness(cols, th, selector), exact)


def ip_to_ladder(w: ShatterWitness, t: EvalTable) -> LadderWitness:
    """Convert a shatter witness into a ladder of the same length.

    Position u takes the selector row of the upward-closed pattern
    {u, ..., k}; below the diagonal those columns sit on the high side
    (>= r) and above it on the low side (<= s), exactly the ladder shape.
    """
    k = w.checked(t).dim
    rows = []
    for u in range(1, k + 1):
        pattern = 0
        for i in range(u, k + 1):
            pattern |= 1 << (i - 1)
        rows.append(w.selector[pattern])
    return LadderWitness(tuple(rows), w.cols, w.thresholds)

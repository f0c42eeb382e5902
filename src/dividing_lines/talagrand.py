"""Talagrand-stability diagnostics under the uniform empirical measure:
alternating-tuple counting, the stability scan over k, and the
shattered-tuple fraction."""
from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import backend
from .core import EvalTable, ThresholdMasks, ThresholdPair, indices, integer
from .errors import BudgetExceeded, EmptySubset

DEFAULT_TUPLE_BUDGET = 10**8
# Monte Carlo samples and exact-mode combinations are tested in blocks of
# about this many cells, so the temporaries stay small at any sample count
_TUPLE_BLOCK_CELLS = 2**18


@dataclass(frozen=True)
class DkReport:
    """Count/density of alternating 2k-tuples over a row subset E.

    Under the uniform measure on all rows, the stability inequality
    reduces exactly to count < |E|^(2k); `condition_holds` records it.
    In mc mode `count` is an unbiased estimate and `std_error` its
    standard error (both in tuple-count units).
    """

    k: int
    thresholds: ThresholdPair
    subset_E: tuple[int, ...]
    count: float
    density: float
    threshold_value: float
    condition_holds: bool
    distinct_coords: bool
    mode: str
    std_error: float | None = None
    seed: int | None = None
    samples: int | None = None

    def to_dict(self) -> dict:
        d = {
            "k": self.k,
            "s": self.thresholds.s,
            "r": self.thresholds.r,
            "subset_E": list(self.subset_E),
            "count": self.count,
            "density": self.density,
            "threshold_value": self.threshold_value,
            "condition_holds": self.condition_holds,
            "distinct_coords": self.distinct_coords,
            "mode": self.mode,
        }
        if self.mode == "mc":
            d["std_error"] = self.std_error
            d["seed"] = self.seed
            d["samples"] = self.samples
        return d


def _check_subset(t: EvalTable, E: Sequence[int]) -> tuple[int, ...]:
    members = tuple(sorted(set(indices(t, E, 0))))
    if not members:
        raise EmptySubset("row subset E is empty")
    return members


def _check_mode(mode: str, seed: int | None, samples: int) -> tuple[int | None, int]:
    """(seed, samples), checked in mc mode, where a seed is required."""
    if mode == "mc":
        samples = integer(samples, "samples", 1)
        if seed is None:
            raise ValueError("mc mode requires a seed")
        seed = integer(seed, "seed", 0)
    elif mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    return seed, samples


def _draw_tuples(rng: np.random.Generator, n: int, m: int, samples: int,
                 distinct: bool) -> np.ndarray:
    """(samples, m) array of uniform m-tuples over range(n), with pairwise
    distinct coordinates when `distinct` (which needs m <= n)."""
    if not distinct:
        return rng.integers(0, n, size=(samples, m))
    # Floyd's algorithm, one step for all rows at once: step j adds a
    # uniform value in [0, j], or j itself when the value is already in
    # the row, which leaves each row a uniform m-subset
    out = np.empty((samples, m), dtype=np.int64)
    for pos, j in enumerate(range(n - m, n)):
        val = rng.integers(0, j + 1, size=samples)
        taken = (out[:, :pos] == val[:, None]).any(axis=1)
        out[:, pos] = np.where(taken, j, val)
    # a uniform order of each subset
    return rng.permuted(out, axis=1)


def _block_rows(cells_per_row: int) -> int:
    """Tuples per block, so that a block's temporaries hold about
    `_TUPLE_BLOCK_CELLS` cells at any table width."""
    return max(1, _TUPLE_BLOCK_CELLS // cells_per_row)


def _count_alternating(low: np.ndarray, high: np.ndarray, coords: np.ndarray) -> int:
    """Rows of `coords` (tuples of row indices) for which some column is
    low at every even and high at every odd coordinate; `low`/`high` are
    the row flags packed by `np.packbits(..., axis=1)`."""
    acc = low[coords[:, 0]]
    for pos in range(1, coords.shape[1]):
        acc &= (high if pos % 2 else low)[coords[:, pos]]
    return int(acc.any(axis=1).sum())


def _count_shattered(low: np.ndarray, either: np.ndarray, coords: np.ndarray) -> int:
    """Rows of `coords` (n-tuples of row indices) whose every low/high
    pattern is realized by some column; `either` flags the cells that are
    low or high.  Since low and high never meet, a column where every
    coordinate is low or high realizes exactly one pattern, coded by its
    low bits; a tuple is shattered when its columns realize all 2^n codes."""
    samples, n = coords.shape
    valid = either[coords[:, 0]]
    codes = low[coords[:, 0]].astype(np.int64)
    for b in range(1, n):
        valid &= either[coords[:, b]]
        codes |= low[coords[:, b]].astype(np.int64) << b
    # code 2^n collects the invalid columns; each tuple counts its codes
    # in a slot range of its own
    width = (1 << n) + 1
    codes[~valid] = 1 << n
    codes += np.arange(samples)[:, None] * width
    seen = np.bincount(codes.ravel(), minlength=samples * width).reshape(samples, width)
    return int(seen[:, :-1].all(axis=1).sum())


def _tuple_space(n: int, k: int, mode: str, budget: int) -> int:
    """|E|^(2k) for |E| = n; BudgetExceeded past `budget` in exact mode,
    ValueError past the float range, since reports hold it as a float."""
    tuples = n ** (2 * k)
    if mode == "exact" and tuples > budget:
        # classify reports carry this message, so keep its float form where one exists
        shown = float(tuples) if tuples <= sys.float_info.max else f"{n}^{2 * k}"
        raise BudgetExceeded(f"|E|^(2k) = {shown} exceeds budget {budget}")
    if tuples > sys.float_info.max:
        raise ValueError(f"|E|^(2k) = {n}^{2 * k} exceeds the float limit {sys.float_info.max}")
    return tuples


def _mask_groups(masks: list[int], members: tuple[int, ...]) -> list[tuple[int, int]]:
    """(mask, number of rows) for each distinct non-zero mask of the member rows."""
    groups = Counter(masks[i] for i in members)
    groups.pop(0, None)
    return list(groups.items())


def _lattice(masks: ThresholdMasks, members: tuple[int, ...], th: ThresholdPair, k_max: int,
             distinct_coords: bool) -> list[list[int | None]]:
    """The `backend.dk_count_free` lattice over the member rows grouped by
    mask, holding every entry that the exact counts for k = 1..k_max read."""
    low, high = masks[operator.le, th.s, False], masks[operator.ge, th.r, False]
    return backend.dk_count_free(_mask_groups(low, members), _mask_groups(high, members),
                                 k_max, diagonal=not distinct_coords)


def _exact_count(free: list[list[int | None]], k: int, distinct_coords: bool) -> int:
    """The exact count for k, read off the lattice `free`."""
    return backend.dk_count_distinct(free, k) if distinct_coords else free[k][k]


def _report(k: int, th: ThresholdPair, members: tuple[int, ...], tuples: int,
            distinct_coords: bool, count: float, mode: str = "exact",
            std_error: float | None = None, seed: int | None = None,
            samples: int | None = None) -> DkReport:
    """The report of `count` alternating tuples out of `tuples` = |E|^(2k),
    with plain floats and bools; the mc fields stay None in exact mode."""
    count, denominator = float(count), float(tuples)
    return DkReport(
        k=k,
        thresholds=th,
        subset_E=members,
        count=count,
        density=count / denominator,
        threshold_value=denominator,
        condition_holds=count < denominator,
        distinct_coords=distinct_coords,
        mode=mode,
        std_error=std_error,
        seed=seed,
        samples=samples,
    )


def dk_count(
    t: EvalTable,
    E: Sequence[int],
    k: int,
    th: ThresholdPair,
    distinct_coords: bool = True,
    mode: str = "exact",
    seed: int | None = None,
    samples: int = 10_000,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> DkReport:
    """Count tuples w in E^(2k) such that some column alternates <= s at
    even and >= r at odd coordinates (pairwise-distinct coordinates when
    `distinct_coords`).

    Exact mode requires |E|^(2k) <= budget (BudgetExceeded otherwise).  It
    groups the member rows by low and by high mask and builds one
    `backend.dk_count_free` lattice: O(k^2) dynamic-programming steps over
    the distinct masks, or inclusion-exclusion over the subsets of the c
    alternating columns when its 2^c * (c + k^2) operations are fewer;
    distinct counts combine its (a, b) entries by Mobius inversion
    (`backend.dk_count_distinct`).
    mc mode draws `samples` seeded uniform tuples in numpy batches (Floyd's
    subset algorithm and a random order when distinct) and returns an
    unbiased count estimate with its standard error.  Both modes raise
    ValueError when |E|^(2k) exceeds the float range, since the report
    holds it as a float, and when k is not an integer >= 1.
    """
    k, budget = integer(k, "k", 1), integer(budget, "budget", 0)
    seed, samples = _check_mode(mode, seed, samples)
    members = _check_subset(t, E)
    n = len(members)
    tuples = _tuple_space(n, k, mode, budget)
    if mode == "exact":
        free = _lattice(ThresholdMasks(t), members, th, k, distinct_coords)
        return _report(k, th, members, tuples, distinct_coords,
                       _exact_count(free, k, distinct_coords))
    space = float(math.perm(n, 2 * k) if distinct_coords else tuples)
    rng = np.random.default_rng(seed)
    hits = 0
    if space > 0.0:
        rows = np.asarray(members)
        low = np.packbits(t.entries <= th.s, axis=1)
        high = np.packbits(t.entries >= th.r, axis=1)
        block = _block_rows(2 * k + low.shape[1])
        for start in range(0, samples, block):
            drawn = _draw_tuples(rng, n, 2 * k, min(block, samples - start), distinct_coords)
            hits += _count_alternating(low, high, rows[drawn])
    p_hat = hits / samples
    std_error = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples) * space
    return _report(k, th, members, tuples, distinct_coords, p_hat * space, mode,
                   std_error, seed, samples)


def almost_nip_scan(
    t: EvalTable,
    E: Sequence[int],
    th: ThresholdPair,
    k_max: int,
    distinct_coords: bool = True,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> tuple[int | None, list[DkReport]]:
    """Smallest k <= k_max with count < |E|^(2k), plus all per-k reports,
    each equal to `dk_count`'s exact report for that k.

    The first k whose |E|^(2k) exceeds `budget` or the float range raises
    as `dk_count` does, before any counting; otherwise one
    `backend.dk_count_free` lattice over k_max gives every k's count, so a
    scan takes O(k_max^2) dynamic-programming steps, or 2^c * (c + k_max^2)
    operations by inclusion-exclusion over c alternating columns when that
    is fewer.
    """
    k_max, budget = integer(k_max, "k_max", 1), integer(budget, "budget", 0)
    return _almost_nip_scan(ThresholdMasks(t), E, th, k_max, distinct_coords, budget)


def _almost_nip_scan(masks: ThresholdMasks, E: Sequence[int], th: ThresholdPair, k_max: int,
                     distinct_coords: bool, budget: int) -> tuple[int | None, list[DkReport]]:
    """`almost_nip_scan` of the mask set's table, for a checked `k_max` and `budget`."""
    members = _check_subset(masks.t, E)
    spaces = [_tuple_space(len(members), k, "exact", budget) for k in range(1, k_max + 1)]
    free = _lattice(masks, members, th, k_max, distinct_coords)
    reports = [_report(k, th, members, tuples, distinct_coords,
                       _exact_count(free, k, distinct_coords))
               for k, tuples in enumerate(spaces, 1)]
    k_min = next((rep.k for rep in reports if rep.condition_holds), None)
    return k_min, reports


def shattered_tuple_fraction(
    t: EvalTable,
    E: Sequence[int],
    n: int,
    th: ThresholdPair,
    strict: bool = False,
    mode: str = "exact",
    seed: int | None = None,
    samples: int = 10_000,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> float:
    """Fraction of pairwise-distinct n-tuples over E whose every subset
    pattern is realized by some column (strict </> when `strict`).

    It is 0.0 without a search when 2^n exceeds the number of columns,
    since a column realizes at most one of the 2^n patterns."""
    n, budget = integer(n, "n", 1), integer(budget, "budget", 0)
    seed, samples = _check_mode(mode, seed, samples)
    members = _check_subset(t, E)
    size = len(members)
    if size < n:
        return 0.0
    if mode == "exact" and size**n > budget:
        raise BudgetExceeded(f"|E|^n = {size}^{n} exceeds budget {budget}")
    if 1 << n > t.n_cols:
        # low and high never meet, so a column realizes at most one pattern
        return 0.0
    if strict:
        low = t.entries < th.s
        high = t.entries > th.r
    else:
        low = t.entries <= th.s
        high = t.entries >= th.r
    either = low | high
    block = _block_rows(n * t.n_cols)
    hits = 0
    if mode == "exact":
        # being shattered does not depend on coordinate order
        combos = itertools.chain.from_iterable(itertools.combinations(members, n))
        while True:
            coords = np.fromiter(itertools.islice(combos, block * n), dtype=np.int64)
            if not coords.size:
                return hits / math.comb(size, n)
            hits += _count_shattered(low, either, coords.reshape(-1, n))
    rng = np.random.default_rng(seed)
    rows = np.asarray(members)
    for start in range(0, samples, block):
        drawn = _draw_tuples(rng, size, n, min(block, samples - start), True)
        hits += _count_shattered(low, either, rows[drawn])
    return hits / samples

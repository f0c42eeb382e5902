"""Talagrand-stability diagnostics under the uniform empirical measure:
alternating-tuple counting, the stability scan over k, and the
shattered-tuple fraction."""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import backend
from .core import EvalTable, ThresholdPair, bitmasks
from .errors import BudgetExceeded, EmptySubset, IndexOutOfRange

DEFAULT_TUPLE_BUDGET = 10**8


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
    members = tuple(sorted(set(int(i) for i in E)))
    if not members:
        raise EmptySubset("row subset E is empty")
    for i in members:
        if not (0 <= i < t.n_rows):
            raise IndexOutOfRange(f"row index {i} out of range")
    return members


def _tuple_realizable(low_by_row, high_by_row, coords) -> bool:
    m = ~0
    for pos, p in enumerate(coords):
        m &= low_by_row[p] if pos % 2 == 0 else high_by_row[p]
        if m == 0:
            return False
    return True


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

    Exact mode requires |E|^(2k) <= budget (BudgetExceeded otherwise).
    mc mode draws `samples` seeded uniform tuples (rejection sampling when
    distinct) and returns an unbiased count estimate with its standard
    error.  Both modes raise ValueError when |E|^(2k) exceeds the float
    range, since the report holds it as a float.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode == "mc" and samples < 1:
        raise ValueError("samples must be >= 1")
    members = _check_subset(t, E)
    n = len(members)
    low_by_row = bitmasks(t.entries <= th.s)
    high_by_row = bitmasks(t.entries >= th.r)
    tuples = n ** (2 * k)
    if mode == "exact" and tuples > budget:
        # classify reports carry this message, so keep its float form where one exists
        shown = float(tuples) if tuples <= sys.float_info.max else f"{n}^{2 * k}"
        raise BudgetExceeded(f"|E|^(2k) = {shown} exceeds budget {budget}")
    if tuples > sys.float_info.max:
        raise ValueError(f"|E|^(2k) = {n}^{2 * k} exceeds the float limit {sys.float_info.max}")
    denominator = float(tuples)
    space = float(math.perm(n, 2 * k)) if distinct_coords else denominator

    if mode == "exact":
        rows = list(members)
        if distinct_coords:
            count: float = float(backend.dk_count_distinct(low_by_row, high_by_row, rows, k))
        else:
            count = float(backend.dk_count_free(low_by_row, high_by_row, rows, k, k))
        std_error = None
    elif mode == "mc":
        if seed is None:
            raise ValueError("mc mode requires a seed")
        rng = np.random.default_rng(seed)
        hits = 0
        if space > 0.0:
            for _ in range(samples):
                if distinct_coords:
                    coords = [members[i] for i in rng.choice(n, size=2 * k, replace=False)]
                else:
                    coords = [members[i] for i in rng.integers(0, n, size=2 * k)]
                if _tuple_realizable(low_by_row, high_by_row, coords):
                    hits += 1
        p_hat = hits / samples
        count = p_hat * space
        std_error = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples) * space
    else:
        raise ValueError(f"unknown mode {mode!r}")

    density = count / denominator
    return DkReport(
        k=k,
        thresholds=th,
        subset_E=members,
        count=count,
        density=density,
        threshold_value=denominator,
        condition_holds=count < denominator,
        distinct_coords=distinct_coords,
        mode=mode,
        std_error=std_error,
        seed=seed if mode == "mc" else None,
        samples=samples if mode == "mc" else None,
    )


def almost_nip_scan(
    t: EvalTable,
    E: Sequence[int],
    th: ThresholdPair,
    k_max: int,
    distinct_coords: bool = True,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> tuple[int | None, list[DkReport]]:
    """Smallest k <= k_max with count < |E|^(2k), plus all per-k reports."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    reports = []
    k_min = None
    for k in range(1, k_max + 1):
        rep = dk_count(t, E, k, th, distinct_coords=distinct_coords, budget=budget)
        reports.append(rep)
        if k_min is None and rep.condition_holds:
            k_min = k
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
    pattern is realized by some column (strict </> when `strict`)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "mc" and samples < 1:
        raise ValueError("samples must be >= 1")
    members = _check_subset(t, E)
    size = len(members)
    if size < n:
        return 0.0
    if strict:
        low = t.entries < th.s
        high = t.entries > th.r
    else:
        low = t.entries <= th.s
        high = t.entries >= th.r
    low_by_row = bitmasks(low)
    high_by_row = bitmasks(high)

    def tuple_shattered(coords) -> bool:
        for pattern in range(1 << n):
            m = ~0
            for b, p in enumerate(coords):
                m &= low_by_row[p] if pattern & (1 << b) else high_by_row[p]
                if m == 0:
                    return False
        return True

    if mode == "exact":
        if size**n > budget:
            raise BudgetExceeded(f"|E|^n = {size}^{n} exceeds budget {budget}")
        # being shattered does not depend on coordinate order
        hits = sum(1 for coords in itertools.combinations(members, n) if tuple_shattered(coords))
        return hits / math.comb(size, n)
    if mode == "mc":
        if seed is None:
            raise ValueError("mc mode requires a seed")
        rng = np.random.default_rng(seed)
        hits = 0
        for _ in range(samples):
            coords = [members[i] for i in rng.choice(size, size=n, replace=False)]
            if tuple_shattered(coords):
                hits += 1
        return hits / samples
    raise ValueError(f"unknown mode {mode!r}")

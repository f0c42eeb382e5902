from __future__ import annotations

import math

import numpy as np
import pytest

import oracles as orc
from dividing_lines import (
    EvalTable,
    ThresholdPair,
    almost_nip_scan,
    dk_count,
    full_pattern,
    half_graph,
    random_table,
    shattered_tuple_fraction,
    transpose,
)
from dividing_lines.errors import BudgetExceeded, EmptySubset

TH = ThresholdPair(0.0, 1.0)


def test_single_column_closed_form():
    rng = np.random.default_rng(2)
    cols = [rng.integers(0, 2, size=rng.integers(2, 9)).astype(float) for _ in range(25)]
    # boundary sizes past 64 rows
    cols += [rng.integers(0, 2, size=n).astype(float) for n in (70, 130)]
    for col in cols:
        t = EvalTable(col[:, None], bound=1.0)
        low = int((col <= 0).sum())
        high = int((col >= 1).sum())
        for k in (1, 2, 3):
            rep = dk_count(t, range(t.n_rows), k, TH, distinct_coords=False, budget=10**13)
            assert rep.count == (low * high) ** k
            rep = dk_count(t, range(t.n_rows), k, TH, distinct_coords=True, budget=10**13)
            assert rep.count == math.perm(low, k) * math.perm(high, k)


@pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65, 128])
def test_half_graph_distinct_closed_form(n):
    # a tuple alternates exactly when every high-side row is below every
    # low-side row, so each 2k-subset of rows gives (k!)^2 tuples
    t = half_graph(n)
    for k in (1, 2, 3):
        rep = dk_count(t, range(n), k, TH, distinct_coords=True, budget=10**13)
        assert rep.count == math.comb(n, 2 * k) * math.factorial(k) ** 2


def test_full_pattern_distinct_count_frozen():
    # frozen from the injective-tuple enumeration this count replaced
    assert dk_count(full_pattern(6), range(64), 2, TH).count == 5_100_968


def test_dk_count_matches_oracle():
    rng = np.random.default_rng(9)
    tables = [EvalTable(rng.integers(0, 2, size=(5, 3)).astype(float), bound=1.0)
              for _ in range(15)]
    # 70 columns: row masks past bit 63
    tables += [random_table(4, 70, seed=[2, i]) for i in range(12)]
    # six and seven rows: enough for nonzero distinct counts at k = 3
    tables += [random_table(n, 4, seed=[3, n, i]) for n in (6, 7) for i in range(3)]
    for t in tables:
        members = list(range(t.n_rows))
        for k in (1, 2, 3) if t.n_rows >= 6 else (1, 2):
            for distinct in (False, True):
                rep = dk_count(t, members, k, TH, distinct_coords=distinct)
                assert rep.count == orc.brute_dk_count(t, members, k, 0.0, 1.0, distinct)


def _zeros_alternating_in_column_66() -> EvalTable:
    entries = np.zeros((4, 70))
    entries[:, 66] = [0.0, 1.0, 0.0, 1.0]
    return EvalTable(entries, bound=1.0)


def test_dk_count_sees_column_66():
    t = _zeros_alternating_in_column_66()
    assert dk_count(t, range(4), 1, TH).count == 4.0


def test_dk_report_fields():
    t = half_graph(3)
    rep = dk_count(t, range(3), 1, TH, distinct_coords=False)
    assert rep.threshold_value == 9.0
    assert rep.density == rep.count / 9.0
    assert rep.condition_holds == (rep.count < 9.0)
    d = rep.to_dict()
    assert d["k"] == 1 and d["mode"] == "exact" and "std_error" not in d


def test_dk_distinct_small_subset():
    # fewer members than coordinates
    for t, E, k in [(half_graph(3), [0], 1), (half_graph(3), range(3), 2),
                    (full_pattern(3), range(5), 3)]:
        assert dk_count(t, E, k, TH, distinct_coords=True).count == 0.0
        mc = dk_count(t, E, k, TH, distinct_coords=True, mode="mc", seed=1, samples=10)
        assert mc.count == 0.0


def test_dk_subset_validation():
    t = half_graph(3)
    with pytest.raises(EmptySubset):
        dk_count(t, [], 1, TH)
    from dividing_lines.errors import IndexOutOfRange

    with pytest.raises(IndexOutOfRange):
        dk_count(t, [0, 7], 1, TH)


def test_dk_budget():
    t = random_table(30, 3, seed=0)
    with pytest.raises(BudgetExceeded):
        dk_count(t, range(30), 3, TH, budget=10**4)


def test_tuple_space_past_float_range():
    # 4^800 and 300^150 are past the largest float
    t = half_graph(4)
    with pytest.raises(BudgetExceeded):
        dk_count(t, range(4), 400, TH)
    for kwargs in ({"budget": 10**500}, {"mode": "mc", "seed": 1, "samples": 10}):
        with pytest.raises(ValueError, match="float limit"):
            dk_count(t, range(4), 400, TH, **kwargs)
    wide = random_table(300, 2, seed=0)
    with pytest.raises(BudgetExceeded):
        shattered_tuple_fraction(wide, range(300), 150, TH)
    # the estimate is hits / samples, so the size of the tuple space never enters
    assert shattered_tuple_fraction(wide, range(300), 150, TH, mode="mc", seed=1,
                                    samples=10) == 0.0


def test_dk_mc_reproducible_and_close():
    t = random_table(8, 4, seed=3)
    exact = dk_count(t, range(8), 1, TH, distinct_coords=False)
    a = dk_count(t, range(8), 1, TH, distinct_coords=False, mode="mc", seed=5, samples=4000)
    b = dk_count(t, range(8), 1, TH, distinct_coords=False, mode="mc", seed=5, samples=4000)
    assert a.count == b.count and a.std_error == b.std_error
    assert abs(a.count - exact.count) <= 4 * (a.std_error or 1.0) + 1e-9


def test_dk_mc_requires_seed():
    t = half_graph(3)
    with pytest.raises(ValueError):
        dk_count(t, range(3), 1, TH, mode="mc")


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("count", [
    lambda t, samples: dk_count(t, range(t.n_rows), 1, TH, mode="mc", seed=1, samples=samples),
    lambda t, samples: shattered_tuple_fraction(
        t, range(t.n_rows), 1, TH, mode="mc", seed=1, samples=samples),
], ids=["dk_count", "shattered_tuple_fraction"])
def test_mc_rejects_nonpositive_samples(count, samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        count(half_graph(4), samples)


def test_almost_nip_scan_constant():
    t = EvalTable(np.full((4, 2), 0.5), bound=1.0)
    k_min, reports = almost_nip_scan(t, range(4), TH, 2)
    assert k_min == 1
    assert reports[0].count == 0.0


def test_almost_nip_scan_full_pattern():
    # a fully shattering family keeps D_k saturated only while 2k <= rows
    t = full_pattern(2)
    k_min, reports = almost_nip_scan(t, range(4), TH, 3, distinct_coords=False)
    assert [r.k for r in reports] == [1, 2, 3]
    for a, b in zip(reports, reports[1:]):
        assert b.density <= a.density + 1e-12


def test_shattered_tuple_fraction_full_pattern():
    t = full_pattern(3)
    # (2^3 - 2) ordered pairs of the 8 rows in each ordered slot pattern;
    # frozen from the exhaustive oracle
    assert shattered_tuple_fraction(t, range(8), 1, TH) == 0.75
    assert shattered_tuple_fraction(t, range(8), 1, TH) == orc.brute_shattered_fraction(
        t, range(8), 1, 0.0, 1.0, False
    )


def test_shattered_tuple_fraction_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        t = EvalTable(rng.integers(0, 2, size=(5, 4)).astype(float), bound=1.0)
        for n in (1, 2):
            for strict in (False, True):
                got = shattered_tuple_fraction(t, range(5), n, TH, strict=strict)
                want = orc.brute_shattered_fraction(t, range(5), n, 0.0, 1.0, strict)
                assert got == want


def test_shattered_tuple_fraction_sees_column_66():
    # thresholds strictly inside (0, 1), so strict and non-strict agree
    t = _zeros_alternating_in_column_66()
    for strict in (False, True):
        assert shattered_tuple_fraction(t, [1, 3], 1, ThresholdPair(0.25, 0.75), strict=strict) == 1.0


def test_shattered_tuple_fraction_duality():
    rng = np.random.default_rng(8)
    for _ in range(20):
        t = EvalTable(rng.integers(0, 2, size=(4, 4)).astype(float), bound=1.0)
        from dividing_lines import shattering_dimension

        dual_dim = shattering_dimension(transpose(t), TH).dim
        for n in (1, 2):
            assert (shattered_tuple_fraction(t, range(4), n, TH) > 0) == (dual_dim >= n)


def test_shattered_tuple_fraction_mc():
    t = full_pattern(3)
    est = shattered_tuple_fraction(t, range(8), 1, TH, mode="mc", seed=4, samples=2000)
    assert abs(est - 0.75) < 0.05

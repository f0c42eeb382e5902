from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import oracles as orc
from dividing_lines import (
    EvalTable,
    ThresholdPair,
    almost_nip_scan,
    cantor_example,
    dk_count,
    full_pattern,
    half_graph,
    random_table,
    shattered_tuple_fraction,
    transpose,
)
from dividing_lines import backend, talagrand
from dividing_lines.core import ThresholdMasks
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


def _repeated_mask_cases() -> list[tuple[EvalTable, list[int], int]]:
    """(table, E, k_max) cases in which many member rows share a low or a
    high mask; k = 3 runs on row subsets so the oracle stays quick."""
    bernoulli = [random_table(12, m, seed=[4, m]) for m in (2, 3)]
    cantor = cantor_example(2, 4).table
    return [
        (cantor_example(1, 3).table, list(range(8)), 3),
        (cantor, list(range(16)), 2),
        (cantor, list(range(0, 16, 3)), 3),
        *[(t, list(range(12)), 2) for t in bernoulli],
        *[(t, list(range(0, 12, 2)), 3) for t in bernoulli],
        (half_graph(4), [0, 0, 1, 2], 3),
        # 70 columns: row masks past bit 63
        (random_table(4, 70, seed=[5, 0]), list(range(4)), 3),
    ]


@pytest.mark.parametrize("distinct", [False, True])
def test_scan_matches_oracle_and_dk_count(distinct):
    for t, E, k_max in _repeated_mask_cases():
        members = sorted(set(E))
        k_min, reports = almost_nip_scan(t, E, TH, k_max, distinct_coords=distinct)
        assert [rep.k for rep in reports] == list(range(1, k_max + 1))
        for rep in reports:
            assert rep == dk_count(t, E, rep.k, TH, distinct_coords=distinct)
            assert rep.count == orc.brute_dk_count(t, members, rep.k, 0.0, 1.0, distinct)
        assert k_min == next((rep.k for rep in reports if rep.condition_holds), None)


def test_kernels_run_once_per_count(monkeypatch):
    # perfbench/tracing.py wraps both kernels by name, so they must exist
    # and be called through the backend module; one lattice serves a scan
    calls = []
    for name in ("dk_count_free", "dk_count_distinct"):
        kernel = getattr(backend, name)
        monkeypatch.setattr(backend, name,
                            lambda *args, kernel=kernel, name=name, **kwargs:
                            calls.append(name) or kernel(*args, **kwargs))
    t = half_graph(6)
    almost_nip_scan(t, range(6), TH, 3)
    assert calls == ["dk_count_free"] + ["dk_count_distinct"] * 3
    calls.clear()
    dk_count(t, range(6), 2, TH, distinct_coords=False)
    assert calls == ["dk_count_free"]
    calls.clear()
    dk_count(t, range(6), 2, TH)
    assert calls == ["dk_count_free", "dk_count_distinct"]


def test_scan_steps_quadratic_in_k():
    # O(k^2) dynamic-programming steps take a few hundredths of a second
    # here; a DP per (a, b) pair and per k, O(k^4) steps, takes over ten
    t0 = time.perf_counter()
    k_min, reports = almost_nip_scan(half_graph(4), range(4), TH, 60, budget=10**500)
    assert time.perf_counter() - t0 < 1.0
    assert k_min == 1 and len(reports) == 60
    assert [rep.count for rep in reports[:3]] == [6.0, 4.0, 0.0]


def test_scan_stops_at_budget_and_float_range():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="float limit"):
        almost_nip_scan(half_graph(4), range(4), TH, 400, budget=10**500)
    assert time.perf_counter() - t0 < 1.0
    # 30^2 is within the budget and 30^4 is not
    t = random_table(30, 3, seed=0)
    with pytest.raises(BudgetExceeded) as single:
        dk_count(t, range(30), 2, TH, budget=10**5)
    with pytest.raises(BudgetExceeded) as scan:
        almost_nip_scan(t, range(30), TH, 5, budget=10**5)
    assert str(scan.value) == str(single.value)


@pytest.mark.parametrize("count", [
    lambda t: dk_count(t, range(4), 1.5, TH),
    lambda t: almost_nip_scan(t, range(4), TH, 2.0),
    lambda t: shattered_tuple_fraction(t, range(4), 1.5, TH),
], ids=["dk_count", "almost_nip_scan", "shattered_tuple_fraction"])
def test_count_parameters_must_be_integers(count):
    with pytest.raises(ValueError, match="must be an integer"):
        count(half_graph(4))


def test_count_parameters_take_numpy_integers():
    t = half_graph(4)
    rep = dk_count(t, range(4), np.int64(2), TH)
    assert type(rep.k) is int and rep == dk_count(t, range(4), 2, TH)
    json.dumps(rep.to_dict())
    k_min, reports = almost_nip_scan(t, range(4), TH, np.int64(2))
    assert (k_min, reports) == almost_nip_scan(t, range(4), TH, 2)
    assert [type(rep.k) for rep in reports] == [int, int]
    assert shattered_tuple_fraction(full_pattern(3), range(8), np.int64(1), TH) == 0.75


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


def test_shattered_tuple_fraction_more_patterns_than_columns():
    # 2^4 patterns over 3 columns: no 4-tuple can be shattered
    t = full_pattern(3)
    for strict in (False, True):
        assert shattered_tuple_fraction(t, range(8), 4, TH, strict=strict) == 0.0
        assert orc.brute_shattered_fraction(t, range(8), 4, 0.0, 1.0, strict) == 0.0
        assert shattered_tuple_fraction(t, range(8), 4, TH, strict=strict, mode="mc", seed=1,
                                        samples=50) == 0.0


@pytest.mark.parametrize("E", [[0], range(4)], ids=["fewer_rows_than_n", "enough_rows"])
@pytest.mark.parametrize("kwargs, match", [
    (dict(mode="bogus"), "unknown mode"),
    (dict(mode="mc"), "requires a seed"),
], ids=["unknown_mode", "mc_without_seed"])
def test_shattered_tuple_fraction_checks_mode_and_seed(E, kwargs, match):
    # |E| < n gives 0.0 without a search, but not before the arguments are checked
    with pytest.raises(ValueError, match=match):
        shattered_tuple_fraction(half_graph(4), E, 2, TH, **kwargs)


@pytest.mark.parametrize("E, k", [([], 1), (range(4), 400)],
                         ids=["empty_subset", "past_float_range"])
@pytest.mark.parametrize("kwargs, match", [
    (dict(mode="bogus"), "unknown mode"),
    (dict(mode="mc"), "requires a seed"),
], ids=["unknown_mode", "mc_without_seed"])
def test_dk_count_checks_mode_and_seed(E, k, kwargs, match):
    # the arguments are checked before the subset and the tuple space
    with pytest.raises(ValueError, match=match):
        dk_count(half_graph(4), E, k, TH, **kwargs)


def test_shattered_tuple_fraction_exact_blocks(monkeypatch):
    # blocks of a few combinations give the same exact fraction as one block
    rng = np.random.default_rng(13)
    t = EvalTable(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(7, 9)), bound=1.0)
    th = ThresholdPair(-0.5, 0.5)
    whole = {(n, strict): shattered_tuple_fraction(t, range(7), n, th, strict=strict)
             for n in (1, 2, 3) for strict in (False, True)}
    monkeypatch.setattr(talagrand, "_TUPLE_BLOCK_CELLS", 40)
    for (n, strict), want in whole.items():
        assert shattered_tuple_fraction(t, range(7), n, th, strict=strict) == want
        assert want == orc.brute_shattered_fraction(t, range(7), n, -0.5, 0.5, strict)


def _chi_square_p(counts: np.ndarray) -> float:
    expected = counts.sum() / counts.size
    stat = float(((counts - expected) ** 2).sum() / expected)
    return float(chi2.sf(stat, counts.size - 1))


@pytest.mark.parametrize("n, m", [(5, 3), (4, 4), (7, 4)])
def test_draw_tuples_distinct_uniform(n, m):
    draws = talagrand._draw_tuples(np.random.default_rng(0), n, m, 200_000, True)
    assert draws.shape == (200_000, m)
    ordered = np.sort(draws, axis=1)
    assert (ordered[:, 1:] != ordered[:, :-1]).all()
    codes = draws @ (n ** np.arange(m))
    counts = np.bincount(codes, minlength=n**m)
    injective = [sum(c * n**i for i, c in enumerate(w))
                 for w in itertools.permutations(range(n), m)]
    assert counts.sum() == counts[injective].sum()
    assert _chi_square_p(counts[injective]) > 1e-3


def test_draw_tuples_free_uniform():
    draws = talagrand._draw_tuples(np.random.default_rng(0), 5, 3, 200_000, False)
    counts = np.bincount(draws @ (5 ** np.arange(3)), minlength=125)
    assert _chi_square_p(counts) > 1e-3


def _sparse_wide_table() -> EvalTable:
    # every cell in columns 0..55 is neither low nor high, so all the
    # alternation lies past bit 63 of a row mask
    rng = np.random.default_rng(31)
    entries = np.zeros((9, 70))
    entries[:, 56:] = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(9, 14))
    return EvalTable(entries, bound=1.0)


@pytest.mark.parametrize("distinct", [True, False])
def test_dk_mc_within_five_standard_errors(distinct):
    t = _sparse_wide_table()
    th = ThresholdPair(-0.5, 0.5)
    samples = 20_000
    for E in ([0, 2, 3, 5, 6, 8], [8, 1, 2, 4, 5, 7, 0]):
        for k in (1, 2, 3):
            exact = dk_count(t, E, k, th, distinct_coords=distinct)
            mc = dk_count(t, E, k, th, distinct_coords=distinct, mode="mc", seed=k,
                          samples=samples)
            space = math.perm(len(E), 2 * k) if distinct else len(E) ** (2 * k)
            p = exact.count / space
            assert abs(mc.count - exact.count) <= 5 * math.sqrt(p * (1 - p) / samples) * space


def test_shattered_fraction_mc_within_five_standard_errors():
    rng = np.random.default_rng(5)
    tables = [_sparse_wide_table(),
              EvalTable(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(9, 20),
                                   p=[0.3, 0.15, 0.1, 0.15, 0.3]), bound=1.0)]
    th = ThresholdPair(-0.5, 0.5)
    samples = 20_000
    for t in tables:
        for n in (1, 2, 3):
            for strict in (False, True):
                p = shattered_tuple_fraction(t, range(9), n, th, strict=strict)
                est = shattered_tuple_fraction(t, range(9), n, th, strict=strict, mode="mc",
                                               seed=n, samples=samples)
                assert abs(est - p) <= 5 * math.sqrt(p * (1 - p) / samples)


def test_mc_reproducible_across_blocks():
    # 4096 columns, of which eight hold low or high cells
    rng = np.random.default_rng(17)
    entries = np.zeros((8, 4096))
    entries[:, 511::512] = rng.choice([-1.0, 1.0], size=(8, 8))
    t = EvalTable(entries, bound=1.0)
    th = ThresholdPair(-0.5, 0.5)
    samples = 4000
    # more than two blocks of samples in both counts
    assert samples > 2 * talagrand._block_rows(2 + 4096 // 8)
    assert samples > 2 * talagrand._block_rows(2 * 4096)
    runs = [(dk_count(t, range(8), 1, th, mode="mc", seed=9, samples=samples).count,
             shattered_tuple_fraction(t, range(8), 2, th, mode="mc", seed=9, samples=samples))
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert 0 < runs[0][0] < math.perm(8, 2) and 0 < runs[0][1] < 1
    other = dk_count(t, range(8), 1, th, mode="mc", seed=10, samples=samples).count
    assert other != runs[0][0]


def test_mc_memory_independent_of_samples():
    # one unblocked pass would hold at least 10^5 x 512 packed bytes per
    # temporary for the count and 10^4 x 4096 int64 codes for the fraction
    t = random_table(4, 4096, seed=7)
    th = ThresholdPair(0.0, 1.0)
    tracemalloc.start()
    try:
        dk_count(t, range(4), 1, th, mode="mc", seed=1, samples=10**5)
        shattered_tuple_fraction(t, range(4), 2, th, mode="mc", seed=1, samples=10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _groups(t: EvalTable, members, th: ThresholdPair = TH):
    """The (low, high) mask groups that `dk_count` hands the lattice."""
    masks, members = ThresholdMasks(t), tuple(sorted(set(members)))
    return (talagrand._mask_groups(masks[operator.le, th.s, False], members),
            talagrand._mask_groups(masks[operator.ge, th.r, False], members))


def _brute_free(low, high, k: int, diagonal: bool) -> list[list[int | None]]:
    """The `dk_count_free` lattice by listing every row sequence."""
    lows = [mask for mask, rows in low for _ in range(rows)]
    highs = [mask for mask, rows in high for _ in range(rows)]
    free = [[None] * (k + 1) for _ in range(k + 1)]
    for a in range(1, k + 1):
        for b in range(1, (a if diagonal else k) + 1):
            free[a][b] = sum(
                1 for seq in itertools.product(*[lows] * a, *[highs] * b)
                if functools.reduce(operator.and_, seq))
    return free


def _sparse_wide(n_cols: int, cols: list[int], seed: int) -> EvalTable:
    """6 x n_cols: random 0/1 in `cols`, and 0.5 (neither low nor high)
    elsewhere, so only `cols` can alternate."""
    entries = np.full((6, n_cols), 0.5)
    entries[:, cols] = np.random.default_rng([seed, n_cols]).integers(0, 2, size=(6, len(cols)))
    return EvalTable(entries, bound=1.0)


def _lattice_cases():
    """(table, thresholds, members) on which both lattice paths run."""
    rng = np.random.default_rng(27)
    cases = []
    for i, (rows, cols) in enumerate([(5, 3), (6, 6), (8, 5), (12, 4)]):
        t = random_table(rows, cols, seed=[27, i])
        cases += [(t, TH, range(rows)), (t, TH, range(0, rows, 2))]
        u = random_table(rows, cols, "uniform", seed=[27, i])
        cases += [(u, ThresholdPair(-0.3, 0.3), range(rows)),
                  (u, ThresholdPair(-0.3, 0.3), range(1, rows, 2))]
        # -1 low, 1 high, 0 neither
        three = EvalTable(rng.integers(-1, 2, size=(rows, cols)).astype(float), bound=1.0)
        cases += [(three, ThresholdPair(-1.0, 1.0), range(rows)),
                  (three, ThresholdPair(-1.0, 1.0), range(rows // 2))]
    # masks past bits 31, 63 and 127, with runs of alternating columns split
    for n in (31, 32, 33, 63, 64, 65, 128):
        t = _sparse_wide(n, [0, n // 2, n - 3, n - 1], seed=1)
        cases += [(t, TH, range(6)), (t, TH, [1, 2, 4, 5])]
    # no alternating column
    cases.append((EvalTable(np.zeros((5, 4)), bound=1.0), TH, range(5)))
    return cases


def test_lattice_paths_agree():
    for t, th, members in _lattice_cases():
        low, high = _groups(t, members, th)
        for k in (1, 2, 3, 4):
            for diagonal in (False, True):
                dp = backend._dk_free_dp(low, high, k, diagonal)
                assert backend._dk_free_ie(low, high, k, diagonal) == dp
                if len(members) ** (2 * k) <= 1296:
                    assert _brute_free(low, high, k, diagonal) == dp
    zero = EvalTable(np.zeros((5, 4)), bound=1.0)
    assert backend._dk_free_ie(*_groups(zero, range(5)), 2, False)[1:] == [[None, 0, 0]] * 2


def test_lattice_path_choice(monkeypatch):
    # full_pattern(6): 6 alternating columns against 63 x 63 distinct
    # masks; Bernoulli 24 x 24: 2^24 column subsets against its DP
    paths = []
    for name in ("_dk_free_dp", "_dk_free_ie"):
        helper = getattr(backend, name)
        monkeypatch.setattr(backend, name,
                            lambda *args, helper=helper, name=name:
                            paths.append(name) or helper(*args))
    dk_count(full_pattern(6), range(64), 2, TH, budget=64**4)
    dk_count(random_table(24, 24), range(24), 2, TH)
    assert paths == ["_dk_free_ie", "_dk_free_dp"]


@pytest.mark.parametrize("m", range(1, 7))
def test_full_pattern_closed_form_counts(m):
    # row b holds the bits of b, so the rows <= s on every column of a set
    # S (and those >= r) number 2^(m - |S|), and inclusion-exclusion over S
    # gives both counts
    t, n = full_pattern(m), 1 << m
    budget = max(talagrand.DEFAULT_TUPLE_BUDGET, n**6)
    scans = {distinct: almost_nip_scan(t, range(n), TH, 3, distinct, budget)[1]
             for distinct in (False, True)}
    for k in (1, 2, 3):
        free = 4 ** (k * m) - (4**k - 1) ** m
        distinct = sum((-1) ** (j + 1) * math.comb(m, j) * math.perm(1 << (m - j), k) ** 2
                       for j in range(1, m + 1))
        assert dk_count(t, range(n), k, TH, False, budget=budget).count == free
        assert dk_count(t, range(n), k, TH, True, budget=budget).count == distinct
        assert scans[False][k - 1].count == free and scans[True][k - 1].count == distinct
    if m == 3:
        assert [rep.count for rep in scans[True][:2]] == [37.0, 420.0]


def _metamorphic_cases():
    """(table, thresholds): at k = 2 the first three take inclusion-exclusion
    and the last two the mask DP (test_metamorphic_counts checks that both
    run)."""
    return [
        (full_pattern(4), TH),
        (cantor_example(2, 4).table, TH),
        (random_table(16, 4, seed=[28, 0]), TH),
        (random_table(8, 8, seed=[28, 1]), TH),
        (random_table(7, 7, "uniform", seed=[28, 2]), ThresholdPair(-0.3, 0.3)),
    ]


def test_metamorphic_counts(monkeypatch):
    # a new column or a new member row never lowers an exact count; a copy
    # of an existing column leaves it as it was
    paths = set()
    for name in ("_dk_free_dp", "_dk_free_ie"):
        helper = getattr(backend, name)
        monkeypatch.setattr(backend, name,
                            lambda *args, helper=helper, name=name:
                            paths.add(name) or helper(*args))
    rng = np.random.default_rng(28)
    for t, th in _metamorphic_cases():
        e, n = t.entries, t.n_rows
        extra = rng.choice(np.unique(e), size=(n, 1))
        widened = EvalTable(np.hstack([e, extra]), bound=t.bound)
        copied = EvalTable(np.hstack([e, e[:, [1]]]), bound=t.bound)
        for k in (1, 2):
            for distinct in (False, True):
                def count(table, members):
                    return dk_count(table, members, k, th, distinct, budget=10**12).count

                base = count(t, range(n))
                assert count(widened, range(n)) >= base
                assert count(copied, range(n)) == base
                assert count(t, range(n - 1)) <= base
                assert count(t, range(1, n)) <= base
    assert paths == {"_dk_free_dp", "_dk_free_ie"}

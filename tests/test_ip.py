from __future__ import annotations

import math
from operator import ge, le

import numpy as np
import pytest

import oracles as orc
from dividing_lines import (
    EvalTable,
    ShatterWitness,
    ThresholdPair,
    full_pattern,
    half_graph,
    ip_to_ladder,
    is_shattered,
    random_table,
    shattering_dimension,
    transpose,
)
from dividing_lines import backend, ip
from dividing_lines.core import ThresholdMasks
from dividing_lines.errors import IndexOutOfRange, InvalidWitness, TooManyColumns
from dividing_lines.ip import MAX_SHATTER_COLS

TH = ThresholdPair(0.0, 1.0)


def test_full_pattern_is_shattered():
    # k = 5, 6, 7 give 32, 64 and 128 rows: masks cross the 32- and 64-bit widths
    for k in (1, 2, 3, 4, 5, 6, 7):
        t = full_pattern(k)
        w = is_shattered(t, range(k), TH)
        assert w is not None
        assert w.is_valid(t)
        assert shattering_dimension(t, TH).dim == k


def test_half_graph_dimension_one():
    for n in (3, 5, 7):
        assert shattering_dimension(half_graph(n), TH).dim == 1


def test_selector_realizes_every_pattern():
    t = full_pattern(3)
    w = is_shattered(t, (0, 2), TH)
    assert set(w.selector) == set(range(4))
    for pattern, row in w.selector.items():
        for b, c in enumerate(w.cols):
            v = t.entries[row, c]
            if pattern & (1 << b):
                assert v <= TH.s
            else:
                assert v >= TH.r


def test_not_shattered_returns_none():
    t = half_graph(4)
    assert is_shattered(t, (0, 1), TH) is None


def test_is_shattered_input_checks():
    t = full_pattern(2)
    with pytest.raises(ValueError):
        is_shattered(t, (), TH)
    with pytest.raises(ValueError):
        is_shattered(t, (0, 0), TH)
    with pytest.raises(IndexOutOfRange):
        is_shattered(t, (0, 9), TH)


def test_too_many_columns():
    t = EvalTable(np.zeros((2, MAX_SHATTER_COLS + 1)) + 1.0)
    with pytest.raises(TooManyColumns):
        is_shattered(t, range(MAX_SHATTER_COLS + 1), TH)


def test_dimension_capped_by_log_rows():
    # three rows can realize at most 2 of the 4 patterns distinctly for dim 2,
    # and never all 2^k patterns for k > log2(n_rows)
    t = EvalTable(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), bound=1.0)
    assert shattering_dimension(t, TH).dim <= 1


def test_dimension_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        t = EvalTable(rng.integers(0, 2, size=(6, 5)).astype(float), bound=1.0)
        res = shattering_dimension(t, TH)
        assert res.dim == orc.brute_shatter_dim(t, 0.0, 1.0)
        if res.witness is not None:
            assert res.witness.is_valid(t)
            assert res.witness.dim == res.dim


@pytest.mark.parametrize("t, nodes, dim, cols", [
    (transpose(full_pattern(7)), 257, 2, (3, 5)),
    (full_pattern(6), 6, 6, (0, 1, 2, 3, 4, 5)),
])
def test_dimension_stops_at_log_rows(t, nodes, dim, cols):
    # the search ends exact once the record reaches floor(log2 rows),
    # keeping the first maximum set
    res = shattering_dimension(t, TH, nodes)
    assert (res.dim, res.witness.cols, res.exact) == (dim, cols, True)
    assert not shattering_dimension(t, TH, nodes - 1).exact


def _twin_tables():
    # seeded 8-row tables of entries 0, 0.5 and 1 built from 10 columns with
    # repeats, so twin columns straddle the 32- and 64-bit boundaries; odd
    # seeds plant full_pattern(3), so that some set of 3 columns is shattered
    for width in (31, 32, 33, 63, 64, 65):
        for seed in range(2):
            rng = np.random.default_rng([seed, width, 24])
            base = rng.integers(0, 3, size=(8, 10)) / 2
            if seed:
                base[:, rng.choice(10, 3, replace=False)] = full_pattern(3).entries
            idx = rng.integers(0, 10, size=width)
            idx[-1] = idx[0]
            yield pytest.param(base[:, idx], id=f"{width}-{seed}")


def _shatter_tuple(res):
    if res.witness is None:
        return res.dim, (), {}
    return res.dim, res.witness.cols, dict(res.witness.selector)


@pytest.mark.parametrize("entries", _twin_tables())
def test_dimension_with_twins_is_lexfirst(entries):
    # twin columns, and in the dual twin rows, are searched once: the first
    # maximum set and its lowest selector rows are still the ones returned
    t = EvalTable(entries, bound=1.0)
    want = orc.lexfirst_shatter(t, 0.0, 1.0)
    res = shattering_dimension(t, TH)
    assert res.exact and _shatter_tuple(res) == want
    tall = transpose(t)
    res = ip._shattering_dimension(ThresholdMasks(tall), TH, 10**6, dual=True)
    assert res.exact and _shatter_tuple(res) == want


@pytest.mark.parametrize("entries", _twin_tables())
def test_dimension_with_twins_never_below_plain_search(entries):
    # the same search order over fewer columns: a budget-bound dim can only
    # rise, and an exact plain search gives the same result
    t = EvalTable(entries, bound=1.0)
    masks = ThresholdMasks(t)
    n_rows, n_cols = entries.shape
    max_k = min(int(math.log2(n_rows)), MAX_SHATTER_COLS, n_cols)
    for budget in (5, 30, 200, 2_000, 10**4):
        dim, cols, _, exact = backend.shatter_dim_search(
            masks[le, 0.0, True], masks[ge, 1.0, True], n_rows, max_k, budget)
        res = shattering_dimension(t, TH, budget)
        assert res.dim >= dim, budget
        if exact:
            assert res.exact and _shatter_tuple(res)[:2] == (dim, cols), budget


def test_dual_dimension_via_transpose():
    t = full_pattern(3)
    assert shattering_dimension(transpose(t), TH).dim == orc.brute_shatter_dim(
        transpose(t), 0.0, 1.0
    )


def test_witness_dict_round_trip():
    t = full_pattern(2)
    w = is_shattered(t, (0, 1), TH)
    w2 = ShatterWitness.from_dict(w.to_dict())
    assert w2 == w and w2.is_valid(t)


def test_ip_to_ladder_length_and_validity():
    for k in (1, 2, 3):
        t = full_pattern(k)
        w = is_shattered(t, range(k), TH)
        ladder = ip_to_ladder(w, t)
        assert ladder.length == k
        assert ladder.is_valid(t)


def test_ip_to_ladder_random():
    for seed in range(15):
        t = random_table(8, 4, seed=seed)
        res = shattering_dimension(t, TH)
        if res.witness is not None:
            ladder = ip_to_ladder(res.witness, t)
            assert ladder.length == res.dim
            assert ladder.is_valid(t)


def test_ip_to_ladder_rejects_invalid_witness():
    t = full_pattern(2)
    w = is_shattered(t, (0, 1), TH)
    other = half_graph(4)
    with pytest.raises(InvalidWitness):
        ip_to_ladder(w, other)

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import oracles as orc
from dividing_lines import (
    ChainWitness,
    ClassifyParams,
    Epsilon,
    EvalTable,
    classify,
    full_pattern,
    half_graph,
    preorder_psi,
    random_table,
    sop_to_alternation,
    sop_witness,
    strict_chain,
    transpose,
)
from dividing_lines import sop
from dividing_lines.core import bitmasks
from dividing_lines.errors import SearchBudgetExceeded

E1 = Epsilon(1.0)


def test_psi_values(tbl):
    t = tbl([[0.0, 1.0], [0.5, 0.25]], bound=1.0)
    m = preorder_psi(t)
    assert m.psi[0, 1] == 0.25  # row 1: 0.5 - 0.25
    assert m.psi[1, 0] == 1.0  # row 0: 1.0 - 0.0
    assert not m.dominates(0, 1)
    assert m.psi[0, 0] == 0.0 and m.psi[1, 1] == 0.0


def test_psi_pointwise_domination(tbl):
    t = tbl([[0.0, 1.0], [0.0, 0.5]], bound=1.0)
    m = preorder_psi(t)
    assert m.dominates(0, 1)
    assert not m.dominates(1, 0)


@pytest.mark.parametrize("width", [31, 32, 33, 63, 64, 65, 128])
def test_above_masks_match_preorder_psi(width):
    # the direct comparison gives psi's masks: ties are comparable both ways,
    # and so are -0.0 and 0.0
    for seed, n_rows in enumerate((2, 4, 7)):
        rng = np.random.default_rng([seed, width, 24])
        entries = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(n_rows, width))
        entries[:, 0] = np.abs(entries[:, 1])
        entries[:, -1] = -np.abs(entries[:, 1])
        t = EvalTable(entries)
        flags = preorder_psi(t).psi <= 0
        np.fill_diagonal(flags, False)
        assert sop._above_masks(t) == bitmasks(flags), (width, seed)


def test_strict_chain_half_graph():
    # hg columns are pointwise nondecreasing left to right with unit gaps,
    # and right to left in the transpose
    for n in (2, 4, 6, 31, 32, 33, 63, 64, 65, 128):
        res = strict_chain(half_graph(n), E1)
        assert res.m == n
        assert res.cols == tuple(range(n))
        res = strict_chain(transpose(half_graph(n)), E1)
        assert res.m == n
        assert res.cols == tuple(range(n - 1, -1, -1))


def _chain_corpus():
    """Small tables of every kind the chain search must agree on: ties and
    rounded values, duplicated columns, half graphs and their transposes
    across the word boundaries, and full patterns."""
    rng = np.random.default_rng(11)
    out = []
    for i in range(370):
        n_rows, n_cols = int(rng.integers(1, 33)), int(rng.integers(1, 41))
        if i % 3 == 0:
            levels = int(rng.integers(2, 6))
            vals = rng.integers(0, levels, size=(n_rows, n_cols)) / (levels - 1)
        elif i % 3 == 1:
            vals = np.round(rng.random((n_rows, n_cols)), 1)
        else:
            base = np.round(rng.random((n_rows, max(1, n_cols // 2))), 1)
            vals = base[:, rng.integers(0, base.shape[1], size=n_cols)]
        out.append(EvalTable(vals, bound=1.0))
    for n in (1, 2, 3, 5, 8, 31, 32, 33, 63, 64, 65, 128):
        out += [half_graph(n), transpose(half_graph(n))]
    for k in range(1, 7):
        out += [full_pattern(k), transpose(full_pattern(k))]
    return out


def test_strict_chain_matches_recursive_reference():
    corpus = _chain_corpus()
    assert len(corpus) >= 400
    for idx, t in enumerate(corpus):
        for eps in (0.1, 0.5, 1.0):
            res = strict_chain(t, Epsilon(eps))
            assert (res.m, res.cols, res.step_rows) == orc.recursive_strict_chain(t, eps), (idx, eps)


def _long_chain_table(n=1100):
    """2 x n: row 0 rises by 1/n per column and row 1 is flat, so every
    column sits below the next with a gap of 1/n in row 0."""
    return EvalTable(np.vstack([np.arange(n) / n, np.zeros(n)]), bound=1.0)


def test_strict_chain_longer_than_recursion_limit():
    res = strict_chain(_long_chain_table(), Epsilon(0.0004))
    assert res.m == 1100
    assert res.cols == tuple(range(1100))
    assert res.step_rows == (0,) * 1099


def test_classify_long_chain():
    report = classify(_long_chain_table(), ClassifyParams(s=0.2, r=0.8, eps=0.0004, k_max=1))
    assert not report.errors
    assert report.sections["strict_chain"]["m"] == 1100
    assert report.sections["sop_literal"]["status"] == "none"


def test_chain_detectors_memory():
    t = random_table(256, 256, "uniform", seed=[0, 256, 99])
    for call in (
        lambda: preorder_psi(t),
        lambda: strict_chain(t, Epsilon(0.05)),
        lambda: sop_witness(t, Epsilon(0.05), 3),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_strict_chain_floor_one(tbl):
    t = tbl([[0.0, 1.0], [1.0, 0.0]])
    assert strict_chain(t, E1).m == 1


def test_strict_chain_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        t = EvalTable(rng.integers(0, 2, size=(5, 5)).astype(float), bound=1.0)
        assert strict_chain(t, E1).m == orc.brute_strict_chain(t, 1.0)


def test_strict_chain_eps_scaling(tbl):
    t = tbl([[0.0, 0.4, 0.8]], bound=1.0)
    assert strict_chain(t, Epsilon(0.3)).m == 3
    assert strict_chain(t, Epsilon(0.5)).m == 2
    assert strict_chain(t, Epsilon(0.9)).m == 1


def test_chain_witness_validity():
    # the cross condition is strict, so eps must sit below the 0/1 gap
    t = half_graph(4)
    w = sop_witness(t, Epsilon(0.5), 3)
    assert w is not None
    assert w.is_valid(t)
    assert w.length >= 3


def test_chain_witness_rejects_broken(tbl):
    t = half_graph(4)
    w = ChainWitness((1, 0), (0, 1), E1)  # columns not pointwise nondecreasing
    loc, msg = w.first_violation(t)
    assert loc is not None and loc[0] == "pointwise"
    dup = ChainWitness((0, 0), (1, 2), E1)
    assert dup.first_violation(t) == (None, "duplicate col index")


def test_chain_witness_cross_condition(tbl):
    t = tbl([[0.0, 0.5], [0.0, 1.0]], bound=1.0)
    w = ChainWitness((0, 1), (1, 0), Epsilon(0.75))
    # cross pair: T[w1][c0] + eps < T[w0][c1] is 0.0 + 0.75 < 1.0
    assert w.is_valid(t)
    assert not ChainWitness((0, 1), (0, 1), Epsilon(0.75)).is_valid(t)


@pytest.mark.parametrize("model, eps", [("bernoulli", 0.5), ("uniform", 0.4), ("uniform", 1.0)])
def test_sop_witness_finds_a_pair_whenever_one_exists(model, eps):
    # the literal search is complete as well as sound: it finds a length-2
    # chain exactly when the brute-force oracle does
    found = 0
    for shape in np.ndindex(5, 5):
        for seed in range(6):
            t = random_table(shape[0] + 2, shape[1] + 2, model, seed=[*shape, seed])
            want = orc.brute_sop_pair_exists(t, eps)
            assert (sop_witness(t, Epsilon(eps), 2) is not None) == want, (shape, seed)
            found += want
    assert found


def test_sop_witness_none_when_absent(tbl):
    t = tbl([[0.0, 1.0], [1.0, 0.0]])
    assert sop_witness(t, E1, 2) is None


def test_sop_witness_budget():
    t = random_table(10, 10, seed=1)
    with pytest.raises(SearchBudgetExceeded):
        sop_witness(t, Epsilon(0.9), 3, exact_limit=5)
    assert sop_witness(t, Epsilon(0.9), 3) is None
    # only two columns have a column above them, so no 9-chain gets past
    # the cut and no node is spent
    assert sop_witness(t, Epsilon(0.9), 9, exact_limit=5) is None


def test_sop_witness_needs_a_value_range_past_eps():
    # every {0,1} table at eps 1: no step T[w][c'] + 1 < T[w'][c] exists,
    # so no search runs and no budget can run out
    assert sop_witness(half_graph(200), E1, 3, exact_limit=1) is None
    t = EvalTable(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert sop_witness(t, E1, 2, exact_limit=0) is None
    # one ulp more range and the step exists
    t = EvalTable(np.array([[0.0, np.nextafter(1.0, 2.0)], [0.0, np.nextafter(1.0, 2.0)]]))
    w = sop_witness(t, E1, 2)
    assert w is not None and w.is_valid(t) and w.length == 2


def test_sop_witness_cuts_unreachable_targets():
    # past min(rows, cols) no chain can reach the target, so the search
    # ends at once instead of exhausting its budget
    t = random_table(10, 10, seed=1)
    assert sop_witness(t, Epsilon(0.1), 11, exact_limit=5) is None


def test_sop_witness_skips_columns_with_nothing_above():
    # no column of the identity is pointwise below another, so every
    # column is cut before its rows are charged and no node is spent
    t = EvalTable(np.eye(40), bound=1.0)
    assert sop_witness(t, E1, 3, exact_limit=1000) is None


def test_sop_witness_longer_than_recursion_limit():
    t = half_graph(1001)
    w = sop_witness(t, Epsilon(0.5), 1001)
    assert w is not None and w.length == 1001
    assert w.is_valid(t)


def test_sop_witness_target_validation():
    with pytest.raises(ValueError):
        sop_witness(half_graph(3), E1, 1)


def test_sop_to_alternation():
    t = half_graph(5)
    w = sop_witness(t, Epsilon(0.5), 4)
    a = sop_to_alternation(w, t)
    assert a.variant == "ii"
    assert a.length == w.length
    assert a.is_valid(t)


def test_witness_dict_round_trip():
    w = ChainWitness((0, 2, 3), (4, 1, 0), E1)
    assert ChainWitness.from_dict(w.to_dict()) == w

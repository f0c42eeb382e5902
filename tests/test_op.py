from __future__ import annotations

import hashlib
import sys
import time
from operator import ge, le

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from dividing_lines import (
    AlternationWitness,
    EvalTable,
    Epsilon,
    LadderWitness,
    ThresholdPair,
    alternation_rank,
    dk_count,
    full_pattern,
    half_graph,
    iterated_means,
    mazur_approximate,
    max_ladder,
    random_table,
    shattered_tuple_fraction,
    shattering_dimension,
    stability_spectrum,
    strict_chain,
    transpose,
)
from dividing_lines import backend, op
from dividing_lines.core import ThresholdMasks, bitmasks

TH = ThresholdPair(0.0, 1.0)
E1 = Epsilon(1.0)


def binary_tables(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda nr: st.integers(1, max_cols).flatmap(
            lambda nc: st.lists(
                st.lists(st.sampled_from([0.0, 1.0]), min_size=nc, max_size=nc),
                min_size=nr,
                max_size=nr,
            )
        )
    )


def test_ladder_witness_validity(tbl):
    t = half_graph(4)
    w = LadderWitness((2, 1, 0), (3, 2, 1), TH)
    assert w.is_valid(t)
    bad = LadderWitness((0, 1, 2), (0, 1, 2), TH)
    loc, msg = bad.first_violation(t)
    assert loc is not None and "s=" in msg


def test_ladder_witness_rejects_duplicates():
    t = half_graph(4)
    w = LadderWitness((1, 1), (0, 2), TH)
    assert w.first_violation(t) == (None, "duplicate row index")
    w = LadderWitness((0, 1), (2, 2), TH)
    assert w.first_violation(t) == (None, "duplicate col index")


def test_ladder_witness_out_of_range():
    from dividing_lines.errors import IndexOutOfRange

    t = half_graph(3)
    with pytest.raises(IndexOutOfRange):
        LadderWitness((0, 5), (0, 1), TH).first_violation(t)


def test_ladder_half_graph():
    cases = [(n, half_graph(n)) for n in range(2, 7)]
    # masks across the 32- and 64-bit widths, in both orientations
    for n in (31, 32, 33, 63, 64, 65):
        cases += [(n, half_graph(n)), (n, transpose(half_graph(n)))]
    for n, t in cases:
        res = max_ladder(t, TH)
        assert res.length == n
        assert res.exact
        assert res.witness.is_valid(t)


def test_searches_run_under_a_low_recursion_limit():
    # every search keeps its states on an explicit stack, so a search deeper
    # than the interpreter's frame limit still ends exact
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        ladder = max_ladder(transpose(half_graph(150)), TH)
        iii = alternation_rank(half_graph(150), E1, "iii")
        ii = alternation_rank(half_graph(75), E1, "ii")
    finally:
        sys.setrecursionlimit(limit)
    assert (ladder.length, ladder.exact) == (150, True)
    assert (iii.rank, iii.exact) == (150, True)
    assert (ii.rank, ii.exact) == (75, True)


def test_ladder_half_graph_1100():
    t = half_graph(1100)
    res = max_ladder(transpose(t), TH)
    assert (res.length, res.exact) == (1100, True)
    assert res.witness.is_valid(transpose(t))
    # the transposed probe proves 1100, but the forward rerun must still
    # find the lexicographically first forward ladder within the budget
    res = max_ladder(t, TH)
    assert res.length == 1100
    assert res.witness.is_valid(t)


def test_ladder_found_past_row_63(tbl):
    # the only length-2 ladder uses rows 66 (low in col 1) and 67 (high in col 0)
    rows = np.full((70, 2), 0.5)
    rows[66, 1] = 0.0
    rows[67, 0] = 1.0
    t = tbl(rows, bound=1.0)
    res = max_ladder(t, TH)
    assert (res.length, res.exact) == (2, True)
    assert res.witness.is_valid(t)


def test_ladder_identity(tbl):
    t = tbl(np.eye(4))
    assert max_ladder(t, TH).length == 2


def test_ladder_length_one_floor(tbl):
    t = tbl([[0.5, 0.5], [0.5, 0.5]], bound=1.0)
    res = max_ladder(t, TH)
    assert res.length == 1
    assert res.witness.is_valid(t)


def test_ladder_budget_gives_lower_bound():
    t = half_graph(6)
    res = max_ladder(t, TH, exact_limit=10)
    assert not res.exact
    assert 1 <= res.length <= 6
    assert res.witness.is_valid(t)


@settings(max_examples=60, deadline=None)
@given(binary_tables())
def test_ladder_matches_oracle(rows):
    t = EvalTable(np.array(rows), bound=1.0)
    assert max_ladder(t, TH).length == orc.brute_max_ladder(t, 0.0, 1.0)


def test_ladder_witness_is_lexfirst():
    # an exact search returns the first maximum-length ladder in ascending
    # (i, j) order, the witness the frozen report digests carry
    for seed in range(300):
        rng = np.random.default_rng([seed, 5])
        n_rows = int(rng.integers(1, 6))
        n_cols = int(rng.integers(1, 20 // n_rows + 1))
        if seed % 2:
            t = EvalTable(rng.uniform(-1.0, 1.0, size=(n_rows, n_cols)), bound=1.0)
            s, r = -0.3, 0.3
        else:
            t = EvalTable(rng.integers(0, 2, size=(n_rows, n_cols)).astype(float), bound=1.0)
            s, r = 0.0, 1.0
        res = max_ladder(t, ThresholdPair(s, r))
        length, rows, cols = orc.lexfirst_max_ladder(t, s, r)
        assert res.exact, seed
        assert (res.length, res.witness.rows, res.witness.cols) == (length, rows, cols), seed


def _square_tables(seeds):
    return [pytest.param(random_table(n, n, model, seed=[seed, n, 16]),
                         TH if model == "bernoulli" else ThresholdPair(-0.3, 0.3),
                         id=f"{model}{n}-{seed}")
            for (model, n), shape_seeds in seeds.items() for seed in shape_seeds]


def _ladder_masks(t, th):
    # the forward search's lists, `>= r` by column and `<= s` by row
    masks = ThresholdMasks(t)
    return masks[ge, th.r, True], masks[le, th.s, False]


def _two_orientation_tables():
    # tables whose forward search outruns the first slice of the budget
    return _square_tables({("bernoulli", 20): (0, 2, 3), ("bernoulli", 24): (0, 1, 2, 3),
                           ("uniform", 24): (0, 3), ("uniform", 28): (0, 1, 2, 3)})


def _first_slice_tables():
    # tables whose forward search outran the first slice before the ladder
    # search cut rows and children ahead of descending
    return _square_tables({("bernoulli", 16): (0, 1), ("bernoulli", 20): (1,),
                           ("uniform", 20): (0, 1), ("uniform", 24): (1,)})


@pytest.mark.parametrize("t, th", _first_slice_tables())
def test_ladder_first_slice_suffices(t, th):
    ge_by_col, le_by_row = _ladder_masks(t, th)
    length, rows, cols, exact = backend.ladder_search(ge_by_col, le_by_row, op._LADDER_SLICE)
    assert exact
    res = max_ladder(t, th)
    assert (res.length, res.witness.rows, res.witness.cols, res.exact) == (length, rows, cols, exact)
    assert max_ladder(transpose(t), th).length == length


@pytest.mark.parametrize("t, th", _two_orientation_tables())
def test_ladder_two_orientations_match_one_pass(t, th):
    ge_by_col, le_by_row = _ladder_masks(t, th)
    assert not backend.ladder_search(ge_by_col, le_by_row, op._LADDER_SLICE)[3]
    length, rows, cols, exact = backend.ladder_search(ge_by_col, le_by_row, op.DEFAULT_EXACT_LIMIT)
    res = max_ladder(t, th)
    assert (res.length, res.witness.rows, res.witness.cols, res.exact) == (length, rows, cols, exact)
    flipped = max_ladder(transpose(t), th)
    if res.exact and flipped.exact:
        assert flipped.length == res.length
    assert flipped.witness.is_valid(transpose(t))


def test_ladder_search_budget_monotone():
    # cut rows spend no node and every (i, j) tried costs one, so a larger
    # budget walks a longer prefix of the same search
    budgets = (10, 100, 10**3, 10**4, 10**6)
    for n in (8, 12, 16):
        for seed in range(3):
            for model, th in (("bernoulli", TH), ("uniform", ThresholdPair(-0.3, 0.3))):
                t = random_table(n, n, model, seed=[seed, n, 17])
                ge_by_col, le_by_row = _ladder_masks(t, th)
                results = [backend.ladder_search(ge_by_col, le_by_row, b) for b in budgets]
                for small, large in zip(results, results[1:]):
                    assert small[0] <= large[0], (n, seed, model)
                for k, res in enumerate(results):
                    if res[3]:
                        assert all(later == res for later in results[k:]), (n, seed, model)
                assert results[-1][3], (n, seed, model)


def _ladder_digest_calls():
    # seeded Bernoulli and uniform tables of 2x2 to 14x17, in both
    # orientations, at budgets that leave about a quarter of the calls inexact
    for seed in range(120):
        rng = np.random.default_rng([seed, 24])
        n_rows, n_cols = (int(x) for x in rng.integers(2, [15, 18]))
        model = ("bernoulli", "uniform")[seed % 2]
        th = TH if model == "bernoulli" else ThresholdPair(-0.3, 0.3)
        masks = ThresholdMasks(random_table(n_rows, n_cols, model, seed=[seed, 24]))
        for by_col in (True, False):
            ge_by, le_by = masks[ge, th.r, by_col], masks[le, th.s, not by_col]
            for budget in (5, 30, 200, 2_000, 10**5):
                for floor, cap in ((0, None), (1, None), (2, 4)):
                    yield ge_by, le_by, budget, floor, cap


def test_ladder_search_frozen_digest():
    # (length, rows, cols, exact) of 3,600 calls, 1,028 of them budget-bound:
    # a column a state's later rows skip must still cost its node, so every
    # result, inexact ones included, stays as it was before the column filter
    h = hashlib.sha256()
    inexact = 0
    for args in _ladder_digest_calls():
        res = backend.ladder_search(*args)
        inexact += not res[3]
        h.update(repr(res).encode())
    assert inexact == 1028
    assert h.hexdigest() == "8e667377fbff58a3db88319eeac1be8c6ecd1b088d24f158fe5f7e54812f5f64"


@pytest.mark.parametrize("seed, length", [(0, 10), (1, 9)])
def test_ladder_bernoulli_32x32_exact(seed, length):
    t = random_table(32, 32, "bernoulli", seed=[seed, 32, 16])
    res = max_ladder(t, TH)
    assert (res.length, res.exact) == (length, True)
    assert res.witness.is_valid(t) and res.witness.length == length


@settings(max_examples=40, deadline=None)
@given(binary_tables(5, 5))
def test_ladder_orientation_invariant(rows):
    t = EvalTable(np.array(rows), bound=1.0)
    res, flipped = max_ladder(t, TH), max_ladder(transpose(t), TH)
    assert res.exact and flipped.exact
    assert res.length == flipped.length


@pytest.mark.parametrize("exact_limit", [10, 5_000, 15_000, 10**6])
def test_ladder_passes_share_one_budget(monkeypatch, exact_limit):
    budgets = []
    search = backend.ladder_search

    def recorded(ge_by_col, le_by_row, budget, *args, **kwargs):
        budgets.append(budget)
        return search(ge_by_col, le_by_row, budget, *args, **kwargs)

    monkeypatch.setattr(backend, "ladder_search", recorded)
    t = half_graph(65)
    res = max_ladder(t, TH, exact_limit)
    assert sum(budgets) <= exact_limit
    assert res.witness.is_valid(t)
    assert res.length == 65 if res.exact else res.length <= 65
    assert res.exact == (exact_limit == 10**6)


@pytest.mark.parametrize("n", [63, 64, 65])
def test_floored_ladder_half_graph(n):
    t = half_graph(n)
    masks = ThresholdMasks(t)
    res = op._ladder(masks, TH, op.DEFAULT_EXACT_LIMIT, floor=n)
    assert (res.length, res.witness, res.exact) == (n, None, True)
    res = op._ladder(masks, TH, op.DEFAULT_EXACT_LIMIT, floor=n - 1)
    assert (res.length, res.exact) == (n, True)
    assert res.witness == max_ladder(t, TH).witness


def test_floored_ladder_probe_proves_floor(monkeypatch):
    # at floor 7, the maximum, the forward search outruns its first slice
    # and the transposed probe proves that no ladder is longer: no rerun
    t = transpose(random_table(18, 18, "bernoulli", seed=[0, 18, 99]))
    full = max_ladder(t, TH)
    assert (full.length, full.exact) == (7, True)
    masks = ThresholdMasks(t)
    passes = []
    search = backend.ladder_search

    def recorded(*args, **kwargs):
        res = search(*args, **kwargs)
        passes.append(res[3])
        return res

    monkeypatch.setattr(backend, "ladder_search", recorded)
    res = op._ladder(masks, TH, op.DEFAULT_EXACT_LIMIT, floor=7)
    assert (res.length, res.witness, res.exact) == (7, None, True)
    assert passes == [False, True]
    res = op._ladder(masks, TH, op.DEFAULT_EXACT_LIMIT, floor=6)
    assert (res.length, res.witness, res.exact) == (7, full.witness, True)


def test_alternation_witness_validity(tbl):
    t = tbl([[0.0, 1.0], [0.0, 0.0]], bound=1.0)
    w = AlternationWitness("ii", ((0, 0), (1, 1)), E1)
    assert w.is_valid(t)
    flat = tbl([[0.5, 0.5], [0.5, 0.5]], bound=1.0)
    assert not AlternationWitness("ii", ((0, 0), (1, 1)), E1).is_valid(flat)


def test_alternation_witness_rejects_duplicates(tbl):
    t = tbl([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    w = AlternationWitness("ii", ((0, 0), (0, 1)), E1)
    assert w.first_violation(t) == (None, "duplicate row index")


def test_alternation_half_graph():
    for n in (3, 4, 5):
        t = half_graph(n)
        assert alternation_rank(t, E1, "ii").rank == n
        assert alternation_rank(t, E1, "iii").rank == n


def test_alternation_ii_stops_at_row_col_cap():
    # a clique takes at most one cell per row and column, so rank 6 on the
    # 64x6 table ends the search without proving optimality node by node
    t = full_pattern(6)
    res = alternation_rank(t, Epsilon(0.5), "ii")
    assert (res.rank, res.exact) == (6, True)
    assert res.witness.is_valid(t)


def test_alternation_identity(tbl):
    t = tbl(np.eye(3))
    assert alternation_rank(t, E1, "ii").rank == 3


def test_alternation_unknown_variant():
    with pytest.raises(ValueError):
        alternation_rank(half_graph(3), E1, "iv")


@settings(max_examples=40, deadline=None)
@given(binary_tables())
def test_alternation_matches_oracles(rows):
    t = EvalTable(np.array(rows), bound=1.0)
    assert alternation_rank(t, E1, "ii").rank == orc.brute_alternation_ii(t, 1.0)
    assert alternation_rank(t, E1, "iii").rank == orc.brute_alternation_iii(t, 1.0)


def test_alternation_witnesses_validate(tbl):
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = tbl(rng.integers(0, 2, size=(4, 5)).astype(float), bound=1.0)
        for variant in ("ii", "iii"):
            res = alternation_rank(t, E1, variant)
            assert res.witness.is_valid(t)
            assert res.witness.length == res.rank


def test_alternation_ii_witness_is_lexfirst():
    # an exact search returns the first maximum-size cell set in ascending
    # cell order, the witness the frozen report digests carry
    for seed in range(300):
        rng = np.random.default_rng([seed, 6])
        n_rows = int(rng.integers(1, 6))
        n_cols = int(rng.integers(1, 20 // n_rows + 1))
        if seed % 3 == 2:
            t = EvalTable(rng.uniform(-1.0, 1.0, size=(n_rows, n_cols)), bound=1.0)
            eps = 0.4
        else:
            t = EvalTable(rng.integers(0, 2, size=(n_rows, n_cols)).astype(float), bound=1.0)
            eps = (0.5, 1.0)[seed % 3]
        res = alternation_rank(t, Epsilon(eps), "ii")
        rank, pairs = orc.lexfirst_alternation_ii(t, eps)
        assert res.exact, seed
        assert (res.rank, res.witness.pairs) == (rank, pairs), seed


@pytest.mark.parametrize("seed", [0, 1])
def test_alternation_ii_bernoulli_16x16_exact(seed):
    t = random_table(16, 16, "bernoulli", seed=[seed, 16, 99])
    res = alternation_rank(t, E1, "ii")
    assert (res.rank, res.exact) == (10, True)
    assert res.witness.is_valid(t) and res.witness.length == 10


def test_clique_search_budget_monotone():
    # the cuts only drop subtrees, so a larger budget walks a longer prefix
    # of the same search and its clique never shrinks
    t = random_table(16, 16, "bernoulli", seed=[0, 16, 99])
    adj = op.alternation_ii_adjacency(t, E1)
    budgets = (10, 100, 10**3, 10**4, 10**5, 10**6)
    results = [backend.clique_search(adj, b, 16, t.n_cols) for b in budgets]
    for small, large in zip(results, results[1:]):
        assert small[0] <= large[0], results
    assert not results[0][2] and results[-1][2]
    for k, res in enumerate(results):
        if res[2]:
            assert all(later == res for later in results[k:])


def test_alternation_ii_adjacency_matches_definition(tbl):
    rng = np.random.default_rng(11)
    tables = [rng.uniform(-1.0, 1.0, size=(5, 6)),
              rng.integers(0, 2, size=(6, 4)).astype(float),
              rng.integers(0, 2, size=(3, 70)).astype(float)]
    tables.append(tables[-1].T)
    for vals in tables:
        t = tbl(vals, bound=1.0)
        for eps in (0.4, 1.0):
            adj = op.alternation_ii_adjacency(t, Epsilon(eps))
            n_rows, n_cols = vals.shape
            for v in range(n_rows * n_cols):
                i1, j1 = divmod(v, n_cols)
                want = 0
                for i2 in range(n_rows):
                    for j2 in range(n_cols):
                        if i2 != i1 and j2 != j1 and abs(vals[i1, j2] - vals[i2, j1]) >= eps:
                            want |= 1 << (i2 * n_cols + j2)
                assert adj[v] == want, (vals.shape, eps, v)


def test_alternation_iii_masks_match_per_column_build(tbl):
    rng = np.random.default_rng(12)
    tables = [rng.uniform(-1.0, 1.0, size=(5, 6)),
              rng.integers(0, 2, size=(6, 4)).astype(float),
              rng.integers(0, 2, size=(3, 70)).astype(float)]
    tables.append(tables[-1].T)
    tables.append(rng.uniform(-1.0, 1.0, size=(128, 128)))
    for vals in tables:
        t = tbl(vals, bound=1.0)
        for eps in (0.4, 1.0):
            want = [bitmasks(np.abs(vals - vals[:, [j]]) >= eps) for j in range(t.n_cols)]
            assert op.alternation_iii_masks(t, Epsilon(eps)) == want, (vals.shape, eps)


def test_alternation_iii_witness_is_lexfirst():
    # an exact search returns the first maximum-length sequence in
    # ascending (i, j) order, the witness the frozen report digests carry
    for seed in range(330):
        rng = np.random.default_rng([seed, 4])
        n_rows = int(rng.integers(1, 6))
        n_cols = int(rng.integers(1, 20 // n_rows + 1))
        if seed % 3 == 2:
            t = EvalTable(rng.uniform(-1.0, 1.0, size=(n_rows, n_cols)), bound=1.0)
            eps = 0.4
        else:
            t = EvalTable(rng.integers(0, 2, size=(n_rows, n_cols)).astype(float), bound=1.0)
            eps = (0.5, 1.0)[seed % 3]
        res = alternation_rank(t, Epsilon(eps), "iii")
        rank, pairs = orc.lexfirst_alternation_iii(t, eps)
        assert res.exact, seed
        assert (res.rank, res.witness.pairs) == (rank, pairs), seed
        # the length pass alone, with the first pair's row left open; its
        # tail leaves a row for the first pair, and any such row will do
        sep_by_col = op.alternation_iii_masks(t, Epsilon(eps))
        cap = min(n_rows, n_cols)
        pairs, _, exact = backend._iii_pass(sep_by_col, n_cols, 10**6, 0, cap, True)
        assert exact and len(pairs) == orc.brute_alternation_iii(t, eps), seed
        assert pairs[0][0] == -1 and len(pairs) - 1 < n_rows
        free = min(set(range(n_rows)).difference(i for i, _ in pairs[1:]))
        w = AlternationWitness("iii", ((free, pairs[0][1]),) + pairs[1:], Epsilon(eps))
        assert w.is_valid(t), seed


def _iii_digest_tables():
    for seed in range(300):
        rng = np.random.default_rng([seed, 20])
        n_rows, n_cols = (int(x) for x in rng.integers(6, 13, size=2))
        if seed % 3 == 0:
            yield EvalTable(rng.integers(0, 2, size=(n_rows, n_cols)).astype(float)), 1.0
        else:
            yield EvalTable(rng.uniform(-1.0, 1.0, size=(n_rows, n_cols))), (0.4, 0.8)[seed % 3 - 1]


def test_alternation_iii_frozen_digest():
    # (rank, pairs, exact) of the witness search alone on 300 seeded tables
    # of 6x6 to 12x12, every one exact; the length pass must not change them
    h = hashlib.sha256()
    for t, eps in _iii_digest_tables():
        res = alternation_rank(t, Epsilon(eps), "iii")
        h.update(repr((res.rank, res.witness.pairs, res.exact)).encode())
    assert h.hexdigest() == "f5620bc9b7c79874a07bc15ea476c417a0a00000247ab2389ce18d479737e086"


@pytest.mark.parametrize("model, eps", [("bernoulli", 1.0), ("uniform", 0.4)])
def test_alternation_iii_random_16x16_exact(model, eps):
    for seed in range(2):
        t = random_table(16, 16, model, seed=[seed, 16, 99])
        res = alternation_rank(t, Epsilon(eps), "iii")
        assert res.exact, seed
        assert res.witness.is_valid(t) and res.witness.length == res.rank
        # the length pass proves these in 23,000-120,000 nodes in all, where
        # the witness search alone takes 200,000-900,000
        assert alternation_rank(t, Epsilon(eps), "iii", exact_limit=150_000) == res


# from 75,000 nodes on the length pass proves length 10 and the witness pass
# runs again; at 75,000 that rerun runs out, so the result is the length
# pass's sequence with its row filled
@pytest.mark.parametrize("limit", [10, 300, 2_000, 75_000, 10**6])
def test_alternation_iii_passes_share_the_budget(monkeypatch, limit):
    passes = []
    real = backend._iii_pass

    def counted(sep_by_col, n_cols, budget, *args):
        pairs, nodes, exact = real(sep_by_col, n_cols, budget, *args)
        passes.append(nodes)
        return pairs, nodes, exact

    monkeypatch.setattr(backend, "_iii_pass", counted)
    t = random_table(16, 16, "uniform", seed=[0, 16, 99])
    res = alternation_rank(t, Epsilon(0.4), "iii", exact_limit=limit)
    assert sum(passes) <= limit
    assert res.witness.is_valid(t) and res.witness.length == res.rank
    assert len(passes) == (1 if limit <= backend._III_SLICE else 3 if limit >= 75_000 else 2)
    assert res.exact == (limit == 10**6)
    if limit >= 75_000:
        assert res.rank == 10


@pytest.mark.parametrize("t, rank", [(half_graph(8), 8), (full_pattern(5), 5)])
def test_alternation_iii_closed_forms_exact(t, rank):
    res = alternation_rank(t, E1, "iii")
    assert (res.rank, res.exact) == (rank, True)
    assert res.witness.is_valid(t)


@pytest.mark.parametrize("model, eps", [("bernoulli", 1.0), ("uniform", 0.4)])
def test_alternation_iii_random_8x8_exact(model, eps):
    for seed in range(3):
        t = random_table(8, 8, model, seed=[seed, 8])
        res = alternation_rank(t, Epsilon(eps), "iii")
        assert res.exact, seed
        assert res.witness.is_valid(t) and res.witness.length == res.rank


def test_alternation_iii_budget_stop():
    t = random_table(16, 16, "uniform", seed=16)
    res = alternation_rank(t, Epsilon(0.4), "iii", exact_limit=10_000)
    assert not res.exact
    assert res.witness.is_valid(t) and res.witness.length == res.rank >= 2


def test_alternation_iii_past_64_cols():
    # only row 1 separates two columns, and only through column 66
    t = np.zeros((3, 70))
    t[1, 66] = 1.0
    t = EvalTable(t, bound=1.0)
    res = alternation_rank(t, E1, "iii")
    assert (res.rank, res.exact) == (3, True)
    assert res.witness.is_valid(t)
    assert 66 in (j for _, j in res.witness.pairs)

    # transposed, the middle row must be row 66
    tt = transpose(t)
    res = alternation_rank(tt, E1, "iii")
    assert (res.rank, res.exact) == (3, True)
    assert res.witness.is_valid(tt)
    assert res.witness.pairs[1][0] == 66


def test_stability_spectrum_half_graph():
    spec = stability_spectrum(half_graph(4), max_len=5)
    assert spec == [(2, 1.0), (3, 1.0), (4, 1.0), (5, None)]


def test_stability_spectrum_graded(tbl):
    # wider gaps only support shorter ladders
    t = tbl([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.6, 0.6, 0.0]], bound=1.0)
    spec = dict(stability_spectrum(t, max_len=3))
    assert spec[2] == 1.0
    assert spec[3] == 0.6


def _spectrum_tables():
    tables = [(f"u{n}x{n}", random_table(n, n, "uniform", seed=[n, 9])) for n in range(6, 11)]
    for digits in (0, 1):
        vals = np.round(random_table(8, 8, "uniform", seed=[digits, 10]).entries, digits)
        tables.append((f"round{digits}", EvalTable(vals, bound=1.0)))
    for r, c in ((8, 8), (12, 8), (8, 12)):
        tables.append((f"b{r}x{c}", random_table(r, c, "bernoulli", seed=[r, c, 11])))
    # values 0..4: many pairs tie on their gap and many ladders share a pair
    for n in (9, 11):
        vals = np.random.default_rng([n, 12]).integers(0, 5, size=(n, n))
        tables.append((f"int{n}x{n}", EvalTable(vals, bound=4.0)))
    tables += [(f"u{n}x{n}", random_table(n, n, "uniform", seed=[n, 9])) for n in (11, 12)]
    return [pytest.param(t, id=name) for name, t in tables]


@pytest.mark.parametrize("t", _spectrum_tables())
def test_stability_spectrum_matches_allpairs(t):
    max_len = min(t.n_rows, t.n_cols)
    assert stability_spectrum(t, max_len) == orc.allpairs_spectrum(t, max_len)


def test_stability_spectrum_constant_table_has_no_gaps(tbl):
    t = tbl(np.full((4, 5), 0.25), bound=1.0)
    assert stability_spectrum(t, 4) == orc.allpairs_spectrum(t, 4) == [(2, None), (3, None), (4, None)]


def test_stability_spectrum_call_count(monkeypatch):
    t = random_table(10, 10, "uniform", seed=[1, 9])
    n_values = len(np.unique(t.entries))
    calls = []
    ladder = op._ladder

    def counted(*args, **kwargs):
        calls.append(args[1])
        return ladder(*args, **kwargs)

    monkeypatch.setattr(op, "_ladder", counted)
    stability_spectrum(t, 10)
    assert calls
    assert len(calls) <= 3 * n_values
    assert len(set(calls)) == len(calls)  # memoized: each pair at most once


@pytest.mark.parametrize("n", [8, 10])
def test_stability_spectrum_sound_under_tiny_budget(monkeypatch, n):
    # with 30 nodes many calls run out; each call asks only for ladders
    # longer than its floor, so an exact call either shows the true length
    # or proves the true length is at most the floor, and every gap comes
    # from a real ladder
    t = random_table(n, n, "uniform", seed=[n, 9])
    calls = []
    ladder = op._ladder

    def recorded(*args, **kwargs):
        res = ladder(*args, **kwargs)
        calls.append((args[1], kwargs["floor"], res))
        return res

    monkeypatch.setattr(op, "_ladder", recorded)
    spectrum = stability_spectrum(t, n, exact_limit=30)
    monkeypatch.undo()
    assert any(not res.exact for _, _, res in calls)
    for th, floor, res in calls:
        if not res.exact:
            continue
        if res.witness is not None:
            assert res.length == max_ladder(t, th).length, th
        else:
            assert max_ladder(t, th).length <= floor, th
    values = sorted(set(t.entries.ravel().tolist()))
    truth = dict(orc.allpairs_spectrum(t, n))
    for length, gap in spectrum:
        if gap is None:
            continue
        assert truth[length] is not None and gap <= truth[length], length
        pairs = [(s, r) for k, s in enumerate(values) for r in values[k + 1 :] if r - s == gap]
        assert any(orc.brute_max_ladder(t, s, r) >= length for s, r in pairs), length


@pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65])
def test_stability_spectrum_transposed_half_graph(n):
    # two values, so one exact ladder call across the 32- and 64-bit widths
    spec = stability_spectrum(transpose(half_graph(n)), n + 1)
    assert spec == [(l, 1.0) for l in range(2, n + 1)] + [(n + 1, None)]


def _spectrum_digest_tables():
    for n in range(6, 11):
        for seed in range(4):
            yield random_table(n, n, "uniform", seed=[seed, n, 26])
    for digits in (0, 1, 2):
        for seed in range(2):
            vals = np.round(random_table(9, 9, "uniform", seed=[seed, digits, 26]).entries, digits)
            yield EvalTable(vals, bound=1.0)
    for n in (7, 9, 11):
        vals = np.random.default_rng([n, 26]).integers(0, 5, size=(n, n))
        yield EvalTable(vals, bound=4.0)
    # -0.0 and 0.0 are one threshold value
    rng = np.random.default_rng([9, 27])
    vals = rng.integers(-2, 3, size=(9, 9)).astype(float)
    vals[(vals == 0) & (rng.random((9, 9)) < 0.5)] = -0.0
    yield EvalTable(vals, bound=2.0)
    for r, c in ((8, 8), (12, 8), (8, 12)):
        for seed in range(2):
            yield random_table(r, c, "bernoulli", seed=[seed, r, c, 26])
    for n in (31, 32, 33, 63, 64, 65):
        yield transpose(half_graph(n))


def test_stability_spectrum_frozen_digest(monkeypatch):
    # the spectra of 42 tables, every ladder call behind them exact; the mask
    # sweep and the kernel's early return must not change them
    exact = []
    ladder = op._ladder

    def recorded(*args, **kwargs):
        res = ladder(*args, **kwargs)
        exact.append(res.exact)
        return res

    monkeypatch.setattr(op, "_ladder", recorded)
    h = hashlib.sha256()
    for t in _spectrum_digest_tables():
        h.update(repr(stability_spectrum(t, min(t.n_rows, t.n_cols) + 1)).encode())
    assert len(exact) == 3603 and all(exact)
    assert h.hexdigest() == "1f70e9482b58d298b4314c6d5333ff754195d9f4a5d137d46299bf446290e444"


def _exact_values(t: EvalTable, th: ThresholdPair, e: Epsilon) -> dict[str, float]:
    """The value of each detector that permuting rows and columns keeps,
    for the detectors whose result on `t` is exact."""
    ladder = max_ladder(t, th)
    ii, iii = alternation_rank(t, e, "ii"), alternation_rank(t, e, "iii")
    primal, dual = shattering_dimension(t, th), shattering_dimension(transpose(t), th)
    results = {
        "ladder": (ladder.length, ladder.exact),
        "ii": (ii.rank, ii.exact),
        "iii": (iii.rank, iii.exact),
        "primal": (primal.dim, primal.exact),
        "dual": (dual.dim, dual.exact),
        "strict_chain": (strict_chain(t, e).m, True),
        "shattered_pairs": (shattered_tuple_fraction(t, range(t.n_rows), 2, th), True),
    }
    for k in (1, 2):
        for distinct in (False, True):
            count = dk_count(t, range(t.n_rows), k, th, distinct_coords=distinct).count
            results[f"dk_count k={k} distinct={distinct}"] = (count, True)
    return {name: value for name, (value, exact) in results.items() if exact}


@pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65])
@pytest.mark.parametrize("model, th, eps", [
    ("bernoulli", TH, 1.0),
    ("uniform", ThresholdPair(-0.25, 0.25), 0.5),
])
def test_permuted_and_transposed_tables_keep_exact_values(n, model, th, eps):
    # n x 5 and 5 x n put the 32- and 64-bit mask boundaries in the rows and
    # in the columns; iii's memo keys hold both
    for shape in ((n, 5), (5, n)):
        t = random_table(*shape, model, seed=[n, *shape])
        rng = np.random.default_rng([n, *shape])
        entries = t.entries[rng.permutation(t.n_rows)][:, rng.permutation(t.n_cols)]
        want = _exact_values(t, th, Epsilon(eps))
        got = _exact_values(EvalTable(entries, bound=t.bound), th, Epsilon(eps))
        both = want.keys() & got.keys()
        assert "strict_chain" in both and len(both) >= 4, (shape, both)
        assert {k: got[k] for k in both} == {k: want[k] for k in both}, shape
        ladder_t = max_ladder(transpose(t), th)
        if "ladder" in want and ladder_t.exact:
            assert ladder_t.length == want["ladder"], shape
        # Mazur's optimum does not depend on the order of the rows
        perm, target = rng.permutation(t.n_rows), rng.uniform(-1.0, 1.0, t.n_rows)
        permuted = EvalTable(t.entries[perm], bound=t.bound)
        achieved = [mazur_approximate(u, range(t.n_cols), y).achieved
                    for u, y in ((t, target), (permuted, target[perm]))]
        assert abs(achieved[0] - achieved[1]) <= 1e-9, shape


def _detector_values(t: EvalTable, th: ThresholdPair) -> list[tuple[int, bool]]:
    ladder = max_ladder(t, th)
    primal, dual = shattering_dimension(t, th), shattering_dimension(transpose(t), th)
    return [(ladder.length, ladder.exact), (primal.dim, primal.exact), (dual.dim, dual.exact)]


def _metamorphic_tables():
    for n in (8, 10):
        for seed in range(2):
            yield random_table(n, n, "uniform", seed=[seed, n, 28])
    for n in (31, 32, 33, 63, 64, 65):
        for shape in ((n, 5), (5, n)):
            yield random_table(*shape, "uniform", seed=[n, *shape, 28])
            vals = np.random.default_rng([n, *shape, 28]).integers(0, 6, size=shape)
            yield EvalTable(vals, bound=5.0)


@pytest.mark.parametrize("t", [pytest.param(t, id=f"{t.n_rows}x{t.n_cols}-{k}")
                               for k, t in enumerate(_metamorphic_tables())])
def test_looser_thresholds_never_lower_ladder_or_shattering(t):
    # raising s or lowering r only adds cells to the `<= s` and `>= r` sets,
    # so no exact ladder length or shattering dimension falls; the spectrum
    # walk relies on it for the ladder length
    values = np.unique(t.entries).tolist()
    rng = np.random.default_rng([t.n_rows, t.n_cols, 29])
    for _ in range(4):
        a, b, c, d = (values[k] for k in np.sort(rng.choice(len(values), 4, replace=False)))
        base = _detector_values(t, ThresholdPair(a, d))
        for s, r in ((b, d), (a, c), (b, c)):
            looser = _detector_values(t, ThresholdPair(s, r))
            for (low, low_exact), (high, high_exact) in zip(base, looser):
                if low_exact and high_exact:
                    assert high >= low, ((a, d), (s, r))


@pytest.mark.parametrize("t", [random_table(10, 10, "uniform", seed=[1, 9]),
                               random_table(8, 12, "bernoulli", seed=[8, 12, 11]),
                               half_graph(4)])
@pytest.mark.parametrize("exact_limit", [30, 10**6])
def test_stability_spectrum_stops_at_first_empty_length(monkeypatch, t, exact_limit):
    # a length with no ladder has no longer ones: past it the spectrum is
    # None without another ladder call, also when calls run out of budget
    floors = []
    ladder = op._ladder

    def recorded(*args, **kwargs):
        floors.append(kwargs["floor"])
        return ladder(*args, **kwargs)

    monkeypatch.setattr(op, "_ladder", recorded)
    short_len = min(t.n_rows, t.n_cols)
    short = stability_spectrum(t, short_len, exact_limit)
    short_floors = floors[:]
    floors.clear()
    spectrum = stability_spectrum(t, 10_000, exact_limit)
    assert spectrum == short + [(length, None) for length in range(short_len + 1, 10_001)]
    first_empty = next(length for length, gap in spectrum if gap is None)
    assert floors == short_floors and max(floors) < first_empty


def test_stability_spectrum_long_max_len_is_cheap():
    # walking 10^5 lengths one by one takes seconds; padding takes
    # hundredths of one
    t = random_table(10, 10, "uniform", seed=[1, 9])
    t0 = time.perf_counter()
    spectrum = stability_spectrum(t, 100_000)
    assert time.perf_counter() - t0 < 1.0
    assert len(spectrum) == 99_999 and spectrum[-1] == (100_000, None)


def test_stability_spectrum_rejects_short():
    with pytest.raises(ValueError):
        stability_spectrum(half_graph(3), max_len=1)


def test_iterated_means_half_graph():
    t = half_graph(6)
    below, above, defect = iterated_means(t, range(6), range(6))
    assert (below, above, defect) == (0.0, 1.0, 1.0)


def test_iterated_means_tail():
    t = half_graph(6)
    full = iterated_means(t, range(6), range(6), tail_fraction=1.0)
    tail = iterated_means(t, range(6), range(6), tail_fraction=0.5)
    assert full == tail == (0.0, 1.0, 1.0)


def test_iterated_means_errors():
    t = half_graph(4)
    with pytest.raises(ValueError):
        iterated_means(t, [0, 1], [0])
    with pytest.raises(ValueError):
        iterated_means(t, [0], [0])
    with pytest.raises(ValueError):
        iterated_means(t, [0, 1], [0, 1], tail_fraction=0.0)


def test_witness_dict_round_trip():
    w = LadderWitness((0, 2), (1, 3), TH)
    assert LadderWitness.from_dict(w.to_dict()) == w
    a = AlternationWitness("iii", ((0, 1), (2, 0)), E1)
    assert AlternationWitness.from_dict(a.to_dict()) == a

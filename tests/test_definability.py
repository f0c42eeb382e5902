from __future__ import annotations

import inspect
import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dividing_lines
import oracles as orc
from dividing_lines import (
    EvalTable,
    cantor_example,
    cesaro_column,
    definability,
    half_graph,
    mazur_approximate,
    random_table,
)
from dividing_lines.errors import BoundViolation, EmptySelection, IndexOutOfRange


def test_cesaro_column_mean():
    t = half_graph(6)
    got = cesaro_column(t, [0, 1, 2, 3])
    want = t.entries[:, :4].mean(axis=1)
    assert np.array_equal(got, want)
    assert got[0] == 0.75
    assert got[5] == 0.0


def test_cesaro_column_validation():
    t = half_graph(3)
    with pytest.raises(EmptySelection):
        cesaro_column(t, [])
    with pytest.raises(IndexOutOfRange):
        cesaro_column(t, [0, 5])


def test_mazur_exact_member_zero():
    t = random_table(6, 5, value_model="uniform", seed=2)
    target = t.entries[:, 3]
    res = mazur_approximate(t, [1, 3, 4], target)
    assert res.achieved == 0.0
    assert res.certified_gap == 0.0
    assert res.weights[1] == 1.0


def test_mazur_two_point_midpoint(tbl):
    t = tbl([[0.0, 1.0], [0.0, 1.0]], bound=1.0)
    res = mazur_approximate(t, [0, 1], [0.5, 0.5])
    assert abs(res.achieved) < 1e-9


def test_mazur_unreachable_target(tbl):
    t = tbl([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], bound=1.0)
    res = mazur_approximate(t, [0, 1], [0.0, 1.0, 0.0])
    # best sup-norm distance to (0,1,0) from the single feasible point (0,0,1)
    assert abs(res.achieved - 1.0) < 1e-9


def test_mazur_weights_form_distribution():
    t = random_table(5, 6, value_model="uniform", seed=7)
    res = mazur_approximate(t, [0, 2, 5], np.zeros(5))
    assert all(w >= 0 for w in res.weights)
    assert abs(sum(res.weights) - 1.0) < 1e-12


def test_mazur_weights_have_no_negative_zero():
    # a basis dual of 0.0 would come back as a -0.0 weight, printed "-0.0"
    rng = np.random.default_rng(5)
    for m, L in [(2, 4), (3, 5), (4, 6)]:
        corpus = cantor_example(m, L)
        for target in (corpus.target, rng.uniform(-1, 1, 1 << L)):
            for cols in itertools.chain(*(itertools.combinations(range(m), r) for r in (1, 2))):
                res = mazur_approximate(corpus.table, cols, target)
                assert all(math.copysign(1.0, w) == 1.0 for w in res.weights), (m, L, cols)


def test_mazur_beats_uniform_baseline():
    rng = np.random.default_rng(13)
    for seed in range(10):
        t = random_table(6, 6, value_model="uniform", seed=seed)
        cols = sorted(rng.choice(6, size=3, replace=False).tolist())
        target = rng.uniform(-1, 1, size=6)
        res = mazur_approximate(t, cols, target)
        A = t.entries[:, cols]
        baseline = float(np.max(np.abs(A @ np.full(3, 1 / 3) - target)))
        assert res.achieved <= baseline + 1e-12


def test_mazur_matches_grid_oracle():
    rng = np.random.default_rng(17)
    for seed in range(8):
        t = random_table(5, 5, value_model="uniform", seed=seed)
        cols = sorted(rng.choice(5, size=3, replace=False).tolist())
        target = rng.uniform(-1, 1, size=5)
        res = mazur_approximate(t, cols, target)
        grid = orc.grid_minimax(t.entries[:, cols], target, step=1e-3)
        assert res.achieved <= grid + 1e-12
        assert grid <= res.achieved + 2e-3


def test_mazur_certified_gap_small():
    t = random_table(7, 4, value_model="uniform", seed=4)
    res = mazur_approximate(t, [0, 1, 2, 3], np.zeros(7), tol=1e-6)
    assert 0.0 <= res.certified_gap <= 1e-6


def test_mazur_validation():
    t = half_graph(4)
    with pytest.raises(EmptySelection):
        mazur_approximate(t, [], np.zeros(4))
    with pytest.raises(IndexOutOfRange):
        mazur_approximate(t, [9], np.zeros(4))
    with pytest.raises(ValueError):
        mazur_approximate(t, [0], np.zeros(3))
    with pytest.raises(ValueError):
        mazur_approximate(t, [0], np.zeros(4), tol=0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BoundViolation, match="target entries must be finite"):
            mazur_approximate(t, [0], [0.0, bad, 0.0, 0.0])


def _oracle_problems():
    """Seeded (A, target) pairs: 0/1 tables and targets, half-integer ties,
    duplicated columns, targets inside the hull and uniform tables, with
    k = 1..16 and n = 1..512, then the Cantor corpus with its limit target."""
    rng = np.random.default_rng(1313)
    sizes = [1, 2, 3, 5, 8, 17, 33, 64, 100, 512]
    for i in range(320):
        kind = i % 5
        k = 1 + (i // 5) % 16
        n = sizes[(i // 3) % len(sizes)]
        if kind == 0:
            A = rng.integers(0, 2, (n, k)).astype(float)
            target = rng.integers(0, 2, n).astype(float)
        elif kind == 1:
            A = rng.integers(-2, 3, (n, k)) / 2
            target = rng.integers(-2, 3, n) / 2
        elif kind == 2:
            A = np.tile(rng.integers(0, 2, (n, (k + 1) // 2)).astype(float), 2)
            target = rng.integers(0, 2, n).astype(float)
        elif kind == 3:
            A = rng.uniform(-1, 1, (n, k))
            target = A @ rng.dirichlet(np.ones(k))
        else:
            A = rng.uniform(-1, 1, (n, k))
            target = rng.uniform(-1, 1, n)
        yield A, target
    for L in range(5, 11):
        corpus = cantor_example(L - 2, L)
        for m in range(1, L - 1):
            yield corpus.table.entries[:, :m], np.asarray(corpus.target, dtype=float)


def _check_against_reference(A, target, tol=1e-9):
    res = mazur_approximate(EvalTable(A, bound=max(1.0, float(np.abs(A).max()))),
                            range(A.shape[1]), target, tol=tol)
    ref = orc.linprog_minimax(A, target)
    assert abs(res.achieved - ref) <= 1e-9
    assert 0.0 <= res.certified_gap <= tol
    # the certificate is a true lower bound on the optimum
    assert res.achieved - res.certified_gap <= ref + 1e-12
    return res


def test_mazur_matches_linprog_oracle():
    count = 0
    for A, target in _oracle_problems():
        _check_against_reference(A, target)
        count += 1
    assert count == 353


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e3, 1e6])
def test_mazur_certifies_at_every_scale(scale):
    # the solver's tolerances are relative to the data; absolute ones fail
    # to certify tol = 1e-9 on these problems at scale 1e-9
    for seed in range(50):
        rng = np.random.default_rng([seed, 30, 5])
        A = rng.uniform(-1, 1, (30, 5))
        target = rng.uniform(-1, 1, 30)
        res = mazur_approximate(EvalTable(A * scale), range(5), target * scale, tol=1e-9)
        assert res.certified_gap <= 1e-9
        assert abs(res.achieved / scale - orc.linprog_minimax(A, target)) <= 1e-9


@pytest.mark.parametrize("kind", ["uniform", "binary"])
def test_mazur_large_problems_certify(kind):
    rng = np.random.default_rng(200)
    if kind == "uniform":
        A = rng.uniform(-1, 1, (200, 200))
        target = rng.uniform(-1, 1, 200)
    else:
        A = rng.integers(0, 2, (256, 128)).astype(float)
        target = rng.integers(0, 2, 256).astype(float)
    start = time.perf_counter()
    _check_against_reference(A, target)
    assert time.perf_counter() - start < 10.0


def test_mazur_list_and_array_pivots_agree(monkeypatch):
    # the same simplex on Python lists (few candidates) and on numpy arrays
    # (many): every third oracle problem, both ways, certified and equal
    problems = list(_oracle_problems())[::3]
    runs = []
    for limit in (10**9, 0):
        monkeypatch.setattr(definability, "_LIST_CANDIDATES", limit)
        runs.append([_check_against_reference(A, target) for A, target in problems])
    for on_lists, on_arrays in zip(*runs):
        assert abs(on_lists.achieved - on_arrays.achieved) <= 1e-12


def test_mazur_duplicated_columns_constant_target():
    # every candidate appears three times, so rows of the standard form
    # repeat and the start vertex ties in every ratio test
    for seed in range(30):
        rng = np.random.default_rng([seed, 3])
        n = int(rng.integers(2, 70))
        A = np.tile(rng.choice([0.0, 0.5, 1.0], (n, int(rng.integers(1, 6)))), 3)
        for c in (0.0, 0.25, 0.5, 1.0, 2.0):
            target = np.full(n, c)
            if not any(np.array_equal(A[:, j], target) for j in range(A.shape[1])):
                _check_against_reference(A, target)


def _count_line_runs(func, marker, call):
    """Run call() and count how often the line of func holding marker ran."""
    lines, first = inspect.getsourcelines(func)
    lineno = first + next(i for i, line in enumerate(lines) if marker in line)
    code = func.__code__
    runs = 0

    def local(frame, event, arg):
        nonlocal runs
        if event == "line" and frame.f_lineno == lineno:
            runs += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return runs


def test_mazur_degenerate_solves_switch_to_bland():
    # +-1 and 0/1 tables with a constant target: the start y = 0 is a vertex
    # where every row is tight, and on some seeds Dantzig pricing makes
    # k + 1 degenerate pivots in a row, so Bland's rule picks the next ones
    problems = []
    for seed in range(20):
        rng = np.random.default_rng([seed, 24])
        problems.append((rng.choice([-1.0, 1.0], (24, 8)), np.zeros(24)))
        problems.append((rng.choice([0.0, 1.0], (22, 8)), np.full(22, 0.5)))

    def solve_all():
        for A, target in problems:
            _check_against_reference(A, target)

    assert _count_line_runs(definability._chebyshev_dual, "improving[0]", solve_all) > 0


def test_mazur_and_cli_leave_scipy_unloaded(tmp_path):
    src = str(Path(dividing_lines.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    table, target, out = (str(tmp_path / name) for name in ("t.json", "tgt.json", "m.json"))
    (tmp_path / "tgt.json").write_text('{"target": [1.0, 1.0, 1.0, 0.0]}')
    code = (
        "import sys\n"
        "from dividing_lines import half_graph, mazur_approximate\n"
        "from dividing_lines.cli import run_cli\n"
        "mazur_approximate(half_graph(4), [1, 2, 3], [1.0, 1.0, 1.0, 0.5])\n"
        "table, target, out = sys.argv[1:]\n"
        "codes = [run_cli(['generate', '--kind', 'half_graph', '--n', '4', '--out', table]),\n"
        "         run_cli(['mazur', '--table', table, '--cols', '1,2,3', '--target', target,\n"
        "                  '--out', out])]\n"
        "print(codes, any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    res = subprocess.run([sys.executable, "-c", code, table, target, out], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[0, 0] False"


def test_import_leaves_scipy_unloaded():
    # the library itself never imports scipy
    src = str(Path(dividing_lines.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, dividing_lines; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"

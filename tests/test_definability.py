from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dividing_lines
import oracles as orc
from dividing_lines import cesaro_column, half_graph, mazur_approximate, random_table
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


def test_import_leaves_scipy_unloaded():
    # scipy.optimize is imported on the first mazur_approximate call only
    src = str(Path(dividing_lines.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, dividing_lines; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"

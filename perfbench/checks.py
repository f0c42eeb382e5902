"""Reference computations the benchmark checks the library against.

Nothing here calls a dividing_lines search.  Witnesses are re-checked with
numpy straight from their defining inequalities; expected values come from
closed forms, from the brute-force oracles in ``tests/oracles.py`` or from
small direct enumerations written here.  Each function is cheap only on
the inputs the workloads hand it (few columns, or few rows).
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

import oracles as orc


# ---- witnesses ------------------------------------------------------------

def ladder_witness_ok(entries: np.ndarray, rows, cols, s: float, r: float) -> bool:
    rows, cols = list(rows), list(cols)
    n = len(rows)
    if n != len(cols) or len(set(rows)) != n or len(set(cols)) != n:
        return False
    sub = entries[np.ix_(rows, cols)]
    below = np.tril(np.ones((n, n), dtype=bool), -1)
    above = np.triu(np.ones((n, n), dtype=bool), 1)
    return bool(np.all(sub[below] >= r) and np.all(sub[above] <= s))


def alternation_witness_ok(entries: np.ndarray, variant: str, pairs, eps: float) -> bool:
    rows = [int(p[0]) for p in pairs]
    cols = [int(p[1]) for p in pairs]
    n = len(pairs)
    if len(set(rows)) != n or len(set(cols)) != n:
        return False
    sub = entries[np.ix_(rows, cols)]  # sub[u, v] = T[i_u][j_v]
    if variant == "ii":
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        return bool(np.all(np.abs(sub - sub.T)[upper] >= eps))
    for u in range(1, n - 1):
        gaps = np.abs(sub[u, :u][:, None] - sub[u, u + 1:][None, :])
        if np.any(gaps < eps):
            return False
    return True


def shatter_witness_ok(entries: np.ndarray, cols, selector: dict, s: float, r: float) -> bool:
    cols = list(cols)
    k = len(cols)
    for pattern in range(1 << k):
        row = selector.get(pattern)
        if row is None:
            return False
        vals = entries[int(row), cols]
        low = np.array([(pattern >> b) & 1 for b in range(k)], dtype=bool)
        if not (np.all(vals[low] <= s) and np.all(vals[~low] >= r)):
            return False
    return True


def chain_witness_ok(entries: np.ndarray, cols, rows, eps: float) -> bool:
    cols, rows = list(cols), list(rows)
    m = len(cols)
    if len(set(cols)) != m or len(set(rows)) != m or len(rows) != m:
        return False
    for a, b in zip(cols, cols[1:]):
        if not np.all(entries[:, a] <= entries[:, b]):
            return False
    for t in range(m):
        for u in range(t + 1, m):
            if not (entries[rows[u], cols[t]] + eps < entries[rows[t], cols[u]]):
                return False
    return True


def report_witness_ok(entries: np.ndarray, section: str, w: dict) -> bool:
    """Re-check one witness dict of a classify report (dual shattering
    witnesses certify the transposed table)."""
    kind = w["kind"]
    if kind == "ladder":
        return ladder_witness_ok(entries, w["rows"], w["cols"], w["s"], w["r"])
    if kind == "alternation":
        return alternation_witness_ok(entries, w["variant"], w["pairs"], w["eps"])
    if kind == "shatter":
        target = entries.T if section == "shattering_dual" else entries
        selector = {int(p): row for p, row in w["selector"].items()}
        return shatter_witness_ok(target, w["cols"], selector, w["s"], w["r"])
    if kind == "chain":
        return chain_witness_ok(entries, w["cols"], w["rows"], w["eps"])
    return False


# ---- expected values ------------------------------------------------------

def _ladder_by_column_sequences(entries: np.ndarray, s: float, r: float) -> int:
    high = entries >= r
    low = entries <= s
    n_cols = entries.shape[1]
    best = 1

    def feasible(cols) -> bool:
        n = len(cols)
        cands = []
        for k in range(n):
            ok = np.ones(entries.shape[0], dtype=bool)
            for l, c in enumerate(cols):
                if l < k:
                    ok &= high[:, c]
                elif l > k:
                    ok &= low[:, c]
            # n candidates per position always leave a distinct choice
            cands.append(np.flatnonzero(ok)[:n].tolist())
        used: set[int] = set()

        def assign(k: int) -> bool:
            if k == n:
                return True
            for row in cands[k]:
                if row not in used:
                    used.add(row)
                    if assign(k + 1):
                        return True
                    used.discard(row)
            return False

        return assign(0)

    def extend(cols):
        nonlocal best
        best = max(best, len(cols))
        for c in range(n_cols):
            # ladders are closed under dropping the last step, so an
            # infeasible prefix ends the branch
            if c not in cols and feasible(cols + [c]):
                extend(cols + [c])

    extend([])
    return best


def max_ladder_ref(entries: np.ndarray, s: float, r: float) -> int | None:
    """Exact ladder length by enumerating column sequences and assigning
    distinct rows; a ladder of T reversed is a ladder of T transposed, so
    tables with few rows go through the transpose.  None when too wide."""
    n_rows, n_cols = entries.shape
    if n_cols <= 8:
        return _ladder_by_column_sequences(entries, s, r)
    if n_rows <= 8:
        return _ladder_by_column_sequences(entries.T, s, r)
    return None


def shatter_dim_ref(entries: np.ndarray, s: float, r: float) -> int:
    """Largest shattered column set, growing only sets already shattered
    (every subset of a shattered set is shattered), capped at log2(rows)."""
    view = Entries(entries)
    n_rows, n_cols = entries.shape
    cap = int(math.log2(n_rows)) if n_rows > 1 else 0
    level = [()]
    best = 0
    while level and best < cap:
        nxt = []
        for base in level:
            start = base[-1] + 1 if base else 0
            for c in range(start, n_cols):
                cols = base + (c,)
                if orc.is_shattered_direct(view, cols, s, r):
                    nxt.append(cols)
        if nxt:
            best += 1
        level = nxt
    return best


def strict_chain_ref(entries: np.ndarray, eps: float) -> int:
    """Longest path in the edge graph psi = 0 plus an eps gap row; an edge
    strictly raises the column sum, so that sum orders the DAG."""
    cols = entries.T
    dominated = np.all(cols[:, None, :] <= cols[None, :, :], axis=2)
    gap = np.any(cols[None, :, :] >= cols[:, None, :] + eps, axis=2)
    edge = dominated & gap
    np.fill_diagonal(edge, False)
    order = np.argsort(cols.sum(axis=1), kind="stable")
    longest = np.ones(len(order), dtype=int)
    for c in order[::-1]:
        succ = np.flatnonzero(edge[c])
        if succ.size:
            longest[c] = 1 + longest[succ].max()
    return int(longest.max())


def tuple_count_ref(entries: np.ndarray, members, k: int, s: float, r: float,
                    distinct: bool) -> int:
    """Alternating 2k-tuple count by inclusion-exclusion over column sets.

    The tuples alternating on every column of a set S are free choices of
    k rows low on all of S and k rows high on all of S; low and high rows
    never coincide because s < r.
    """
    sub = entries[list(members)]
    n_cols = sub.shape[1]
    if n_cols > 12:
        return orc.brute_dk_count(Entries(entries), list(members), k, s, r, distinct)
    low = sub <= s
    high = sub >= r
    total = 0
    for size in range(1, n_cols + 1):
        for cols in itertools.combinations(range(n_cols), size):
            a = int(low[:, cols].all(axis=1).sum())
            b = int(high[:, cols].all(axis=1).sum())
            term = math.perm(a, k) * math.perm(b, k) if distinct else (a * b) ** k
            total += term if size % 2 else -term
    return total


def pair_fraction_ref(entries: np.ndarray, members, s: float, r: float) -> float:
    """Share of ordered distinct row pairs whose four low/high patterns are
    each realized by some column."""
    sub = entries[list(members)].astype(float)
    low = (sub <= s).astype(np.int64)
    high = (sub >= r).astype(np.int64)
    ok = (low @ low.T > 0) & (low @ high.T > 0) & (high @ low.T > 0) & (high @ high.T > 0)
    np.fill_diagonal(ok, False)
    n = len(members)
    return float(ok.sum()) / (n * (n - 1))


class Entries:
    """A bare table: the only attribute the oracles read."""

    def __init__(self, entries):
        self.entries = entries


def brute_fraction(entries, members, n, s, r) -> float:
    return orc.brute_shattered_fraction(Entries(entries), list(members), n, s, r, False)


def brute_ladder(entries, s, r) -> int:
    return orc.brute_max_ladder(Entries(entries), s, r)


def brute_alternation(entries, variant, eps) -> int:
    fn = orc.brute_alternation_ii if variant == "ii" else orc.brute_alternation_iii
    return fn(Entries(entries), eps)


def brute_spectrum(entries: np.ndarray, max_len: int):
    """Widest r - s per ladder length over all pairs of distinct values."""
    values = sorted(set(entries.ravel().tolist()))
    best: dict[int, float] = {}
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            length = brute_ladder(entries, values[a], values[b])
            for l in range(2, min(length, max_len) + 1):
                best[l] = max(best.get(l, -math.inf), values[b] - values[a])
    return [(l, best.get(l)) for l in range(2, max_len + 1)]


def spectrum_monotone(spectrum) -> bool:
    gaps = [g for _, g in spectrum]
    seen_none = False
    prev = math.inf
    for g in gaps:
        if g is None:
            seen_none = True
            continue
        if seen_none or g > prev:
            return False
        prev = g
    return True


def mazur_ok(A: np.ndarray, target: np.ndarray, weights, achieved: float) -> bool:
    """Simplex weights, recomputed sup distance, at most the uniform
    baseline, and at most a simplex-grid optimum for up to 3 candidates."""
    w = np.asarray(weights, dtype=float)
    k = A.shape[1]
    if w.shape != (k,) or np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
        return False
    if abs(float(np.max(np.abs(A @ w - target))) - achieved) > 1e-9:
        return False
    baseline = float(np.max(np.abs(A @ np.full(k, 1.0 / k) - target)))
    if achieved > baseline + 1e-12:
        return False
    if k <= 3:
        step = 0.01
        grid = orc.grid_minimax(A, target, step=step)
        # rounding optimal weights onto the grid moves them by < 4 steps in L1
        if achieved > grid + 1e-9 or grid > achieved + 4 * step * float(np.abs(A).max()) + 1e-9:
            return False
    return True


def cantor_entries(m: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """The Cantor corpus table and limit target, rebuilt from the definition."""
    nums = np.array([sum(2 * ((b >> i) & 1) * 3**i for i in range(L)) for b in range(1 << L)])
    cols = []
    for n in range(1, m + 1):
        cols.append((nums <= 3 ** (L - n)) | (nums >= 2 * 3 ** (L - 1) + 3 ** (L - n - 1)))
    target = (nums == 0) | (nums > 2 * 3 ** (L - 1))
    return np.stack(cols, axis=1).astype(float), target.astype(float)


def digest(entries: np.ndarray, bound: float) -> str:
    """sha256 of the canonical table JSON, built here with json alone."""
    text = json.dumps({"bound": bound, "entries": entries.tolist()},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

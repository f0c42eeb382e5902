"""Independent brute-force oracles.

Everything here enumerates candidate certificates directly from the
definitions, with no bitmask feasibility tricks, memoization, or dynamic
programming, so it stays independent of the library's search kernels.
"""
from __future__ import annotations

import itertools

import numpy as np


def brute_max_ladder(t, s: float, r: float) -> int:
    """Longest ladder by exhaustive extension over distinct rows/cols."""
    vals = t.entries
    n_rows, n_cols = vals.shape
    best = 1

    def extend(rows, cols):
        nonlocal best
        if len(rows) > best:
            best = len(rows)
        for i in range(n_rows):
            if i in rows:
                continue
            if any(vals[i, cols[l]] < r for l in range(len(cols))):
                continue
            for j in range(n_cols):
                if j in cols:
                    continue
                if any(vals[rows[k], j] > s for k in range(len(rows))):
                    continue
                extend(rows + [i], cols + [j])

    extend([], [])
    return best


def lexfirst_max_ladder(t, s: float, r: float) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Length, rows and cols of the first maximum-length ladder in ascending
    (i, j) extension order, i.e. the lexicographically smallest one, found
    by exhaustive search over every valid ladder."""
    vals = t.entries
    n_rows, n_cols = vals.shape
    best: tuple[list[int], list[int]] = ([], [])

    def valid(rows, cols):
        n = len(rows)
        return all(
            vals[rows[k], cols[l]] >= r if k > l else vals[rows[k], cols[l]] <= s
            for k in range(n)
            for l in range(n)
            if k != l
        )

    def extend(rows, cols):
        nonlocal best
        if len(rows) > len(best[0]):
            best = (rows, cols)
        for i in range(n_rows):
            if i in rows:
                continue
            for j in range(n_cols):
                if j in cols:
                    continue
                if valid(rows + [i], cols + [j]):
                    extend(rows + [i], cols + [j])

    extend([], [])
    return len(best[0]), tuple(best[0]), tuple(best[1])


def brute_alternation_ii(t, eps: float) -> int:
    """Largest pair set (distinct rows, distinct cols) with pairwise
    |T[i_t][j_u] - T[i_u][j_t]| >= eps; the condition is symmetric so sets
    suffice."""
    vals = t.entries
    n_rows, n_cols = vals.shape
    all_pairs = [(i, j) for i in range(n_rows) for j in range(n_cols)]
    best = 1

    def extend(chosen, start):
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        for idx in range(start, len(all_pairs)):
            i, j = all_pairs[idx]
            if any(i == i2 or j == j2 for i2, j2 in chosen):
                continue
            if all(abs(vals[i2, j] - vals[i, j2]) >= eps for i2, j2 in chosen):
                extend(chosen + [(i, j)], idx + 1)

    extend([], 0)
    return best


def lexfirst_alternation_ii(t, eps: float) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Rank and the first maximum-size valid pair set in ascending cell
    order (cell (i, j) is number i * n_cols + j), i.e. the lexicographically
    smallest one, found by exhaustive search over every valid set."""
    vals = t.entries
    n_rows, n_cols = vals.shape
    cells = [(i, j) for i in range(n_rows) for j in range(n_cols)]
    best: list[tuple[int, int]] = []

    def extend(chosen, start):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        for idx in range(start, len(cells)):
            i, j = cells[idx]
            if all(i != i2 and j != j2 and abs(vals[i2, j] - vals[i, j2]) >= eps
                   for i2, j2 in chosen):
                extend(chosen + [(i, j)], idx + 1)

    extend([], 0)
    return len(best), tuple(best)


def brute_alternation_iii(t, eps: float) -> int:
    """Longest pair sequence (distinct rows, distinct cols) with
    |T[i_u][j_t] - T[i_u][j_v]| >= eps for all t < u < v."""
    vals = t.entries
    n_rows, n_cols = vals.shape
    # rows and columns are distinct, so no sequence is longer than this
    cap = min(n_rows, n_cols)
    best = 1

    def ok_as_last(seq, j):
        # triples (t, u, v) where v is the newly appended position
        v = len(seq)
        for u in range(1, v):
            for tt in range(u):
                if abs(vals[seq[u][0], seq[tt][1]] - vals[seq[u][0], j]) < eps:
                    return False
        return True

    def extend(seq):
        nonlocal best
        if len(seq) > best:
            best = len(seq)
        for i in range(n_rows):
            if any(i == i2 for i2, _ in seq):
                continue
            for j in range(n_cols):
                if best == cap:
                    return
                if any(j == j2 for _, j2 in seq):
                    continue
                if ok_as_last(seq, j):
                    extend(seq + [(i, j)])

    extend([])
    return best


def lexfirst_alternation_iii(t, eps: float) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Rank and the first maximum-length valid sequence in ascending (i, j)
    extension order, i.e. the lexicographically smallest one, found by
    exhaustive search over every valid sequence."""
    vals = t.entries
    n_rows, n_cols = vals.shape
    best: list[tuple[int, int]] = []

    def valid(seq):
        n = len(seq)
        return all(
            abs(vals[seq[u][0], seq[tt][1]] - vals[seq[u][0], seq[v][1]]) >= eps
            for tt in range(n)
            for u in range(tt + 1, n)
            for v in range(u + 1, n)
        )

    def extend(seq):
        nonlocal best
        if len(seq) > len(best):
            best = seq
        for i in range(n_rows):
            if any(i == i2 for i2, _ in seq):
                continue
            for j in range(n_cols):
                if any(j == j2 for _, j2 in seq):
                    continue
                if valid(seq + [(i, j)]):
                    extend(seq + [(i, j)])

    extend([])
    return len(best), tuple(best)


def is_shattered_direct(t, cols, s: float, r: float) -> bool:
    """Every low/high pattern over `cols` realized by some row (direct scan)."""
    vals = t.entries
    for pattern in itertools.product([True, False], repeat=len(cols)):
        found = False
        for p in range(vals.shape[0]):
            good = True
            for on_low, c in zip(pattern, cols):
                v = vals[p, c]
                if on_low and not (v <= s):
                    good = False
                    break
                if not on_low and not (v >= r):
                    good = False
                    break
            if good:
                found = True
                break
        if not found:
            return False
    return True


def brute_shatter_dim(t, s: float, r: float) -> int:
    n_cols = t.entries.shape[1]
    best = 0
    for k in range(1, n_cols + 1):
        if any(
            is_shattered_direct(t, cols, s, r)
            for cols in itertools.combinations(range(n_cols), k)
        ):
            best = k
    return best


def lexfirst_shatter(t, s: float, r: float) -> tuple[int, tuple[int, ...], dict[int, int]]:
    """(dim, cols, selector) for the first maximum shattered column set in
    lexicographic order, with selector[p] the lowest row realizing pattern p
    (bit b set <=> cols[b] on the low side); (0, (), {}) when no column is
    shattered.  Sizes are tried upward, each over every column subset of
    that size, and stop at the first size with no shattered subset (a
    subset of a shattered set is shattered) or more patterns than rows."""
    rows = t.entries.tolist()
    n_cols = t.entries.shape[1]
    best: tuple[int, tuple[int, ...], dict[int, int]] = (0, (), {})
    for k in range(1, n_cols + 1):
        if 1 << k > len(rows):
            break
        for cols in itertools.combinations(range(n_cols), k):
            selector: dict[int, int] = {}
            for p, row in enumerate(rows):
                pattern = 0
                for b, c in enumerate(cols):
                    if row[c] <= s:
                        pattern |= 1 << b
                    elif not row[c] >= r:
                        break
                else:
                    selector.setdefault(pattern, p)
            if len(selector) == 1 << k:
                best = (k, cols, selector)
                break
        else:
            return best
    return best


def brute_strict_chain(t, eps: float) -> int:
    """Longest column chain under pointwise <= with a per-step eps gap row,
    by enumerating all simple paths."""
    vals = t.entries
    n_rows, n_cols = vals.shape

    def has_edge(c1, c2):
        if any(vals[p, c1] > vals[p, c2] for p in range(n_rows)):
            return False
        return any(vals[p, c2] >= vals[p, c1] + eps for p in range(n_rows))

    best = 1

    def extend(path):
        nonlocal best
        if len(path) > best:
            best = len(path)
        for c in range(n_cols):
            if c not in path and has_edge(path[-1], c):
                extend(path + [c])

    for c in range(n_cols):
        extend([c])
    return best


def brute_sop_pair_exists(t, eps: float) -> bool:
    """A length-2 literal chain: pointwise-comparable distinct columns with
    a cross pair of distinct rows."""
    vals = t.entries
    n_rows, n_cols = vals.shape
    for c1 in range(n_cols):
        for c2 in range(n_cols):
            if c1 == c2:
                continue
            if any(vals[p, c1] > vals[p, c2] for p in range(n_rows)):
                continue
            for w0 in range(n_rows):
                for w1 in range(n_rows):
                    if w0 != w1 and vals[w1, c1] + eps < vals[w0, c2]:
                        return True
    return False


def brute_dk_count(t, members, k: int, s: float, r: float, distinct: bool) -> int:
    """Alternating-tuple count by full tuple enumeration and column scan."""
    vals = t.entries
    n_cols = vals.shape[1]
    count = 0
    for w in itertools.product(members, repeat=2 * k):
        if distinct and len(set(w)) != len(w):
            continue
        realized = False
        for c in range(n_cols):
            if all(vals[w[2 * i], c] <= s and vals[w[2 * i + 1], c] >= r for i in range(k)):
                realized = True
                break
        if realized:
            count += 1
    return count


def brute_shattered_fraction(t, members, n: int, s: float, r: float, strict: bool) -> float:
    total = 0
    hits = 0
    for w in itertools.permutations(members, n):
        total += 1
        if _tuple_shattered_direct(t, w, s, r, strict):
            hits += 1
    return hits / total if total else 0.0


def _tuple_shattered_direct(t, w, s, r, strict) -> bool:
    vals = t.entries
    n_cols = vals.shape[1]
    for pattern in itertools.product([True, False], repeat=len(w)):
        found = False
        for c in range(n_cols):
            good = True
            for on_low, p in zip(pattern, w):
                v = vals[p, c]
                if on_low:
                    if not (v < s if strict else v <= s):
                        good = False
                        break
                else:
                    if not (v > r if strict else v >= r):
                        good = False
                        break
            if good:
                found = True
                break
        if not found:
            return False
    return True


def grid_minimax(A: np.ndarray, target: np.ndarray, step: float = 1e-3) -> float:
    """Best sup-norm distance over a simplex grid (up to 3 candidates)."""
    k = A.shape[1]
    if k == 1:
        return float(np.max(np.abs(A[:, 0] - target)))
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if k == 2:
        weights = np.stack([ticks, 1.0 - ticks], axis=1)
    elif k == 3:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        keep = a + b <= 1.0 + step / 2
        a, b = a[keep], b[keep]
        weights = np.stack([a, b, np.maximum(0.0, 1.0 - a - b)], axis=1)
    else:
        raise ValueError("grid search supports at most 3 candidates")
    residuals = weights @ A.T - target[None, :]
    return float(np.min(np.max(np.abs(residuals), axis=1)))


def linprog_minimax(A: np.ndarray, target: np.ndarray) -> float:
    """min over the simplex of ||A w - target||_inf by scipy's HiGHS, on the
    primal program (w and a bound z on the residual on both sides), the way
    the library solved it before its own simplex."""
    from scipy.optimize import linprog

    n, k = A.shape
    ones = np.ones((n, 1))
    res = linprog(
        np.r_[np.zeros(k), 1.0],
        A_ub=np.block([[A, -ones], [-A, -ones]]),
        b_ub=np.r_[target, -target],
        A_eq=np.r_[np.ones(k), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * (k + 1),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference solve failed: {res.message}")
    return float(res.fun)


def allpairs_spectrum(t, max_len: int, exact_limit: int = 10**6) -> list[tuple[int, float | None]]:
    """Stability spectrum by one `max_ladder` call on every pair of distinct
    values, the scan the staircase walk replaced.  It checks the walk, not the
    ladder search (that is `brute_max_ladder`'s job), so it uses the library's
    `max_ladder` and asserts that every call is exact: only then is the
    all-pairs value the true spectrum."""
    from dividing_lines import ThresholdPair, max_ladder

    values = sorted(set(t.entries.ravel().tolist()))
    best_gap: dict[int, float] = {}
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            s, r = values[a], values[b]
            res = max_ladder(t, ThresholdPair(s, r), exact_limit)
            assert res.exact, f"inexact ladder call at s={s}, r={r}"
            for length in range(2, min(res.length, max_len) + 1):
                gap = r - s
                if gap > best_gap.get(length, -float("inf")):
                    best_gap[length] = gap
    return [(length, best_gap.get(length)) for length in range(2, max_len + 1)]


def recursive_strict_chain(t, eps: float) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(m, cols, step_rows) of the longest strict chain by the earlier
    recursive search: the full truncated-difference cube, one edge list per
    column, and a memoized depth-first longest path that keeps the first
    strictly longer successor in ascending column order.  It pins which
    chain `strict_chain` reports, not only its length.  Recursion depth and
    the rows x cols x cols cube limit it to small tables."""
    vals = t.entries
    n = vals.shape[1]
    psi = np.maximum(vals[:, :, None] - vals[:, None, :], 0.0).max(axis=0)
    edges = {c: [] for c in range(n)}
    for c1 in range(n):
        for c2 in range(n):
            if c1 != c2 and psi[c1, c2] <= 0:
                gaps = np.flatnonzero(vals[:, c2] >= vals[:, c1] + eps)
                if gaps.size:
                    edges[c1].append((c2, int(gaps[0])))
    best_from = {}

    def walk(c):
        if c not in best_from:
            best = (1, (c,), ())
            for c2, gap_row in edges[c]:
                m2, cols2, rows2 = walk(c2)
                if m2 + 1 > best[0]:
                    best = (m2 + 1, (c,) + cols2, (gap_row,) + rows2)
            best_from[c] = best
        return best_from[c]

    best = (0, (), ())
    for c in range(n):
        if walk(c)[0] > best[0]:
            best = walk(c)
    return best

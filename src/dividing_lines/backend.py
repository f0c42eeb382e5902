"""Search kernels over row/column bitmasks.

These are the hot inner loops of the detectors.  Masks are Python ints
built by `core.bitmasks`, so every kernel works at any table width.
Every search is deterministic: candidates are tried in ascending index
order and the first witness found at the record length is kept, which
makes it the lexicographically smallest maximal witness.

All functions report `exact=False` (lower bounds only) once the node
budget is exhausted.  The budget cuts one fixed search short, so a larger
budget only walks further along the same search.  What costs a node:

- `ladder_search`: each (i, j) tried; a row whose every child the bound
  cuts spends none.
- `clique_search`: each vertex tried; a state whose candidates, counted
  by popcount and by the rows and the columns they hit, cannot beat the
  record spends none.
- `alternation_iii_search`: each row tried and each (i, j) tried; a state
  whose reach bound (free rows, candidate columns, and the columns each
  free row allows) cannot beat the record spends none.
- `shatter_dim_search`: each column tried.

Bound cuts only drop subtrees that cannot beat the record, so they never
change the witness an exact search returns.  The ladder, clique and
alternation iii searches also stop, exact, as soon as the record reaches a
proven maximum (at most one row and one column per step or cell), so a
search that finds the optimum early does not spend its budget proving it.
"""
from __future__ import annotations

from itertools import count
from operator import add

BACKEND_NAME = "python"


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _BudgetHit(Exception):
    pass


class _Optimal(Exception):
    pass


def ladder_search(
    ge_by_col: list[int],
    le_by_row: list[int],
    budget: int,
    floor: int = 0,
    cap: int | None = None,
):
    """Longest ladder (rows, cols) under precomputed feasibility masks.

    ge_by_col[j] = bitmask of rows p with T[p][j] >= r;
    le_by_row[i] = bitmask of cols q with T[i][q] <= s.
    Row and column indices are each used at most once.
    Bounds are checked before descending: a row whose children all keep
    too few rows or columns to beat the record is skipped whole and spends
    no node, and each (i, j) tried counts one node whether or not its child
    is entered.
    Records start above `floor`, a length the caller already holds a ladder
    for, and the search ends exact once the record reaches `cap`, a proven
    upper bound (default min(n_rows, n_cols)).  Neither changes which
    ladder is returned when the maximum exceeds `floor`: bound cuts and the
    memo only drop subtrees that cannot beat the record, so the first
    maximum-length ladder in ascending order is still the first one found.
    Returns (length, rows, cols, exact); rows and cols are empty, and
    length is `floor`, when no ladder longer than `floor` was found.
    """
    n_rows = len(le_by_row)
    n_cols = len(ge_by_col)
    if cap is None:
        cap = min(n_rows, n_cols)
    best_len = floor
    best_rows: tuple[int, ...] = ()
    best_cols: tuple[int, ...] = ()
    nodes = 0
    seen: dict[tuple[int, int], int] = {}

    def rec(avail_rows: int, avail_cols: int, rseq: list[int], cseq: list[int]):
        # callers enter a state only if depth + min(popcounts) beats best_len
        nonlocal best_len, best_rows, best_cols, nodes
        depth = len(rseq)
        if depth > best_len:
            best_len = depth
            best_rows = tuple(rseq)
            best_cols = tuple(cseq)
            if best_len >= cap:
                raise _Optimal
        if avail_rows == 0 or avail_cols == 0:
            return
        # a state's achievable extension depth is fixed, so only a strictly
        # deeper visit can improve on what was already explored
        prev = seen.get((avail_rows, avail_cols))
        if prev is not None and depth <= prev:
            return
        seen[(avail_rows, avail_cols)] = depth
        rows_left = avail_rows.bit_count() - 1
        for i in _iter_bits(avail_rows):
            new_cols = avail_cols & le_by_row[i]
            # every child of row i keeps at most rows_left rows and the
            # columns of new_cols; best_len only grows, so the cut holds for
            # the whole row
            if min(rows_left, new_cols.bit_count()) <= best_len - depth - 1:
                continue
            other_rows = avail_rows & ~(1 << i)
            for j in _iter_bits(avail_cols):
                nodes += 1
                if nodes > budget:
                    raise _BudgetHit
                child_rows = other_rows & ge_by_col[j]
                child_cols = new_cols & ~(1 << j)
                need = best_len - depth - 1
                if child_rows.bit_count() > need and child_cols.bit_count() > need:
                    rseq.append(i)
                    cseq.append(j)
                    rec(child_rows, child_cols, rseq, cseq)
                    rseq.pop()
                    cseq.pop()

    exact = True
    if min(n_rows, n_cols) <= floor:
        return best_len, best_rows, best_cols, exact
    try:
        rec((1 << n_rows) - 1, (1 << n_cols) - 1, [], [])
    except _Optimal:
        pass
    except _BudgetHit:
        exact = False
    return best_len, best_rows, best_cols, exact


def clique_search(adj: list[int], budget: int, cap: int, n_cols: int):
    """Largest clique in a compatibility graph given as adjacency bitmasks.

    Vertex v = i * n_cols + j is the cell (i, j) of a table, and a clique
    takes at most one cell per row and per column.  Each vertex tried costs
    one node.  A child whose candidates, counted by popcount, cannot lift it
    past the record is not entered; a state whose candidates hit too few
    rows or too few columns (Tomita and Seki's colouring bound, with the
    rows and the columns as the two colourings) is cut; and the vertex loop
    stops once the candidates at or above v cannot beat the record
    (Carraghan and Pardalos).  The cuts only drop subtrees that cannot beat
    the record, so vertices are still tried in ascending order and the
    first maximum clique found is the lexicographically first one.  The
    search ends exact once the record reaches `cap`, a proven upper bound
    on the clique size.
    Returns (size, vertices, exact).
    """
    n = len(adj)
    n_rows = n // n_cols
    # bit 0 of every row's n_cols-bit chunk; after the folds, which OR each
    # bit with the ones above it in its chunk, bit 0 says the row is hit
    row_lows = sum(1 << (i * n_cols) for i in range(n_rows))
    row_folds = []
    shift = 1
    while shift < n_cols:
        row_folds.append((shift, row_lows * ((1 << (n_cols - shift)) - 1)))
        shift *= 2
    # each halving ORs the upper chunks onto the lower ones, ending on one
    # chunk that holds the columns hit
    col_folds = []
    chunks = n_rows
    while chunks > 1:
        chunks = (chunks + 1) // 2
        col_folds.append((chunks * n_cols, (1 << (chunks * n_cols)) - 1))
    best_size = 0
    best: tuple[int, ...] = ()
    nodes = 0

    def rec(cand: int, chosen: list[int]):
        # callers enter a state only if depth + popcount(cand) beats best_size
        nonlocal best_size, best, nodes
        depth = len(chosen)
        if depth > best_size:
            best_size = depth
            best = tuple(chosen)
            if best_size >= cap:
                raise _Optimal
        rows = cand
        for shift, keep in row_folds:
            rows |= (rows >> shift) & keep
        if depth + (rows & row_lows).bit_count() <= best_size:
            return
        cols = cand
        for shift, low in col_folds:
            cols = (cols & low) | (cols >> shift)
        if depth + cols.bit_count() <= best_size:
            return
        rest = cand
        # a child of v draws only from the candidates above v
        while depth + rest.bit_count() > best_size:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            child = rest & adj[v]
            if depth + 1 + child.bit_count() > best_size:
                chosen.append(v)
                rec(child, chosen)
                chosen.pop()

    exact = True
    try:
        rec((1 << n) - 1, [])
    except _Optimal:
        pass
    except _BudgetHit:
        exact = False
    return best_size, best, exact


def alternation_iii_search(sep_by_col: list[list[int]], n_cols: int, budget: int):
    """Longest pair sequence under the middle-element column-gap condition.

    sep_by_col[j][i] = bitmask of cols c with |T[i][c] - T[i][j]| >= eps.
    Valid iff for all t < u < v: bit j_v is set in sep_by_col[j_t][i_u],
    with row and column indices each used at most once.  Each row tried
    and each (i, j) extension tried counts as one node, so a row whose
    extensions the bound cuts all at once still spends budget.  A state
    whose reach bound cannot beat the record is cut before any row is
    tried, and spends none.
    Returns (length, pairs, exact).
    """
    n_rows = len(sep_by_col[0])
    best_len = 0
    best: tuple[tuple[int, int], ...] = ()
    nodes = 0
    max_depth = min(n_rows, n_cols)
    seen: set[int] = set()

    def rec(
        pairs: list[tuple[int, int]],
        cand: int,
        pend: list[int],
        rows_left: tuple[int, ...],
        used_rows: int,
        used_cols: int,
    ):
        # cand = unused cols that every committed middle row allows next;
        # pend[i] = cols row i allows after the committed cols, so a child
        # (i, j) leaves cand & pend[i] & ~j and row masks pend & sep_by_col[j]
        nonlocal best_len, best, nodes
        depth = len(pairs) + 1
        allowed_by_row = [cand & pend[i] for i in rows_left]
        # the k-th row of a tail of length R is a middle row for the R - k
        # columns after it, all in its allowed mask; with a_1 >= a_2 >= ...
        # the allowed popcounts, at most k - 1 rows have more than a_k, so
        # R <= a_k + k for every k
        counts = sorted(map(int.bit_count, allowed_by_row), reverse=True)
        reach = min(len(rows_left), cand.bit_count(), min(map(add, counts, count(1))))
        if depth - 1 + reach <= best_len:
            return
        free_rows = len(rows_left) - 1
        cand_cols = list(_iter_bits(cand))
        child_pend: dict[int, list[int]] = {}
        for k, i in enumerate(rows_left):
            # a child at `depth` can only matter if it, or its subtree,
            # gets past best_len
            slack = best_len - depth
            if free_rows <= slack:
                return
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            allowed = allowed_by_row[k]
            if allowed.bit_count() <= slack:
                continue
            rows = used_rows | (1 << i)
            next_rows = rows_left[:k] + rows_left[k + 1 :]
            for j in cand_cols:
                nodes += 1
                if nodes > budget:
                    raise _BudgetHit
                pairs.append((i, j))
                if depth > best_len:
                    best_len = depth
                    best = tuple(pairs)
                    if best_len == max_depth:
                        raise _Optimal
                bit = 1 << j
                next_cand = allowed & ~bit
                if min(next_cand.bit_count(), free_rows) > best_len - depth:
                    # the subtree depends on (next_cand, cols, rows) only, and
                    # a state already visited has lifted best_len to its reach
                    key = ((next_cand << n_cols | used_cols | bit) << n_rows) | rows
                    if key not in seen:
                        seen.add(key)
                        cp = child_pend.get(j)
                        if cp is None:
                            cp = child_pend[j] = [p & m for p, m in zip(pend, sep_by_col[j])]
                        rec(pairs, next_cand, cp, next_rows, rows, used_cols | bit)
                pairs.pop()

    exact = True
    try:
        rec([], (1 << n_cols) - 1, [(1 << n_cols) - 1] * n_rows, tuple(range(n_rows)), 0, 0)
    except _Optimal:
        pass
    except _BudgetHit:
        exact = False
    return best_len, best, exact


def shatter_dim_search(
    low_by_col: list[int], high_by_col: list[int], n_rows: int, max_k: int, budget: int
):
    """Largest shattered column set via anti-monotone DFS over column indices.

    low_by_col[c] / high_by_col[c] are row bitmasks (rows <= s / rows >= r).
    Returns (dim, cols, selector_masks, exact) where selector_masks[p] is
    the nonempty row bitmask realizing pattern p (bit b of p <=> cols[b]
    on the low side).
    """
    n_cols = len(low_by_col)
    best_k = 0
    best_cols: tuple[int, ...] = ()
    best_masks: tuple[int, ...] = ()
    nodes = 0

    def rec(start: int, cols: list[int], masks: list[int]):
        nonlocal best_k, best_cols, best_masks, nodes
        k = len(cols)
        if k > best_k:
            best_k = k
            best_cols = tuple(cols)
            best_masks = tuple(masks)
        if k >= max_k or k + (n_cols - start) <= best_k:
            return
        for c in range(start, n_cols):
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            lo, hi = low_by_col[c], high_by_col[c]
            hi_masks = []
            lo_masks = []
            shattered = True
            for m in masks:
                a = m & hi
                b = m & lo
                if a == 0 or b == 0:
                    shattered = False
                    break
                hi_masks.append(a)
                lo_masks.append(b)
            if shattered:
                # the new column contributes the top pattern bit
                cols.append(c)
                rec(c + 1, cols, hi_masks + lo_masks)
                cols.pop()

    exact = True
    try:
        rec(0, [], [(1 << n_rows) - 1])
    except _BudgetHit:
        exact = False
    return best_k, best_cols, best_masks, exact


def dk_count_free(
    low_by_row: list[int], high_by_row: list[int], members: list[int], a: int, b: int
):
    """Exact count of sequences of `a` low rows and `b` high rows from
    `members`, repeats allowed, whose column masks still intersect.

    With a = b = k this counts the alternating 2k-tuples: a tuple w realizes
    the pattern iff some column is <= s at every even coordinate and >= r at
    every odd one.  AND commutes, so the low steps run first.  Counted by
    dynamic programming over intersection masks, so it scales with the
    number of distinct masks rather than |E|^(a+b).
    """
    states = {~0: 1}
    for masks in [low_by_row] * a + [high_by_row] * b:
        new_states: dict[int, int] = {}
        for mask, cnt in states.items():
            for p in members:
                m = mask & masks[p]
                if m:
                    new_states[m] = new_states.get(m, 0) + cnt
        states = new_states
        if not states:
            return 0
    return sum(states.values())


def _stirling1_row(k: int) -> list[int]:
    """Signed Stirling numbers of the first kind s(k, 0..k): the
    coefficients of the falling factorial x(x-1)...(x-k+1)."""
    row = [1]
    for n in range(k):
        row = [0] + row
        for a in range(len(row) - 1):
            row[a] -= n * row[a + 1]
    return row


def dk_count_distinct(low_by_row: list[int], high_by_row: list[int], members: list[int], k: int):
    """Exact count of alternating 2k-tuples with pairwise distinct coordinates.

    Mobius inversion on the lattice of set partitions of the 2k coordinates
    (Rota 1964) gives

        distinct(k) = sum_{a,b=1..k} s(k,a) * s(k,b) * dk_count_free(.., a, b)

    with s the signed Stirling numbers of the first kind.  A partition block
    holding an even and an odd coordinate would put one row on both sides,
    so the identity needs `low_by_row[p] & high_by_row[p] == 0` for every
    member p, which holds whenever s < r.
    """
    s = _stirling1_row(k)
    return sum(
        s[a] * s[b] * dk_count_free(low_by_row, high_by_row, members, a, b)
        for a in range(1, k + 1)
        for b in range(1, k + 1)
    )

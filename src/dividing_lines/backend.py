"""Search kernels over row/column bitmasks.

These are the hot inner loops of the detectors.  Masks are Python ints
built by `core.bitmasks`, so every kernel works at any table width; the
`<= s` and `>= r` masks come from one `core.ThresholdMasks` per table.
Every search is deterministic: candidates are tried in ascending index
order and the first witness found at the record length is kept, which
makes it the lexicographically smallest maximal witness.

No search recurses.  Each search state is a generator that yields the
state of each child it enters, and `_walk` keeps the suspended states on
a list, so only memory bounds how deep a search goes.  `_walk` is also the
one exit point: it ends a search once its node budget runs out or its
record reaches a proven maximum.

All functions report `exact=False` (lower bounds only) once the node
budget is exhausted.  The budget cuts one fixed search short, so a larger
budget only walks further along the same search; `alternation_iii_search`
runs a fixed sequence of up to three searches, each on the budget the ones
before it left.  What costs a node:

- `ladder_search`: each (i, j) tried, including the columns a state's
  later rows skip because no child of theirs can beat the record; a row
  whose every child the bound cuts spends none.
- `clique_search`: each vertex tried; a child whose candidates, counted
  by popcount and by the rows and the columns they hit, cannot beat the
  record spends none.
- `alternation_iii_search`: in its witness slice and its witness rerun,
  each row tried and each (i, j) tried; in its length pass, each first
  column tried, and then each row tried and each (i, j) tried in the tail.
  In all three, a child whose reach bound (free rows, candidate columns,
  and the columns each free row allows) cannot beat the record spends
  none.
- `shatter_dim_search`: each column tried.
- `chain_witness_search`: each (column, row) pair tried.

Bound cuts only drop subtrees that cannot beat the record, so they never
change the witness an exact search returns.  The ladder, clique,
alternation iii and shattering searches also stop, exact, as soon as the
record reaches a proven maximum (at most one row and one column per step
or cell; at most floor(log2 rows) shattered columns), so a search that
finds the optimum early does not spend its budget proving it.
"""
from __future__ import annotations

from itertools import count
from operator import add

BACKEND_NAME = "python"
# nodes the alternation iii witness pass spends before the length pass
# starts: 94% of the binary 4x4 tables finish within them, and past them the
# length pass is the cheaper proof
_III_SLICE = 50


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _BudgetHit(Exception):
    pass


class _Optimal(Exception):
    pass


def _walk(root) -> bool:
    """Run the search whose first state is `root`; return `exact`, False
    once a state raised `_BudgetHit` and True otherwise (`_Optimal` ends
    the search early)."""
    stack = []
    top = root
    try:
        while True:
            for child in top:
                stack.append(top)
                top = child
                break
            else:
                if not stack:
                    break
                top = stack.pop()
    except _Optimal:
        pass
    except _BudgetHit:
        return False
    return True


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
    is entered.  A state's first row that passes this cut tries every
    column; its later rows try only the columns j it kept, those where
    the state's rows >= r at j were still enough to beat the record, since
    no other column can give a child that does.  A column a later row
    skips is still charged its node, so the search spends, records and
    stops exactly as if it had tried every column.  Once the record leaves
    a state's rows too few to beat it, the state charges the rest of its
    current row's columns and returns: every later row would be cut.
    Records start above `floor` >= 0, a length the caller already holds a
    ladder for or only asks to beat, and the search ends exact once the
    record reaches `cap`, a proven upper bound (default min(n_rows,
    n_cols)).  Neither changes which ladder is returned when the maximum
    exceeds `floor`: bound cuts and the memo only drop subtrees that cannot
    beat the record, so the first maximum-length ladder in ascending order
    is still the first one found.
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

    def state(avail_rows: int, avail_cols: int, rseq: list[int], cseq: list[int]):
        # a parent enters a state only if depth + min(popcounts) beats
        # best_len, both masks are nonempty and the memo allows it
        nonlocal best_len, best_rows, best_cols, nodes
        depth = len(rseq)
        rows_left = avail_rows.bit_count() - 1
        n_avail = avail_cols.bit_count()
        kept = None
        rows = avail_rows
        while rows:
            row = rows & -rows
            rows ^= row
            i = row.bit_length() - 1
            new_cols = avail_cols & le_by_row[i]
            # every child of row i keeps at most rows_left rows and the
            # columns of new_cols; rows_left beats the record here (checked
            # on entry and after each record), and best_len only grows, so
            # the cut on new_cols holds for the whole row
            if new_cols.bit_count() <= best_len - depth - 1:
                continue
            if kept is None:
                # the state's first row walks every column, one node each, and
                # keeps (rank, col, col_rows) for those whose rows could still
                # give a child that beats best_len: rank counts the columns up
                # to col, col_rows = avail_rows & ge_by_col[col]; best_len only
                # grows, so a column dropped stays useless to every later row
                kept = []
                cols, rank, later, last = avail_cols, 0, None, n_avail
            else:
                # a later row walks only the kept columns; the ones between
                # them still cost their node each, charged in bulk
                later, last = iter(kept), 0
            while True:
                if later is None:
                    while cols:
                        col = cols & -cols
                        cols ^= col
                        rank += 1
                        nodes += 1
                        if nodes > budget:
                            raise _BudgetHit
                        col_rows = avail_rows & ge_by_col[col.bit_length() - 1]
                        need = best_len - depth - 1
                        if col_rows.bit_count() > need:
                            kept.append((rank, col, col_rows))
                            child_rows = col_rows & ~row
                            if child_rows.bit_count() > need:
                                child_cols = new_cols & ~col
                                if child_cols.bit_count() > need:
                                    break
                    else:
                        break
                else:
                    for rank, col, col_rows in later:
                        nodes += rank - last
                        last = rank
                        if nodes > budget:
                            raise _BudgetHit
                        child_rows = col_rows & ~row
                        need = best_len - depth - 1
                        if child_rows.bit_count() > need:
                            child_cols = new_cols & ~col
                            if child_cols.bit_count() > need:
                                break
                    else:
                        break
                rseq.append(i)
                cseq.append(col.bit_length() - 1)
                if depth + 1 > best_len:
                    best_len = depth + 1
                    best_rows = tuple(rseq)
                    best_cols = tuple(cseq)
                    if best_len >= cap:
                        raise _Optimal
                # a state's achievable extension depth is fixed, so only a
                # strictly deeper visit can improve on what was already
                # explored
                key = (child_rows, child_cols)
                if child_rows and child_cols and seen.get(key, -1) <= depth:
                    seen[key] = depth + 1
                    yield state(child_rows, child_cols, rseq, cseq)
                rseq.pop()
                cseq.pop()
                if rows_left <= best_len - depth - 1:
                    # the record grew past every child this state can give:
                    # the rest of this row's columns cost their node each and
                    # every later row is cut, so the state ends here
                    nodes += n_avail - (rank if later is None else last)
                    if nodes > budget:
                        raise _BudgetHit
                    return
            nodes += n_avail - last
            if nodes > budget:
                raise _BudgetHit

    if min(n_rows, n_cols) <= floor:
        return best_len, best_rows, best_cols, True
    exact = _walk(state((1 << n_rows) - 1, (1 << n_cols) - 1, [], []))
    return best_len, best_rows, best_cols, exact


def clique_search(adj: list[int], budget: int, cap: int, n_cols: int):
    """Largest clique in a compatibility graph given as adjacency bitmasks.

    Vertex v = i * n_cols + j is the cell (i, j) of a table, and a clique
    takes at most one cell per row and per column.  Each vertex tried costs
    one node.  A child whose candidates cannot lift it past the record is
    not entered, counted by popcount and then by the rows and the columns
    they hit (Tomita and Seki's colouring bound, with the rows and the
    columns as the two colourings); and the vertex loop stops once the
    candidates at or above v cannot beat the record (Carraghan and
    Pardalos).  The cuts only drop subtrees that cannot beat the record, so
    vertices are still tried in ascending order and the first maximum
    clique found is the lexicographically first one.  The search ends exact
    once the record reaches `cap`, a proven upper bound on the clique size.
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

    def state(cand: int, chosen: list[int]):
        # a parent enters a state only if its candidates, counted by
        # popcount and by the rows and the columns they hit, beat best_size
        nonlocal best_size, best, nodes
        depth = len(chosen)
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
                if depth + 1 > best_size:
                    best_size = depth + 1
                    best = tuple(chosen)
                    if best_size >= cap:
                        raise _Optimal
                rows = child
                for shift, keep in row_folds:
                    rows |= (rows >> shift) & keep
                if depth + 1 + (rows & row_lows).bit_count() > best_size:
                    cols = child
                    for shift, keep in col_folds:
                        cols = (cols & keep) | (cols >> shift)
                    if depth + 1 + cols.bit_count() > best_size:
                        yield state(child, chosen)
                chosen.pop()

    exact = _walk(state((1 << n) - 1, []))
    return best_size, best, exact


def alternation_iii_search(sep_by_col: list[list[int]], n_cols: int, budget: int):
    """Longest pair sequence under the middle-element column-gap condition.

    sep_by_col[j][i] = bitmask of cols c with |T[i][c] - T[i][j]| >= eps.
    Valid iff for all t < u < v: bit j_v is set in sep_by_col[j_t][i_u],
    with row and column indices each used at most once.  The condition binds
    the middle rows only, so the first pair's row is free.  Up to three
    passes (`_iii_pass`) run one after another, each on the budget the ones
    before it left:

    - a witness slice of at most `_III_SLICE` nodes tries pairs in
      ascending (i, j) order and keeps the first sequence of each record
      length; its result stands if it is exact;
    - the length pass looks for a sequence longer than the slice's record.
      It branches on the first column alone and leaves the first pair's row
      open, so its memo does not repeat every subtree once per first row.
      If it finds none, the slice's record is the maximum;
    - if it proves a longer length L, the witness pass runs again from the
      start, keeping only sequences of length L and ending at the first.

    An exact result is the lexicographically first maximum-length sequence,
    as the witness pass alone would return.  When the budget runs out the
    result is the longest sequence found, flagged `exact=False`; if the
    length pass found it, its free row is the lowest row its tail leaves
    unused.
    Returns (length, pairs, exact).
    """
    n_rows = len(sep_by_col[0])
    cap = min(n_rows, n_cols)
    pairs, spent, exact = _iii_pass(sep_by_col, n_cols, min(budget, _III_SLICE), 0, cap, False)
    left = budget - spent
    if exact or left <= 0:
        return len(pairs), pairs, exact
    longer, spent, exact = _iii_pass(sep_by_col, n_cols, left, len(pairs), cap, True)
    left -= spent
    if exact and not longer:
        return len(pairs), pairs, True  # the slice's record is the maximum
    if exact and left > 0:
        # records start at L - 1, so the first sequence of length L ends it
        found, _, _ = _iii_pass(sep_by_col, n_cols, left, len(longer) - 1, len(longer), False)
        if found:
            return len(found), found, True
    if longer:
        (_, j), *tail = longer
        free = min(set(range(n_rows)).difference(i for i, _ in tail))
        pairs = ((free, j), *tail)
    return len(pairs), pairs, False


def _iii_pass(
    sep_by_col: list[list[int]],
    n_cols: int,
    budget: int,
    floor: int,
    cap: int,
    free_first: bool,
):
    """One pass of the alternation iii search, with records above `floor`,
    ending exact once one reaches `cap`.

    The witness pass (`free_first` false) tries the first pair's (i, j) in
    ascending order like any other pair.  The length pass (`free_first`)
    tries the first column alone, records the pair as (-1, j), and lets the
    tail draw on every row; a record is at most `cap` <= rows long, so its
    tail always leaves a row for the first pair.  Each row tried and each
    (i, j) extension tried counts as one node, and in the length pass each
    first column tried counts one, so a row whose extensions the bound cuts
    all at once still spends budget.  A child whose reach bound cannot beat
    the record is not entered, and spends none.
    Returns (pairs, nodes, exact); pairs is the first record of the longest
    length found, empty when none is longer than `floor`.
    """
    n_rows = len(sep_by_col[0])
    best_len = floor
    best: tuple[tuple[int, int], ...] = ()
    nodes = 0
    seen: set[int] = set()

    def state(
        pairs: list[tuple[int, int]],
        cand: int,
        pend: list[int],
        rows_left: tuple[int, ...],
        allowed_by_row: list[int],
        used_rows: int,
        used_cols: int,
    ):
        # cand = unused cols that every committed middle row allows next;
        # pend[i] = cols row i allows after the committed cols, so a child
        # (i, j) leaves cand & pend[i] & ~j and row masks pend & sep_by_col[j];
        # allowed_by_row[k] = cand & pend[rows_left[k]]
        nonlocal best_len, best, nodes
        depth = len(pairs) + 1
        free_rows = len(rows_left) - 1
        cand_cols = []
        rest = cand
        while rest:
            low = rest & -rest
            cand_cols.append(low.bit_length() - 1)
            rest ^= low
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
                    if best_len >= cap:
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
                        next_allowed = [next_cand & cp[r] for r in next_rows]
                        if depth + _reach(next_allowed) > best_len:
                            used = used_cols | bit
                            yield state(pairs, next_cand, cp, next_rows, next_allowed, rows, used)
                pairs.pop()

    def first_cols():
        # the length pass's root: no row is committed, so the first pair
        # allows every column, and its children keep every row
        nonlocal best_len, best, nodes
        all_rows = tuple(range(n_rows))
        for j in range(n_cols):
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            if best_len < 1:
                best_len = 1
                best = ((-1, j),)
                if best_len >= cap:
                    raise _Optimal
            next_cand = full & ~(1 << j)
            next_allowed = [next_cand & m for m in sep_by_col[j]]
            if 1 + _reach(next_allowed) > best_len:
                yield state([(-1, j)], next_cand, sep_by_col[j], all_rows, next_allowed, 0, 1 << j)

    full = (1 << n_cols) - 1
    if free_first:
        root = first_cols()
    else:
        root = state([], full, [full] * n_rows, tuple(range(n_rows)), [full] * n_rows, 0, 0)
    exact = _walk(root)
    return best, min(nodes, budget), exact


def _reach(allowed: list[int]) -> int:
    """Upper bound on the length of a tail whose rows come from rows with
    these allowed masks: the k-th row of a tail of length R is a middle row
    for the R - k columns after it, all in its allowed mask; with
    a_1 >= a_2 >= ... the allowed popcounts, at most k - 1 rows have more
    than a_k, so R <= a_k + k for every k."""
    counts = sorted(map(int.bit_count, allowed), reverse=True)
    return min(map(add, counts, count(1)))


def shatter_dim_search(
    low_by_col: list[int], high_by_col: list[int], n_rows: int, max_k: int, budget: int
):
    """Largest shattered column set via anti-monotone DFS over column indices.

    low_by_col[c] / high_by_col[c] are row bitmasks (rows <= s / rows >= r).
    Sets are tried in ascending order, so the first set of the record size
    is the lexicographically first one, and the search ends exact once the
    record reaches `max_k`, a proven upper bound.
    Returns (dim, cols, selector_masks, exact) where selector_masks[p] is
    the nonempty row bitmask realizing pattern p (bit b of p <=> cols[b]
    on the low side).
    """
    n_cols = len(low_by_col)
    best_k = 0
    best_cols: tuple[int, ...] = ()
    best_masks: tuple[int, ...] = ()
    nodes = 0

    def state(start: int, cols: list[int], masks: list[int]):
        # a parent enters a state only if it has fewer than max_k columns
        # and enough columns left to beat best_k
        nonlocal best_k, best_cols, best_masks, nodes
        k = len(cols) + 1
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
                masks_k = hi_masks + lo_masks
                if k > best_k:
                    best_k = k
                    best_cols = tuple(cols)
                    best_masks = tuple(masks_k)
                    if best_k >= max_k:
                        raise _Optimal
                if k < max_k and k + (n_cols - c - 1) > best_k:
                    yield state(c + 1, cols, masks_k)
                cols.pop()

    exact = _walk(state(0, [], [(1 << n_rows) - 1])) if max_k > 0 else True
    return best_k, best_cols, best_masks, exact


def chain_witness_search(
    rows: list[list[float]], above: list[int], eps: float, target_m: int, budget: int
):
    """First literal chain witness of length target_m, by backtracking.

    rows[w] = row w of the table; above[c] = bitmask of the columns c2 != c
    with column c <= column c2 pointwise.  Column chains are restricted to
    the pointwise pre-order; rows are assigned greedily with full
    backtracking, columns and then rows in ascending index order, and a row
    w extends a chain at column c iff T[w][c'] + eps < T[w'][c] for every
    (c', w') already on it.  Each (column, row) pair tried costs one node.
    A chain is not extended, and a column's rows are not charged, when the
    unused rows or the unused columns above its last column would be too
    few to reach target_m.
    Returns (cols, witness_rows, exact); both are empty when no witness was
    found.
    """
    n_rows = len(rows)
    n_cols = len(above)
    found: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
    nodes = 0
    chain_cols: list[int] = []
    chain_rows: list[int] = []

    def state():
        nonlocal found, nodes
        k = len(chain_cols)
        unused = ~sum(1 << c for c in chain_cols)
        free_cols = above[chain_cols[-1]] & unused if k else (1 << n_cols) - 1
        if k + min(n_rows - k, free_cols.bit_count()) < target_m:
            return
        used_rows = set(chain_rows)
        free_rows = [w for w in range(n_rows) if w not in used_rows]
        prefix = list(zip(chain_cols, chain_rows))
        for c in _iter_bits(free_cols):
            # the cut a chain ending in c would meet, applied before its rows
            # are charged
            if k + 1 + min(n_rows - k - 1, (above[c] & unused).bit_count()) < target_m:
                continue
            tops = [(cc, rows[ww][c]) for cc, ww in prefix]
            for w in free_rows:
                nodes += 1
                if nodes > budget:
                    raise _BudgetHit
                row = rows[w]
                for cc, top in tops:
                    if not (row[cc] + eps < top):
                        break
                else:
                    chain_cols.append(c)
                    chain_rows.append(w)
                    if k + 1 >= target_m:
                        found = (tuple(chain_cols), tuple(chain_rows))
                        raise _Optimal
                    yield state()
                    chain_cols.pop()
                    chain_rows.pop()

    exact = _walk(state())
    return found[0], found[1], exact


def _dk_step(states: dict[int, int], groups: list[tuple[int, int]]) -> dict[int, int]:
    """One step of the tuple DP: extend every counted sequence by one row
    of `groups`, keeping the sequences whose mask intersection is non-zero."""
    new_states: dict[int, int] = {}
    get = new_states.get
    for mask, cnt in states.items():
        for row_mask, rows in groups:
            m = mask & row_mask
            if m:
                new_states[m] = get(m, 0) + cnt * rows
    return new_states


def dk_count_free(
    low: list[tuple[int, int]], high: list[tuple[int, int]], k: int, diagonal: bool
) -> list[list[int | None]]:
    """Exact counts `free[a][b]` of sequences of `a` low rows and then `b`
    high rows, repeats allowed, whose column masks still intersect, for
    1 <= a, b <= k (only b <= a when `diagonal`; other entries are None).

    `low` and `high` group the member rows by mask: one (mask, number of
    rows) pair per distinct non-zero mask.  With a = b this counts the
    alternating 2a-tuples: a tuple w realizes the pattern iff some column is
    <= s at every even coordinate and >= r at every odd one.  AND commutes,
    so the low steps run first, once, and the high steps start afresh from
    the state after each low step.  Counted by dynamic programming over
    intersection masks, so a step scales with the number of distinct masks
    rather than rows.  The whole lattice takes O(k^2) steps, and it holds
    the counts of every k' <= k, so one lattice serves a whole scan over k.
    """
    free: list[list[int | None]] = [[None] * (k + 1) for _ in range(k + 1)]
    low_states = {~0: 1}
    for a in range(1, k + 1):
        low_states = _dk_step(low_states, low)
        states = low_states
        for b in range(1, (a if diagonal else k) + 1):
            states = _dk_step(states, high)
            free[a][b] = sum(states.values())
    return free


def _stirling1_row(k: int) -> list[int]:
    """Signed Stirling numbers of the first kind s(k, 0..k): the
    coefficients of the falling factorial x(x-1)...(x-k+1)."""
    row = [1]
    for n in range(k):
        row = [0] + row
        for a in range(len(row) - 1):
            row[a] -= n * row[a + 1]
    return row


def dk_count_distinct(free: list[list[int | None]], k: int) -> int:
    """Exact count of alternating 2k-tuples with pairwise distinct
    coordinates, from a full (not `diagonal`) lattice `free` of
    `dk_count_free` over at least k steps.

    Mobius inversion on the lattice of set partitions of the 2k coordinates
    (Rota 1964) gives

        distinct(k) = sum_{a,b=1..k} s(k,a) * s(k,b) * free[a][b]

    with s the signed Stirling numbers of the first kind.  A partition block
    holding an even and an odd coordinate would put one row on both sides,
    so the identity needs `low & high == 0` on every member row, which holds
    whenever s < r.
    """
    s = _stirling1_row(k)
    return sum(
        s[a] * s[b] * free[a][b]
        for a in range(1, k + 1)
        for b in range(1, k + 1)
    )

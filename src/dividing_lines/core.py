"""Evaluation tables: construction, validation, serialization, transpose.

The project-wide index convention: rows are the x-side ("points"), columns
are the y-side ("parameters/functions").  Every dual statement is obtained
through :func:`transpose`.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (BoundViolation, EmptyTable, IndexOutOfRange, InvalidWitness, ParseError,
                     ShapeMismatch)

# cells per block of `blocks` (a 128 KiB float64 temporary): bigger blocks
# measured slower from 64x64 tables up
_BLOCK_CELLS = 2**14


@dataclass(frozen=True)
class ThresholdPair:
    """A pair of thresholds s < r used by all dividing-line detectors."""

    s: float
    r: float

    def __post_init__(self) -> None:
        real(self.s, "s")
        real(self.r, "r")
        if not (self.s < self.r):
            raise ValueError(f"thresholds must satisfy s < r, got s={self.s}, r={self.r}")

    def check_against(self, table: "EvalTable") -> None:
        """Raise if either threshold lies outside [-bound, bound] of `table`."""
        b = table.bound
        if not (-b <= self.s <= b) or not (-b <= self.r <= b):
            raise ValueError(
                f"thresholds ({self.s}, {self.r}) outside table range [-{b}, {b}]"
            )


@dataclass(frozen=True)
class Epsilon:
    """A positive separation parameter."""

    eps: float

    def __post_init__(self) -> None:
        real(self.eps, "eps")
        if not (self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")


class EvalTable:
    """Immutable bounded real matrix.

    Entries are 64-bit floats; all downstream threshold comparisons are
    exact (no implicit tolerance), so tables should be pre-rounded by
    callers who want tolerant comparisons.  Its `masks` (`ThresholdMasks`)
    are derived data, outside equality, hashing and every serialized form.
    """

    __slots__ = ("entries", "bound", "row_labels", "col_labels", "_masks")

    def __init__(
        self,
        entries,
        bound: float | None = None,
        row_labels: Sequence[str] | None = None,
        col_labels: Sequence[str] | None = None,
    ):
        try:
            arr = np.array(entries, dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise _classify_array_error(entries, exc) from exc
        if arr.ndim != 2:
            raise ShapeMismatch(f"entries must be a 2-d array, got ndim={arr.ndim}")
        if arr.size == 0:
            raise EmptyTable("table has no entries")
        if not np.isfinite(arr).all():
            raise BoundViolation("table entries must be finite")
        max_abs = float(np.max(np.abs(arr)))
        if bound is None:
            bound = max_abs if max_abs > 0 else 1.0
        if not (bound > 0) or not math.isfinite(bound):
            raise BoundViolation(f"bound must be a positive finite real, got {bound}")
        if max_abs > bound:
            raise BoundViolation(f"entry magnitude {max_abs} exceeds bound {bound}")
        if row_labels is not None and len(row_labels) != arr.shape[0]:
            raise ShapeMismatch("row_labels length does not match row count")
        if col_labels is not None and len(col_labels) != arr.shape[1]:
            raise ShapeMismatch("col_labels length does not match column count")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "bound", float(bound))
        object.__setattr__(self, "row_labels", tuple(row_labels) if row_labels is not None else None)
        object.__setattr__(self, "col_labels", tuple(col_labels) if col_labels is not None else None)
        object.__setattr__(self, "_masks", None)

    def __setattr__(self, name, value):
        raise AttributeError("EvalTable is immutable")

    @property
    def masks(self) -> "ThresholdMasks":
        """The table's `ThresholdMasks`, made on first read."""
        if self._masks is None:
            object.__setattr__(self, "_masks", ThresholdMasks(self))
        return self._masks

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def __getitem__(self, idx):
        return self.entries[idx]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvalTable):
            return NotImplemented
        return (
            self.bound == other.bound
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ treats as equal
        return hash((self.entries.shape, self.bound, (self.entries + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"EvalTable({self.n_rows}x{self.n_cols}, bound={self.bound})"

    def to_dict(self) -> dict:
        d: dict = {"bound": self.bound, "entries": self.entries.tolist()}
        if self.row_labels is not None:
            d["row_labels"] = list(self.row_labels)
        if self.col_labels is not None:
            d["col_labels"] = list(self.col_labels)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EvalTable":
        if "bound" not in d:
            raise ParseError("JSON table requires a 'bound' field")
        if "entries" not in d:
            raise ParseError("JSON table requires an 'entries' field")
        return cls(
            d["entries"],
            bound=d["bound"],
            row_labels=d.get("row_labels"),
            col_labels=d.get("col_labels"),
        )


def _classify_array_error(entries, exc) -> Exception:
    try:
        rows = list(entries)
        lengths = {len(row) for row in rows}
        if len(lengths) > 1:
            return ShapeMismatch(f"ragged rows with lengths {sorted(lengths)}")
    except TypeError:
        pass
    return ParseError(f"could not build numeric array: {exc}")


def transpose(t: EvalTable) -> EvalTable:
    """Swap the roles of points and parameters (the dual table).  Its
    threshold lists are `t`'s under the flipped key (`ThresholdMasks`)."""
    dual = EvalTable(
        t.entries.T,
        bound=t.bound,
        row_labels=t.col_labels,
        col_labels=t.row_labels,
    )
    object.__setattr__(dual, "_masks", ThresholdMasks(dual, twin=t.masks))
    return dual


def bitmasks(flags) -> list[int]:
    """One bitmask per row of a 2-d boolean array: bit q of mask i is set
    iff flags[i, q].  The masks are Python ints, exact at any width; pass
    `flags.T` for per-column masks."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class ThresholdMasks(dict):
    """`t.masks`: the `<= s` and `>= r` bitmasks of table `t` that every
    detector reads, and its column pre-order `above`, each built on first use
    (or for every value at once by `sweep`) and kept as long as `t`, after a
    `stability_spectrum` too: O((rows + cols) * width) bits per threshold
    pair asked, plus cols^2 bits for the pre-order.  Key (op, v, by_col), op
    `operator.le` or `operator.ge`: `bitmasks(op(t.entries, v))`, one mask
    per row, or per column with `by_col` (the per-row masks of
    `transpose(t)`, whose set reads and fills `twin`, `t`'s set, under the
    flipped key).  It holds `t.entries`, not `t`, so it makes no cycle."""

    def __init__(self, t: EvalTable, twin: "ThresholdMasks | None" = None):
        super().__init__()
        self.entries = t.entries
        self.twin = twin

    def __missing__(self, key: tuple) -> list[int]:
        op, v, by_col = key
        if self.twin is not None:
            self[key] = masks = self.twin[op, v, not by_col]
        else:
            flags = op(self.entries, v)
            self[key] = masks = bitmasks(flags.T if by_col else flags)
        return masks

    @functools.cached_property
    def above(self) -> list[int]:
        """above[c] has bit c2 set iff c2 != c and column c <= column c2
        pointwise: the masks of `sop.preorder_psi(t).psi <= 0`, compared
        directly (for finite floats, a - b <= 0 exactly when a <= b), one
        block of columns c at a time (`blocks`) and without a float matrix."""
        vals = self.entries
        n_cols = vals.shape[1]
        flags = np.empty((n_cols, n_cols), dtype=bool)
        for block in blocks(n_cols, vals.size):
            flags[block] = (vals[:, block, None] <= vals[:, None, :]).all(axis=0)
        np.fill_diagonal(flags, False)
        return bitmasks(flags)

    def sweep(self) -> list[float]:
        """Build the `>= v` per-column lists of every distinct value v but the
        smallest and the `<= v` per-row lists of every one but the largest,
        and return the distinct values in ascending order.  One sort of the
        cells orders them; walking the values down, each `>= v` list is the
        one before it with v's cells OR-ed in, and walking up, so is each
        `<= v` list.  It pays for a whole table's values at once, and they
        stay with the table, so only a caller that reads most should use it."""
        n_rows, n_cols = self.entries.shape
        flat = self.entries.ravel()
        order = np.argsort(flat, kind="stable")
        cells = flat[order]
        # the first sorted cell of each distinct value (-0.0 == 0.0)
        starts = [0, *(np.flatnonzero(cells[1:] != cells[:-1]) + 1).tolist(), flat.size]
        values = cells[starts[:-1]].tolist()
        rows, cols = (idx.tolist() for idx in np.divmod(order, n_cols))
        ge_by_col = [0] * n_cols
        for k in range(len(values) - 1, 0, -1):
            for p in range(starts[k], starts[k + 1]):
                ge_by_col[cols[p]] |= 1 << rows[p]
            self[operator.ge, values[k], True] = ge_by_col.copy()
        le_by_row = [0] * n_rows
        for k in range(len(values) - 1):
            for p in range(starts[k], starts[k + 1]):
                le_by_row[rows[p]] |= 1 << cols[p]
            self[operator.le, values[k], False] = le_by_row.copy()
        return values


def indices(t: EvalTable, idx: Iterable, axis: int) -> tuple[int, ...]:
    """The indices `idx` of rows (axis 0) or columns (axis 1) of `t`, as
    ints.  Raises IndexOutOfRange at the first one that is not an integer
    (by `operator.index`: Python and numpy integers pass, floats do not) or
    not in range."""
    name = ("row", "col")[axis]
    n = t.entries.shape[axis]
    out = []
    for i in idx:
        try:
            j = operator.index(i)
        except TypeError:
            raise IndexOutOfRange(f"{name} index {i!r} is not an integer") from None
        if not 0 <= j < n:
            raise IndexOutOfRange(f"{name} index {j} out of range")
        out.append(j)
    return tuple(out)


def distinct_indices(t: EvalTable, *idx_axis: tuple[Iterable, int]):
    """`indices` of each (idx, axis) pair in turn, and the `first_violation`
    (None, "duplicate row index" or "duplicate col index") of the first that repeats one."""
    out = [indices(t, idx, axis) for idx, axis in idx_axis]
    for idx, (_, axis) in zip(out, idx_axis):
        if len(set(idx)) != len(idx):
            return out, (None, f"duplicate {('row', 'col')[axis]} index")
    return out, None


class Witness:
    """An index-level certificate: a subclass's `first_violation(t)` is None
    when it holds on table `t`, else a (location, description) pair."""

    def is_valid(self, t: EvalTable) -> bool:
        return self.first_violation(t) is None

    def checked(self, t: EvalTable):
        """This witness, or InvalidWitness naming its first violation on `t`."""
        violation = self.first_violation(t)
        if violation is not None:
            raise InvalidWitness(f"{type(self).__name__} fails on the table: {violation}")
        return self


def integer(value, name: str, low: int, error: type[Exception] = ValueError) -> int:
    """A size, count, seed or budget `value` as a plain int.  Raises `error`
    when it is not an integer (by `operator.index`: Python and numpy
    integers pass; floats, NaN and inf do not) or is below `low`."""
    try:
        j = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if j < low:
        raise error(f"{name} must be >= {low}, got {j}")
    return j


def real(value, name: str) -> None:
    """Raise TypeError unless `value` is a real number: Python and numpy
    ints and floats pass, bools, strings and None do not (a string would
    still compare, and fail only later inside numpy)."""
    # Python floats (numpy float64 too) pass before the abstract-class test,
    # which costs about a microsecond: the stability spectrum makes a pair
    # per cell
    if not isinstance(value, float) and (isinstance(value, bool)
                                         or not isinstance(value, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def blocks(n: int, cells: int) -> list[slice]:
    """Consecutive slices of range(n) for a blocked broadcast in which each
    index brings a temporary of `cells` cells: a block's temporary spans at
    most `_BLOCK_CELLS` cells (or one index, when a single index's temporary
    is already larger), so its size stays small at any table size."""
    step = max(1, _BLOCK_CELLS // cells)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def column_blocks(t: EvalTable) -> list[slice]:
    """`blocks` of columns for a broadcast of one block of columns against
    the whole table, a rows x block x cols temporary."""
    return blocks(t.n_cols, t.n_rows * t.n_cols)


def serialize(t: EvalTable) -> str:
    """Canonical JSON form; load_table round-trips it bit-exactly."""
    return json.dumps(t.to_dict(), sort_keys=True, separators=(",", ":"))


def _parse_csv(text: str, bound: float | None) -> EvalTable:
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError as exc:
                raise ParseError(f"non-numeric cell {cell!r} on line {line_no}") from exc
        rows.append(cells)
    if not rows:
        raise EmptyTable("CSV input contains no rows")
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise ShapeMismatch(f"ragged CSV rows with lengths {sorted(lengths)}")
    return EvalTable(rows, bound=bound)


def _parse_json(text: str) -> EvalTable:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ParseError("JSON table must be an object")
    return EvalTable.from_dict(d)


def load_table(
    source: str | bytes | Path | IO,
    format: str | None = None,
    bound: float | None = None,
) -> EvalTable:
    """Load a table from a path, byte/text stream, or in-memory string or bytes.

    `format` is "csv" or "json"; when omitted it is inferred from the file
    extension (paths only).  For CSV the bound defaults to the maximum
    absolute entry unless `bound` overrides it; for JSON the bound field
    is mandatory and `bound` must not be supplied.
    """
    if isinstance(source, str) and format is not None:
        text = source
    elif isinstance(source, (str, Path)):
        path = Path(source)
        if format is None:
            ext = path.suffix.lower().lstrip(".")
            if ext not in ("csv", "json"):
                raise ParseError(f"cannot infer format from extension {path.suffix!r}")
            format = ext
        text = path.read_text(encoding="utf-8")
    else:
        if format is None:
            raise ParseError("format must be given when loading from bytes or a stream")
        data = source if isinstance(source, bytes) else source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    if format == "csv":
        return _parse_csv(text, bound)
    if format == "json":
        if bound is not None:
            raise ParseError("bound override is a CSV-only option")
        return _parse_json(text)
    raise ParseError(f"unknown format {format!r}")

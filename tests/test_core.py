from __future__ import annotations

import io
import json
from operator import ge, le

import numpy as np
import pytest

from dividing_lines import (
    AlternationWitness,
    ChainWitness,
    EvalTable,
    Epsilon,
    LadderWitness,
    ShatterWitness,
    ThresholdPair,
    cesaro_column,
    dk_count,
    half_graph,
    is_shattered,
    iterated_means,
    load_table,
    mazur_approximate,
    serialize,
    transpose,
)
from dividing_lines import core
from dividing_lines.core import ThresholdMasks, bitmasks
from dividing_lines.errors import (
    BoundViolation,
    EmptyTable,
    IndexOutOfRange,
    ParseError,
    ShapeMismatch,
)


def test_threshold_pair_requires_s_below_r():
    ThresholdPair(0.0, 1.0)
    with pytest.raises(ValueError):
        ThresholdPair(1.0, 1.0)
    with pytest.raises(ValueError):
        ThresholdPair(2.0, 1.0)


def test_threshold_check_against_bound(tbl):
    t = tbl([[0.0, 1.0]], bound=1.0)
    ThresholdPair(0.0, 1.0).check_against(t)
    with pytest.raises(ValueError):
        ThresholdPair(0.0, 2.0).check_against(t)


def test_epsilon_positive():
    Epsilon(0.1)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            Epsilon(bad)


def test_table_immutability(tbl):
    t = tbl([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(AttributeError):
        t.bound = 7.0
    with pytest.raises(ValueError):
        t.entries[0, 0] = 9.0


def test_table_default_bound(tbl):
    assert tbl([[0.5, -2.0]]).bound == 2.0
    assert tbl([[0.0, 0.0]]).bound == 1.0


def test_table_rejects_bad_input(tbl):
    with pytest.raises(EmptyTable):
        EvalTable(np.zeros((0, 3)))
    with pytest.raises(ShapeMismatch):
        EvalTable(np.zeros(4))
    with pytest.raises(BoundViolation):
        tbl([[3.0]], bound=1.0)
    with pytest.raises(BoundViolation):
        tbl([[float("nan")]])
    with pytest.raises(ShapeMismatch):
        EvalTable([[1.0, 2.0], [3.0]])
    with pytest.raises(ShapeMismatch):
        tbl([[1.0, 2.0]], row_labels=["a", "b"])


def test_equality_and_hash(tbl):
    a = tbl([[1.0, 0.0]], bound=1.0)
    b = tbl([[1.0, 0.0]], bound=1.0)
    c = tbl([[1.0, 0.0]], bound=2.0)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_transpose_involution(tbl):
    t = tbl([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], row_labels=["p", "q"])
    tt = transpose(transpose(t))
    assert tt == t
    assert transpose(t).entries.shape == (3, 2)
    assert transpose(t).col_labels == ("p", "q")


def test_serialize_round_trip(tbl):
    t = tbl([[0.25, -1.0], [1.0, 0.0]], bound=1.5, col_labels=["u", "v"])
    s = serialize(t)
    assert load_table(s, format="json") == t
    # canonical form: sorted keys, no whitespace
    assert s == json.dumps(json.loads(s), sort_keys=True, separators=(",", ":"))


def test_load_csv_string_and_path(tbl, tmp_path):
    t = load_table("0,1\n1,0\n", format="csv")
    assert t == tbl([[0.0, 1.0], [1.0, 0.0]])
    p = tmp_path / "t.csv"
    p.write_text("0,1\n1,0\n")
    assert load_table(p) == t
    assert load_table(str(p)) == t


def test_load_csv_bound_override():
    assert load_table("0,1\n", format="csv", bound=4.0).bound == 4.0


def test_load_stream_requires_format():
    for source in (io.StringIO("0,1\n"), io.BytesIO(b"0,1\n"), b"0,1\n"):
        with pytest.raises(ParseError, match="format must be given"):
            load_table(source)
    buf = io.BytesIO(b"0,1\n")
    assert load_table(buf, format="csv").n_cols == 2


def test_load_csv_errors():
    with pytest.raises(ShapeMismatch):
        load_table("0,1\n1\n", format="csv")
    with pytest.raises(ParseError):
        load_table("0,x\n", format="csv")
    with pytest.raises(EmptyTable):
        load_table("\n", format="csv")


def test_load_json_errors():
    with pytest.raises(ParseError):
        load_table("{not json", format="json")
    with pytest.raises(ParseError):
        load_table('{"entries": [[0.0]]}', format="json")
    with pytest.raises(ParseError):
        load_table('{"bound": 1.0, "entries": [[0.0]]}', format="json", bound=2.0)


def test_load_unknown_extension(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("0,1\n")
    with pytest.raises(ParseError):
        load_table(p)


def test_bitmasks_match_definition_at_every_width():
    # widths 1..130 cross the 32- and 64-bit boundaries; the transposed
    # (non-contiguous) view is how callers build per-column masks
    rng = np.random.default_rng(5)
    for width in range(1, 131):
        flags = rng.random((3, width)) < 0.5
        flags[0, width - 1] = True
        for m in (flags, flags.T):
            assert bitmasks(m) == [sum(1 << int(q) for q in np.flatnonzero(row)) for row in m]


@pytest.mark.parametrize("width", [31, 32, 33, 63, 64, 65, 128])
def test_threshold_masks_match_bitmasks(width):
    rng = np.random.default_rng([width, 7])
    for shape in ((3, width), (width, 3)):
        t = EvalTable(rng.integers(0, 3, size=shape).astype(float), bound=2.0)
        masks = ThresholdMasks(t)
        for op, v in ((le, 0.0), (le, 1.0), (ge, 1.0), (ge, 2.0)):
            flags = op(t.entries, v)
            assert masks[op, v, False] == bitmasks(flags)
            assert masks[op, v, True] == bitmasks(flags.T)
        assert len(masks) == 8


def test_threshold_masks_build_each_key_once(monkeypatch):
    built = []
    build = core.bitmasks

    def counted(flags):
        built.append(flags.shape)
        return build(flags)

    monkeypatch.setattr(core, "bitmasks", counted)
    masks = ThresholdMasks(half_graph(4))
    first = masks[le, 0.0, True]
    assert masks[le, 0.0, True] is first
    masks[ge, 1.0, False]
    masks[ge, 1.0, False]
    assert built == [(4, 4), (4, 4)]


TH = ThresholdPair(0.0, 1.0)
EPS = Epsilon(1.0)

# every entry point that takes row or column indices, called with index i
# in one row or column position
INDEX_ENTRY_POINTS = {
    "ladder": lambda t, i: LadderWitness((i, 2), (1, 3), TH).first_violation(t),
    "alternation": lambda t, i: AlternationWitness("ii", ((i, 2), (2, 3)), EPS).first_violation(t),
    "shatter": lambda t, i: ShatterWitness((1,), TH, {0: i, 1: 0}).first_violation(t),
    "chain": lambda t, i: ChainWitness((0, i), (2, 3), EPS).first_violation(t),
    "iterated_means": lambda t, i: iterated_means(t, [i, 2, 3], [0, 1, 2]),
    "is_shattered": lambda t, i: is_shattered(t, [i, 3], TH),
    "dk_count": lambda t, i: dk_count(t, [i, 2], 1, TH),
    "cesaro_column": lambda t, i: cesaro_column(t, [i, 2]).tolist(),
    "mazur_approximate": lambda t, i: mazur_approximate(t, [i, 2], [0.5] * 4),
}


@pytest.mark.parametrize("call", INDEX_ENTRY_POINTS.values(), ids=INDEX_ENTRY_POINTS.keys())
def test_indices_must_be_integers(call):
    t = half_graph(4)
    for bad in (0.5, 1.5):
        with pytest.raises(IndexOutOfRange):
            call(t, bad)
    assert call(t, np.int64(1)) == call(t, 1)

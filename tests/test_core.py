from __future__ import annotations

import io
import json
import time
from operator import ge, le

import numpy as np
import pytest

from dividing_lines import (
    AlternationWitness,
    ChainWitness,
    ClassifyParams,
    EvalTable,
    Epsilon,
    GeneratorConfig,
    LadderWitness,
    ShatterWitness,
    ThresholdPair,
    almost_nip_scan,
    alternation_rank,
    cantor_example,
    cesaro_column,
    classify,
    dichotomy_scan,
    dk_count,
    full_pattern,
    half_graph,
    is_shattered,
    iterated_means,
    load_table,
    max_ladder,
    mazur_approximate,
    random_table,
    serialize,
    shattered_tuple_fraction,
    shattering_dimension,
    sop_witness,
    stability_spectrum,
    transpose,
)
from dividing_lines import core
from dividing_lines.core import ThresholdMasks, bitmasks
from dividing_lines.errors import (
    BoundViolation,
    EmptyTable,
    IndexOutOfRange,
    InvalidSize,
    ParseError,
    ShapeMismatch,
)


def test_threshold_pair_requires_s_below_r():
    ThresholdPair(0.0, 1.0)
    with pytest.raises(ValueError):
        ThresholdPair(1.0, 1.0)
    with pytest.raises(ValueError):
        ThresholdPair(2.0, 1.0)
    for s, r in (("a", "b"), (False, True), (None, 1.0), (0.0, np.bool_(True))):
        with pytest.raises(TypeError, match="must be a real number"):
            ThresholdPair(s, r)
    # values that pass are kept as given
    th = ThresholdPair(np.float64(0.5), 1)
    assert type(th.s) is np.float64 and type(th.r) is int


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
    for bad in (True, "1", None):
        with pytest.raises(TypeError, match="eps must be a real number"):
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
    z, neg_z = tbl([[0.0, 1.0]], bound=1), tbl([[-0.0, 1.0]], bound=1)
    assert z == neg_z and hash(z) == hash(neg_z) and len({z, neg_z}) == 1


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


def _sweep_tables():
    rng = np.random.default_rng(26)
    yield "uniform", EvalTable(rng.uniform(-1.0, 1.0, size=(7, 9)), bound=1.0)
    yield "ties", EvalTable(rng.integers(-3, 4, size=(9, 7)).astype(float), bound=3.0)
    zeros = rng.integers(-1, 2, size=(6, 6)).astype(float)
    zeros[::2] *= -1.0  # -0.0 in the even rows, 0.0 in the odd ones
    yield "signed-zero", EvalTable(zeros, bound=1.0)
    yield "constant", EvalTable(np.full((3, 4), 0.5), bound=1.0)
    for width in (31, 32, 33, 63, 64, 65, 128):
        for shape in ((width, 5), (5, width)):
            vals = rng.integers(0, 6, size=shape) if width % 2 else rng.uniform(-1.0, 1.0, shape)
            yield f"{shape[0]}x{shape[1]}", EvalTable(vals, bound=6.0)


@pytest.mark.parametrize("name, t", list(_sweep_tables()))
def test_threshold_masks_sweep_matches_bitmasks(name, t):
    masks = ThresholdMasks(t)
    values = masks.sweep()
    assert values == sorted(set(t.entries.ravel().tolist()))
    swept = dict(masks)
    assert len(swept) == 2 * (len(values) - 1)
    for v in values[1:]:
        assert swept[ge, v, True] == bitmasks(t.entries.T >= v), v
    for v in values[:-1]:
        assert swept[le, v, False] == bitmasks(t.entries <= v), v
    if name == "signed-zero":
        assert swept[le, -0.0, False] is swept[le, 0.0, False]
    # every other key is still built on first use
    assert masks[ge, values[0], False] == bitmasks(t.entries >= values[0])
    assert len(masks) == len(swept) + 1


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


H4 = half_graph(4)
R8 = random_table(8, 8, seed=1)
SCAN_GEN = GeneratorConfig("random_table", n_rows=4, n_cols=4)
# a cutoff that leaves some long-ladder tables unexplained, so the cap matters
SCAN_PARAMS = ClassifyParams(min_ladder=2)


def _json(obj) -> str:
    """Canonical JSON of a report dict; numpy integers in it raise TypeError."""
    return json.dumps(obj, sort_keys=True)


# every integer parameter of a public entry point, keyed "entry.parameter":
# (call with the parameter set to v, a valid v, the lowest valid v, error)
COUNT_ENTRY_POINTS = {
    **{f"ClassifyParams.{name}": (
        lambda v, name=name: _json(ClassifyParams(**{name: v}).to_dict()), value, low, ValueError)
       for name, value, low in (("exact_limit", 1000, 0), ("tuple_budget", 10**6, 0),
                                ("min_ladder", 3, 1), ("min_ip_dim", 3, 1),
                                ("min_chain", 2, 1), ("k_max", 3, 1))},
    "dichotomy_scan.trials": (
        lambda v: dichotomy_scan(SCAN_GEN, v, 2, SCAN_PARAMS).to_json(), 4, 0, ValueError),
    "dichotomy_scan.seed": (
        lambda v: dichotomy_scan(SCAN_GEN, 4, v, SCAN_PARAMS).to_json(), 2, 0, ValueError),
    "dichotomy_scan.exception_cap": (
        lambda v: dichotomy_scan(SCAN_GEN, 4, 2, SCAN_PARAMS, v).to_json(), 1, 0, ValueError),
    "dk_count.k": (lambda v: _json(dk_count(R8, range(8), v, TH).to_dict()), 2, 1, ValueError),
    "dk_count.samples": (
        lambda v: _json(dk_count(R8, range(8), 2, TH, mode="mc", seed=0, samples=v).to_dict()),
        50, 1, ValueError),
    "dk_count.seed": (
        lambda v: _json(dk_count(R8, range(8), 2, TH, mode="mc", seed=v, samples=50).to_dict()),
        3, 0, ValueError),
    "dk_count.budget": (
        lambda v: _json(dk_count(R8, range(8), 2, TH, budget=v).to_dict()), 8**4, 0, ValueError),
    "almost_nip_scan.k_max": (
        lambda v: _json([r.to_dict() for r in almost_nip_scan(R8, range(8), TH, v)[1]]),
        2, 1, ValueError),
    "almost_nip_scan.budget": (
        lambda v: _json([r.to_dict() for r in almost_nip_scan(R8, range(8), TH, 2, budget=v)[1]]),
        8**4, 0, ValueError),
    "shattered_tuple_fraction.n": (
        lambda v: shattered_tuple_fraction(R8, range(8), v, TH), 2, 1, ValueError),
    "shattered_tuple_fraction.samples": (
        lambda v: shattered_tuple_fraction(R8, range(8), 2, TH, mode="mc", seed=0, samples=v),
        50, 1, ValueError),
    "shattered_tuple_fraction.seed": (
        lambda v: shattered_tuple_fraction(R8, range(8), 2, TH, mode="mc", seed=v, samples=50),
        3, 0, ValueError),
    "shattered_tuple_fraction.budget": (
        lambda v: shattered_tuple_fraction(R8, range(8), 2, TH, budget=v), 64, 0, ValueError),
    "stability_spectrum.max_len": (lambda v: stability_spectrum(H4, v), 3, 2, ValueError),
    "stability_spectrum.exact_limit": (
        lambda v: stability_spectrum(H4, 3, v), 1000, 0, ValueError),
    "sop_witness.target_m": (lambda v: sop_witness(H4, Epsilon(0.5), v), 3, 2, ValueError),
    "sop_witness.exact_limit": (
        lambda v: sop_witness(H4, Epsilon(0.5), 3, v), 1000, 0, ValueError),
    "max_ladder.exact_limit": (lambda v: max_ladder(R8, TH, v), 1000, 0, ValueError),
    "alternation_rank.exact_limit": (
        lambda v: alternation_rank(R8, EPS, "iii", v), 1000, 0, ValueError),
    "shattering_dimension.exact_limit": (
        lambda v: shattering_dimension(full_pattern(3), TH, v), 1000, 0, ValueError),
    "half_graph.n": (half_graph, 3, 1, InvalidSize),
    "full_pattern.k": (full_pattern, 2, 1, InvalidSize),
    "random_table.n_rows": (lambda v: random_table(v, 3, seed=0), 3, 1, InvalidSize),
    "random_table.n_cols": (lambda v: random_table(3, v, seed=0), 3, 1, InvalidSize),
    "cantor_example.m": (lambda v: cantor_example(v, 4).table, 2, 1, InvalidSize),
    "cantor_example.L": (lambda v: cantor_example(1, v).table, 4, 3, InvalidSize),
}


@pytest.mark.parametrize("name, entry", COUNT_ENTRY_POINTS.items(), ids=COUNT_ENTRY_POINTS.keys())
def test_counts_must_be_integers(name, entry):
    call, value, low, error = entry
    param = name.split(".")[1]
    for bad in (2.5, float("nan"), float("inf"), low - 1):
        with pytest.raises(error, match=f"^{param} must be"):
            call(bad)
    assert call(np.int64(value)) == call(value)


def test_nan_budget_raises_before_search():
    # with the default budget this ladder search stops after about a second;
    # a NaN budget that reached it would switch the budget off
    t = random_table(40, 40, "bernoulli", seed=[0, 40, 99])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exact_limit"):
        max_ladder(t, ThresholdPair(0, 1), exact_limit=float("nan"))
    with pytest.raises(ValueError, match="budget"):
        dk_count(t, range(40), 3, ThresholdPair(0, 1), budget=float("nan"))
    assert time.perf_counter() - start < 0.25


def test_numpy_counts_give_the_same_json():
    fields = dict(exact_limit=1000, tuple_budget=10**6, min_ladder=2, min_ip_dim=2,
                  min_chain=2, k_max=2)
    plain = ClassifyParams(**fields)
    numpy = ClassifyParams(**{name: np.int64(v) for name, v in fields.items()})
    assert all(type(getattr(numpy, name)) is int for name in fields)
    assert classify(R8, numpy).to_json() == classify(R8, plain).to_json()
    n = np.int64
    assert (dichotomy_scan(SCAN_GEN, n(4), n(2), numpy, n(1)).to_json()
            == dichotomy_scan(SCAN_GEN, 4, 2, plain, 1).to_json())
    mc = dk_count(R8, range(8), n(2), TH, mode="mc", seed=n(0), samples=n(50))
    assert type(mc.condition_holds) is bool and type(mc.count) is float
    assert _json(mc.to_dict()) == _json(
        dk_count(R8, range(8), 2, TH, mode="mc", seed=0, samples=50).to_dict())

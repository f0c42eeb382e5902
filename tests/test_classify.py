from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from dividing_lines import (
    AlternationWitness,
    ChainWitness,
    ClassifyParams,
    Epsilon,
    EvalTable,
    GeneratorConfig,
    LadderWitness,
    ThresholdPair,
    classify,
    dichotomy_scan,
    generate,
    half_graph,
    random_table,
    table_digest,
    transpose,
    validate_witness,
    witness_from_dict,
)
from dividing_lines import backend, core, op, sop, talagrand
from dividing_lines.errors import InvalidWitness

SECTION_NAMES = (
    "ladder",
    "alternation_ii",
    "alternation_iii",
    "shattering_primal",
    "shattering_dual",
    "strict_chain",
    "sop_literal",
    "talagrand",
    "verdicts",
)


def test_classify_sections_present():
    report = classify(half_graph(5))
    assert set(SECTION_NAMES) <= set(report.sections)
    assert report.errors == ()


def test_classify_half_graph_verdicts():
    report = classify(half_graph(5))
    assert report.sections["ladder"]["length"] == 5
    assert report.sections["strict_chain"]["m"] == 5
    assert report.sections["shattering_primal"]["dim"] == 1
    v = report.sections["verdicts"]
    assert v["op_detected"] and v["sop_detected"] and not v["ip_detected"]


def test_classify_witnesses_revalidate():
    t = half_graph(5)
    report = classify(t)
    for name in ("ladder", "alternation_ii", "alternation_iii"):
        w = witness_from_dict(report.sections[name]["witness"])
        ok, violation = validate_witness(t, w)
        assert ok, (name, violation)


def test_classify_report_json_deterministic():
    a = classify(half_graph(4)).to_json()
    b = classify(half_graph(4)).to_json()
    assert a == b
    doc = json.loads(a)
    assert doc["schema"] == "dl-report/1"
    assert list(doc) == sorted(doc)


def test_table_digest_stable_and_distinct():
    assert table_digest(half_graph(3)) == table_digest(half_graph(3))
    assert table_digest(half_graph(3)) != table_digest(half_graph(4))


def test_validate_witness_reports_violation():
    t = half_graph(4)
    bad = LadderWitness((0, 1), (0, 1), ThresholdPair(0.0, 1.0))
    ok, violation = validate_witness(t, bad)
    assert not ok and violation is not None


def test_witness_from_dict_kinds():
    th = ThresholdPair(0.0, 1.0)
    w = LadderWitness((0, 1), (2, 3), th)
    assert witness_from_dict(w.to_dict()) == w
    c = ChainWitness((0, 1), (1, 0), Epsilon(0.5))
    assert witness_from_dict(c.to_dict()) == c
    with pytest.raises(InvalidWitness):
        witness_from_dict({"kind": "sorcery"})
    shatter = {"kind": "shatter", "cols": [0], "s": 0.0, "r": 1.0}
    alternation = {"kind": "alternation", "variant": "ii", "eps": 1.0}
    for bad in ({"kind": ["ladder"]}, {**shatter, "selector": [1, 2]},
                {**shatter, "selector": None}, {**alternation, "pairs": [[0]]},
                {**alternation, "pairs": [[0, 1, 2]]},
                {**alternation, "variant": "iv", "pairs": [[0, 0]]},
                {"kind": "ladder", "rows": [0, 1], "cols": [0, 1], "s": "a", "r": "b"},
                {**shatter, "s": "a", "r": "b", "selector": {"0": 0, "1": 1}},
                {**alternation, "pairs": [[0, 0]], "eps": True}):
        with pytest.raises(InvalidWitness):
            witness_from_dict(bad)


def test_alternation_witness_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant"):
        AlternationWitness("iv", ((0, 0),), Epsilon(1.0))


def test_classify_custom_params():
    params = ClassifyParams(min_ladder=2, min_ip_dim=1, k_max=1)
    report = classify(half_graph(3), params)
    assert report.parameters == params
    assert report.sections["verdicts"]["op_detected"]
    assert len(report.sections["talagrand"]["reports"]) == 1


@pytest.mark.parametrize("kwargs, message", [
    ({"k_max": 0}, "k_max must be >= 1"),
    ({"k_max": 1.5}, "k_max must be an integer"),
    ({"tuple_budget": -1}, "tuple_budget must be >= 0"),
])
def test_classify_params_check_counts_at_construction(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ClassifyParams(**kwargs)
    params = ClassifyParams(k_max=np.int64(1), tuple_budget=0)
    assert type(params.k_max) is int
    assert classify(half_graph(3), params).sections["talagrand"] is None


def test_classify_builds_four_threshold_lists(monkeypatch):
    # `<= s` and `>= r`, each by row and by column, shared by the ladder (its
    # transposed probe too), both shatterings and the Talagrand scan
    built, passes = [], []
    build, search = core.bitmasks, backend.ladder_search

    def counted(flags):
        built.append(flags.shape)
        return build(flags)

    def recorded(*args, **kwargs):
        passes.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(core, "bitmasks", counted)
    monkeypatch.setattr(backend, "ladder_search", recorded)
    # the second table's forward ladder outruns its first slice, so the probe runs
    probed = transpose(random_table(18, 18, "bernoulli", seed=[0, 18, 99]))
    for t, n_passes in ((half_graph(6), 1), (probed, 3)):
        built.clear()
        passes.clear()
        classify(t, ClassifyParams(exact_limit=30_000))
        assert len(passes) == n_passes
        assert len(built) == 4


def test_sop_literal_statuses():
    found = classify(half_graph(5), ClassifyParams(eps=0.5, min_chain=3))
    assert found.sections["sop_literal"]["status"] == "found"
    none = classify(EvalTable(np.eye(3)), ClassifyParams(min_chain=3))
    assert none.sections["sop_literal"]["status"] == "none"


def test_dichotomy_scan_deterministic():
    cfg = GeneratorConfig(kind="random_table", n_rows=4, n_cols=4)
    a = dichotomy_scan(cfg, trials=8, seed=3)
    b = dichotomy_scan(cfg, trials=8, seed=3)
    assert a.to_json() == b.to_json()
    assert a.trials == 8 and len(a.trial_digests) == 8


def test_dichotomy_scan_counts_consistent():
    cfg = GeneratorConfig(kind="random_table", n_rows=5, n_cols=5)
    s = dichotomy_scan(cfg, trials=20, seed=1)
    assert s.exception_count == s.long_ladder_count - s.explained_count
    assert len(s.exceptions) <= s.exception_count


@pytest.mark.parametrize("shape", [(5, 5), (6, 6)], ids=["5x5", "6x6"])
@pytest.mark.parametrize("model, params", [
    ("bernoulli", ClassifyParams()),
    ("uniform", ClassifyParams(s=-0.3, r=0.3, eps=0.4)),
    ("bernoulli", ClassifyParams(exact_limit=50)),
], ids=["bernoulli", "uniform", "bernoulli-limit50"])
def test_dichotomy_scan_matches_classify(shape, model, params):
    # each trial runs only the verdict sections; its line, and the report of
    # each recorded exception, must be the ones a full classify gives
    gen = GeneratorConfig(kind="random_table", n_rows=shape[0], n_cols=shape[1],
                          value_model=model)
    trials, seed = 100, 10
    lines, unexplained = [], []
    for i in range(trials):
        table = generate(replace(gen, seed=[seed, i]))
        report = classify(table, params)
        v = report.sections["verdicts"]
        lines.append(f"trial={i} digest={report.table_digest[:16]} "
                     f"op={v['op_detected']} ip={v['ip_detected']} sop={v['sop_detected']}")
        if v["op_detected"] and not (v["ip_detected"] or v["sop_detected"]):
            unexplained.append({"trial": i, "table": table.to_dict(), "report": report.to_dict()})
    assert unexplained
    for cap in (0, 1, 25):
        scan = dichotomy_scan(gen, trials, seed, params, exception_cap=cap)
        assert list(scan.trial_digests) == lines
        assert scan.exception_count == len(unexplained)
        assert [dict(e) for e in scan.exceptions] == unexplained[:cap]


def test_dichotomy_scan_classifies_only_recorded_exceptions(monkeypatch):
    # alternation ii / iii and the Talagrand scan run only inside the full
    # classify of a recorded exception, and its report reuses the trial's
    # ladder and column pre-order: one of each per trial
    calls = {"alt": 0, "talagrand": 0, "ladder": 0, "above": 0}
    alternation_rank, almost_nip_scan = op.alternation_rank, talagrand._almost_nip_scan
    ladder, above_masks = op._ladder, sop._above_masks

    def counted(key, fn):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(op, "alternation_rank", counted("alt", alternation_rank))
    monkeypatch.setattr(talagrand, "_almost_nip_scan", counted("talagrand", almost_nip_scan))
    monkeypatch.setattr(op, "_ladder", counted("ladder", ladder))
    monkeypatch.setattr(sop, "_above_masks", counted("above", above_masks))
    gen = GeneratorConfig(kind="random_table", n_rows=5, n_cols=5)
    for cap, recorded in ((0, 0), (2, 2), (25, 5)):
        calls.update(alt=0, talagrand=0, ladder=0, above=0)
        scan = dichotomy_scan(gen, trials=100, seed=3, exception_cap=cap)
        assert scan.exception_count == 5 and len(scan.exceptions) == recorded
        assert calls == {"alt": 2 * recorded, "talagrand": recorded, "ladder": 100,
                         "above": 100}
        for exc in scan.exceptions:
            t = EvalTable.from_dict(exc["table"])
            assert exc["report"] == classify(t).to_dict()


def test_dichotomy_scan_rejects_negative_trials():
    cfg = GeneratorConfig(kind="half_graph", n=3)
    with pytest.raises(ValueError):
        dichotomy_scan(cfg, trials=-1, seed=0)

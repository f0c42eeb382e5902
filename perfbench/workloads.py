"""The three workloads: seeded corpora, the operations of one round, and
the check each operation's output must pass.

A round is a fixed list of library calls.  Every call is one attempted
operation, timed on its own.  Its first-round output is checked against
``checks`` after the measuring; later rounds must reproduce it exactly.
Metrics a workload's main corpus does not produce come from a small
reference slice on fixed inputs (``reference_steps``), so every workload
reports every end-to-end metric.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import dividing_lines as dl
from dividing_lines import cli as dl_cli

import checks as ck
import speed

BINARY = (0.0, 1.0, 1.0)     # s, r, eps for {0,1} tables (the ClassifyParams defaults)
UNIFORM = (-0.3, 0.3, 0.4)   # s, r, eps for tables uniform on [-1, 1]
WIDE_EPS = 0.5
MC_SAMPLES = 6_000
SCAN_TRIALS = 20

# operations that return a wrong answer with exact=True because the code
# building row and column masks computes 1 << np.int64(p), which wraps at
# p = 63 and is 0 past it
KNOWN_FAULTS = {
    "wide.fp7.shatter", "wide.cant7.shatter", "wide.cant8.shatter",
    "wide.hgT65.ladder", "wide.rows66-67.ladder",
    "wide.col66.dk_count", "wide.col66.fraction",
}


@dataclass
class Case:
    name: str
    table: object
    s: float
    r: float
    eps: float
    closed: dict = field(default_factory=dict)  # closed-form expectations
    extra: dict = field(default_factory=dict)


class Recorder:
    """Counts and times operations.  The first round's outputs are kept and
    checked once the measuring is over; every later round must reproduce
    them exactly."""

    def __init__(self):
        self.round = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failed_ops: set[str] = set()
        self.exact_results = 0
        self.check_s = 0.0
        self._first: dict[str, str] = {}
        self._passes: dict[str, int] = defaultdict(int)
        self._pending: list[tuple[str, object, Callable, Callable | None]] = []
        self._speed = 0.0
        # bucket -> op key -> ([(raw s, reference-speed s) per round], work per call)
        self.times: dict[str, dict[str, tuple[list, float]]] = defaultdict(dict)

    def start_round(self) -> None:
        self._speed = speed.calibrate()

    def op(self, key: str, bucket: str, call: Callable, fingerprint: Callable,
           check: Callable, work: float = 1.0, exact_count: Callable | None = None):
        self.attempted += 1
        before = self._speed
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an operation that raises is a failed operation
            self._speed = speed.calibrate()
            self._fail(key, f"{key}: raised {type(exc).__name__}: {exc}")
            return
        seconds = time.perf_counter() - t0
        # the loop after one operation is the loop before the next
        self._speed = speed.calibrate()
        scale = speed.REFERENCE_S / ((before + self._speed) / 2)
        self.times[bucket].setdefault(key, ([], work))[0].append((seconds, seconds * scale))
        fp = fingerprint(result)
        if key not in self._first:
            self._first[key] = fp
            self._pending.append((key, result, check, exact_count))
        elif fp != self._first[key]:
            self._fail(key, f"{key}: output differs from the first round")
            return
        self._passes[key] += 1

    def finish(self) -> None:
        """Check the first round's outputs; a wrong output fails its
        operation in every round that reproduced it."""
        t0 = time.perf_counter()
        for key, result, check, exact_count in self._pending:
            try:
                ok = bool(check(result))
            except Exception as exc:
                ok = False
                self.problems.append(f"{key}: check raised {type(exc).__name__}: {exc}")
            if not ok:
                for _ in range(self._passes[key]):
                    self._fail(key, f"{key}: output failed its check")
            elif exact_count is not None:
                self.exact_results += exact_count(result)
        self.check_s = time.perf_counter() - t0

    def _fail(self, key: str, message: str) -> None:
        self.failed += 1
        self.failed_ops.add(key)
        if key not in KNOWN_FAULTS and message not in self.problems:
            self.problems.append(message)


def _fp(res) -> str:
    return repr(res)


# ---- classify -------------------------------------------------------------

REPORT_SEARCHES = ("ladder", "alternation_ii", "alternation_iii",
                   "shattering_primal", "shattering_dual")


def _check_report(case: Case, rep: dict) -> bool:
    t = case.table.entries
    s, r, eps = case.s, case.r, case.eps
    if rep["errors"]:
        return False
    for name in REPORT_SEARCHES + ("sop_literal",):
        w = rep[name].get("witness")
        if w is not None and not ck.report_witness_ok(t, name, w):
            return False
    true_ladder = case.closed.get("ladder") or ck.max_ladder_ref(t, s, r)
    lad = rep["ladder"]
    if not _bound_ok(lad["length"], lad["exact"], true_ladder):
        return False
    for name, entries in (("shattering_primal", t), ("shattering_dual", t.T)):
        sec = rep[name]
        expected = ck.shatter_dim_ref(entries, s, r)
        if name == "shattering_primal":
            expected = case.closed.get("shatter", expected)
        if not _bound_ok(sec["dim"], sec["exact"], expected):
            return False
    if true_ladder is not None and rep["shattering_primal"]["dim"] > true_ladder:
        return False
    for variant in ("ii", "iii"):
        sec = rep[f"alternation_{variant}"]
        small = t.size <= (20 if variant == "ii" else 12)
        if small and not _bound_ok(sec["rank"], sec["exact"], ck.brute_alternation(t, variant, eps)):
            return False
        # with eps <= r - s every ladder is an alternation witness
        if sec["exact"] and true_ladder is not None and eps <= r - s and sec["rank"] < true_ladder:
            return False
    chain = rep["strict_chain"]
    if chain["m"] != case.closed.get("chain", ck.strict_chain_ref(t, eps)):
        return False
    if not _steps_ok(t, chain["cols"], chain["step_rows"], eps):
        return False
    tal = rep["talagrand"]
    if not _scan_ok(t, range(t.shape[0]), s, r, True, tal["k_min"],
                    [(x["k"], x["count"]) for x in tal["reports"]]):
        return False
    v = rep["verdicts"]
    return (v["op_detected"] == (lad["length"] >= 4)
            and v["ip_detected"] == (rep["shattering_primal"]["dim"] >= 2)
            and v["sop_detected"] == (chain["m"] >= 3))


def _bound_ok(value: int, exact: bool, expected: int | None) -> bool:
    """Exact results equal the true value; inexact ones are lower bounds."""
    if expected is None:
        return True
    return value == expected if exact else value <= expected


def _steps_ok(t: np.ndarray, cols, step_rows, eps: float) -> bool:
    for i, (a, b) in enumerate(zip(cols, cols[1:])):
        if not np.all(t[:, a] <= t[:, b]) or not (t[step_rows[i], b] >= t[step_rows[i], a] + eps):
            return False
    return len(step_rows) == max(len(cols) - 1, 0)


def _scan_ok(t, members, s, r, distinct, k_min, counts) -> bool:
    n = len(members)
    expected_kmin = None
    for k, count in counts:
        if count != ck.tuple_count_ref(t, members, k, s, r, distinct):
            return False
        if expected_kmin is None and count < n ** (2 * k):
            expected_kmin = k
    return k_min == expected_kmin


def classify_phase(rec: Recorder, cases: list[Case]) -> None:
    for case in cases:
        params = dl.ClassifyParams(s=case.s, r=case.r, eps=case.eps)

        def check(report, case=case):
            return _check_report(case, report.to_dict())

        rec.op(f"classify.{case.name}", "classify",
               lambda case=case, params=params: dl.classify(case.table, params),
               lambda report: report.to_json(), check,
               exact_count=lambda report: sum(
                   bool(report.sections[n] and report.sections[n]["exact"])
                   for n in REPORT_SEARCHES))


def scan_phase(rec: Recorder, spec: dict) -> None:
    rows, cols, trials, seed = spec["rows"], spec["cols"], spec["trials"], spec["seed"]
    gen = dl.GeneratorConfig(kind="random_table", n_rows=rows, n_cols=cols)

    def check(summary):
        op = ip = sop = explained = 0
        for i, line in enumerate(summary.trial_digests):
            rng = np.random.default_rng([seed, i])
            t = (rng.random((rows, cols)) < 0.5).astype(np.float64)
            v = (ck.brute_ladder(t, 0.0, 1.0) >= 4,
                 ck.shatter_dim_ref(t, 0.0, 1.0) >= 2,
                 ck.strict_chain_ref(t, 1.0) >= 3)
            want = (f"trial={i} digest={ck.digest(t, 1.0)[:16]} "
                    f"op={v[0]} ip={v[1]} sop={v[2]}")
            if line != want:
                return False
            op += v[0]
            explained += v[0] and (v[1] or v[2])
        return (summary.trials == trials == len(summary.trial_digests)
                and summary.long_ladder_count == op
                and summary.explained_count == explained
                and summary.exception_count == op - explained
                and len(summary.exceptions) == min(op - explained, 25))

    rec.op(f"scan.{rows}x{cols}.{trials}.seed{seed}", "scan",
           lambda: dl.dichotomy_scan(gen, trials, seed), lambda s: s.to_json(), check,
           work=trials)


# ---- CLI round trip -------------------------------------------------------

CLI_M, CLI_L = 3, 5


def cli_phase(rec: Recorder, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    f = {name: str(workdir / f"{name}.json")
         for name in ("table", "target", "report", "valid", "tal", "mazur")}
    entries, target = ck.cantor_entries(CLI_M, CLI_L)

    def read(name):
        return json.loads(Path(f[name]).read_text(encoding="utf-8"))

    def out_fp(name):
        def fingerprint(code):
            return f"{code} {Path(f[name]).read_text(encoding='utf-8')}"
        return fingerprint

    def check_generate(code):
        doc = read("table")
        return (code == 0 and np.array_equal(np.array(doc["entries"]), entries)
                and np.array_equal(np.array(read("target")["target"]), target))

    def check_analyze(code):
        rep = read("report")
        case = Case("cli", ck.Entries(entries), *BINARY)
        return code == 0 and _check_report(case, rep)

    def check_validate(code):
        doc = read("valid")
        return code == 0 and doc["revalidated"] is True and doc["failures"] == []

    def check_talagrand(code):
        doc = read("tal")
        return code == 0 and _scan_ok(entries, range(entries.shape[0]), 0.0, 1.0, True,
                                      doc["k_min"], [(x["k"], x["count"]) for x in doc["reports"]])

    def check_mazur(code):
        doc = read("mazur")
        return code == 0 and ck.mazur_ok(entries, target, doc["weights"], doc["achieved"])

    cols = ",".join(str(c) for c in range(CLI_M))
    steps = [
        ("generate", ["generate", "--kind", "cantor_example", "--m", str(CLI_M), "--L",
                      str(CLI_L), "--out", f["table"], "--target-out", f["target"]],
         "table", check_generate),
        ("analyze", ["analyze", "--input", f["table"], "--out", f["report"]],
         "report", check_analyze),
        ("validate", ["analyze", "--input", f["table"], "--validate-report", f["report"],
                      "--out", f["valid"]], "valid", check_validate),
        ("talagrand", ["talagrand", "--input", f["table"], "--kmax", "2", "--out", f["tal"]],
         "tal", check_talagrand),
        ("mazur", ["mazur", "--table", f["table"], "--cols", cols, "--target", f["target"],
                   "--out", f["mazur"]], "mazur", check_mazur),
    ]
    for name, argv, out, check in steps:
        rec.op(f"cli.{name}", "cli", lambda argv=argv: dl_cli.run_cli(argv), out_fp(out), check)


# ---- wide-table detectors ---------------------------------------------------

def detect_phase(rec: Recorder, cases: list[Case]) -> None:
    for case in cases:
        t, e = case.table.entries, case.eps
        th = dl.ThresholdPair(case.s, case.r)
        ops = case.extra.get("ops", ("ladder", "shatter", "dual", "chain"))
        true_ladder = case.closed.get("ladder") or ck.max_ladder_ref(t, case.s, case.r)
        key = case.name

        if "ladder" in ops:
            def check_ladder(res, t=t, case=case, true_ladder=true_ladder):
                return (ck.ladder_witness_ok(t, res.witness.rows, res.witness.cols, case.s, case.r)
                        and _bound_ok(res.length, res.exact, true_ladder))

            rec.op(f"{key}.ladder", "detect", lambda case=case, th=th: dl.max_ladder(case.table, th),
                   _fp, check_ladder, exact_count=lambda res: int(res.exact))

        for kind in ("shatter", "dual"):
            if kind not in ops:
                continue
            entries = t if kind == "shatter" else t.T

            def check_shatter(res, entries=entries, case=case, kind=kind, true_ladder=true_ladder):
                expected = case.closed.get(kind)
                if expected is None:
                    expected = ck.shatter_dim_ref(entries, case.s, case.r)
                if res.dim and not ck.shatter_witness_ok(entries, res.witness.cols,
                                                         res.witness.selector, case.s, case.r):
                    return False
                if kind == "shatter" and true_ladder is not None and res.dim > true_ladder:
                    return False
                return _bound_ok(res.dim, res.exact, expected)

            if kind == "shatter":
                call = lambda case=case, th=th: dl.shattering_dimension(case.table, th)
            else:
                call = lambda case=case, th=th: dl.shattering_dimension(dl.transpose(case.table), th)
            rec.op(f"{key}.{kind}", "detect", call, _fp, check_shatter,
                   exact_count=lambda res: int(res.exact))

        if "chain" in ops:
            def check_chain(res, t=t, e=e, case=case):
                want = case.closed.get("chain", ck.strict_chain_ref(t, e))
                return res.m == want and _steps_ok(t, res.cols, res.step_rows, e)

            rec.op(f"{key}.chain", "detect",
                   lambda case=case, e=e: dl.strict_chain(case.table, dl.Epsilon(e)),
                   _fp, check_chain)

        if "alt_ii" in ops:
            def check_alt(res, t=t, e=e, case=case, true_ladder=true_ladder):
                if not ck.alternation_witness_ok(t, "ii", res.witness.pairs, e):
                    return False
                return not (res.exact and e <= case.r - case.s and true_ladder is not None
                            and res.rank < true_ladder)

            rec.op(f"{key}.alt_ii", "detect",
                   lambda case=case, e=e: dl.alternation_rank(case.table, dl.Epsilon(e), "ii"),
                   _fp, check_alt, exact_count=lambda res: int(res.exact))


# ---- Talagrand counts -------------------------------------------------------

def talagrand_phase(rec: Recorder, cases: list[Case]) -> None:
    for case in cases:
        t = case.table.entries
        th = dl.ThresholdPair(case.s, case.r)
        members = case.extra.get("members", range(t.shape[0]))
        kind = case.extra["count"]
        key = f"{case.name}.{kind}"
        if kind in ("nip_distinct", "nip_free"):
            distinct = kind == "nip_distinct"
            k_max = case.extra["k_max"]

            def check(out, t=t, members=members, case=case, distinct=distinct):
                k_min, reports = out
                return _scan_ok(t, members, case.s, case.r, distinct, k_min,
                                [(x.k, x.count) for x in reports])

            rec.op(key, "talagrand_exact",
                   lambda case=case, th=th, members=members, k_max=k_max, distinct=distinct:
                   dl.almost_nip_scan(case.table, members, th, k_max, distinct_coords=distinct),
                   _fp, check)
        elif kind == "dk_count":
            k = case.extra["k"]
            rec.op(key, "talagrand_exact",
                   lambda case=case, th=th, members=members, k=k:
                   dl.dk_count(case.table, members, k, th),
                   _fp, lambda res, t=t, members=members, k=k, case=case:
                   res.count == ck.tuple_count_ref(t, members, k, case.s, case.r, True))
        elif kind == "fraction":
            n = case.extra["n"]
            rec.op(key, "talagrand_exact",
                   lambda case=case, th=th, members=members, n=n:
                   dl.shattered_tuple_fraction(case.table, members, n, th),
                   _fp, lambda res, t=t, members=members, n=n, case=case:
                   res == ck.brute_fraction(t, members, n, case.s, case.r))


def mc_phase(rec: Recorder, cases: list[Case]) -> None:
    for case in cases:
        t = case.table.entries
        th = dl.ThresholdPair(case.s, case.r)
        members = range(t.shape[0])
        samples, seed = case.extra["samples"], case.extra["seed"]
        if case.extra["count"] == "dk_count":
            k = case.extra["k"]

            def check(res, t=t, k=k, case=case, samples=samples):
                space = math.perm(t.shape[0], 2 * k)
                p = ck.tuple_count_ref(t, range(t.shape[0]), k, case.s, case.r, True) / space
                se = math.sqrt(p * (1 - p) / samples) * space
                return abs(res.count - p * space) <= 5 * se + 1e-9

            rec.op(f"{case.name}.mc_dk_count", "mc",
                   lambda case=case, th=th, k=k, seed=seed, samples=samples, members=members:
                   dl.dk_count(case.table, members, k, th, mode="mc", seed=seed, samples=samples),
                   _fp, check, work=samples)
        else:
            def check(res, t=t, case=case, samples=samples):
                p = ck.pair_fraction_ref(t, range(t.shape[0]), case.s, case.r)
                return abs(res - p) <= 5 * math.sqrt(p * (1 - p) / samples) + 1e-12

            rec.op(f"{case.name}.mc_fraction", "mc",
                   lambda case=case, th=th, seed=seed, samples=samples, members=members:
                   dl.shattered_tuple_fraction(case.table, members, 2, th, mode="mc",
                                               seed=seed, samples=samples),
                   _fp, check, work=samples)


def mazur_phase(rec: Recorder, cases: list[Case]) -> None:
    for case in cases:
        t = case.table.entries
        m = t.shape[1]
        subsets = [c for k in (1, 2) for c in itertools.combinations(range(m), k)]
        subsets.append(tuple(range(m)))
        for ti, target in enumerate(case.extra["targets"]):
            for cols in subsets:
                rec.op(f"{case.name}.mazur.{ti}.{cols}", "mazur",
                       lambda case=case, cols=cols, target=target:
                       dl.mazur_approximate(case.table, cols, target),
                       _fp, lambda res, cols=cols, target=target, t=t:
                       ck.mazur_ok(t[:, list(cols)], target, res.weights, res.achieved))


# ---- threshold sweep --------------------------------------------------------

def spectrum_phase(rec: Recorder, cases: list[Case]) -> None:
    for case in cases:
        t = case.table.entries
        max_len = min(t.shape)

        def check(spec, t=t, max_len=max_len):
            if [l for l, _ in spec] != list(range(2, max_len + 1)) or not ck.spectrum_monotone(spec):
                return False
            if t.size <= 36 or len(np.unique(t)) <= 2:
                return spec == ck.brute_spectrum(t, max_len)
            return True

        rec.op(f"{case.name}.spectrum", "spectrum",
               lambda case=case, max_len=max_len: dl.stability_spectrum(case.table, max_len),
               _fp, check)


# ---- corpora ----------------------------------------------------------------

def _binary(name, table, **closed) -> Case:
    return Case(name, table, *BINARY, closed=closed)


def _random(name, rows, cols, model, seed) -> Case:
    table = dl.random_table(rows, cols, value_model=model, seed=seed)
    return Case(name, table, *(BINARY if model == "bernoulli" else UNIFORM))


def _cantor_targets(corpus, seed) -> list[np.ndarray]:
    """The limit target plus a seeded near-convex combination of columns."""
    rng = np.random.default_rng(seed)
    cols = corpus.table.entries
    mix = cols @ rng.dirichlet(np.ones(cols.shape[1]))
    noisy = np.clip(mix + rng.uniform(-0.05, 0.05, size=mix.shape), 0.0, 1.0)
    return [np.array(corpus.target), noisy]


def classify_corpus(seed: int) -> list[Case]:
    # eight tables classify clearly faster than hg6 (under a third of its
    # time) and eight clearly slower (over twice), whatever the seed, so the
    # median call is always hg6's
    cases = [_binary(f"hg{n}", dl.half_graph(n), ladder=n, chain=n) for n in range(3, 9)]
    cases += [_binary(f"fp{k}", dl.full_pattern(k), ladder=k, shatter=k) for k in range(1, 6)]
    cases += [_binary("cant2_4", dl.cantor_example(2, 4).table),
              _binary("cant3_5", dl.cantor_example(3, 5).table)]
    shapes = [("u5x5", 5, 5, "uniform"), ("u6x6", 6, 6, "uniform"),
              ("b8x8", 8, 8, "bernoulli"), ("u8x8", 8, 8, "uniform")]
    cases += [_random(name, r, c, model, [seed, 1, i])
              for i, (name, r, c, model) in enumerate(shapes)]
    return cases


def _fixture_rows66_67() -> Case:
    """70x2: the only length-2 ladder uses rows 66 (low in col 1) and 67
    (high in col 0); every other cell is strictly between s and r."""
    t = np.full((70, 2), 0.5)
    t[66, 1] = 0.0
    t[67, 0] = 1.0
    return _binary("wide.rows66-67", dl.EvalTable(t, bound=1.0), ladder=2)


def _fixture_col66() -> np.ndarray:
    """4x70: zeros except column 66, which alternates 0, 1, 0, 1."""
    t = np.zeros((4, 70))
    t[:, 66] = [0.0, 1.0, 0.0, 1.0]
    return t


def wide_detect_cases(seed: int) -> list[Case]:
    cases = []
    for k in (5, 6, 7):
        ops = ("ladder", "shatter", "dual", "chain") + (("alt_ii",) if k == 5 else ())
        c = _binary(f"wide.fp{k}", dl.full_pattern(k), ladder=k, shatter=k)
        c.eps, c.extra = WIDE_EPS, {"ops": ops}
        cases.append(c)
    for L in (6, 7, 8):
        c = _binary(f"wide.cant{L}", dl.cantor_example(L - 2, L).table, chain=1)
        c.eps = WIDE_EPS
        c.extra = {"ops": ("ladder", "shatter", "dual", "chain") + (("alt_ii",) if L == 6 else ())}
        cases.append(c)
    for i, (name, rows, cols, model) in enumerate([("tall48x6", 48, 6, "bernoulli"),
                                                   ("wide6x48", 6, 48, "bernoulli"),
                                                   ("tall40x8u", 40, 8, "uniform")]):
        c = _random(f"wide.{name}", rows, cols, model, [seed, 2, i])
        if model == "bernoulli":
            c.eps = WIDE_EPS
        c.extra = {"ops": ("ladder", "shatter", "dual", "chain")}
        cases.append(c)
    for n in (63, 64, 65):
        hg = dl.half_graph(n)
        for name, table in ((f"wide.hg{n}", hg), (f"wide.hgT{n}", dl.transpose(hg))):
            c = _binary(name, table, ladder=n, chain=n, shatter=1, dual=1)
            c.eps = WIDE_EPS
            cases.append(c)
    fixture = _fixture_rows66_67()
    fixture.extra = {"ops": ("ladder",)}
    cases.append(fixture)
    return cases


def wide_talagrand_cases(seed: int) -> list[Case]:
    cant6 = dl.cantor_example(4, 6).table
    col66 = dl.EvalTable(_fixture_col66(), bound=1.0)
    tall = dl.random_table(32, 6, seed=[seed, 3, 0])
    # two overlapping 48-row subsets rather than all 64 rows: calls of a
    # fraction of a second are timed more steadily than one long call
    return [
        Case("wide.cant6.rows0-47", cant6, *BINARY,
             extra={"count": "nip_distinct", "k_max": 2, "members": range(0, 48)}),
        Case("wide.cant6.rows16-63", cant6, *BINARY,
             extra={"count": "nip_distinct", "k_max": 2, "members": range(16, 64)}),
        Case("wide.fp5", dl.full_pattern(5), *BINARY, extra={"count": "nip_distinct", "k_max": 2}),
        Case("wide.tall32x6", tall, *BINARY, extra={"count": "nip_distinct", "k_max": 2}),
        Case("wide.cant6", cant6, *BINARY, extra={"count": "nip_free", "k_max": 2}),
        Case("wide.fp6", dl.full_pattern(6), *BINARY, extra={"count": "nip_free", "k_max": 2}),
        Case("wide.col66", col66, *BINARY, extra={"count": "dk_count", "k": 1}),
        Case("wide.col66", col66, *BINARY, extra={"count": "fraction", "n": 1, "members": [1, 3]}),
    ]


def wide_mc_cases(seed: int) -> list[Case]:
    tall = dl.random_table(48, 6, seed=[seed, 2, 0])  # the detectors' tall48x6
    tables = [("wide.cant7", dl.cantor_example(5, 7).table, "dk_count"),
              ("wide.tall48x6", tall, "dk_count"),
              ("wide.fp6", dl.full_pattern(6), "fraction"),
              ("wide.tall48x6", tall, "fraction")]
    return [Case(name, table, *BINARY,
                 extra={"count": count, "k": 2, "samples": MC_SAMPLES, "seed": seed * 16 + i})
            for i, (name, table, count) in enumerate(tables)]


def wide_mazur_cases(seed: int) -> list[Case]:
    cases = []
    for L in (6, 7, 8):
        corpus = dl.cantor_example(L - 2, L)
        cases.append(Case(f"wide.cant{L}", corpus.table, *BINARY,
                          extra={"targets": _cantor_targets(corpus, [seed, 5, L])}))
    return cases


def spectrum_cases(seed: int) -> list[Case]:
    # one 10x10 (its time varies most from seed to seed) and six 8x8 (theirs
    # varies least), so that the seed moves spectrum_s little
    sizes = [(6, 2), (7, 2), (8, 6), (9, 2), (10, 1)]
    cases = [_random(f"u{n}x{n}.{j}", n, n, "uniform", [seed, 6, n, j])
             for n, count in sizes for j in range(count)]
    cases += [_random(name, r, c, "bernoulli", [seed, 7, i])
              for i, (name, r, c) in enumerate([("b8x8", 8, 8), ("b12x8", 12, 8),
                                                ("b8x12", 8, 12)])]
    return cases


# Reference slices: fixed inputs, independent of the seed.

def reference_steps(skip: set[str]) -> list[tuple[Callable, object]]:
    steps = []
    if "classify" not in skip:
        steps.append((classify_phase, [_binary(f"ref.hg{n}", dl.half_graph(n), ladder=n, chain=n)
                                       for n in (4, 5, 6)]))
        steps.append((scan_phase, {"rows": 5, "cols": 5, "trials": 12, "seed": 0}))
    if "detect" not in skip:
        hgt = dl.transpose(dl.half_graph(64))
        fp5 = _binary("ref.fp5", dl.full_pattern(5), ladder=5, shatter=5)
        fp5.eps, fp5.extra = WIDE_EPS, {"ops": ("ladder", "shatter", "dual", "alt_ii")}
        hg = _binary("ref.hgT64", hgt, ladder=64, chain=64, shatter=1, dual=1)
        hg.eps = WIDE_EPS
        steps.append((detect_phase, [fp5, hg]))
        cant35 = dl.cantor_example(3, 5).table
        steps.append((talagrand_phase, [
            Case("ref.fp5", dl.full_pattern(5), *BINARY,
                 extra={"count": "nip_distinct", "k_max": 2}),
            Case("ref.fp4", dl.full_pattern(4), *BINARY,
                 extra={"count": "nip_distinct", "k_max": 2}),
            Case("ref.cant3_5", cant35, *BINARY, extra={"count": "nip_distinct", "k_max": 2}),
            Case("ref.cant3_5", cant35, *BINARY, extra={"count": "nip_free", "k_max": 2})]))
        cant = dl.cantor_example(3, 5)
        steps.append((mc_phase, [
            Case("ref.cant3_5", cant.table, *BINARY,
                 extra={"count": "dk_count", "k": 2, "samples": 3000, "seed": 1}),
            Case("ref.fp5", dl.full_pattern(5), *BINARY,
                 extra={"count": "fraction", "samples": 3000, "seed": 2})]))
        cant46 = dl.cantor_example(4, 6)
        steps.append((mazur_phase, [Case("ref.cant6", cant46.table, *BINARY,
                                         extra={"targets": _cantor_targets(cant46, 0)})]))
    if "spectrum" not in skip:
        steps.append((spectrum_phase, [_random("ref.u6x6", 6, 6, "uniform", [0, 6]),
                                       _random("ref.u7x7", 7, 7, "uniform", [0, 7])]))
    return steps


def build(name: str, seed: int, cli_dir: Path) -> list[tuple[Callable, object]]:
    """The ordered (phase, inputs) steps of one round of a workload.

    The CLI round trip and the reference slices are short, so they run at
    both ends of a round: their times are then sampled twice as often and
    further apart.
    """
    if name == "classify-small":
        # three short scans spread over the round, rather than one long one
        scans = [(scan_phase, {"rows": 5, "cols": 5, "trials": SCAN_TRIALS, "seed": 3 * seed + j})
                 for j in range(3)]
        corpus = classify_corpus(seed)
        half = len(corpus) // 2
        main = [scans[0], (classify_phase, corpus[:half]), scans[1],
                (classify_phase, corpus[half:]), scans[2]]
        skip = {"classify"}
    elif name == "wide-tables":
        main = [(detect_phase, wide_detect_cases(seed)),
                (talagrand_phase, wide_talagrand_cases(seed)),
                (mc_phase, wide_mc_cases(seed)),
                (mazur_phase, wide_mazur_cases(seed))]
        skip = {"detect"}
    elif name == "threshold-sweep":
        main = [(spectrum_phase, spectrum_cases(seed))]
        skip = {"spectrum"}
    else:
        raise ValueError(f"unknown workload {name!r}")
    small = [(cli_phase, cli_dir)] + reference_steps(skip)
    return small + main + small


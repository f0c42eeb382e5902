"""One-call classification over all detectors, independent witness
re-validation, and the empirical dichotomy scanner."""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from functools import cache

from . import ip, op, sop, talagrand
from .core import (Epsilon, EvalTable, ThresholdMasks, ThresholdPair, Witness, integer,
                   serialize, transpose)
from .errors import DividingLinesError, InvalidWitness, SearchBudgetExceeded
from .generators import GeneratorConfig, generate
from .op import AlternationWitness, LadderWitness
from .ip import ShatterWitness
from .sop import ChainWitness

SCHEMA = "dl-report/1"


@dataclass(frozen=True)
class ClassifyParams:
    """Thresholds, separation, cutoffs, and budgets for a classification run."""

    s: float = 0.0
    r: float = 1.0
    eps: float = 1.0
    min_ladder: int = 4
    min_ip_dim: int = 2
    min_chain: int = 3
    exact_limit: int = op.DEFAULT_EXACT_LIMIT
    k_max: int = 2
    distinct_coords: bool = True
    tuple_budget: int = talagrand.DEFAULT_TUPLE_BUDGET

    def __post_init__(self) -> None:
        # a budget of 0 runs no search and no count: results are inexact or
        # budget errors; every length meets a cutoff below 1, so its verdict
        # would always be true
        for name, low in (("exact_limit", 0), ("tuple_budget", 0), ("min_ladder", 1),
                          ("min_ip_dim", 1), ("min_chain", 1), ("k_max", 1)):
            object.__setattr__(self, name, integer(getattr(self, name), name, low))

    def to_dict(self) -> dict:
        return asdict(self)


def validate_witness(t: EvalTable, w: Witness):
    """Re-check a witness's defining inequalities directly from the table.

    Returns (ok, first_violation) where first_violation is None or a
    (location, description) pair.
    """
    violation = w.first_violation(t)
    return violation is None, violation


_WITNESS_KINDS = {
    "ladder": LadderWitness,
    "alternation": AlternationWitness,
    "shatter": ShatterWitness,
    "chain": ChainWitness,
}


def witness_from_dict(d: dict) -> Witness:
    """Rebuild a witness from its `to_dict` form; an unknown kind or a
    missing or malformed field raises InvalidWitness."""
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _WITNESS_KINDS:
        raise InvalidWitness(f"unknown witness kind {kind!r}")
    try:
        return _WITNESS_KINDS[kind].from_dict(d)
    except KeyError as exc:
        raise InvalidWitness(f"{kind} witness lacks field {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise InvalidWitness(f"malformed {kind} witness: {exc}") from exc


def table_digest(t: EvalTable) -> str:
    return hashlib.sha256(serialize(t).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ClassificationReport:
    table_digest: str
    parameters: ClassifyParams
    sections: dict
    errors: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "table_digest": self.table_digest,
            "parameters": self.parameters.to_dict(),
            **self.sections,
            "errors": [list(e) for e in self.errors],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _checked_witness(t: EvalTable, w: Witness | None) -> dict | None:
    return None if w is None else w.checked(t).to_dict()


# every section of a report, in report order
_SECTIONS = ("ladder", "alternation_ii", "alternation_iii", "shattering_primal",
             "shattering_dual", "strict_chain", "sop_literal", "talagrand")


def _sections(t: EvalTable, params: ClassifyParams):
    """(section, errors) for `t`: `section(name)` runs the named report
    section on its first call and keeps the result, re-validating each
    emitted witness; all sections share one mask set and one column
    pre-order.  A section that raises a DividingLinesError is None and adds
    its message, under its name, to `errors`."""
    th = ThresholdPair(params.s, params.r)
    eps = Epsilon(params.eps)
    # the `<= s` and `>= r` masks every threshold detector reads
    masks = ThresholdMasks(t)

    def run_ladder():
        res = op._ladder(masks, th, params.exact_limit)
        return {"length": res.length, "exact": res.exact,
                "witness": _checked_witness(t, res.witness)}

    def run_alt(variant):
        res = op.alternation_rank(t, eps, variant, params.exact_limit)
        return {"rank": res.rank, "exact": res.exact,
                "witness": _checked_witness(t, res.witness)}

    def run_shatter(dual):
        res = ip._shattering_dimension(masks, th, params.exact_limit, dual)
        return {"dim": res.dim, "exact": res.exact,
                "witness": _checked_witness(transpose(t) if dual else t, res.witness)}

    # the column pre-order both chain detectors search
    above = sop._above_masks(t)

    def run_chain():
        res = sop._strict_chain(t, eps, above)
        return {"m": res.m, "cols": list(res.cols), "step_rows": list(res.step_rows),
                "exact": True}

    def run_sop_literal():
        try:
            w = sop._sop_witness(t, eps, max(2, params.min_chain), params.exact_limit, above)
        except SearchBudgetExceeded:
            return {"status": "budget_exceeded", "witness": None}
        if w is None:
            return {"status": "none", "witness": None}
        return {"status": "found", "witness": _checked_witness(t, w)}

    def run_talagrand():
        k_min, reports = talagrand._almost_nip_scan(
            masks, range(t.n_rows), th, params.k_max, params.distinct_coords, params.tuple_budget
        )
        return {"k_min": k_min, "reports": [r.to_dict() for r in reports]}

    runners = {
        "ladder": run_ladder,
        "alternation_ii": lambda: run_alt("ii"),
        "alternation_iii": lambda: run_alt("iii"),
        "shattering_primal": lambda: run_shatter(False),
        "shattering_dual": lambda: run_shatter(True),
        "strict_chain": run_chain,
        "sop_literal": run_sop_literal,
        "talagrand": run_talagrand,
    }
    errors: dict[str, str] = {}

    @cache
    def section(name: str):
        try:
            return runners[name]()
        except DividingLinesError as exc:
            errors[name] = f"{type(exc).__name__}: {exc}"
            return None

    return section, errors


def _verdicts(section, params: ClassifyParams) -> dict:
    """The op / ip / sop verdicts from the ladder, primal shattering and
    strict chain sections; a failed section counts as 0."""
    ladder, shatter, chain = map(section, ("ladder", "shattering_primal", "strict_chain"))
    ladder_len = ladder["length"] if ladder else 0
    ip_dim = shatter["dim"] if shatter else 0
    chain_m = chain["m"] if chain else 0
    return {
        "op_detected": ladder_len >= params.min_ladder,
        "op_trigger": {"ladder_length": ladder_len, "cutoff": params.min_ladder},
        "ip_detected": ip_dim >= params.min_ip_dim,
        "ip_trigger": {"shattering_dim": ip_dim, "cutoff": params.min_ip_dim},
        "sop_detected": chain_m >= params.min_chain,
        "sop_trigger": {"strict_chain": chain_m, "cutoff": params.min_chain},
    }


def classify(t: EvalTable, params: ClassifyParams = ClassifyParams()) -> ClassificationReport:
    """Run every detector, re-validate all witnesses, assemble the report.

    A failing component contributes an explicit error entry instead of a
    silently missing section.
    """
    return _report(t, params, *_sections(t, params))


def _report(t: EvalTable, params: ClassifyParams, section, errors: dict) -> ClassificationReport:
    """The report of `_sections(t, params)`: every section and error in report order."""
    sections = {name: section(name) for name in _SECTIONS}
    sections["verdicts"] = _verdicts(section, params)
    errors = tuple((name, errors[name]) for name in _SECTIONS if name in errors)
    return ClassificationReport(table_digest(t), params, sections, errors)


@dataclass(frozen=True)
class ScanSummary:
    trials: int
    seed: int
    long_ladder_count: int
    explained_count: int
    exception_count: int
    exceptions: tuple[dict, ...]
    trial_digests: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "trials": self.trials,
            "seed": self.seed,
            "long_ladder_count": self.long_ladder_count,
            "explained_count": self.explained_count,
            "exception_count": self.exception_count,
            "exceptions": [dict(e) for e in self.exceptions],
            "trial_digests": list(self.trial_digests),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def dichotomy_scan(
    gen: GeneratorConfig,
    trials: int,
    seed: int,
    params: ClassifyParams = ClassifyParams(),
    exception_cap: int = 25,
) -> ScanSummary:
    """Empirical stable <=> NIP + NSOP scan over seeded generated tables.

    Tabulates tables with ladder >= min_ladder and, among those, how many
    show IP (dim >= min_ip_dim) or SOP (chain >= min_chain).  Each trial
    builds `classify`'s lazily run sections and reads only the three its
    verdicts need (ladder, primal shattering, strict chain), so its line
    matches the one `classify`'s verdicts give.  Tables with a long ladder
    but neither explanation are serialized with their full `classify`
    report (capped at `exception_cap`); only those recorded read the other
    five sections, with the trial's masks, pre-order and three sections
    already run.  At finite scale they are expected data, not failures.
    """
    trials, seed = integer(trials, "trials", 0), integer(seed, "seed", 0)
    exception_cap = integer(exception_cap, "exception_cap", 0)

    long_ladder = 0
    explained = 0
    exceptions: list[dict] = []
    digests = []
    for i in range(trials):
        cfg_seed = [seed, i] if gen.kind == "random_table" else gen.seed
        table = generate(replace(gen, seed=cfg_seed))
        section, errors = _sections(table, params)
        v = _verdicts(section, params)
        digests.append(
            f"trial={i} digest={table_digest(table)[:16]} "
            f"op={v['op_detected']} ip={v['ip_detected']} sop={v['sop_detected']}"
        )
        if v["op_detected"]:
            long_ladder += 1
            if v["ip_detected"] or v["sop_detected"]:
                explained += 1
            elif len(exceptions) < exception_cap:
                report = _report(table, params, section, errors)
                exceptions.append({"trial": i, "table": table.to_dict(),
                                   "report": report.to_dict()})
    exception_count = long_ladder - explained
    return ScanSummary(
        trials=trials,
        seed=seed,
        long_ladder_count=long_ladder,
        explained_count=explained,
        exception_count=exception_count,
        exceptions=tuple(exceptions),
        trial_digests=tuple(digests),
    )

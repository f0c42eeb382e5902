"""Command-line front end: validate, analyze, generate, talagrand,
dichotomy-scan, mazur.

Exit codes: 0 success, 1 input validation failure, 2 budget exhaustion,
64 usage error.  Reports are deterministic JSON (sorted keys) stamped
with a provenance block.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, definability, talagrand
from .classify import ClassifyParams, classify, validate_witness, witness_from_dict
from .classify import dichotomy_scan as run_dichotomy_scan
from .core import EvalTable, ThresholdPair, integer, load_table, serialize, transpose
from .errors import (
    BudgetExceeded,
    DividingLinesError,
    ParseError,
    SearchBudgetExceeded,
    ShapeMismatch,
)
from .generators import GeneratorConfig, cantor_example, generate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64

# every analysis flag takes its default from here
_DEFAULTS = ClassifyParams()


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _provenance(args: argparse.Namespace) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {"tool": "dividing-lines", "version": __version__, "parameters": echo}


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


def _emit(payload: dict, args: argparse.Namespace) -> None:
    payload = {**payload, "provenance": _provenance(args)}
    if args.output == "text":
        text = _render_text(payload)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    _write(text, args.out)


def _render_text(payload: dict, indent: int = 0) -> str:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _load_input(args: argparse.Namespace) -> EvalTable:
    return load_table(Path(args.input), format=args.format)


def _classify_params(args: argparse.Namespace) -> ClassifyParams:
    return replace(
        _DEFAULTS, s=args.s, r=args.r, eps=args.eps, min_ladder=args.min_ladder,
        min_ip_dim=args.min_ip_dim, min_chain=args.min_chain,
        exact_limit=args.exact_limit, k_max=args.kmax,
        distinct_coords=args.distinct_coords,
    )


def _generator_config(args: argparse.Namespace) -> GeneratorConfig:
    return GeneratorConfig(
        kind=args.kind, n=args.n, k=args.k, n_rows=args.rows, n_cols=args.cols,
        value_model=args.model, p=args.p, bound=args.bound, seed=args.seed,
        m=args.m, L=args.L,
    )


def _cmd_validate(args) -> int:
    t = _load_input(args)
    _emit({"valid": True, "n_rows": t.n_rows, "n_cols": t.n_cols, "bound": t.bound}, args)
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.kind == "cantor_example":
        corpus = cantor_example(args.m, args.L)
        table = corpus.table
        if args.target_out:
            Path(args.target_out).write_text(
                json.dumps({"target": corpus.target.tolist()}, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    else:
        table = generate(_generator_config(args))
    _write(serialize(table), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    t = _load_input(args)
    if args.validate_report:
        report = json.loads(Path(args.validate_report).read_text(encoding="utf-8"))
        if not isinstance(report, dict):
            raise ParseError("a report must be a JSON object")
        failures = []
        for name, section in report.items():
            if isinstance(section, dict) and isinstance(section.get("witness"), dict):
                w = witness_from_dict(section["witness"])
                # the dual shattering witness certifies the transposed table
                target_table = transpose(t) if name == "shattering_dual" else t
                ok, violation = validate_witness(target_table, w)
                if not ok:
                    failures.append({"section": name, "violation": list(violation)})
        _emit({"revalidated": len(failures) == 0, "failures": failures}, args)
        return EXIT_OK if not failures else EXIT_INVALID
    report = classify(t, _classify_params(args))
    _emit(report.to_dict(), args)
    return EXIT_OK


def _cmd_talagrand(args) -> int:
    t = _load_input(args)
    th = ThresholdPair(args.s, args.r)
    k_max = integer(args.kmax, "k_max", 1)
    if args.mc_samples:
        reports = [
            talagrand.dk_count(
                t, range(t.n_rows), k, th, distinct_coords=args.distinct_coords,
                mode="mc", seed=args.seed, samples=args.mc_samples,
            )
            for k in range(1, k_max + 1)
        ]
        k_min = next((r.k for r in reports if r.condition_holds), None)
    else:
        k_min, reports = talagrand.almost_nip_scan(
            t, range(t.n_rows), th, k_max, distinct_coords=args.distinct_coords
        )
    _emit({"k_min": k_min, "reports": [r.to_dict() for r in reports]}, args)
    return EXIT_OK


def _cmd_dichotomy_scan(args) -> int:
    summary = run_dichotomy_scan(
        _generator_config(args), args.trials, args.seed, _classify_params(args)
    )
    _emit(summary.to_dict(), args)
    return EXIT_OK


def _cmd_mazur(args) -> int:
    t = load_table(Path(args.table))
    cols = [int(c) for c in args.cols.split(",") if c.strip() != ""]
    target_doc = json.loads(Path(args.target).read_text(encoding="utf-8"))
    if isinstance(target_doc, dict):
        if "target" not in target_doc:
            raise ParseError('a target JSON object must have a "target" key')
        target_doc = target_doc["target"]
    # a bad target file is bad input (exit 1), not bad usage
    try:
        target = np.asarray(target_doc, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"target must be a list of numbers: {exc}") from exc
    if target.shape != (t.n_rows,):
        raise ShapeMismatch(f"target must be a list of n_rows = {t.n_rows} numbers")
    approx = definability.mazur_approximate(t, cols, target, tol=args.tol)
    _emit(
        {
            "candidate_cols": list(approx.candidate_cols),
            "weights": list(approx.weights),
            "achieved": approx.achieved,
            "certified_gap": approx.certified_gap,
        },
        args,
    )
    return EXIT_OK


def _add_input(p: _Parser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "json"], default=None)


def _add_common_output(p: _Parser) -> None:
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--output", choices=["json", "text"], default="json")


def _add_tuple_params(p: _Parser) -> None:
    p.add_argument("--r", type=float, default=_DEFAULTS.r)
    p.add_argument("--s", type=float, default=_DEFAULTS.s)
    p.add_argument("--kmax", type=int, default=_DEFAULTS.k_max)
    p.add_argument("--distinct-coords", action=argparse.BooleanOptionalAction,
                   default=_DEFAULTS.distinct_coords)


def _add_classify_params(p: _Parser) -> None:
    _add_tuple_params(p)
    p.add_argument("--eps", type=float, default=_DEFAULTS.eps)
    p.add_argument("--exact-limit", type=int, default=_DEFAULTS.exact_limit)
    p.add_argument("--min-ladder", type=int, default=_DEFAULTS.min_ladder)
    p.add_argument("--min-ip-dim", type=int, default=_DEFAULTS.min_ip_dim)
    p.add_argument("--min-chain", type=int, default=_DEFAULTS.min_chain)


def _add_generator_params(p: _Parser) -> None:
    p.add_argument("--kind", required=True,
                   choices=["half_graph", "full_pattern", "random_table", "cantor_example"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--model", default="bernoulli", choices=["bernoulli", "uniform"])
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--bound", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--L", type=int, default=None)


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="dividing-lines")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="validate a table file")
    _add_input(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="run all detectors on a table")
    _add_input(p)
    p.add_argument("--validate-report", default=None,
                   help="revalidate the witnesses of an existing report")
    _add_classify_params(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("generate", help="emit a corpus table")
    _add_generator_params(p)
    p.add_argument("--out", default=None)
    p.add_argument("--target-out", default=None,
                   help="cantor_example: write the limit target vector here")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("talagrand", help="per-k alternating-tuple reports")
    _add_input(p)
    _add_tuple_params(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mc-samples", type=int, default=0,
                   help="Monte Carlo samples per k; 0 counts exactly")
    _add_common_output(p)
    p.set_defaults(func=_cmd_talagrand)

    p = sub.add_parser("dichotomy-scan", help="empirical stable<=>NIP+NSOP scan")
    _add_generator_params(p)
    p.add_argument("--trials", type=int, required=True)
    _add_classify_params(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_dichotomy_scan)

    p = sub.add_parser("mazur", help="convex sup-norm approximation of a target column")
    p.add_argument("--table", required=True)
    p.add_argument("--cols", required=True, help="comma-separated candidate column indices")
    p.add_argument("--target", required=True, help="JSON file with the target vector")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common_output(p)
    p.set_defaults(func=_cmd_mazur)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (BudgetExceeded, SearchBudgetExceeded) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return EXIT_BUDGET
    # JSONDecodeError subclasses ValueError, so it must be caught first
    except (DividingLinesError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_INVALID
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

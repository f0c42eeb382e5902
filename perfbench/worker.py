"""One benchmark process: import the library from the checkout's ``src``,
build the workload's corpus, print ``ready``, then run whole rounds of the
workload until the time is up and print one JSON line with the result.

Started by ``run.py``; ``--setup-only`` stops after ``ready`` so that the
parent can time fresh-process set-up several times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"

# (name, unit) of the per-layer metrics a traced run prints, per traced round
PER_LAYER = [
    *[(f"backend.{k}.{f}", "ms" if f == "ms" else "count")
      for k in ("alternation_iii_search", "clique_search", "ladder_search", "shatter_dim_search")
      for f in ("calls", "ms", "exact")],
    *[(f"backend.{k}.{f}", "ms" if f == "ms" else "count")
      for k in ("dk_count_distinct", "dk_count_free") for f in ("calls", "ms")],
    ("op.max_ladder.calls", "count"), ("op.max_ladder.self_ms", "ms"),
    ("op.alternation_rank.ii.self_ms", "ms"), ("op.alternation_rank.iii.self_ms", "ms"),
    ("op.stability_spectrum.self_ms", "ms"),
    ("ip.shattering_dimension.self_ms", "ms"),
    ("talagrand.almost_nip_scan.self_ms", "ms"), ("talagrand.dk_count.exact.self_ms", "ms"),
    ("talagrand.dk_count.mc.ms", "ms"), ("talagrand.shattered_tuple_fraction.ms", "ms"),
    ("sop.strict_chain.ms", "ms"), ("sop.sop_witness.ms", "ms"),
    ("definability.mazur_approximate.ms", "ms"),
    ("classify.classify.self_ms", "ms"), ("classify.dichotomy_scan.self_ms", "ms"),
    ("generators.generate.ms", "ms"),
    ("cli.run_cli.ms", "ms"), ("cli.run_cli.self_ms", "ms"),
    ("core.load_table.ms", "ms"), ("core.serialize.ms", "ms"), ("core.transpose.ms", "ms"),
    ("core.EvalTable.calls", "count"),
]


def _environment(dl) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": dl.BACKEND_NAME,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _per_op(rec, bucket: str, raw: bool) -> list[tuple[float, float]]:
    """(seconds, work) per operation: the median over rounds of its
    reference-speed time (``speed``), or of its raw wall time."""
    return [(statistics.median(t[0 if raw else 1] for t in times), work)
            for times, work in rec.times[bucket].values()]


def end_to_end(rec, raw: bool = False) -> dict:
    def total(bucket):
        return sum(s for s, _ in _per_op(rec, bucket, raw))

    def rate(bucket):
        return sum(w for _, w in _per_op(rec, bucket, raw)) / total(bucket)

    values = {
        "classify_tables_per_s": (rate("classify"), "tables/s"),
        "classify_p50_ms": (statistics.median(s for s, _ in _per_op(rec, "classify", raw)) * 1e3,
                            "ms"),
        "scan_trials_per_s": (rate("scan"), "trials/s"),
        "cli_pipeline_s": (total("cli"), "s"),
        "exact_results": (rec.exact_results, "count"),
        "wide_detect_s": (total("detect"), "s"),
        "talagrand_exact_s": (total("talagrand_exact"), "s"),
        "talagrand_mc_samples_per_s": (rate("mc"), "samples/s"),
        "mazur_solves_per_s": (rate("mazur"), "solves/s"),
        "spectrum_s": (total("spectrum"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(summary: dict, traced_rounds: int, import_s: float, overhead_s: float,
              spans: int) -> dict:
    out = {}
    for name, unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        value = summary.get(span, {}).get(field, 0)
        out[name] = {"value": value / traced_rounds, "unit": unit}
    out["setup.import_s"] = {"value": import_s, "unit": "s"}
    out["trace.overhead_ms"] = {"value": overhead_s * 1e3, "unit": "ms"}
    out["trace.spans"] = {"value": spans / traced_rounds, "unit": "count"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dividing_lines" / "__init__.py").is_file():
        sys.stderr.write(f"no dividing_lines package under {src}\n")
        return 2
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    t0 = time.perf_counter()
    import dividing_lines as dl
    import_s = time.perf_counter() - t0
    if Path(dl.__file__).resolve().parent != (src / "dividing_lines").resolve():
        sys.stderr.write(f"imported dividing_lines from {dl.__file__}, not the checkout\n")
        return 2
    import tracing
    import workloads

    RESULTS.mkdir(parents=True, exist_ok=True)
    cli_dir = RESULTS / f"cli-{os.getpid()}"
    steps = workloads.build(args.workload, args.seed, cli_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rec = workloads.Recorder()
    tracer = tracing.Tracer() if args.trace else None
    round_s: dict[bool, list[float]] = {False: [], True: []}
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    last = 0.0
    # whole rounds only, at least two so that outputs are compared across
    # passes; in a traced run odd rounds are traced, even ones are not
    while rec.round < 2 or time.perf_counter() + last <= deadline:
        traced = tracer is not None and rec.round % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        rec.start_round()
        try:
            for phase, inputs in steps:
                phase(rec, inputs)
        finally:
            if traced:
                tracer.uninstall()
        last = time.perf_counter() - start
        round_s[traced].append(last)
        rec.round += 1

    rec.finish()
    shutil.rmtree(cli_dir, ignore_errors=True)
    detail = {
        "environment": _environment(dl),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rec.round, "round_s": round_s,
        "check_s": rec.check_s, "import_s": import_s, "problems": rec.problems,
        "failed_ops": sorted(rec.failed_ops),
        "operations_per_round": rec.attempted // rec.round,
        "per_op_s": {b: {k: statistics.median(x[1] for x in t) for k, (t, _) in ops.items()}
                     for b, ops in rec.times.items()},
    }
    if tracer is None:
        metrics = end_to_end(rec)
        detail["raw_wall_metrics"] = end_to_end(rec, raw=True)
    else:
        traced_rounds = len(round_s[True])
        overhead = statistics.median(round_s[True]) - statistics.median(round_s[False])
        summary = tracer.summary()
        metrics = per_layer(summary, traced_rounds, import_s, overhead, len(tracer.spans))
        detail["spans_by_name"] = summary
        spans_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"],
             "spans": [[n, round(a - t_start, 6), round(b - t_start, 6), p]
                       for n, a, b, p in tracer.spans]}), encoding="utf-8")
    for problem in rec.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    result = {"correct": not rec.problems, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    print(json.dumps({"result": result, "detail": detail}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

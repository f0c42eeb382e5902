"""Benchmark entry point.

    python3 perfbench/run.py --workload classify-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Times fresh-process set-up (interpreter
start, ``import dividing_lines``, corpus generation) in five separate
processes, then runs the workload in one more process: one thread, closed
loop, one call after another.  Times are in reference-speed seconds
(see ``speed.py``).  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The full record, with the environment, goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-small", "wide-tables", "threshold-sweep")
SETUP_PROBES = 5
TIME_LIMIT_S = 170   # a run must end within 180 s


class ChildFailed(Exception):
    pass


def run_child(cmd: list[str], deadline: float) -> tuple[float, bytes]:
    """Run ``cmd``; return the seconds until it printed ``ready`` and the
    rest of its standard output.  Kills it at ``deadline``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    out = b""
    ready = None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise ChildFailed(f"timed out: {' '.join(cmd)}")
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready is None and b"\n" in out:
                ready = time.perf_counter() - t0
                first, _, out = out.partition(b"\n")
                if first != b"ready":
                    raise ChildFailed(f"unexpected first line {first[:200]!r}")
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise ChildFailed(f"exit code {code}: {' '.join(cmd)}")
    return ready, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in 1..60")
    if not (ROOT / "src" / "dividing_lines" / "__init__.py").is_file():
        sys.stderr.write("run from a checkout of the repository: src/dividing_lines is missing\n")
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = []  # (raw s, reference-speed s) per fresh process
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            before = speed.calibrate()
            ready = run_child(cmd + ["--setup-only"], deadline)[0]
            scale = speed.REFERENCE_S / ((before + speed.calibrate()) / 2)
            setup.append((ready, ready * scale))
        out = run_child(cmd, deadline)[1]
    except ChildFailed as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    record = json.loads(out.decode("utf-8").strip().splitlines()[-1])
    result, detail = record["result"], record["detail"]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(s for _, s in setup),
                                        "unit": "s"}
        detail["setup_samples_s"] = setup
    detail["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "results" / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

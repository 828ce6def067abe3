"""Certified-chi benchmark: one workload, end-to-end or traced, from a source checkout.

    python3 chibench/run.py --workload balls-4d|surfaces-2d|frames --seed N
                            --seconds S --trace 0|1

With --trace 0 the workload runs in a fresh process for S seconds and
four more fresh processes only set up, so set-up time is the median of
five; the end-to-end metrics are printed.  Every time is scaled to the
reference speed of speed.py, by probes of the machine's speed run in
the same process.  With --trace 1 one process
runs a fixed number of rounds untraced and then traced, and the
per-layer metrics are printed.  The last line of output is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("balls-4d", "surfaces-2d", "frames")
SETUPS = 5
DEADLINE_S = 170  # every worker of one run must have ended by then
# one BLAS/OpenMP thread per worker, so a threaded BLAS pool never competes with the loop
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_per_zero"):
        return "ratio"
    return "count"


def child(args, mode: str, seconds: float, deadline: float) -> dict:
    """Run one worker process to its end; its last output line is JSON."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode]
    env = dict(os.environ, **PINNED)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["spawned"] = spawned
    return out


def end_to_end(args, deadline: float) -> tuple:
    res = child(args, "run", args.seconds, deadline)
    runs = [res] + [child(args, "setup", 0, deadline) for _ in range(SETUPS - 1)]
    setups = [(r["ready"] - r["spawned"]) * r["setup_scale"] for r in runs]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops_per_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_tail_ms": res["latency_tail_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(f"{args.workload}: {res['rounds']} rounds, {res['successes']} certified ops, "
          f"tail = p{res['tail_pct']}, set-ups {[round(s, 3) for s in setups]} s, "
          f"{res['probes']} speed probes of {[round(p, 1) for p in res['probe_ms']]} ms "
          f"(p5, p50, p95)", file=sys.stderr)
    print("median ms by family: " + ", ".join(
        f"{f} {v:.1f}" for f, v in res["family_p50_ms"].items()), file=sys.stderr)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return res, metrics


def traced(args, deadline: float) -> tuple:
    res = child(args, "trace", args.seconds, deadline)
    out_dir = ROOT / ".chibench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "metrics": res["metrics"], "ops": res["spans"]}, indent=1))
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in res["metrics"].items()}
    return res, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    try:
        res, metrics = (traced if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in res["unexpected"]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({"correct": not res["unexpected"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record one checkout's benchmark figures as a BENCH_<n>.json file.

    python3 tools/bench_record.py --checkout DIR --commit SHA --runs RUNS.jsonl \
                                  --out BENCH_n.json [--note TEXT]

RUNS.jsonl holds one line per `chibench/run.py --trace 0` run of that
checkout, as {"workload": W, "seed": S, "result": <the run's last output
line>}.  The script adds the `--trace 1` per-layer counts on seed 2027
and the in-process wall times of the bundled scenarios (median of
SCENARIO_RUNS, each `run_scenario` then `render_report`) with the sha256
of each rendered report, both measured here on DIR, and writes the
commit DIR holds, machine info, per-workload medians and quartiles,
counts and scenario times and hashes to one JSON file; --note adds a
free-text remark on the figures, such as a counter known to be wrong.

    python3 tools/bench_record.py --scenarios-only --checkout DIR

prints just the scenario times and hashes; two checkouts render
byte-identical reports when a diff of their hashes is empty.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

TRACE_SEED = 2027
SCENARIO_RUNS = 5
WORKLOADS = ("balls-4d", "surfaces-2d", "frames")
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def scenario_times() -> dict:
    """Median ms of SCENARIO_RUNS in-process runs of every bundled scenario,
    and the sha256 of its report, which every run must render alike."""
    from eulerchar.cli import bundled_scenarios, load_scenario, run_scenario
    from eulerchar.report import render_report

    out = {}
    for name in bundled_scenarios():
        sc = load_scenario(name)
        times, digests = [], set()
        for _ in range(SCENARIO_RUNS):
            t0 = time.perf_counter()
            text = render_report(run_scenario(sc)[0])
            times.append(1e3 * (time.perf_counter() - t0))
            digests.add(hashlib.sha256(text.encode()).hexdigest())
        if len(digests) != 1:
            raise SystemExit(f"scenario {name!r}: reruns rendered different reports")
        out[name] = {"ms": round(statistics.median(times), 2), "sha256": digests.pop()}
    return out


def in_checkout(checkout: Path, args: list) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **PINNED)
    proc = subprocess.run([sys.executable, *args], cwd=checkout, env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip().splitlines()[-1]


def spread(values: list) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) of at least two runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    return {"cpus": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "threads_pinned": 1}


def record(checkout: Path, commit: str, runs_path: Path, note: str | None = None) -> dict:
    runs = [json.loads(ln) for ln in runs_path.read_text().splitlines() if ln.strip()]
    workloads = {}
    for w in WORKLOADS:
        mine = [r for r in runs if r["workload"] == w]
        if not mine:
            continue
        names = mine[0]["result"]["metrics"]
        workloads[w] = {
            "seeds": [r["seed"] for r in mine],
            "correct": all(r["result"]["correct"] for r in mine),
            "failed_share": [r["result"]["failed"] / r["result"]["attempted"] for r in mine],
            "trace0": {k: dict(spread([r["result"]["metrics"][k]["value"] for r in mine]),
                               unit=names[k]["unit"]) for k in names},
        }
        traced = json.loads(in_checkout(checkout, [
            "chibench/run.py", "--workload", w, "--seed", str(TRACE_SEED),
            "--seconds", "1", "--trace", "1"]))
        workloads[w][f"trace1_seed{TRACE_SEED}"] = {
            k: v["value"] for k, v in traced["metrics"].items()}
    scen = json.loads(in_checkout(checkout, [__file__, "--scenarios-only",
                                             "--checkout", str(checkout)]))
    return {"commit": commit, **({"note": note} if note else {}), "machine": machine(),
            "workloads": workloads, "scenarios_median_of_%d" % SCENARIO_RUNS: scen}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, required=True)
    ap.add_argument("--commit")
    ap.add_argument("--runs", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--note")
    ap.add_argument("--scenarios-only", action="store_true")
    args = ap.parse_args(argv)
    if args.scenarios_only:
        sys.path.insert(0, str(args.checkout.resolve() / "src"))
        print(json.dumps(scenario_times()))
        return 0
    if None in (args.commit, args.runs, args.out):
        ap.error("--commit, --runs and --out are required")
    data = record(args.checkout.resolve(), args.commit, args.runs, args.note)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

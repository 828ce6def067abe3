"""One workload in one process: set up, then run whole rounds of operations.

    python3 chibench/worker.py --workload NAME --seed N --seconds S --mode run|setup|trace

Prints one JSON object as its last line of output.  ``setup`` stops as
soon as the first operation could be timed, and probes the machine's
speed (see speed.py); ``run`` then runs a closed loop with one client
for at least S seconds, with speed probes between the ops, and reports
times scaled to the reference speed; ``trace`` runs each of the
workload's fixed number of rounds untraced and then traced, for the
per-layer metrics.  Thread pools of BLAS and OpenMP must be pinned to one thread
in the environment before this process starts.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_EVERY_S = 0.25  # a speed probe precedes a timed op once this long has passed


def _import_program():
    """Import eulerchar from the source tree of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "eulerchar" / "__init__.py").is_file():
        sys.exit(f"error: no eulerchar sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import eulerchar
    if Path(eulerchar.__file__).resolve().parent != src / "eulerchar":
        sys.exit(f"error: imported eulerchar from {eulerchar.__file__}, not {src}")
    return eulerchar


class Loop:
    """Attempted, failed and timed operations of one process."""

    def __init__(self, probe=None):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []   # failures on inputs that should work
        self.timed = []        # (seconds, succeeded, family) per timed op
        self.checked_families = set()
        self.probe = probe     # speed.Probe run between the ops, if any
        self.probes = []       # seconds, durations of the probes
        self.last_probe = -math.inf

    def _probe(self):
        self.probes.append(self.probe())
        self.last_probe = time.monotonic()

    def scaled(self) -> list:
        """(seconds at the probe's reference speed, succeeded, family) per timed op."""
        self._probe()
        scale = self.probe.reference_s / statistics.median(self.probes)
        return [(elapsed * scale, ok, family) for elapsed, ok, family in self.timed]

    def run_op(self, op, determinism: bool):
        """Time op.run(); the check and the determinism re-run are not timed."""
        self.attempted += 1
        if self.probe and op.timed and time.monotonic() - self.last_probe >= PROBE_EVERY_S:
            self._probe()
        start = time.perf_counter()
        try:
            result, text = op.run()
        except Exception as e:  # a raising op is a failed op, whatever it raised
            self._fail(op, e, time.perf_counter() - start)
            return
        elapsed = time.perf_counter() - start
        try:
            op.check(result)
            if determinism and op.family not in self.checked_families:
                self.checked_families.add(op.family)
                if op.run()[1] != text:
                    raise AssertionError("report differs when the op is run twice")
        except Exception as e:
            self._fail(op, e, elapsed)
            return
        if op.timed:
            self.timed.append((elapsed, True, op.family))

    def _fail(self, op, error, elapsed):
        self.failed += 1
        if op.fault is None:
            self.unexpected.append(f"{op.family}: {type(error).__name__}: {error}")
        if op.timed:
            self.timed.append((elapsed, False, op.family))

    def run_round(self, ops, determinism=True):
        for op in ops:
            self.run_op(op, determinism)


def traced_rounds(wl, seed: int, tracer, first) -> dict:
    """The workload's first trace_rounds rounds, each run untraced and then traced.

    Alternating keeps slow drift of the machine's speed out of the
    overhead estimate; the per-layer metrics come from the traced runs.
    """
    setup_build_ns = tracer.build_ns()
    tracer.uninstall()
    tracer.reset()
    loop = Loop()
    untraced = traced = 0.0
    per_op = []
    for index in range(wl.trace_rounds):
        start = time.perf_counter()
        loop.run_round(first if index == 0 else wl.round_ops(seed, index), determinism=False)
        untraced += time.perf_counter() - start
        ops = wl.round_ops(seed, index)
        tracer.install()
        start = time.perf_counter()
        for op in ops:
            before = tracer.snapshot()
            loop.run_op(op, determinism=False)
            after = tracer.snapshot()
            per_op.append({"family": op.family, "self_ms": {
                m: v - before.get(m, 0.0) for m, v in after.items() if v != before.get(m)}})
        traced += time.perf_counter() - start
        tracer.uninstall()
    metrics = tracer.metrics(setup_build_ns + tracer.build_ns())
    metrics["trace.overhead_s"] = traced - untraced
    return {"attempted": loop.attempted, "failed": loop.failed,
            "unexpected": loop.unexpected, "metrics": metrics, "spans": per_op}


def timed_rounds(wl, seed: int, seconds: float, first, probe) -> dict:
    """Whole rounds until `seconds` have passed and wl.min_ok ops succeeded."""
    import numpy as np

    loop = Loop(probe)
    start = time.monotonic()
    index = 0
    ops = first
    while True:
        loop.run_round(ops)
        index += 1
        successes = sum(ok for _, ok, _ in loop.timed)
        if time.monotonic() - start >= seconds and successes >= wl.min_ok:
            break
        ops = wl.round_ops(seed, index)
    scaled = loop.scaled()
    lat_ms = np.asarray([t for t, ok, _ in scaled if ok]) * 1e3
    families = {}
    for t, ok, family in scaled:
        if ok:
            families.setdefault(family, []).append(t * 1e3)
    return {
        "rounds": index,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "unexpected": loop.unexpected,
        "ops_per_s": lat_ms.size / sum(t for t, _, _ in scaled),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_tail_ms": float(np.percentile(lat_ms, wl.tail_pct)),
        "tail_pct": wl.tail_pct,
        "successes": int(lat_ms.size),
        "family_p50_ms": {f: float(np.median(v)) for f, v in sorted(families.items())},
        "probes": len(loop.probes),
        "probe_ms": [float(np.percentile(loop.probes, q)) * 1e3 for q in (5, 50, 95)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    args = ap.parse_args(argv)

    eulerchar = _import_program()
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer(eulerchar)
        tracer.install()
    first = wl.round_ops(args.seed, 0)
    for op in wl.warmup_ops():
        op.run()
    ready = time.monotonic()
    if args.mode == "trace":
        out = traced_rounds(wl, args.seed, tracer, first)
    else:
        import speed
        probe = speed.Probe(wl.probe)
        out = {"ready": ready, "setup_scale": probe.reference_s / probe.settled()}
        if args.mode == "run":
            out.update(timed_rounds(wl, args.seed, args.seconds, first, probe))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

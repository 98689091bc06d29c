"""One workload in one fresh process: set up, timed passes, checks, traced pass.

Started by ``run.py`` with the thread-pinning environment already in place;
prints one JSON object as its last line of standard output.  With
``--setup-only`` it stops when the inputs are ready, so the caller can time
set-up on its own.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from reference import Reference, speed
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Checked

# time spent on the reference kernel before the first pass, after every
# pass as a share of that pass, and in a set-up-only worker
REFERENCE_FIRST_S = 0.5
REFERENCE_SHARE = 0.1
REFERENCE_SETUP_S = 0.3


def _versions() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        pass
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas},
        "python": sys.version,
    }


def _guarded_pass(workload) -> tuple[dict | None, str | None]:
    # a pass that raises fails all its units; the run itself goes on
    try:
        return workload.run_pass(), None
    except Exception:
        return None, traceback.format_exc()


def _checked(workload, outputs, error) -> Checked:
    if error is not None:
        out = Checked()
        out.fail(workload.units, "pass raised:\n" + error)
        return out
    return workload.check(outputs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    ready = time.monotonic()
    reference = Reference()
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed": speed(reference.sample(REFERENCE_SETUP_S))}))
        return 0

    # timed phase: whole passes until the next one would overrun the budget,
    # with the reference kernel timed around every pass
    walls: list[float] = []
    cpus: list[float] = []
    results = []
    phase_start = time.perf_counter()
    gaps = [reference.sample(REFERENCE_FIRST_S)]
    while True:
        c0, w0 = time.process_time(), time.perf_counter()
        outputs, error = _guarded_pass(workload)
        w1, c1 = time.perf_counter(), time.process_time()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        results.append((outputs, error))
        gaps.append(reference.sample(REFERENCE_SHARE * walls[-1]))
        if time.perf_counter() - phase_start + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pass_speed = [speed(a + b) for a, b in zip(gaps, gaps[1:])]

    checked = [_checked(workload, outputs, error) for outputs, error in results]
    problems = [p for c in checked for p in c.problems]
    digests = {c.digest for c in checked}
    if len(digests) != 1:
        problems.append(f"passes over the same inputs gave {len(digests)} different output digests")
    problems += workload.oracle()

    report = {
        "ready": ready,
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "reference_s": gaps,
        # timings are reported in seconds at the reference speed: each pass
        # is scaled by the reference times just before and after it
        "pass_speed": pass_speed,
        "speed": speed([t for gap in gaps for t in gap]),
        "units_per_pass": workload.units,
        "unit": workload.unit,
        "attempted": workload.units * len(walls),
        "failed": sum(c.failed for c in checked),
        "crs": [cr for c in checked for cr in c.crs],
        "peak_rss_mb": peak_rss_mb,
        "digest": checked[0].digest,
        "output_sha256": checked[0].parts,
        "versions": _versions(),
    }

    if args.trace:
        tracer = Tracer()
        before = reference.sample(REFERENCE_FIRST_S)
        with tracer:
            w0 = time.perf_counter()
            outputs, error = _guarded_pass(workload)
            traced_wall = time.perf_counter() - w0
        traced_speed = speed(before + reference.sample(REFERENCE_SHARE * traced_wall))
        # the untraced pass time as it would have read at the traced pass's speed
        untraced_wall = statistics.median(w * f for w, f in zip(walls, pass_speed)) / traced_speed
        traced = _checked(workload, outputs, error)
        report["attempted"] += workload.units
        report["failed"] += traced.failed
        problems += traced.problems
        if traced.digest != checked[0].digest:
            problems.append("traced pass output digest differs from the untraced passes")
        for entry in workload.required:
            layer, _, counter = entry.partition(":")
            if not tracer.stats[layer].get(counter or "calls"):
                problems.append(f"traced layer {entry} recorded zero {counter or 'calls'} on {workload.name}")
        report["per_layer"] = layer_metrics(tracer, traced_wall, untraced_wall)

    report["problems"] = problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

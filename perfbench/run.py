"""Benchmark of the ``catens`` pipeline: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload highdim-wr --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes (``worker.py``) with BLAS/OpenMP
threads pinned to one and ``catens`` imported from ``src/``.  Set-up is
timed on its own in several set-up-only processes; the last process also
runs the timed passes, checks every output and, with ``--trace 1``, one
traced pass.  The last line of standard output is the result object; a copy
with provenance goes to ``.perfbench/results/``.  See README.md for the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lowdim-replicates", "highdim-wr", "large-n", "fasta-gaps-cli")

# set-up-only processes started before the measured one; set-up time is the
# median over these and the measured process
SETUP_SAMPLES = 2
DEADLINE_S = 170.0

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "CATENS_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cr_mean": "fraction",
}


class BenchError(RuntimeError):
    """The run could not produce a result."""


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    """Start one worker, wait for it, return its result object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(args: argparse.Namespace, workdir: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    setups, speeds = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        setup = run_worker([*common, "--seconds", "0", "--setup-only"], env, deadline)
        setups.append(setup["ready"] - start)
        speeds.append(setup["speed"])
    start = time.monotonic()
    report = run_worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
    )
    setups.append(report["ready"] - start)
    speeds.append(report["speed"])
    report["setup_s"] = setups
    report["setup_speed"] = speeds
    return report


def metrics_of(report: dict, scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics, with timings in seconds at the reference speed
    unless ``scaled`` is false.

    Workers time the reference kernel next to what they measure, and each
    timing is multiplied by the ``reference.speed`` of the times next to it.
    """
    def times(key: str, speeds: str) -> list[float]:
        return [t * f if scaled else t for t, f in zip(report[key], report[speeds])]

    walls = times("pass_wall_s", "pass_speed")
    crs = report["crs"]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(times("pass_cpu_s", "pass_speed")),
        "throughput": report["units_per_pass"] * len(walls) / sum(walls),
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(times("setup_s", "setup_speed")),
        "cr_mean": sum(crs) / len(crs) if crs else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "catens" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no catens sources under {ROOT / 'src'}\n")
        return 2

    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    load_at_start = os.getloadavg()
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(args, workdir)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = metrics_of(report)
    attempted, failed = report["attempted"], report["failed"]
    problems = report["problems"]
    correct = failed == 0 and not problems
    if args.trace:
        shown = report["per_layer"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        shown, units = e2e, END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "unit_of_work": report["unit"],
        "passes": report["passes"],
        "end_to_end": e2e,
        "unscaled": metrics_of(report, scaled=False),
        "speed": report["speed"],
        "per_layer": report.get("per_layer"),
        "samples": {
            k: report[k]
            for k in ("pass_wall_s", "pass_cpu_s", "pass_speed", "setup_s", "setup_speed", "reference_s", "crs")
        },
        "output_digest": report["digest"],
        "output_sha256": report["output_sha256"],
        "problems": problems,
        "provenance": {
            "git_commit": git_commit(ROOT),
            "started_utc": started,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "loadavg_at_start": load_at_start,
            "thread_env": PINNED_ENV,
            **report["versions"],
        },
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in problems:
        sys.stderr.write(f"perfbench: check failed: {problem}\n")
    print(f"workload {args.workload}  seed {args.seed}  passes {report['passes']}  "
          f"unit {report['unit']}  speed {report['speed']:.3f}  "
          f"error_rate {failed / attempted:.4g} ({failed}/{attempted})")
    for metric, value in shown.items():
        print(f"  {metric:52s} {value:>16.6g} {units[metric]}")
    print(f"  output digest {report['digest']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""regretlab benchmark: seeded closed-loop workloads with a correctness gate.

Run from the repository root:

    python3 benchmarks/run.py                      # all three workloads, one fresh process each
    python3 benchmarks/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload exact --trace 1   # per-layer breakdown

One iteration starts only after the previous one ends, on one thread.  After
set-up and one untimed warm-up iteration at the tiny scale, iterations run
until ``--seconds`` have passed (at least one).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
The end-to-end times are in scaled seconds (see speed.py).  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

# numpy links an OpenBLAS built for many threads; the benchmark measures
# one thread.  This must happen before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("certify", "exact", "online")
END_TO_END = [("setup_s", "s"), ("iter_s", "s"), ("peak_rss_mb", "MB")]
# Set-up is timed in this many fresh processes per run; the median is reported.
SETUP_PROBES = {"full": 7, "tiny": 1}
PROBE_TIMEOUT_S = 120


def import_library() -> None:
    """Import regretlab from this checkout's sources, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import regretlab
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import regretlab from {SRC}: {exc}")
    if not Path(regretlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: regretlab imported from {regretlab.__file__}, not from {SRC}")


def child_command(args, workload: str, *extra: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, *extra,
    ]


def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout,
        env={**os.environ, **THREAD_ENV}, cwd=ROOT,
    )


def probe_setup(args) -> int:
    """Time imports plus input generation in this (fresh) process."""
    before = speed.unit()
    t0 = time.perf_counter()
    import_library()
    import workloads

    if args.trace:
        import tracing  # noqa: F401  (its import is part of a traced set-up)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=OUT))
    try:
        workloads.WORKLOADS[args.workload](args.seed, args.scale, tmp)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"scaled_s": speed.scaled(elapsed, before, speed.unit()), "wall_s": elapsed}))
    return 0


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Scaled and wall set-up seconds, one of each per fresh process."""
    scaled, wall = [], []
    for _ in range(SETUP_PROBES[args.scale]):
        proc = run_child(child_command(args, args.workload, "--probe-setup"), PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        scaled.append(probe["scaled_s"])
        wall.append(probe["wall_s"])
    return scaled, wall


def source_identity() -> dict:
    """The commit when run from a git checkout, and a digest of the sources."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "regretlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(args) -> int:
    t0 = time.perf_counter()
    import_library()
    import numpy as np
    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, tmp)
        main_setup_s = time.perf_counter() - t0
        env = {
            **source_identity(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": THREAD_ENV,
            "loadavg_before": os.getloadavg(),
        }
        setup, setup_wall = setup_seconds(args)

        t_warm = time.perf_counter()
        done = [wl.warmup()]
        warmup_s = time.perf_counter() - t_warm

        deadline = time.perf_counter() + args.seconds
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            untraced, traced = [], []
            while True:
                untraced.append(wl.iteration())
                tracer.install()
                tracer.begin_iteration(len(traced))
                try:
                    traced.append(tracer.wrap(wl.iteration, "iteration")())
                finally:
                    tracer.end_iteration()
                    tracer.uninstall()
                if time.perf_counter() >= deadline:
                    break
            its = untraced + traced
            metrics = tracer.metrics([it.scaled_s for it in traced], [it.scaled_s for it in untraced])
            units = dict(tracing.PER_LAYER)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(spans_path)
            print(f"# spans written to {spans_path.relative_to(ROOT)}")
            # Later changes cite the counts exactly, so counts that differ
            # between traced iterations fail the run.
            repeat = workloads.OpResult(
                "trace.counts_repeat", 0.0, tracer.counts_repeat(), "counts differ between traced iterations"
            )
            done.append(workloads.Iteration([repeat]))
        else:
            its = []
            while True:
                its.append(wl.iteration())
                if time.perf_counter() >= deadline:
                    break
            iter_q = quartiles([it.scaled_s for it in its])
            metrics = {
                "setup_s": statistics.median(setup),
                "iter_s": iter_q[1],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
        env["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    done += its
    results = [r for it in done for r in it.ops]
    failed = [r for r in results if not r.ok]
    for r in failed[:5]:
        print(f"# FAILED {args.workload}/{r.name}: {r.detail.strip()}", file=sys.stderr)

    w = args.workload
    print(f"# {w} env {json.dumps(env)}")
    print(f"# {w} setup: median {statistics.median(setup):.4f} s scaled, {statistics.median(setup_wall):.4f} s wall, "
          f"over {len(setup)} fresh processes (this process {main_setup_s:.4f} s wall); "
          f"warm-up iteration {warmup_s:.3f} s wall")
    if not args.trace:
        q1, q2, q3 = iter_q
        wall = statistics.median(it.wall_s for it in its)
        print(f"# {w} iter_s median {q2:.4f} s scaled, quartiles {q1:.4f} / {q3:.4f}, n={len(its)}; "
              f"median {wall:.4f} s wall")
    for name, value in wl.summary(untraced if args.trace else its).items():
        print(f"# {w} {name} {value:.6g} {'1/s' if name.endswith('_per_s') else 's'}")
    print(f"# {w} fail_ratio {len(failed) / len(results):.6g} ({len(failed)} of {len(results)} operations)")
    for name, value in metrics.items():
        print(f"# {w} {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table."""
    rows = {}
    for w in WORKLOAD_NAMES:
        # Set-up probes, the warm-up and the last iteration come on top of
        # the measured seconds.
        proc = run_child(child_command(args, w), 3 * args.seconds + PROBE_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"benchmark: workload {w} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':10} {'metric':40} {'value':>14} unit")
    for w, doc in rows.items():
        ratio = doc["failed"] / doc["attempted"]
        print(f"{w:10} {'fail_ratio':40} {ratio:14.6g} ({doc['failed']}/{doc['attempted']})")
        for name, m in doc["metrics"].items():
            print(f"{w:10} {name:40} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(rows))
    return 0 if all(doc["correct"] for doc in rows.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' is a seconds-long smoke size for the benchmark's tests")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        return probe_setup(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

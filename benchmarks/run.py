"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload closed_forms --seed 1 --seconds 10 --trace 0

Run from anywhere; the checkout is found from this file's location.  The
workload runs in a fresh single-threaded interpreter (worker.py) with the
checkout's ``src`` on PYTHONPATH and the BLAS pinned to one thread.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload half
untraced and half traced (spans around every public call) and prints the
per-layer metrics with the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
result, with the environment and every span's (layer, workload, n, median,
IQR), is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread everywhere: in the workers, and here, where the
# calibration unit times fresh processes.  Set before numpy is imported.
SINGLE_THREADED = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"
}
os.environ.update(SINGLE_THREADED)

from calibration import REFERENCE_NS, calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
# names only: this process never imports the package (worker.py does)
WORKLOADS = ("closed_forms", "oracle_small", "oracle_large", "cli")

SETUP_RUNS = 5        # fresh interpreters whose set-up is timed; median kept
COLD_ROUNDS = 6       # x 4 scenarios = 24 fresh `python -m fddof.cli region`
IMPORT_RUNS = 5       # fresh `python -X importtime -c "import fddof"`
TIMEOUT_S = 170.0     # whole run, so it always ends within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "cold_start_ms": "ms",
}
IMPORT_MODULES = {
    "fddof": "fddof.import_ms",
    "fddof.oracle": "oracle.import_ms",
    "fddof.intervals": "intervals.import_ms",
}


class BenchError(RuntimeError):
    """A worker or probe process failed; no result is printed."""


def child_env() -> dict:
    return {
        **os.environ, **SINGLE_THREADED,
        "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
    }


def remaining(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def run_worker(args, deadline, setup_only=False, trace_file=None):
    """Start a worker; return (reference-speed set-up seconds, its result)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - start
        if line.strip() != "READY":
            raise BenchError(f"worker did not finish set-up: {line!r}")
        out, _ = proc.communicate(timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    result = json.loads(out.splitlines()[-1])
    return setup_s * result["setup_scale"], result


def fresh_run(cmd, deadline):
    """Run a fresh process; return the calibration scale measured on both
    sides of it, its raw wall time in seconds, and the finished process."""
    before = calibrate()
    start = perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True,
        timeout=remaining(deadline),
    )
    seconds = perf_counter() - start
    return 2 * REFERENCE_NS / (before + calibrate()), seconds, proc


def cold_start(deadline):
    """Median reference-speed time of fresh `python -m fddof.cli region`
    runs, each checked against its golden stdout and exit code."""
    manifest = json.loads((BENCH / "golden" / "manifest.json").read_text())
    cases = {k: v for k, v in manifest.items() if k.startswith("coldstart-")}
    times, failed = [], 0
    for _ in range(COLD_ROUNDS):
        for case_id, want in cases.items():
            scale, seconds, proc = fresh_run(
                [sys.executable, "-m", "fddof.cli", *want["argv"]], deadline
            )
            times.append(seconds * scale)
            golden = (BENCH / "golden" / f"{case_id}.stdout").read_bytes()
            failed += proc.returncode != want["exit"] or proc.stdout != golden
    return statistics.median(times) * 1e3, len(times), failed


def import_times(deadline) -> dict:
    """Cumulative reference-speed import time of three modules, median over
    fresh runs."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORT_RUNS):
        scale, _, proc = fresh_run(
            [sys.executable, "-X", "importtime", "-c", "import fddof"], deadline
        )
        if proc.returncode != 0:
            raise BenchError("import fddof failed")
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e3 * scale)
    return {
        metric: (statistics.median(samples[name]), "ms")
        for name, metric in IMPORT_MODULES.items()
    }


def source_identity() -> dict:
    """Git commit when the checkout is a repository; always a digest of the
    package sources, which identifies the code in any checkout."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fddof").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def report_end_to_end(result, setups, cold_ms, cold_n, attempted, failed):
    n = result["n"]
    lines = [
        ("setup_s", statistics.median(setups),
         f"median of {len(setups)} fresh-interpreter set-ups"),
        ("ops_per_s", result["ops_per_s"],
         f"{n} ops / summed op time (raw {result['raw_ops_per_s']:.6g})"),
        ("op_p50_ms", result["op_p50_ms"],
         f"n={n}, IQR {result['op_iqr_ms']:.4g} ms "
         f"(raw {result['raw_op_p50_ms']:.4g})"),
        ("op_p99_ms", result["op_p99_ms"],
         f"n={n}, {result['beyond_p99']} samples beyond"),
        ("peak_rss_mb", result["peak_rss_mb"], "ru_maxrss of the worker"),
        ("cold_start_ms", cold_ms,
         f"median of {cold_n} fresh `python -m fddof.cli region` runs"),
    ]
    print(f"  times at reference speed; machine ran at "
          f"{result['machine_speed']:.3f} of it (calibration.py)")
    for name, value, note in lines:
        print(f"  {name:<14} {value:>12.6g} {END_TO_END_UNITS[name]:<5} {note}")
    print(f"  {'fail_ratio':<14} {failed / attempted:>12.6g} {'':<5} "
          f"{failed} failed of {attempted} checks")
    return {name: (value, END_TO_END_UNITS[name]) for name, value, _ in lines}


def report_per_layer(result, imports):
    metrics = dict(result["per_layer"])
    metrics.update(imports)
    sources = ", ".join(f"{g} from {w}" for g, w in result["layer_sources"].items())
    print(f"  layer groups: {sources}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>12.6g} {unit}")
    print("  spans at reference speed: layer, workload, n, median us, IQR us")
    for rec in result["records"]:
        print(f"    {rec['layer']:<32} {rec['workload']:<13} {rec['n']:>7} "
              f"{rec['median_us']:>10.4g} {rec['iqr_us']:>10.4g}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fddof" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'fddof'}",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            trace_file = OUT / f"trace-{stem}.json"
            _, result = run_worker(args, deadline, trace_file=trace_file)
            imports = import_times(deadline)
            setups, cold_n, cold_failed = [], 0, 0
        else:
            setups = [run_worker(args, deadline, setup_only=True)[0]
                      for _ in range(SETUP_RUNS - 1)]
            setup_s, result = run_worker(args, deadline)
            setups.append(setup_s)
            cold_ms, cold_n, cold_failed = cold_start(deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = result["attempted"] + cold_n
    failed = result["failed"] + cold_failed
    env = {**result["env"], **source_identity(), "seed": args.seed,
           "workload": args.workload, "seconds": args.seconds}
    print(f"fddof benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env))
    print("load: closed loop, one client, one process; no queues or threads, "
          "so there are no wait metrics")
    if args.trace:
        metrics = report_per_layer(result, imports)
    else:
        metrics = report_end_to_end(
            result, setups, cold_ms, cold_n, attempted, failed
        )

    full = {**result, "env": env, "metrics": metrics, "setup_samples_s": setups,
            "attempted": attempted, "failed": failed}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

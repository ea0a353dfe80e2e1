"""One workload in one fresh, single-threaded interpreter.

Started by run.py with the checkout's ``src`` on PYTHONPATH, the checkout
root as working directory and the BLAS pinned to one thread.  It prints
``READY`` when set-up (import, input generation, warm-up) is done and the
first timed op is about to start, then one JSON line with its results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from itertools import cycle
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

import fddof  # noqa: E402  (set-up time starts with this import)

if not Path(fddof.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"fddof imported from {fddof.__file__}, not from this checkout")

import numpy as np  # noqa: E402

from calibration import REFERENCE_NS, calibrate  # noqa: E402
from workloads import HOME, WORKLOADS, NoTrace, Tally, Tracer, run_ops  # noqa: E402

MIN_OPS = 1000          # so that at least 10 samples lie beyond p99
MAX_SECONDS = 120.0     # a measured phase never runs longer than this
SLICE_S = 0.2           # measured work between two calibrations
FILL_SECONDS = 2.0      # traced run: time per layer group from another workload
TRACE_ROUNDS = 4        # traced run: alternate untraced and traced phases

# per-layer metric -> (span name, unit, statistic)
SPAN_METRICS = {
    "intervals.setops_us": ("intervals.setops", "us", "median"),
    "regions.fd_caps_us": ("regions.fd_caps", "us", "median"),
    "regions.corner_points_us": ("regions.corner_points", "us", "median"),
    "regions.fd_region_us": ("regions.fd_region", "us", "median"),
    "regions.hd_region_us": ("regions.hd_region", "us", "median"),
    "regions.region_relate_us": ("regions.region_relate", "us", "median"),
    "regions.is_rectangular_us": ("regions.is_rectangular", "us", "median"),
    "regions.genie_expand_us": ("regions.genie_expand", "us", "median"),
    "intervals.refine_us": ("intervals.refine", "us", "median"),
    "oracle.allocate_basis_us": ("oracle.allocate_basis", "us", "median"),
    "oracle.integer_rescale_us": ("oracle.integer_rescale", "us", "median"),
    "oracle.numerical_rank_us": ("oracle.numerical_rank", "us", "median"),
    "oracle.sample_channel_ms": ("oracle.sample_channel", "ms", "median"),
    "oracle.verify_operator_dims_ms":
        ("oracle.verify_operator_dims", "ms", "median"),
    "oracle.zero_forcing_corner_ms":
        ("oracle.zero_forcing_corner", "ms", "median"),
    "scenario.load_us": ("scenario.load", "us", "median"),
    "svgplot.render_us": ("svgplot.render", "us", "median"),
    # each subcommand runs once per scenario per cycle, and a sweep that is
    # rejected costs far less than one that runs, so these are means
    "cli.region_ms": ("cli.region", "ms", "mean"),
    "cli.compare_ms": ("cli.compare", "ms", "mean"),
    "cli.sweep_ms": ("cli.sweep", "ms", "mean"),
    "cli.verify_ms": ("cli.verify", "ms", "mean"),
}
SCALE = {"us": 1e3, "ms": 1e6}
FAILED_LAYERS = ("intervals", "regions", "oracle", "cli", "svgplot")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(wl, items, tr, tally, seconds, min_ops=0, traced=False,
            before=None):
    """Run ops in slices of SLICE_S with a calibration unit between slices.

    Returns [(latencies in ns, scale)] per slice, where scale turns the
    slice's times into reference-speed times (see calibration.py); it uses
    the calibrations on both sides of the slice.
    """
    slices = []
    done = 0
    start = perf_counter()
    before = before or calibrate()
    while True:
        elapsed = perf_counter() - start
        if (elapsed >= seconds and done >= min_ops) or elapsed >= MAX_SECONDS:
            return slices
        latencies = run_ops(wl, items, tr, tally, SLICE_S, traced)
        after = calibrate()
        scale = 2 * REFERENCE_NS / (before + after)
        if traced:
            tr.mark(scale)
        slices.append((latencies, scale))
        done += len(latencies)
        before = after


def latency_stats(slices) -> dict:
    """End-to-end op figures at reference speed, and the raw ones."""
    scaled = sorted(ns * scale for lat, scale in slices for ns in lat)
    raw = [ns for lat, _ in slices for ns in lat]
    n = len(scaled)
    rank = -(-99 * n // 100)      # nearest rank: ceil(0.99 n)
    q1, q2, q3 = quartiles(scaled)
    return {
        "n": n,
        "ops_per_s": n * 1e9 / sum(scaled),
        "op_p50_ms": q2 / 1e6,
        "op_p99_ms": scaled[rank - 1] / 1e6,
        "beyond_p99": n - rank,
        "op_iqr_ms": (q3 - q1) / 1e6,
        "raw_ops_per_s": n * 1e9 / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) / 1e6,
        "machine_speed": statistics.median(scale for _, scale in slices),
    }


def blas_info() -> dict:
    """OpenBLAS version from numpy's build config and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": None,
    }
    with open("/proc/self/maps") as maps:
        libs = {ln.split()[-1] for ln in maps if "openblas" in ln and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def warm(wl) -> None:
    run_ops(wl, wl.items[:wl.warmup], NoTrace, Tally())


def layer_metrics(tracers: dict, tally: Tally) -> tuple[dict, list]:
    """Per-layer metrics from each layer group's tracer; also the ROADMAP
    record (layer, workload, n, median, IQR) of every span name."""
    durations = {}
    records = []
    for workload, tr in tracers.values():
        for name, values in tr.durations().items():
            durations[name] = values
            q1, q2, q3 = quartiles(values)
            records.append({
                "layer": name, "workload": workload, "n": len(values),
                "median_us": q2 / 1e3, "iqr_us": (q3 - q1) / 1e3,
            })
    metrics = {}
    for metric, (span, unit, stat) in SPAN_METRICS.items():
        values = durations[span]
        value = statistics.median(values) if stat == "median" else statistics.fmean(values)
        metrics[metric] = (value / SCALE[unit], unit)
    # self-time shares of the oracle op: allocate_basis runs inside both
    # sample_channel and zero_forcing_corner, so it is taken out of those two
    total = {name: sum(values) for name, values in durations.items()}
    op_total = total[f"op.{tracers['oracle'][0]}"]
    alloc = total["oracle.allocate_basis"]
    shares = {
        "oracle.allocate_basis_share": 2 * alloc,
        "oracle.sample_channel_share": total["oracle.sample_channel"] - alloc,
        "oracle.verify_operator_dims_share": total["oracle.verify_operator_dims"],
        "oracle.zero_forcing_corner_share":
            total["oracle.zero_forcing_corner"] - alloc,
    }
    for metric, share in shares.items():
        metrics[metric] = (100 * share / op_total, "%")
    entries = tracers["oracle"][1].counts["oracle.matrix_entries"]
    metrics["oracle.matrix_entries"] = (statistics.fmean(entries), "count")
    metrics["oracle.matrix_bytes"] = (16 * statistics.fmean(entries), "B")
    self_ns = (statistics.fmean(durations["cli.region"])
               - statistics.fmean(durations["cli.region_library"]))
    metrics["cli.self_ms"] = (self_ns / 1e6, "ms")
    for layer in FAILED_LAYERS:
        metrics[f"{layer}.failed"] = (tally.failed[layer], "count")
    return metrics, records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    warm(wl)
    print("READY", flush=True)
    # the machine's speed right after set-up scales the set-up time
    first = calibrate()
    result = {"setup_scale": REFERENCE_NS / first}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tally = Tally()
    if not args.trace:
        result.update(latency_stats(measure(
            wl, cycle(wl.items), NoTrace, tally, args.seconds, MIN_OPS,
            before=first,
        )))
        result["records"] = [{
            "layer": f"op.{wl.name}", "workload": wl.name, "n": result["n"],
            "median_us": result["op_p50_ms"] * 1e3,
            "iqr_us": result["op_iqr_ms"] * 1e3,
        }]
    else:
        # alternating phases, so drift in the machine's speed hits both
        phase = args.seconds / (2 * TRACE_ROUNDS)
        own = Tracer()
        plain_items, traced_items = cycle(wl.items), cycle(wl.items)
        plain_slices, traced_slices = [], []
        for _ in range(TRACE_ROUNDS):
            plain_slices += measure(wl, plain_items, NoTrace, tally, phase)
            traced_slices += measure(wl, traced_items, own, tally, phase,
                                     traced=True)
        untraced = latency_stats(plain_slices)
        traced = latency_stats(traced_slices)
        tracers = {wl.group: (wl.name, own)}
        for group, cls in HOME.items():
            if group not in tracers:
                other = cls(args.seed)
                warm(other)
                tr = Tracer()
                measure(other, cycle(other.items), tr, tally, FILL_SECONDS,
                        other.warmup, traced=True)
                tracers[group] = (other.name, tr)
        metrics, records = layer_metrics(tracers, tally)
        overhead = 100 * (1 - traced["ops_per_s"] / untraced["ops_per_s"])
        metrics["trace.untraced_ops_per_s"] = (untraced["ops_per_s"], "1/s")
        metrics["trace.traced_ops_per_s"] = (traced["ops_per_s"], "1/s")
        metrics["trace.overhead_pct"] = (overhead, "%")
        result["per_layer"] = metrics
        result["records"] = records
        result["layer_sources"] = {g: w for g, (w, _) in tracers.items()}
        if args.trace_file:
            spans = {g: {"workload": w, "spans": tr.spans, "marks": tr.marks}
                     for g, (w, tr) in tracers.items()}
            Path(args.trace_file).write_text(json.dumps(spans))

    result["env"] = environment()
    result["attempted"] = tally.total_attempted
    result["failed"] = tally.total_failed
    result["attempted_by_layer"] = dict(tally.attempted)
    result["failed_by_layer"] = dict(tally.failed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

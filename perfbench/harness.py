"""Closed-loop run of one workload: set-up, timed ops, checks, metrics.

One client sends one op at a time.  Only ``Workload.run`` is timed; checks
and digests run between ops, outside the timed region, inside the run's
wall-clock budget.  The loop runs whole cycles and stops at the first cycle
boundary after ``seconds``.

In a traced run, odd cycles are traced and even cycles are not, so one
process measures both the per-layer numbers and the tracing overhead on the
same op mix.

``setup_s`` is the time from process start to the end of set-up, just before
the first timed op: import, input generation and one warm-up op.  The speed
probe starts only after it.  The end-to-end metrics are the program's own
figures; the run's host slowdown (see ``speed.py``) is reported beside them
and folded into none of them.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

from spans import Tracer, rate
from speed import SpeedProbe
from workloads import WORKLOADS, cli_startup_ms

PROBE_EVERY_S = 1.0  # the speed probe runs before the first op after this
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
CLI_STEPS = ("synth", "anchor", "order", "metrics", "entropy")

# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_BUSY = [
    "propagation.blockage_ratio_batch", "propagation.anchor_map", "propagation.anchor_volume",
    "synth.gen_city", "synth.gen_field", "synth.presets",
    "ordering.init_costs", "ordering.edge_weights", "ordering.wavefront_order",
    "ordering.verify_predecessor_containment", "ordering.geometric", "ordering.prior_pl_order",
    "ordering.order_io",
    "metrics.metric_report", "metrics.ssim", "metrics.grad3d_loss", "metrics.vertical_grad_error_cdf",
    "metrics.pointwise", "metrics.hist_stats",
    "entropy.entropy_profile", "entropy.delta_h_map", "entropy.step_entropies", "entropy.exact",
    "entropy.trace_io",
    "grids.save_grid", "grids.load_grid", "grids.grid_to_csv", "grids.grid_from_csv", "grids.normalize",
]
_COUNTS = [
    ("propagation.blockage_ratio_batch.rays", "count/op"),
    ("propagation.blockage_ratio_batch.samples", "count/op"),
    ("ordering.patches", "count/op"),
    ("ordering.edges", "count/op"),
    ("metrics.voxels", "count/op"),
    ("entropy.trace_rows", "count/op"),
    ("entropy.trace_bytes", "B/op"),
    ("grids.rgf_bytes", "B/op"),
    ("grids.csv_bytes", "B/op"),
    ("cli.output_bytes", "B/op"),
]

# (name, unit, better) of every per-layer metric of a traced run
PER_LAYER = (
    [("propagation.blockage_ratio_batch.calls", "count/op", "lower")]
    + [(f"{n}.busy_ms", "ms/op", "lower") for n in _BUSY]
    + [(n, u, "lower") for n, u in _COUNTS]
    + [
        ("propagation.blockage_ratio_batch.samples_per_s", "1/s", "higher"),
        ("entropy.rows_per_s", "1/s", "higher"),
        ("cli.startup_ms", "ms", "lower"),
    ]
    + [(f"cli.{s}.wall_ms", "ms/op", "lower") for s in CLI_STEPS]
    + [
        ("trace.ops_per_s_traced", "1/s", "higher"),
        ("trace.ops_per_s_untraced", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.absent_functions", "count", "lower"),
        ("host.probe_ms", "ms", "lower"),
    ]
)


def latency_tail(latencies_ms: list[float]):
    """Highest standard percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond), or None for too few ops.
    """
    xs = sorted(latencies_ms)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return q, xs[rank - 1], n - rank
    return None


def _cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _work_dir(root: Path, name: str) -> Path:
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    return work


def cold_setup_s(name: str, seed: int, root: Path, t_start: float) -> float:
    """Seconds from ``t_start``, the process start, to the end of one set-up."""
    work = _work_dir(root, name)
    try:
        WORKLOADS[name](seed, work, Tracer()).setup()
        return time.perf_counter() - t_start
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, t_start: float,
                 tiny: bool = False) -> dict:
    """Run one workload and return its metrics, counts and digest.

    ``t_start`` is the perf_counter() reading at process start.
    """
    tracer = Tracer()
    work = _work_dir(root, name)
    try:
        wl = WORKLOADS[name](seed, work, tracer, tiny=tiny)
        wl.setup()
        setup_s = time.perf_counter() - t_start
        probe = SpeedProbe()
        try:
            return _run(wl, tracer, probe, seconds, trace, setup_s)
        finally:
            probe.close()
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def _run(wl, tracer, probe, seconds, trace, setup_s) -> dict:
    if trace:
        tracer.install()
    cpu_who = wl.rusage
    lat_ms = {False: [], True: []}  # by whether the op was traced
    cpu_s = 0.0
    attempted = failed = 0
    problems_seen: list[str] = []
    digest = hashlib.sha256()
    digest_ops = 0
    cycle0_ops = None
    min_cycles = 2 if trace else 1
    probe.measure()
    t_begin = last_probe = time.perf_counter()
    k = 0
    while k < min_cycles or time.perf_counter() - t_begin < seconds:
        traced = trace and k % 2 == 1
        specs = wl.cycle(k)
        if k == 0:
            cycle0_ops = len(specs)
        for spec in specs:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probe.measure()
                last_probe = time.perf_counter()
            tracer.op = attempted
            attempted += 1
            tracer.enabled = traced
            try:
                with tracer.span("op"):
                    c0 = _cpu_s(cpu_who)
                    t0 = time.perf_counter()
                    out = wl.run(spec)
                    t1 = time.perf_counter()
                    c1 = _cpu_s(cpu_who)
                    wl.after(spec, out)
                tracer.enabled = False
                problems = wl.check(spec, out)
            except Exception:  # an op that raises is a failed op; the loop goes on
                tracer.enabled = False
                failed += 1
                problems_seen.append(f"op {attempted - 1} raised:\n{traceback.format_exc()}")
                continue
            lat_ms[traced].append((t1 - t0) * 1e3)
            cpu_s += c1 - c0
            if problems:
                failed += 1
                problems_seen.extend(f"op {attempted - 1}: {p}" for p in problems)
            elif k == 0:
                wl.digest(digest, spec, out)
                digest_ops += 1
        k += 1
    tracer.enabled = False
    probe.measure()
    timed = lat_ms[False] + lat_ms[True]
    result = {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": bool(trace),
        "cycles": k,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems_seen,
        "digest": digest.hexdigest() if digest_ops == cycle0_ops else None,
        "digest_ops": digest_ops,
        "latencies_ms": timed,
        "wall_s": time.perf_counter() - t_begin,
    }
    result["end_to_end"] = {
        "setup_s": setup_s,
        "ops_per_s": _ops_per_s(timed),
        "latency_p50_ms": statistics.median(timed) if timed else 0.0,
        "cpu_ms_per_op": cpu_s * 1e3 / max(len(timed), 1),
        "peak_rss_mb": resource.getrusage(cpu_who).ru_maxrss / 1024.0,
    }
    result["probe_ms"] = probe.times_ms
    result["slowdown"] = probe.slowdown()
    result["latency_tail"] = latency_tail(timed)
    if trace:
        result["per_layer"] = _layer_metrics(tracer, lat_ms)
        result["per_layer"]["host.probe_ms"] = statistics.median(probe.times_ms)
        result["absent"] = dict(tracer.absent)
        result["tracer"] = tracer
    return result


def _ops_per_s(lat_ms: list[float]) -> float:
    return len(lat_ms) / (sum(lat_ms) / 1e3) if lat_ms else 0.0


def _layer_metrics(tracer, lat_ms) -> dict:
    n_ops = max(len(lat_ms[True]), 1)
    busy = tracer.self_ms()
    calls = tracer.calls()
    counts = tracer.counts
    out = {"propagation.blockage_ratio_batch.calls": calls.get("propagation.blockage_ratio_batch", 0) / n_ops}
    for name in _BUSY:
        out[f"{name}.busy_ms"] = busy.get(name, 0.0) / n_ops
    for name, _ in _COUNTS:
        out[name] = counts.get(name, 0.0) / n_ops
    out["propagation.blockage_ratio_batch.samples_per_s"] = rate(
        counts.get("propagation.blockage_ratio_batch.samples", 0.0), busy.get("propagation.blockage_ratio_batch", 0.0))
    out["entropy.rows_per_s"] = rate(counts.get("entropy.trace_rows", 0.0), busy.get("entropy.step_entropies", 0.0))
    out["cli.startup_ms"] = cli_startup_ms()
    for step in CLI_STEPS:
        out[f"cli.{step}.wall_ms"] = busy.get(f"cli.{step}", 0.0) / n_ops
    traced, untraced = _ops_per_s(lat_ms[True]), _ops_per_s(lat_ms[False])
    out["trace.ops_per_s_traced"] = traced
    out["trace.ops_per_s_untraced"] = untraced
    out["trace.overhead_pct"] = (untraced / traced - 1.0) * 100.0 if traced > 0 else 0.0
    out["trace.absent_functions"] = len(tracer.absent)
    return out

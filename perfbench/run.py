"""radiofront benchmark: four closed-loop workloads against the library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scene_build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the traced
run and reports the per-layer metrics instead.  Readable lines come first
(host, every metric with its unit, the output digest); the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, and the spans of a traced run, go
to ``.perfbench_out/``.  The exit code is 0 only when every op passed its
output checks.

The library is imported from ``src/`` of this checkout and nowhere else.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import os  # noqa: E402
import statistics  # noqa: E402

# one worker: no BLAS or OpenMP thread pools, and one CPU for this process,
# its CLI children and the speed probe, so the probe times the CPU the ops use
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("scene_build", "order_dense", "field_eval", "cli_pipeline")
# set-ups per run, each in a fresh process: this one and the rest via --setup-only
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="timed wall-clock budget per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_sources() -> Path:
    package = SRC / "radiofront"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no radiofront sources at {package}; run from a full checkout")
    return package


def import_library() -> None:
    """Import radiofront from this checkout and from nowhere else."""
    package = require_sources()
    sys.path.insert(0, str(SRC))
    import radiofront

    if Path(radiofront.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported radiofront from {radiofront.__file__}, not from {package}")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(res: dict, host: dict) -> dict:
    """Print the readable lines and return the metrics of the JSON line."""
    import harness

    name, seed = res["workload"], res["seed"]
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"{name} seed={seed} trace={int(res['trace'])}: {res['attempted']} ops in {res['cycles']} cycles, "
          f"{res['wall_s']:.1f} s wall, {res['failed']} failed")
    e2e = res["end_to_end"]
    print(f"  host slowdown    {_fmt(res['slowdown']):>12}      (median speed probe "
          f"{_fmt(statistics.median(res['probe_ms']))} ms over {len(res['probe_ms'])} probes; not folded into the metrics)")
    for metric, unit, _ in harness.END_TO_END:
        print(f"  {metric:<16} {_fmt(e2e[metric]):>12} {unit}")
    print("  setup samples    " + ", ".join(_fmt(t) for t in res["setup_samples_s"]) + " s, cold, one per process")
    tail = res["latency_tail"]
    if tail is None:
        print(f"  latency_tail_ms  absent: {len(res['latencies_ms'])} timed ops, a tail needs 10 beyond p75")
    else:
        q, value, beyond = tail
        print(f"  latency_tail_ms  {_fmt(value):>12} ms (p{q:g}, {len(res['latencies_ms'])} ops, {beyond} beyond)")
    print(f"  fail_ratio       {_fmt(res['fail_ratio']):>12} ({res['failed']} of {res['attempted']})")
    for problem in res["problems"][:20]:
        print(f"  FAIL {problem}")
    digest = res["digest"] or "incomplete (cycle 0 had a failed op)"
    print(f"digest: {name} seed={seed} sha256={digest} ({res['digest_ops']} ops of cycle 0)")
    if not res["trace"]:
        return {m: {"value": e2e[m], "unit": u} for m, u, _ in harness.END_TO_END}
    layers = res["per_layer"]
    for metric, unit, _ in harness.PER_LAYER:
        print(f"  {metric:<52} {_fmt(layers[metric]):>12} {unit}")
    for function, span in sorted(res["absent"].items()):
        print(f"  absent: {function} is missing; span {span} does not see it")
    print(f"tracing overhead: {_fmt(layers['trace.overhead_pct'])}% "
          f"(untraced {_fmt(layers['trace.ops_per_s_untraced'])} ops/s vs traced {_fmt(layers['trace.ops_per_s_traced'])} ops/s)")
    return {m: {"value": layers[m], "unit": u} for m, u, _ in harness.PER_LAYER}


def cold_setups(args) -> list[float]:
    """Set-up times of fresh processes, each from its start to the end of set-up."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: set-up of {args.workload} failed in a fresh process (exit code {proc.returncode})")
        times.append(float(proc.stdout.splitlines()[-1]))
    return times


def setup_only(args) -> int:
    import_library()
    import harness

    print(repr(harness.cold_setup_s(args.workload, args.seed, ROOT, _T_START)))
    return 0


def run_one(args) -> int:
    import_library()
    import harness
    import hostinfo

    loadavg_start = list(os.getloadavg())
    res = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, _T_START)
    loadavg_end = list(os.getloadavg())
    # this process's set-up is one cold sample; the others come from fresh processes
    res["setup_samples_s"] = [res["end_to_end"]["setup_s"]] + cold_setups(args)
    res["end_to_end"]["setup_s"] = statistics.median(res["setup_samples_s"])
    host = {**hostinfo.collect(ROOT), "loadavg_start": loadavg_start, "loadavg_end": loadavg_end}
    metrics = report(res, host)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = res.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")
    (OUT / f"{stem}.json").write_text(json.dumps({"host": host, **res}, indent=1))
    correct = res["failed"] == 0 and res["digest"] is not None
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            correct = False
            print(f"{name}: no result line (exit code {proc.returncode})")
            continue
        correct = correct and last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{m}": v for m, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        require_sources()
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

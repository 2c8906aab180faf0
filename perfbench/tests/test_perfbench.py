"""Quick tests of the benchmark itself: tiny workloads, the correctness gate,
digests, tracing, and refusal to run without the library's sources.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import radiofront  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tiny_run(tmp_path, name, seed=0, trace=False):
    return harness.run_workload(name, seed, 0.0, trace, tmp_path, time.perf_counter(), tiny=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_tiny_and_passes_its_checks(tmp_path, name):
    res = tiny_run(tmp_path, name)
    assert res["problems"] == []
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert res["digest"] is not None
    e2e = res["end_to_end"]
    assert [m for m, _, _ in harness.END_TO_END] == list(e2e)
    assert all(v > 0 for v in e2e.values())
    assert len(res["probe_ms"]) >= 2 and res["slowdown"] > 0
    assert list((tmp_path / ".perfbench_work").iterdir()) == []


def test_digest_repeats_for_a_seed_and_changes_with_the_seed(tmp_path):
    first = tiny_run(tmp_path, "scene_build", seed=3)["digest"]
    again = tiny_run(tmp_path, "scene_build", seed=3)["digest"]
    other = tiny_run(tmp_path, "scene_build", seed=4)["digest"]
    assert first == again
    assert other != first


def _swapped_wavefront_order():
    original = radiofront.wavefront_order

    def swapped(scene, patches, params=None):
        order, costs = original(scene, patches, params)
        perm = order.perm.copy()
        perm[[0, -1]] = perm[[-1, 0]]
        return radiofront.OrderPi(perm, order.kind, order.params), costs

    return swapped


def _corrupting_save_grid():
    original = radiofront.save_grid

    def corrupting(grid, path):
        original(grid, path)
        raw = bytearray(Path(path).read_bytes())
        raw[21] ^= 0x01  # lowest mantissa byte of the first value
        Path(path).write_bytes(bytes(raw))

    return corrupting


def _break_after_setup(monkeypatch, workload, attr, replacement):
    """Replace ``radiofront.<attr>`` once the workload's set-up has passed."""
    cls = WORKLOADS[workload]
    setup = cls.setup

    def setup_then_break(self):
        setup(self)
        monkeypatch.setattr(radiofront, attr, replacement)

    monkeypatch.setattr(cls, "setup", setup_then_break)


def test_swapped_pair_in_wavefront_perm_is_caught(tmp_path, monkeypatch):
    _break_after_setup(monkeypatch, "scene_build", "wavefront_order", _swapped_wavefront_order())
    res = tiny_run(tmp_path, "scene_build")
    assert res["failed"] == res["attempted"]
    assert res["digest"] is None
    assert any("containment" in p for p in res["problems"])


def test_flipped_byte_in_rgf1_payload_is_caught(tmp_path, monkeypatch):
    _break_after_setup(monkeypatch, "field_eval", "save_grid", _corrupting_save_grid())
    res = tiny_run(tmp_path, "field_eval")
    assert res["failed"] == res["attempted"]
    assert any("RGF1 round trip" in p for p in res["problems"])


@pytest.mark.parametrize("workload, attr, make", [
    ("scene_build", "wavefront_order", _swapped_wavefront_order),
    ("field_eval", "save_grid", _corrupting_save_grid),
])
def test_failed_warm_up_fails_the_set_up(tmp_path, monkeypatch, workload, attr, make):
    monkeypatch.setattr(radiofront, attr, make())
    with pytest.raises(RuntimeError, match="warm-up op failed its checks"):
        tiny_run(tmp_path, workload)
    assert list((tmp_path / ".perfbench_work").iterdir()) == []


def test_setup_only_prints_cold_set_up_seconds():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scene_build", "--seed", "1", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert 0 < float(proc.stdout) < 120


def test_traced_run_reports_every_layer_metric(tmp_path):
    res = tiny_run(tmp_path, "order_dense", trace=True)
    layers = res["per_layer"]
    assert [m for m, _, _ in harness.PER_LAYER] == list(layers)
    assert res["absent"] == {}
    assert layers["propagation.blockage_ratio_batch.calls"] > 0
    assert layers["propagation.blockage_ratio_batch.samples_per_s"] > 0
    assert layers["ordering.wavefront_order.busy_ms"] > 0
    assert layers["ordering.patches"] == 256 + 64  # tiny: 64 px map, patch_px 4 and 8
    assert layers["trace.ops_per_s_traced"] > 0 and layers["trace.ops_per_s_untraced"] > 0
    # the wrappers are gone once the run ends
    assert radiofront.ordering.blockage_ratio_batch is radiofront.propagation.blockage_ratio_batch
    assert not hasattr(radiofront.wavefront_order, "__wrapped__")


def test_tracer_covers_second_bindings_and_methods():
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        scene = radiofront.preset_serpentine(seed=1, side_px=48)
        radiofront.init_costs(scene, radiofront.PatchGrid.for_scene(scene, 16))
        trace = radiofront.LogitTrace(np.zeros((4, 3)))
        trace.step_entropies()
    finally:
        tracer.uninstall()
    calls = tracer.calls()
    assert calls["synth.presets"] == 1
    assert calls["ordering.init_costs"] == 1
    assert calls["propagation.blockage_ratio_batch"] == 1  # via ordering's own binding
    assert calls["entropy.step_entropies"] == 1
    names = {name: parent for name, parent, *_ in tracer.spans}
    parent = tracer.spans[names["propagation.blockage_ratio_batch"]][0]
    assert parent == "ordering.init_costs"
    assert tracer.counts["propagation.blockage_ratio_batch.rays"] == 9
    busy = tracer.self_ms()
    assert all(v >= 0 for v in busy.values())


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + [("ordering.gone", "ordering", "no_such_fn", None)])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"radiofront.ordering.no_such_fn": "ordering.gone"}


def test_speed_probe_measures_and_stops():
    probe = speed.SpeedProbe()
    try:
        probe.measure()
        probe.measure()
    finally:
        probe.close()
    assert len(probe.times_ms) == 2 and min(probe.times_ms) > 0
    assert probe.slowdown() > 0
    assert probe._proc.returncode == 0


def test_latency_tail_needs_ten_samples_beyond():
    assert harness.latency_tail(list(range(15))) is None
    q, value, beyond = harness.latency_tail([float(i) for i in range(1, 101)])
    assert (q, value, beyond) == (90.0, 90.0, 10)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "field_eval", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "no radiofront sources" in proc.stderr


def test_benchmark_json_names_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {m: u for m, u, _ in harness.END_TO_END}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {m: u for m, u, _ in harness.PER_LAYER}

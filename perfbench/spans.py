"""In-process span tracer for the traced benchmark run.

Wrappers are installed around radiofront's public functions from outside
the library: every binding of a wrapped function in any loaded
``radiofront`` module (module attributes and module-level dicts such as
``PRESETS``) is replaced, so calls through a second binding, for example
``ordering.blockage_ratio_batch``, are seen too.  Spans are kept in memory,
each with its parent and the op it belongs to, and written when the run
ends.  A layer's busy time is its spans' self time: the span's duration
minus the time covered by its child spans.

A function the library no longer has is reported as absent, with the span
it would have fed, instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _array(x) -> np.ndarray:
    return np.asarray(getattr(x, "values", x))


def _count_rays(args, kwargs, result, counts):
    """Rays and ray samples, computed from the inputs the kernel was given."""
    resolution = args[1] if len(args) > 1 else kwargs["resolution"]
    a = np.atleast_2d(np.asarray(args[2] if len(args) > 2 else kwargs["a"], dtype=np.float64))
    b = np.atleast_2d(np.asarray(args[3] if len(args) > 3 else kwargs["b"], dtype=np.float64))
    lengths = np.linalg.norm(b - a, axis=1)
    counts["propagation.blockage_ratio_batch.rays"] += len(lengths)
    counts["propagation.blockage_ratio_batch.samples"] += int(
        np.maximum(2, np.ceil(lengths / resolution)).sum()
    )


def _count_patches(args, kwargs, result, counts):
    patches = args[1] if len(args) > 1 else kwargs["patches"]
    counts["ordering.patches"] += patches.n_patches


def _count_edges(args, kwargs, result, counts):
    counts["ordering.edges"] += len(result[0])


def _count_voxels(args, kwargs, result, counts):
    counts["metrics.voxels"] += _array(args[0]).size


def _count_rows(args, kwargs, result, counts):
    counts["entropy.trace_rows"] += len(result)


def _file_bytes(key, index):
    """Size of the file named by positional argument ``index`` (or ``path=``)."""

    def count(args, kwargs, result, counts):
        path = args[index] if len(args) > index else kwargs["path"]
        counts[key] += Path(path).stat().st_size

    return count


# (span name, module, attribute, counter).  Several attributes may share a
# span name; their spans then add up to one layer metric.
WRAPPED = [
    ("propagation.blockage_ratio_batch", "propagation", "blockage_ratio_batch", _count_rays),
    ("propagation.anchor_map", "propagation", "anchor_map", None),
    ("propagation.anchor_volume", "propagation", "anchor_volume", None),
    ("synth.gen_city", "synth", "gen_city", None),
    ("synth.gen_field", "synth", "gen_field", None),
    ("synth.presets", "synth", "preset_edge_tx", None),
    ("synth.presets", "synth", "preset_urban_canyon", None),
    ("synth.presets", "synth", "preset_sparse", None),
    ("synth.presets", "synth", "preset_serpentine", None),
    ("ordering.init_costs", "ordering", "init_costs", None),
    ("ordering.edge_weights", "ordering", "edge_weights", _count_edges),
    ("ordering.wavefront_order", "ordering", "wavefront_order", _count_patches),
    ("ordering.verify_predecessor_containment", "ordering", "verify_predecessor_containment", None),
    ("ordering.geometric", "ordering", "raster_order", None),
    ("ordering.geometric", "ordering", "hilbert_order", None),
    ("ordering.geometric", "ordering", "zcurve_order", None),
    ("ordering.geometric", "ordering", "subsample_order", None),
    ("ordering.geometric", "ordering", "alternative_order", None),
    ("ordering.prior_pl_order", "ordering", "prior_pl_order", None),
    ("ordering.order_io", "ordering", "save_order", None),
    ("ordering.order_io", "ordering", "load_order", None),
    ("metrics.metric_report", "metrics", "metric_report", _count_voxels),
    ("metrics.ssim", "metrics", "ssim", None),
    ("metrics.grad3d_loss", "metrics", "grad3d_loss", _count_voxels),
    ("metrics.vertical_grad_error_cdf", "metrics", "vertical_grad_error_cdf", _count_voxels),
    ("metrics.pointwise", "metrics", "nmse", None),
    ("metrics.pointwise", "metrics", "rmse_db", None),
    ("metrics.pointwise", "metrics", "psnr", None),
    ("metrics.hist_stats", "metrics", "hist_stats", None),
    ("entropy.entropy_profile", "entropy", "entropy_profile", None),
    ("entropy.delta_h_map", "entropy", "delta_h_map", None),
    ("entropy.step_entropies", "entropy", "LogitTrace.step_entropies", _count_rows),
    ("entropy.exact", "entropy", "exact_conditional_entropies", None),
    ("entropy.exact", "entropy", "limited_context_entropy", None),
    ("entropy.exact", "entropy", "build_shadow_joint", None),
    ("entropy.trace_io", "entropy", "save_trace", _file_bytes("entropy.trace_bytes", 1)),
    ("entropy.trace_io", "entropy", "load_trace", _file_bytes("entropy.trace_bytes", 0)),
    ("grids.save_grid", "grids", "save_grid", _file_bytes("grids.rgf_bytes", 1)),
    ("grids.load_grid", "grids", "load_grid", _file_bytes("grids.rgf_bytes", 0)),
    ("grids.grid_to_csv", "grids", "grid_to_csv", _file_bytes("grids.csv_bytes", 1)),
    ("grids.grid_from_csv", "grids", "grid_from_csv", _file_bytes("grids.csv_bytes", 0)),
    ("grids.normalize", "grids", "normalize_db", None),
    ("grids.normalize", "grids", "denormalize_db", None),
]


class Tracer:
    """Records spans while ``enabled``; costs one attribute test otherwise."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, parent index, start ns, end ns, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}  # missing function -> its span
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = [name, self._stack[-1] if self._stack else None, time.perf_counter_ns(), None, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, n: float) -> None:
        if self.enabled:
            self.counts[name] += n

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(args, kwargs, result, tracer.counts)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str = "radiofront") -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for name, mod_name, attr, counter in WRAPPED:
            owner = sys.modules.get(f"{package}.{mod_name}")
            class_name, _, leaf = attr.rpartition(".")
            if class_name:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, leaf, None)
            if not callable(fn):
                self.absent[f"{package}.{mod_name}.{attr}"] = name
                continue
            wrapper = self._wrap(name, fn, counter)
            if class_name:
                self._replace(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                self._replace(value, k, wrapper)

    def _replace(self, owner, key, wrapper) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, start, end, _), child in zip(self.spans, child_ns):
            out[name] += (end - start - child) / 1e6
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["name", "parent", "start_ns", "end_ns", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def rate(count: float, busy_ms: float) -> float:
    return count / (busy_ms / 1e3) if busy_ms > 0 else 0.0

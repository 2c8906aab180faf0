"""radiofront: physics-guided sequencing machinery for radio maps.

Library layers, each importing only the layers listed above it that it uses:
  grids        grid data model, RGF1/CSV I/O and the rules every layer shares
  propagation  free-space pathloss, link budget, blockage, anchor maps
  ordering     wavefront and geometric generation orders over patch grids
  entropy      logit-trace entropy profiles and exact small-joint analysis
  rope         1D/3D rotary position kernels
  metrics      NMSE/RMSE/SSIM/PSNR, gradient continuity, histogram stats
  synth        procedural cities and pseudo ground-truth fields
  cli          `radiofront` command-line front end

The package is lazy: `import radiofront` loads none of them, and a name
below loads its module on first use (PEP 562), so a process pays only for
the layers it touches.  The package keeps no copy of a name: `radiofront.X`
is always what X's module holds now, so a binding patched there (by a test
or a tracer) and restored is seen restored here too.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "grids": (
        "GridFormatError", "HeightMap", "RadioField", "RxConfig", "Scene",
        "TxConfig", "UNIT_DB", "UNIT_METERS", "UNIT_NORM01", "ValidationError", "denormalize_db",
        "grid_from_csv", "grid_to_csv", "load_grid", "normalize_db", "rasterize_tx", "save_grid",
    ),
    "propagation": (
        "LinkBudget", "anchor_map", "anchor_volume", "blockage_ratio", "blockage_ratio_batch",
        "fspl", "link_threshold",
    ),
    "ordering": (
        "ContainmentReport", "CostField", "OrderParams", "OrderPi", "PatchGrid", "alternative_order",
        "bruteforce_costs", "euclidean_order", "hilbert_order", "init_costs", "load_order",
        "prior_pl_order", "raster_order", "sample_training_order", "save_order", "subsample_order",
        "true_pl_order", "verify_predecessor_containment", "wavefront_order", "zcurve_order",
    ),
    "entropy": (
        "EntropyProfile", "JointDist", "LogitTrace", "build_shadow_joint", "delta_h_map",
        "entropy_profile", "exact_conditional_entropies", "limited_context_entropy", "load_trace",
        "save_trace", "step_entropy",
    ),
    "rope": ("RopeConfig", "rope_rotate_1d", "rope_rotate_3d", "split_axis_dims"),
    "metrics": (
        "CdfTable", "GradLossConfig", "GradLossReport", "HistStats", "MetricReport", "grad3d_loss",
        "hist_stats", "jensen_shannon", "metric_report", "nmse", "psnr", "rmse_db", "ssim",
        "vertical_grad_error_cdf",
    ),
    "synth": (
        "CityParams", "GenerationError", "PATHLOSS_RANGES", "PRESETS", "dataset_profile", "gen_city",
        "gen_field", "gen_scene", "preset_edge_tx", "preset_serpentine", "preset_sparse",
        "preset_urban_canyon",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """The value name has in the module that owns it, loading that module on first use."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return list(__all__)

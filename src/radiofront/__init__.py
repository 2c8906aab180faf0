"""radiofront: physics-guided sequencing machinery for radio maps.

Library layers:
  grids        grid data model and RGF1/CSV I/O
  propagation  free-space pathloss, link budget, blockage, anchor maps
  ordering     wavefront and geometric generation orders over patch grids
  entropy      logit-trace entropy profiles and exact small-joint analysis
  rope         1D/3D rotary position kernels
  metrics      NMSE/RMSE/SSIM/PSNR, gradient continuity, histogram stats
  synth        procedural cities and pseudo ground-truth fields
  cli          `radiofront` command-line front end
"""

from .grids import (
    GridFormatError,
    HeightMap,
    RadioField,
    RxConfig,
    Scene,
    TxConfig,
    UNIT_DB,
    UNIT_METERS,
    UNIT_NORM01,
    ValidationError,
    denormalize_db,
    grid_from_csv,
    grid_to_csv,
    load_grid,
    normalize_db,
    rasterize_tx,
    save_grid,
)
from .propagation import (
    LinkBudget,
    anchor_map,
    anchor_volume,
    blockage_ratio,
    blockage_ratio_batch,
    fspl,
    link_threshold,
)
from .ordering import (
    ContainmentReport,
    CostField,
    OrderParams,
    OrderPi,
    PatchGrid,
    alternative_order,
    bruteforce_costs,
    euclidean_order,
    hilbert_order,
    init_costs,
    load_order,
    prior_pl_order,
    raster_order,
    sample_training_order,
    save_order,
    subsample_order,
    true_pl_order,
    verify_predecessor_containment,
    wavefront_order,
    zcurve_order,
)
from .entropy import (
    EntropyProfile,
    JointDist,
    LogitTrace,
    build_shadow_joint,
    delta_h_map,
    entropy_profile,
    exact_conditional_entropies,
    limited_context_entropy,
    load_trace,
    save_trace,
    step_entropy,
)
from .rope import RopeConfig, rope_rotate_1d, rope_rotate_3d, split_axis_dims
from .metrics import (
    CdfTable,
    GradLossConfig,
    GradLossReport,
    HistStats,
    MetricReport,
    grad3d_loss,
    hist_stats,
    jensen_shannon,
    metric_report,
    nmse,
    psnr,
    rmse_db,
    ssim,
    vertical_grad_error_cdf,
)
from .synth import (
    CityParams,
    GenerationError,
    PATHLOSS_RANGES,
    PRESETS,
    dataset_profile,
    gen_city,
    gen_field,
    gen_scene,
    preset_edge_tx,
    preset_serpentine,
    preset_sparse,
    preset_urban_canyon,
)

__version__ = "0.1.0"

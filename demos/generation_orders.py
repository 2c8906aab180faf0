"""Compare generation orders on a scene with a detour-forcing wall.

The wavefront order ranks patches by blockage-weighted shortest-path cost
from the transmitter, so shadowed patches are generated only after the
lower-cost patches their propagation path runs through.  Raster and the
other geometric scans ignore that structure; the containment check makes
the difference concrete.
"""

from pathlib import Path

import numpy as np

from radiofront import (
    HeightMap,
    PatchGrid,
    Scene,
    TxConfig,
    anchor_map,
    bruteforce_costs,
    hilbert_order,
    prior_pl_order,
    raster_order,
    save_order,
    verify_predecessor_containment,
    wavefront_order,
    zcurve_order,
)

out_dir = Path(__file__).parent / "demo_out"
out_dir.mkdir(exist_ok=True)

# 8x8 patches; a wall splits the map except for a gap at the bottom
side, patch_px = 64, 8
heights = np.zeros((side, side))
heights[:52, 30:34] = 60.0
scene = Scene(HeightMap(heights, 1.0), TxConfig(12.0, 28.0, 1.5, 5.9e9))
patches = PatchGrid.for_scene(scene, patch_px=patch_px)

order, costs = wavefront_order(scene, patches)
print("wavefront visit order (patch indices):")
print(order.perm.reshape(-1, patches.n_side))

# every patch is generated after its whole predecessor chain
report = verify_predecessor_containment(order, costs)
print(f"wavefront containment: holds={report.holds}")

# raster cannot make that promise on this scene
raster_report = verify_predecessor_containment(raster_order(patches.n_side), costs)
print(f"raster containment: holds={raster_report.holds}, "
      f"{len(raster_report.violations)} violations, e.g. {raster_report.violations[0]}")

# the frontier relaxation agrees with the full Bellman-Ford sweep to the last bit
oracle = bruteforce_costs(scene, patches)
print(f"bellman-ford agreement: {np.array_equal(oracle.d, costs.d)}")

# physics-ranked and geometric companions
prior = prior_pl_order(anchor_map(scene), patches)
print(f"priorPL first five patches: {prior.perm[:5]}  (wavefront: {order.perm[:5]})")
for name, geo in (("hilbert", hilbert_order), ("zcurve", zcurve_order)):
    print(f"{name} first five: {geo(patches.n_side).perm[:5]}")

save_order(order, out_dir / "wavefront.json")
print(f"wrote {out_dir}/wavefront.json")

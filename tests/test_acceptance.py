"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import math
import time

import numpy as np
from conftest import ssim_oracle

from radiofront import (
    CityParams,
    GradLossConfig,
    HeightMap,
    LogitTrace,
    OrderPi,
    PatchGrid,
    RadioField,
    RopeConfig,
    Scene,
    TxConfig,
    UNIT_DB,
    UNIT_NORM01,
    anchor_map,
    blockage_ratio_batch,
    build_shadow_joint,
    bruteforce_costs,
    euclidean_order,
    gen_scene,
    grad3d_loss,
    limited_context_entropy,
    load_grid,
    load_order,
    load_trace,
    nmse,
    preset_serpentine,
    prior_pl_order,
    raster_order,
    rmse_db,
    rope_rotate_1d,
    rope_rotate_3d,
    save_grid,
    save_order,
    save_trace,
    ssim,
    verify_predecessor_containment,
    wavefront_order,
)
from radiofront.entropy import JointDist, exact_conditional_entropies
from radiofront.propagation import SPEED_OF_LIGHT


def report(n, text):
    print(f"\nPASS [{n}] {text}")


def random_city_scene(seed, side_px=64, n_buildings=6, footprint=(6, 14)):
    params = CityParams(
        side_px=side_px,
        resolution=1.0,
        n_buildings=n_buildings,
        height_range=(5.0, 30.0),
        footprint_range=footprint,
        seed=seed,
    )
    return gen_scene(params)


def wall_scene():
    """Middle patch column walled except at the bottom row."""
    heights = np.zeros((24, 24))
    heights[:16, 10:14] = 80.0
    return Scene(HeightMap(heights, 1.0), TxConfig(4.0, 12.0, 1.5, 5.9e9))


def test_criterion_1_ordering_oracle_equivalence():
    t0 = time.perf_counter()
    for seed in range(100):
        scene = random_city_scene(seed)
        patches = PatchGrid.for_scene(scene, patch_px=8)  # 8x8 patch grid
        order, costs = wavefront_order(scene, patches)
        oracle = bruteforce_costs(scene, patches)
        assert np.array_equal(oracle.d, costs.d)
        assert np.array_equal(oracle.pred, costs.pred)
        assert np.array_equal(order.perm, np.argsort(oracle.d, kind="stable"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"oracle equivalence on 100 scenes: bit-identical costs, predecessors "
              f"and orders, {elapsed:.2f} s")


def test_criterion_2_predecessor_containment():
    for seed in range(50):
        scene = random_city_scene(seed, side_px=128, n_buildings=10, footprint=(8, 24))
        patches = PatchGrid.for_scene(scene, patch_px=8)  # 16x16 patch grid
        order, costs = wavefront_order(scene, patches)
        rep = verify_predecessor_containment(order, costs)
        assert rep.holds and not rep.violations
    _, wall_costs = wavefront_order(wall_scene(), PatchGrid.for_scene(wall_scene(), 8))
    raster_rep = verify_predecessor_containment(raster_order(3), wall_costs)
    assert len(raster_rep.violations) >= 1
    report(2, f"containment holds on 50 scenes; wall scene gives raster "
              f"{len(raster_rep.violations)} violation(s)")


def test_criterion_3_flat_map_degeneracy():
    # transmitter placements are random patch centers with z matching the
    # receiver height, the configuration in which the zero source cost is
    # exact and the coarse anchor scores are the center pathloss values
    side_px, patch_px = 256, 16
    flat = HeightMap(np.zeros((side_px, side_px)), 1.0)
    coarse = HeightMap(np.zeros((16, 16)), float(patch_px))
    rng = np.random.default_rng(2024)
    for k in rng.integers(0, 256, size=20):
        r, c = divmod(int(k), 16)
        tx = TxConfig((c + 0.5) * patch_px, (r + 0.5) * patch_px, 1.5, 5.9e9)
        scene = Scene(flat, tx)
        patches = PatchGrid.for_scene(scene, patch_px=patch_px)
        wf, _ = wavefront_order(scene, patches)
        euclid = euclidean_order(scene, patches)
        prior = prior_pl_order(anchor_map(Scene(coarse, tx)), patches)
        assert np.array_equal(wf.perm, euclid.perm)
        assert np.array_equal(prior.perm, euclid.perm)
    report(3, "wavefront == priorPL == euclidean sort on all 256 positions, "
              "20 random tx placements")


def test_criterion_4_chain_rule_invariance():
    rng = np.random.default_rng(7)
    cases = [(3, 10), (9, 5)]
    worst = 0.0
    for n_vars, n_joints in cases:
        for _ in range(n_joints):
            p = rng.random((2,) * n_vars)
            joint = JointDist(p / p.sum())
            totals = [
                exact_conditional_entropies(joint, rng.permutation(n_vars)).sum()
                for _ in range(20)
            ]
            spread = max(totals) - min(totals)
            worst = max(worst, spread)
            assert spread < 1e-9
    report(4, f"total conditional entropy order-invariant, worst spread {worst:.2e} nats")


def test_criterion_5_limited_context_order_effect():
    sides = (48, 60, 72, 96)
    strict = 0
    for seed in range(50):
        scene = preset_serpentine(seed=seed, side_px=sides[seed % 4])
        patches = PatchGrid.for_scene(scene, patch_px=scene.heightmap.width_px // 3)
        wf, costs = wavefront_order(scene, patches)
        joint = build_shadow_joint(costs, eps=0.1)
        h_wavefront = limited_context_entropy(joint, wf, 1)
        h_raster = limited_context_entropy(joint, raster_order(3), 1)
        assert h_wavefront <= h_raster + 1e-12
        if h_wavefront < h_raster - 1e-12:
            strict += 1
    assert strict >= 40  # >= 80% of 50
    report(5, f"wavefront k=1 entropy <= raster on 50/50 shadow-chain scenes, "
              f"strictly lower on {strict}/50")


def test_criterion_6_rope_identities():
    rng = np.random.default_rng(11)
    cfg = RopeConfig.from_head_dim(24)
    for _ in range(1000):
        q = rng.normal(size=24)
        k = rng.normal(size=24)
        p1 = rng.integers(-64, 64, size=3)
        p2 = rng.integers(-64, 64, size=3)
        rq = rope_rotate_3d(q, *p1, cfg)
        assert abs(np.linalg.norm(rq) - np.linalg.norm(q)) <= 1e-12
        lhs = rq @ rope_rotate_3d(k, *p2, cfg)
        rhs = q @ rope_rotate_3d(k, *(p2 - p1), cfg)
        assert abs(lhs - rhs) <= 1e-9
    for _ in range(200):
        q = rng.normal(size=16)
        m, n = rng.uniform(-100, 100, size=2)
        two = rope_rotate_1d(rope_rotate_1d(q, m), n)
        assert np.max(np.abs(two - rope_rotate_1d(q, m + n))) <= 1e-9
    report(6, "norm preservation (1e-12), relative-position (1e-9) over 1000 draws, "
              "composition (1e-9)")


def test_criterion_7_metrics_self_consistency():
    rng = np.random.default_rng(13)
    g = rng.uniform(0.05, 0.5, size=(2, 16, 16))  # doubled values stay in [0, 1]
    fld = RadioField(g, UNIT_NORM01)
    assert nmse(fld, fld) == 0.0
    assert rmse_db(RadioField(g - 100, UNIT_DB), RadioField(g - 100, UNIT_DB)) == 0.0
    assert grad3d_loss(fld, fld).total == 0.0
    assert ssim(fld, fld) == 1.0
    assert nmse(RadioField(2 * g, UNIT_NORM01), fld) == 1.0
    worst = 0.0
    for _ in range(5):
        a = rng.uniform(0, 1, size=(14, 15))
        b = np.clip(a + rng.normal(0, 0.15, size=a.shape), 0, 1)
        got = ssim(RadioField(a[None], UNIT_NORM01), RadioField(b[None], UNIT_NORM01))
        gap = abs(got - ssim_oracle(a, b))
        worst = max(worst, gap)
        assert gap <= 1e-6
    report(7, f"identity metrics exact; nmse(2*gt, gt) == 1; ssim vs oracle "
              f"worst gap {worst:.2e}")


def test_criterion_8_anchor_correctness():
    rng = np.random.default_rng(17)
    # zero-height maps reduce to closed-form free-space loss
    for _ in range(3):
        side = int(rng.integers(24, 64))
        tx = TxConfig(rng.uniform(1, side - 1), rng.uniform(1, side - 1), 1.5, 5.9e9)
        scene = Scene(HeightMap(np.zeros((side, side)), 1.0), tx)
        anchor = anchor_map(scene).slice(0)
        xs = (np.arange(side) + 0.5)[None, :]
        ys = (np.arange(side) + 0.5)[:, None]
        dist = np.maximum(np.hypot(xs - tx.x, ys - tx.y), tx.d0)
        wavelength = SPEED_OF_LIGHT / tx.f
        closed_form = 20.0 * np.log10(wavelength / (4.0 * math.pi * dist))
        assert np.max(np.abs(anchor - closed_form)) <= 1e-9
    # frequency doubling shifts every line-of-sight pixel by -6.02 dB
    scene = random_city_scene(3, side_px=64, n_buildings=6)
    a1 = anchor_map(scene).slice(0)
    a2 = anchor_map(scene.with_tx(f=2 * scene.tx.f)).slice(0)
    h = scene.heightmap
    xs, ys = np.meshgrid((np.arange(64) + 0.5), (np.arange(64) + 0.5))
    targets = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, 1.5)])
    beta = blockage_ratio_batch(
        h.values, h.resolution, np.broadcast_to(scene.tx.position, targets.shape), targets
    ).reshape(64, 64)
    los = beta == 0.0
    assert los.any()
    shift = (a2 - a1)[los]
    assert np.all(np.abs(shift + 6.02) <= 0.01)
    report(8, f"flat-map anchor == FSPL to 1e-9 dB; f->2f shifts {int(los.sum())} "
              f"LoS pixels by -6.02 +- 0.01 dB")


def test_criterion_9_gradient_regularizer():
    rng = np.random.default_rng(19)
    p2d = rng.uniform(size=(1, 8, 8))
    g2d = rng.uniform(size=(1, 8, 8))
    rep = grad3d_loss(p2d, g2d, GradLossConfig(scales=(1, 2), lambda_z=7.0))
    assert rep.vertical == 0.0
    g = np.zeros((2, 2, 2))
    p = g.copy()
    p[0, 0, 0] = 2.0
    rep = grad3d_loss(p, g, GradLossConfig(scales=(1,), lambda_z=0.5))
    assert abs(rep.inplane_per_scale[1] - 1.0) <= 1e-12
    assert abs(rep.vertical - 0.5) <= 1e-12
    assert abs(rep.total - 1.25) <= 1e-12
    report(9, "vertical term exactly 0 for single-slice fields; 2x2x2 hand case "
              "matches to 1e-12")


def test_criterion_10_performance():
    scene = random_city_scene(0, side_px=256, n_buildings=12, footprint=(16, 48))
    patches = PatchGrid.for_scene(scene, patch_px=16)
    wavefront_order(scene, patches)  # warm-up
    samples = []
    for _ in range(21):
        t0 = time.perf_counter()
        wavefront_order(scene, patches)
        samples.append(time.perf_counter() - t0)
    median_ms = sorted(samples)[10] * 1000.0
    assert median_ms < 10.0
    anchor_map(scene)  # warm-up
    anchor_times = []
    for _ in range(5):
        t0 = time.perf_counter()
        anchor_map(scene)
        anchor_times.append(time.perf_counter() - t0)
    anchor_ms = sorted(anchor_times)[2] * 1000.0
    assert anchor_ms < 500.0
    report(10, f"wavefront 256-patch median {median_ms:.2f} ms (< 10 ms); "
               f"anchor 256x256 {anchor_ms:.0f} ms (< 500 ms)")


def test_criterion_11_io_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    for i in range(40):  # grids
        if i % 2 == 0:
            grid = HeightMap(
                rng.uniform(0, 40, (int(rng.integers(1, 10)), int(rng.integers(1, 10)))).astype(np.float32),
                float(np.float32(rng.uniform(0.5, 4))),
            )
        else:
            grid = RadioField(
                rng.uniform(-169, -47, (int(rng.integers(1, 3)), 4, 5)).astype(np.float32),
                UNIT_DB,
            )
        path = tmp_path / f"g{i}.rgf"
        save_grid(grid, path)
        first = path.read_bytes()
        back = load_grid(path)
        assert type(back) is type(grid)
        assert np.array_equal(back.values, grid.values)
        assert back.resolution == grid.resolution
        save_grid(back, path)
        assert path.read_bytes() == first
    for i in range(30):  # orders
        n = int(rng.integers(2, 9))
        order = OrderPi(rng.permutation(n * n), "custom", {"alpha_los": 2.0})
        path = tmp_path / f"o{i}.json"
        save_order(order, path)
        first = path.read_bytes()
        back = load_order(path)
        assert np.array_equal(back.perm, order.perm)
        assert back.kind == order.kind and back.params == order.params
        save_order(back, path)
        assert path.read_bytes() == first
    for i in range(30):  # traces
        trace = LogitTrace(
            rng.normal(size=(int(rng.integers(1, 10)), int(rng.integers(2, 40)))).astype(np.float32)
        )
        path = tmp_path / f"t{i}.ltr"
        save_trace(trace, path)
        first = path.read_bytes()
        back = load_trace(path)
        assert np.array_equal(back.logits, trace.logits)
        save_trace(back, path)
        assert path.read_bytes() == first
    report(11, "grid/order/trace files round-trip bit-exactly for 100 instances")

"""Free-space pathloss, link budget, blockage ratio, anchor map."""

import gc
import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from radiofront import (
    CityParams,
    HeightMap,
    PatchGrid,
    RxConfig,
    Scene,
    TxConfig,
    ValidationError,
    anchor_map,
    anchor_volume,
    blockage_ratio,
    blockage_ratio_batch,
    fspl,
    gen_scene,
    link_threshold,
)
from radiofront import propagation
from radiofront.ordering import _edge_list
from radiofront.propagation import SPEED_OF_LIGHT, _sample_counts, pixel_centers
from radiofront.synth import PRESETS

CHUNK_RAYS = 2048  # rays sampled per batch in blockage_ratio_reference


def blockage_ratio_reference(
    heights: np.ndarray,
    resolution: float,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """The blockage kernel before sorting: consecutive rays padded to the chunk's longest."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    h_px, w_px = heights.shape
    vec = b - a
    lengths = np.linalg.norm(vec, axis=1)
    counts = _sample_counts(lengths, resolution)
    beta = np.empty(len(a), dtype=np.float64)
    for lo in range(0, len(a), CHUNK_RAYS):
        hi = min(lo + CHUNK_RAYS, len(a))
        k = counts[lo:hi]
        k_max = int(k.max())
        # (P, k_max) fractional positions; entries beyond K_i are masked out
        steps = np.arange(k_max, dtype=np.float64)[np.newaxis, :]
        t = (steps + 0.5) / k[:, np.newaxis]
        valid = steps < k[:, np.newaxis]
        t = np.where(valid, t, 0.0)
        xs = a[lo:hi, 0, np.newaxis] + vec[lo:hi, 0, np.newaxis] * t
        ys = a[lo:hi, 1, np.newaxis] + vec[lo:hi, 1, np.newaxis] * t
        zs = a[lo:hi, 2, np.newaxis] + vec[lo:hi, 2, np.newaxis] * t
        cols = np.clip((xs / resolution).astype(np.int64), 0, w_px - 1)
        rows = np.clip((ys / resolution).astype(np.int64), 0, h_px - 1)
        blocked = (zs < heights[rows, cols]) & valid
        beta[lo:hi] = blocked.sum(axis=1) / k
    return beta


def fan_rays(scene, z):
    """Transmitter-to-pixel-centre rays at receiver height z, as the anchor casts them."""
    h = scene.heightmap
    xs, ys = pixel_centers(h.height_px, h.width_px, h.resolution)
    targets = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, z)])
    return np.broadcast_to(scene.tx.position, targets.shape), targets


def anchor_slice_reference(scene, z):
    """One anchor slice from the reference kernel, computed as the anchor map was."""
    h = scene.heightmap
    tx = scene.tx
    xs, ys = pixel_centers(h.height_px, h.width_px, h.resolution)
    dx = xs - tx.x
    dy = ys - tx.y
    dz = z - tx.z
    loss = fspl(np.maximum(np.sqrt(dx * dx + dy * dy + dz * dz), tx.d0), tx.f)
    beta = blockage_ratio_reference(h.values, h.resolution, *fan_rays(scene, z))
    return loss + beta.reshape(loss.shape) * (fspl(tx.d0, tx.f) - link_threshold(tx).l_thr)


def assert_level_call_matches_the_reference(heights, res, a, b, n_s, budget):
    """blockage_ratio_batch and an n_s-slice call with every slice at the rays' z equal the reference."""
    bz = np.broadcast_to(b[:, 2], (n_s, len(b)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "SAMPLE_BUDGET", budget)
        single = blockage_ratio_batch(heights, res, a, b)
        sliced = propagation._blockage(heights, res, a, b[:, 0], b[:, 1], bz)
    reference = blockage_ratio_reference(heights, res, a, b)
    assert np.array_equal(single, reference)
    for s in range(n_s):
        assert np.array_equal(sliced[s], reference)


def random_city(seed, side_px):
    params = CityParams(side_px, n_buildings=8, footprint_range=(4, side_px // 4), seed=seed)
    return gen_scene(params)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def independent_fspl(d, f):
    """Closed-form Friis oracle, written without the library helpers."""
    wavelength = SPEED_OF_LIGHT / f
    return 20.0 * math.log10(wavelength / (4.0 * math.pi * d))


def flat_scene(side=32, res=1.0, tx=(5.5, 5.5), f=5.9e9, z_tx=1.5):
    hm = HeightMap(np.zeros((side, side)), res)
    return Scene(hm, TxConfig(tx[0], tx[1], z_tx, f))


class TestFspl:
    def test_reference_value(self):
        assert fspl(100.0, 5.9e9) == pytest.approx(-87.86, abs=0.01)
        assert fspl(100.0, 5.9e9) == pytest.approx(independent_fspl(100.0, 5.9e9), abs=1e-9)

    def test_distance_doubling(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.uniform(1, 500)
            f = rng.uniform(1e8, 1e11)
            assert fspl(2 * d, f) - fspl(d, f) == pytest.approx(-20 * math.log10(2), abs=1e-9)

    def test_frequency_doubling(self):
        assert fspl(50.0, 2e9) - fspl(50.0, 1e9) == pytest.approx(-6.0206, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fspl(0.0, 1e9)
        with pytest.raises(ValueError):
            fspl(10.0, -1.0)
        with pytest.raises(ValueError, match="distance must be positive, got nan"):
            fspl(np.array([3.0, math.nan]), 1e9)
        with pytest.raises(ValueError, match="frequency must be positive, got nan"):
            fspl(10.0, math.nan)

    def test_array_equals_each_element(self):
        # np.log10 and math.log10 differ in the last bit on about 3% of
        # inputs, 21 of these 800 distances
        d = np.random.default_rng(4).uniform(0.01, 3000.0, size=(20, 40))
        for f in (9e8, 2.4e9, 5.9e9, 2.8e10):
            loss = fspl(d, f)
            assert loss.shape == d.shape and loss.dtype == np.float64
            assert np.array_equal(loss, [[fspl(float(x), f) for x in row] for row in d])
        assert type(fspl(100.0, 5.9e9)) is float

    def test_array_with_a_nonpositive_distance_names_the_smallest(self):
        with pytest.raises(ValueError, match=r"^distance must be positive, got -3\.0$"):
            fspl(np.array([[5.0, 0.0], [-3.0, 2.0]]), 1e9)
        with pytest.raises(ValueError, match=r"^distance must be positive, got 0\.0$"):
            fspl(np.array([5.0, 0.0]), 1e9)


class TestLinkThreshold:
    def test_reference_value(self):
        tx = TxConfig(1, 1, 1.5, 5.9e9, p_tx=0.0, w=1e6, nf=0.0)
        assert link_threshold(tx).l_thr == pytest.approx(-114.0, abs=1e-9)

    def test_bandwidth_doubling(self):
        t1 = link_threshold(TxConfig(1, 1, 1.5, 1e9, p_tx=0, w=1e6, nf=0)).l_thr
        t2 = link_threshold(TxConfig(1, 1, 1.5, 1e9, p_tx=0, w=2e6, nf=0)).l_thr
        assert t2 - t1 == pytest.approx(10 * math.log10(2), abs=1e-9)

    def test_noise_figure_additive(self):
        t0 = link_threshold(TxConfig(1, 1, 1.5, 1e9, p_tx=0, w=1e6, nf=0)).l_thr
        t5 = link_threshold(TxConfig(1, 1, 1.5, 1e9, p_tx=0, w=1e6, nf=5)).l_thr
        assert t5 - t0 == pytest.approx(5.0, abs=1e-12)


class TestBlockageRatio:
    def test_flat_map_is_clear(self):
        sc = flat_scene()
        assert blockage_ratio(sc, (1.0, 1.0, 1.5), (30.0, 30.0, 1.5)) == 0.0

    def test_inside_tall_building(self):
        heights = np.full((16, 16), 30.0)
        hm = HeightMap(heights, 1.0)
        assert blockage_ratio(hm, (2.0, 2.0, 1.5), (14.0, 14.0, 1.5)) == 1.0

    def test_half_blocked_wall(self):
        # 100 m horizontal ray at z=1.5 m; a 20 m wall covers the second
        # half of the x range, so exactly half the K midpoint samples are
        # below roof height
        side = 104
        heights = np.zeros((side, side))
        heights[:, 52:102] = 20.0
        hm = HeightMap(heights, 1.0)
        a = (2.0, 10.0, 1.5)
        b = (102.0, 10.0, 1.5)
        k = max(2, math.ceil(100.0 / 1.0))
        # independent enumeration of the K midpoint samples
        blocked = 0
        for i in range(k):
            t = (i + 0.5) / k
            x = a[0] + t * (b[0] - a[0])
            if heights[10, min(int(x), side - 1)] > 1.5:
                blocked += 1
        expected = blocked / k
        assert abs(expected - 0.5) <= 1.0 / k
        assert blockage_ratio(hm, a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        heights = (rng.random((24, 24)) < 0.3) * rng.uniform(5, 25, (24, 24))
        hm = HeightMap(heights, 1.0)
        for _ in range(25):
            a = tuple(rng.uniform(0.5, 23.5, 2)) + (rng.uniform(0, 3),)
            b = tuple(rng.uniform(0.5, 23.5, 2)) + (rng.uniform(0, 3),)
            k = max(2, math.ceil(float(np.linalg.norm(np.subtract(b, a))) / 1.0))
            beta_ab = blockage_ratio(hm, a, b)
            beta_ba = blockage_ratio(hm, b, a)
            assert 0.0 <= beta_ab <= 1.0
            assert abs(beta_ab - beta_ba) <= 1.0 / k

    @settings(
        max_examples=200, deadline=None, derandomize=True, database=None,
        phases=(Phase.explicit, Phase.generate),
    )
    @given(data=st.data())
    def test_ratio_in_unit_interval(self, data):
        h_px, w_px, n = (data.draw(st.integers(1, 12)) for _ in range(3))
        res = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
        heights = data.draw(arrays(np.float64, (h_px, w_px), elements=st.floats(0, 40)))
        inside = st.tuples(
            st.floats(0, w_px * res, exclude_max=True),
            st.floats(0, h_px * res, exclude_max=True),
            st.floats(0, 50),
        )
        a, b = (np.array(data.draw(st.lists(inside, min_size=n, max_size=n))) for _ in range(2))
        beta = blockage_ratio_batch(heights, res, a, b)
        assert beta.shape == (n,)
        assert np.all((beta >= 0.0) & (beta <= 1.0))

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[0.5, 0.5, 1.5]], [[1.5, 0.5, 1.5], [2.5, 0.5, 1.5]]),
            ([[0.5, 0.5]], [[1.5, 0.5]]),
            ([[0.5, 0.5, 1.5, 0.0]], [[1.5, 0.5, 1.5, 0.0]]),
            (np.zeros((1, 1, 3)), np.zeros((1, 1, 3))),
        ],
        ids=["one-origin-two-targets", "two-coordinates", "four-coordinates", "three-dimensional"],
    )
    def test_malformed_endpoint_arrays_are_named(self, a, b):
        with pytest.raises(ValueError, match=re.escape("ray endpoints a and b must both be (P, 3)")):
            blockage_ratio_batch(np.zeros((4, 4)), 1.0, a, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_endpoints_are_named(self, bad):
        hm = HeightMap(np.zeros((4, 4)), 1.0)
        for a, b in (((0.5, 0.5, bad), (2.5, 0.5, 1.5)), ((0.5, 0.5, 1.5), (2.5, bad, 1.5))):
            with pytest.raises(ValueError, match="ray endpoints must be finite"):
                blockage_ratio_batch(hm.values, 1.0, [a], [b])
        with pytest.raises(ValueError, match="ray endpoints must be finite"):
            blockage_ratio(hm, (0.5, 0.5, bad), (2.5, 0.5, 1.5))

    @pytest.mark.parametrize("resolution", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_bad_resolution_is_named(self, resolution):
        # -1.0 used to clear a ray through a 10 m wall, and NaN warned three times
        heights = np.zeros((4, 4))
        heights[:, 2] = 10.0
        message = re.escape(f"resolution must be finite and > 0, got {resolution!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                blockage_ratio_batch(heights, resolution, [[0.5, 0.5, 1.0]], [[3.5, 0.5, 1.0]])

    @pytest.mark.parametrize("shape", [(), (16,), (2, 2, 4)], ids=["scalar", "1-D", "3-D"])
    def test_heights_must_be_a_2d_map(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"heights must be a 2-D map, got shape {shape}")):
            blockage_ratio_batch(np.zeros(shape), 1.0, [[0.5, 0.5, 1.0]], [[1.5, 0.5, 1.0]])

    def test_out_of_bounds(self):
        sc = flat_scene(side=8)
        with pytest.raises(ValueError, match="extent"):
            blockage_ratio(sc, (1.0, 1.0, 1.5), (9.0, 1.0, 1.5))

    def test_sloped_ray_clears_wall(self):
        # z interpolates linearly, so a ray climbing over the wall midpoint
        # is blocked only on the low half
        heights = np.zeros((20, 20))
        heights[:, 8:12] = 10.0
        hm = HeightMap(heights, 1.0)
        low = blockage_ratio(hm, (1.0, 10.0, 1.0), (19.0, 10.0, 1.0))
        climbing = blockage_ratio(hm, (1.0, 10.0, 1.0), (19.0, 10.0, 25.0))
        assert climbing < low


class TestBlockageReference:
    """The sorted, sample-budgeted kernel gives the reference kernel's beta bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_city_fans(self, seed):
        scene = random_city(seed, side_px=48 + 16 * seed)
        h = scene.heightmap
        for z in (0.5, scene.rx.z_rx, 4.0, 25.0):
            a, b = fan_rays(scene, z)
            assert np.array_equal(
                blockage_ratio_batch(h.values, h.resolution, a, b),
                blockage_ratio_reference(h.values, h.resolution, a, b),
            )

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_anchor_maps(self, name):
        scene = PRESETS[name](seed=3)
        reference = anchor_slice_reference(scene, scene.rx.z_rx)
        assert np.array_equal(anchor_map(scene).slice(0), reference)

    @pytest.mark.parametrize("n_z, dz", [(2, 1.0), (3, 1.0), (3, 2.0), (5, 1.0), (5, 2.0)])
    def test_multi_slice_volumes(self, n_z, dz):
        base = random_city(n_z, side_px=96)
        scene = Scene(base.heightmap, base.tx, RxConfig(z_rx=2.0, n_z=n_z, dz=dz))
        volume = anchor_volume(scene).values
        assert volume.shape == (n_z, 96, 96)
        for k, z in enumerate(scene.rx.slice_heights()):
            assert np.array_equal(volume[k], anchor_slice_reference(scene, z))
            assert np.array_equal(volume[k], anchor_map(scene, z=z).slice(0))

    @pytest.mark.parametrize("patch_px", [4, 16])
    def test_ordering_rays_of_a_256_city(self, patch_px):
        scene = random_city(7, side_px=256)
        h = scene.heightmap
        centers = PatchGrid.for_scene(scene, patch_px).centers()
        src, dst = _edge_list(256 // patch_px)
        init = (np.broadcast_to(scene.tx.position, centers.shape), centers)
        for a, b in (init, (centers[src], centers[dst])):
            assert np.array_equal(
                blockage_ratio_batch(h.values, h.resolution, a, b),
                blockage_ratio_reference(h.values, h.resolution, a, b),
            )

    def test_ray_cut_into_passes_is_exact(self):
        # 4 samples in passes of 3; x enters the wall halfway along the ray
        heights = np.zeros((1, 4))
        heights[:, 2:] = 10.0
        a, b = [[0.0, 0.0, 1.0]], [[4e-5, 0.0, 1.0]]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "SAMPLE_BUDGET", 3)
            beta = blockage_ratio_batch(heights, 1e-5, a, b)
        assert beta[0] == blockage_ratio_reference(heights, 1e-5, a, b)[0] == 0.5

    @settings(
        max_examples=150, deadline=None, derandomize=True, database=None,
        phases=(Phase.explicit, Phase.generate),
    )
    @given(data=st.data())
    def test_any_budget_gives_the_reference_beta(self, data):
        # budgets of a few samples force many chunks and cut rays into segments
        budget = data.draw(st.integers(1, 12))
        n_s, h_px, w_px, n = (data.draw(st.integers(1, 5)) for _ in range(4))
        res = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
        heights = data.draw(arrays(np.float64, (h_px, w_px), elements=st.floats(0, 40)))
        inside = st.tuples(
            st.floats(0, w_px * res, exclude_max=True),
            st.floats(0, h_px * res, exclude_max=True),
            st.floats(0, 50),
        )
        a, b = (np.array(data.draw(st.lists(inside, min_size=n, max_size=n))) for _ in range(2))
        bz = data.draw(arrays(np.float64, (n_s, n), elements=st.floats(0, 50)))
        bz[0] = b[:, 2]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "SAMPLE_BUDGET", budget)
            single = blockage_ratio_batch(heights, res, a, b)
            sliced = propagation._blockage(heights, res, a, b[:, 0], b[:, 1], bz)
        assert np.array_equal(single, blockage_ratio_reference(heights, res, a, b))
        for s in range(n_s):
            target = np.column_stack([b[:, 0], b[:, 1], bz[s]])
            assert np.array_equal(sliced[s], blockage_ratio_reference(heights, res, a, target))


    @settings(
        max_examples=150, deadline=None, derandomize=True, database=None,
        phases=(Phase.explicit, Phase.generate),
    )
    @given(data=st.data())
    def test_level_calls_give_the_reference_beta(self, data):
        # every endpoint at one shared z: the kernel counts the roofs above z,
        # and a roof exactly at z must stay clear as in the reference
        budget = data.draw(st.integers(1, 12))
        n_s, h_px, w_px, n = (data.draw(st.integers(1, 5)) for _ in range(4))
        res = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
        z = data.draw(st.sampled_from([0.0, 1.5]) | st.floats(0, 50))
        roofs = st.sampled_from([0.0, z, z + 1.0]) | st.floats(0, 40)
        heights = data.draw(arrays(np.float64, (h_px, w_px), elements=roofs))
        inside = st.tuples(st.floats(0, w_px * res, exclude_max=True), st.floats(0, h_px * res, exclude_max=True))
        a, b = (np.array(data.draw(st.lists(inside, min_size=n, max_size=n))) for _ in range(2))
        a, b = (np.column_stack([p, np.full(n, z)]) for p in (a, b))
        assert_level_call_matches_the_reference(heights, res, a, b, n_s, budget)

    @pytest.mark.parametrize("n_s, z", [(3, 1.5), (4, 7.25), (1, 0.0), (2, 0.0)])
    def test_level_call_edge_cases(self, n_s, z):
        # roofs at 0, exactly at z and above z, under several slices and at ground level
        heights = np.array([[0.0, z, z + 2.0, 0.0], [z, 0.0, z, z + 0.5], [z + 9.0, z, 0.0, z]])
        a = np.array([[0.5, 0.5, z], [3.5, 2.5, z], [0.25, 2.75, z], [1.5, 1.5, z]])
        b = np.array([[3.5, 2.5, z], [0.5, 0.5, z], [3.75, 0.25, z], [1.5, 1.5, z]])
        for budget in (1, 5, propagation.SAMPLE_BUDGET):
            assert_level_call_matches_the_reference(heights, 0.5, a, b, n_s, budget)

    @pytest.mark.parametrize(
        "a_z, b_z",
        [([1.5, 1.5], [1.5, 30.0]), ([1.5, 30.0], [1.5, 1.5]), ([1.5, 12.0], [1.5, 12.0])],
        ids=["one-ray-climbs", "one-ray-descends", "two-level-heights"],
    )
    def test_mixed_calls_take_the_float_path(self, a_z, b_z):
        # a level ray at 1.5 m beside a sloped one, or beside a level ray at
        # another height: counting the roofs above 1.5 m would block the
        # second ray's samples that pass over the 10 m wall
        heights = np.zeros((4, 40))
        heights[:, 15:25] = 10.0
        a = np.array([[0.0, 1.5, a_z[0]], [0.0, 2.5, a_z[1]]])
        b = np.array([[40.0, 1.5, b_z[0]], [40.0, 2.5, b_z[1]]])
        beta = blockage_ratio_batch(heights, 1.0, a, b)
        assert np.array_equal(beta, blockage_ratio_reference(heights, 1.0, a, b))
        assert beta[0] == 0.25 and beta[1] < 0.25


class TestRunDecisions:
    """Runs that the summed-area tables decide keep the reference kernel's beta bit for bit."""

    @settings(
        max_examples=250, deadline=None, derandomize=True, database=None,
        phases=(Phase.explicit, Phase.generate),
    )
    @given(data=st.data())
    def test_any_run_length_gives_the_reference_beta(self, data):
        budget = data.draw(st.integers(1, 12), label="budget")
        run_length = data.draw(st.integers(1, 2 * propagation.RUN_LENGTH), label="run_length")
        # up to 8 rays over at most 3 x 8 pixels: most calls have as many samples as
        # pixels, so they decide runs
        n_s = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 8))
        h_px = data.draw(st.integers(1, 3))
        w_px = data.draw(st.integers(1, 8))
        res = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
        z = data.draw(st.sampled_from([0.0, 1.5]) | st.floats(0, 30))
        near_z = st.sampled_from([z, np.nextafter(z, -np.inf), np.nextafter(z, np.inf)])
        ground = data.draw(st.sampled_from(["open", "roofs", "mixed"]))
        roofs = {
            "open": st.just(0.0),
            "roofs": near_z | st.sampled_from([z + 4.0, 40.0]),
            "mixed": near_z | st.sampled_from([0.0, z + 4.0, math.nan, math.inf]) | st.floats(0, 40),
        }[ground]
        heights = data.draw(arrays(np.float64, (h_px, w_px), elements=roofs))
        spot = st.tuples(
            st.floats(0, w_px * res, exclude_max=True),
            st.floats(0, h_px * res, exclude_max=True),
            near_z | st.sampled_from([0.0, z + 0.5]) | st.floats(0, 50),
        )
        a, b = (np.array(data.draw(st.lists(spot, min_size=n, max_size=n))) for _ in range(2))
        flat = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        b[flat, 2] = a[flat, 2]
        slices = [b[:, 2]]
        for _ in range(n_s - 1):
            other = np.array([p[2] for p in data.draw(st.lists(spot, min_size=n, max_size=n))])
            slices.append(np.where(flat, a[:, 2], other) if data.draw(st.booleans()) else other)
        bz = np.array(slices)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "SAMPLE_BUDGET", budget)
            mp.setattr(propagation, "RUN_LENGTH", run_length)
            single = blockage_ratio_batch(heights, res, a, b)
            sliced = propagation._blockage(heights, res, a, b[:, 0], b[:, 1], bz)
        assert np.array_equal(single, blockage_ratio_reference(heights, res, a, b))
        for s in range(n_s):
            target = np.column_stack([b[:, 0], b[:, 1], bz[s]])
            assert np.array_equal(sliced[s], blockage_ratio_reference(heights, res, a, target))

    @pytest.mark.parametrize("sample", ["first", "last"])
    @pytest.mark.parametrize("step", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("run_length", [1, 3, 8, 16])
    def test_roofs_at_the_extreme_sample_heights(self, sample, step, run_length):
        # a ray climbing from 1 m to 2 m over roofs all at its lowest or highest
        # sample's z, or one float step off it: a roof exactly at a sample's z
        # does not block it, so the clear and blocked decisions sit on these
        # edges; the strip has no more pixels than the ray has samples, so the
        # kernel decides runs
        a, b = np.array([[0.5, 0.5, 1.0]]), np.array([[39.5, 0.5, 2.0]])
        k = int(_sample_counts(np.array([math.sqrt(39.0**2 + 1.0)]), 1.0)[0])
        t = np.array([0.5 / k, (k - 1 + 0.5) / k])
        z_first, z_last = t * (b[0, 2] - a[0, 2]) + a[0, 2]
        z = z_first if sample == "first" else z_last
        roof = z if step == 0 else np.nextafter(z, step * np.inf)
        heights = np.full((1, 40), roof)
        bz = np.array([[2.0], [1.0], [2.0]])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "RUN_LENGTH", run_length)
            beta = blockage_ratio_batch(heights, 1.0, a, b)
            volume = propagation._blockage(heights, 1.0, a, b[:, 0], b[:, 1], bz)
        assert np.array_equal(beta, blockage_ratio_reference(heights, 1.0, a, b))
        for s in range(len(bz)):
            target = np.array([[b[0, 0], b[0, 1], bz[s, 0]]])
            assert np.array_equal(volume[s], blockage_ratio_reference(heights, 1.0, a, target))

    @pytest.mark.parametrize("roof", ["lowest-z", "open", "above-highest-z"])
    def test_decided_runs_are_not_sampled(self, monkeypatch, roof):
        # roofs exactly at the first sample's z, at 0 or above the last
        # sample's z decide all 5 runs of the 40 samples, so only the 6 run
        # edges get a column and a row; sampling would take 40 of each
        a, b = np.array([[0.5, 0.5, 1.0]]), np.array([[39.5, 0.5, 2.0]])
        k = int(_sample_counts(np.array([math.sqrt(39.0**2 + 1.0)]), 1.0)[0])
        heights = np.full((1, 40), {"lowest-z": 0.5 / k + 1.0, "open": 0.0, "above-highest-z": 2.0}[roof])
        sizes = []
        pixels = propagation._pixels
        monkeypatch.setattr(propagation, "RUN_LENGTH", 8)
        monkeypatch.setattr(propagation, "_pixels", lambda t, *args: sizes.append(t.size) or pixels(t, *args))
        beta = blockage_ratio_batch(heights, 1.0, a, b)
        assert k == 40 and beta[0] == (1.0 if roof == "above-highest-z" else 0.0)
        assert sizes == [6, 6]

    def test_uav_volume(self):
        # a 30 m transmitter over 3 slices near the ground: the call's z span
        # holds every roof (6.6-19.8 m), so no run is blocked in every sample
        # and only runs over open ground are decided
        base = random_city(11, side_px=96)
        scene = Scene(base.heightmap, replace(base.tx, z=30.0), RxConfig(n_z=3))
        volume = anchor_volume(scene).values
        for k, z in enumerate(scene.rx.slice_heights()):
            assert np.array_equal(volume[k], anchor_slice_reference(scene, z))


class TestFarRays:
    @pytest.mark.parametrize("b_z", [1.5, 2.0], ids=["level", "sloped"])
    @pytest.mark.parametrize("x", [1e18, 1e19, 1e300])
    def test_far_ray_lands_in_the_edge_pixel(self, x, b_z):
        # positions are clipped to the map before the int cast, so a ray past
        # 2**63 pixels still samples the last column, a 10 m wall
        heights = np.zeros((1, 4))
        heights[0, 3] = 10.0
        a = np.array([[x, 0.5, 1.5]])
        b = np.array([[x + 4.0, 0.5, b_z]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert blockage_ratio_batch(heights, 1.0, a, b)[0] == 1.0


class TestBlockageMemory:
    """Peak traced memory follows SAMPLE_BUDGET, not the longest ray or the slice count."""

    def test_one_long_ray_stays_within_the_budget(self):
        # 30 m at 1e-5 m is 3e6 samples, over ten times the budget; one
        # padded row would hold every sample at once
        heights = np.zeros((4, 4))
        heights[:, 2:] = 10.0
        a = np.array([[0.5, 0.5, 1.0]])
        b = np.array([[30.0, 0.5, 1.0]])
        assert _sample_counts(np.array([29.5]), 1e-5)[0] > 10 * propagation.SAMPLE_BUDGET
        peak = traced_peak(lambda: blockage_ratio_batch(heights, 1e-5, a, b))
        assert peak <= 12 * propagation.SAMPLE_BUDGET * 8

    def test_level_fan_costs_at_most_its_occupancy_map(self):
        # the 256^2 fan at the transmitter's height counts a bool map of the
        # roofs above it; the same fan 1 m lower compares float heights
        scene = gen_scene(CityParams(side_px=256, seed=1))
        h = scene.heightmap
        level = fan_rays(scene, scene.tx.z)
        sloped = fan_rays(scene, scene.tx.z - 1.0)
        level_peak = traced_peak(lambda: blockage_ratio_batch(h.values, h.resolution, *level))
        sloped_peak = traced_peak(lambda: blockage_ratio_batch(h.values, h.resolution, *sloped))
        assert level_peak <= 12 * propagation.SAMPLE_BUDGET * 8
        assert level_peak <= sloped_peak + h.values.size

    def test_volume_peak_is_one_map_plus_its_output(self):
        base = gen_scene(CityParams(side_px=256, seed=1))
        scene = Scene(base.heightmap, base.tx, RxConfig(n_z=3))
        map_peak = traced_peak(lambda: anchor_map(scene))
        volume_peak = traced_peak(lambda: anchor_volume(scene))
        assert volume_peak <= map_peak + 3 * 256 * 256 * 8


def count_casts(monkeypatch):
    """Route propagation._anchor_slices through a counter; returns the list of calls."""
    calls = []
    cold = propagation._anchor_slices

    def counted(scene, zs):
        calls.append(scene)
        return cold(scene, zs)

    monkeypatch.setattr(propagation, "_anchor_slices", counted)
    return calls


class TestAnchorVolumeCache:
    def scene(self, seed=2, n_z=2):
        return Scene(random_city(seed, side_px=48).heightmap, TxConfig(20.5, 24.5), RxConfig(n_z=n_z))

    def test_repeat_call_returns_the_same_field(self, monkeypatch):
        calls = count_casts(monkeypatch)
        sc = self.scene()
        first = anchor_volume(sc)
        assert anchor_volume(sc) is first
        assert len(calls) == 1
        assert not first.values.flags.writeable

    def test_cached_volume_equals_a_cold_one(self):
        sc = self.scene()
        anchor_volume(sc)
        cached = anchor_volume(sc)
        fresh = Scene(HeightMap(sc.heightmap.values, sc.heightmap.resolution), replace(sc.tx), replace(sc.rx))
        cold = propagation._anchor_slices(fresh, fresh.rx.slice_heights())
        assert np.array_equal(cached.values, cold.values)

    def test_other_scene_objects_miss(self, monkeypatch):
        calls = count_casts(monkeypatch)
        sc = self.scene()
        volume = anchor_volume(sc)
        others = [
            Scene(sc.heightmap, sc.tx, sc.rx),  # equal, not the same object
            sc.with_tx(x=30.5),
            replace(sc, rx=RxConfig(n_z=3)),
        ]
        for other in others:
            assert anchor_volume(other) is not volume
        assert calls == [sc, *others]
        assert np.array_equal(anchor_volume(others[0]).values, volume.values)
        assert not np.array_equal(anchor_volume(others[1]).values, volume.values)
        assert anchor_volume(others[2]).n_z == 3

    def test_alternating_scenes_get_their_own_volumes(self):
        a, b = self.scene(seed=2), self.scene(seed=3)
        cold_a = propagation._anchor_slices(a, a.rx.slice_heights()).values
        cold_b = propagation._anchor_slices(b, b.rx.slice_heights()).values
        assert not np.array_equal(cold_a, cold_b)
        for _ in range(2):
            assert np.array_equal(anchor_volume(a).values, cold_a)
            assert np.array_equal(anchor_volume(b).values, cold_b)

    def test_threads_sharing_the_cache_each_get_their_own_volume(self):
        scenes = [flat_scene(side=8, tx=(k + 0.5, 2.5)).with_tx(z=float(k)) for k in range(4)]
        colds = [propagation._anchor_slices(sc, sc.rx.slice_heights()).values for sc in scenes]
        wrong = []
        start = threading.Barrier(len(scenes))

        def work(k):
            start.wait(timeout=60)
            for _ in range(100):
                if not np.array_equal(anchor_volume(scenes[k]).values, colds[k]):
                    wrong.append(k)
                time.sleep(0)  # yield, so the threads take turns and keep replacing the entry

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(scenes))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_volume_is_released_with_its_scene(self):
        sc = self.scene()
        volume = weakref.ref(anchor_volume(sc))
        gc.collect()
        assert volume() is not None  # held for the live scene
        del sc
        gc.collect()
        assert volume() is None

    def test_writes_to_the_source_array_do_not_reach_the_volume(self):
        base = np.zeros((16, 16))
        hm = HeightMap(base[:], 1.0)
        sc = Scene(hm, TxConfig(2.5, 8.5))
        before = anchor_volume(sc).values.copy()
        assert base.flags.writeable
        base[:, 8] = 50.0
        base[3, 3] = 9.0
        assert not hm.values.any()
        assert np.array_equal(anchor_volume(sc).values, before)
        walled = anchor_volume(Scene(HeightMap(base, 1.0), sc.tx))
        assert not np.array_equal(walled.values, before)


class TestSampleCounts:
    def test_overflowing_count_names_the_resolution(self):
        hm = HeightMap(np.zeros((2, 2)), 1e-30)
        sc = Scene(hm, TxConfig(0.0, 0.0, 3.0))
        with pytest.raises(ValidationError, match=re.escape("resolution 1e-30 m")):
            anchor_map(sc)

    @pytest.mark.parametrize(
        "resolution, rx",
        [(1e300, RxConfig()), (1.0, RxConfig(z_rx=1e300)), (1.0, RxConfig(n_z=2, dz=1e308))],
        ids=["wide-pixels", "high-receiver", "slice-spacing"],
    )
    def test_overflowing_ray_length_is_named_without_a_warning(self, resolution, rx):
        sc = Scene(HeightMap(np.zeros((2, 2)), resolution), TxConfig(0.5 * resolution, 0.5 * resolution), rx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="ray is too long to sample: its length overflows"):
                anchor_volume(sc)


class TestAnchorMap:
    def test_flat_map_equals_fspl(self):
        sc = flat_scene(side=24, tx=(7.2, 11.9), z_tx=1.5)
        anchor = anchor_map(sc).slice(0)
        for i, j in [(0, 0), (5, 17), (23, 23), (11, 7)]:
            x, y = (j + 0.5), (i + 0.5)
            d = max(math.hypot(x - 7.2, y - 11.9), sc.tx.d0)
            assert anchor[i, j] == pytest.approx(independent_fspl(d, sc.tx.f), abs=1e-9)

    @pytest.mark.parametrize("d0", [0.5, 1.0, 2.7])
    def test_flat_map_anchor_is_fspl_bit_for_bit(self, d0):
        # every ratio is 0, so each pixel is fspl(max(d, d0), f) with d computed as the anchor does
        rng = np.random.default_rng(12)
        for side, f in [(16, 9e8), (48, 5.9e9), (128, 2.8e10)]:
            x, y = rng.uniform(0, side, 2)
            sc = Scene(HeightMap(np.zeros((side, side)), 1.0), TxConfig(x, y, 10.0, f, d0=d0))
            xs, ys = pixel_centers(side, side, 1.0)
            dx, dy, dz = xs - x, ys - y, sc.rx.z_rx - 10.0
            d = np.sqrt(dx * dx + dy * dy + dz * dz)
            expected = [[fspl(max(float(v), d0), f) for v in row] for row in d]
            assert np.array_equal(anchor_map(sc).slice(0), expected)

    def test_fully_blocked_pixel(self):
        # everything east of the tx column is one tall slab, so every ray
        # sample toward the far pixel lies inside it: beta == 1 there
        heights = np.zeros((16, 16))
        heights[:, 2:] = 60.0
        hm = HeightMap(heights, 1.0)
        sc = Scene(hm, TxConfig(1.5, 8.5, 1.5, 5.9e9))
        i, j = 8, 14
        beta = blockage_ratio(hm, sc.tx.position, (j + 0.5, i + 0.5, 1.5))
        assert beta == 1.0
        anchor = anchor_map(sc).slice(0)
        d = math.hypot(j + 0.5 - 1.5, i + 0.5 - 8.5)
        expected = fspl(d, sc.tx.f) + fspl(sc.tx.d0, sc.tx.f) - link_threshold(sc.tx).l_thr
        assert anchor[i, j] == pytest.approx(expected, abs=1e-9)

    def test_los_monotone_in_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            tx = (float(rng.uniform(1, 30)), float(rng.uniform(1, 30)))
            sc = flat_scene(side=32, tx=tx)
            anchor = anchor_map(sc).slice(0)
            xs = np.arange(32) + 0.5
            ys = np.arange(32) + 0.5
            dist = np.hypot(xs[None, :] - tx[0], ys[:, None] - tx[1])
            far = dist > sc.tx.d0
            order = np.argsort(dist[far].ravel())
            vals = anchor[far].ravel()[order]
            assert np.all(np.diff(vals) < 0)

    def test_frequency_covariance(self):
        sc = flat_scene(side=16, tx=(3.3, 4.4), f=2e9)
        a1 = anchor_map(sc).slice(0)
        a2 = anchor_map(sc.with_tx(f=4e9)).slice(0)
        shift = a2 - a1
        assert np.allclose(shift, -20 * math.log10(2), atol=1e-9)

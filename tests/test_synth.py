"""Procedural city and pseudo ground-truth generation."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from scipy.ndimage import gaussian_filter

from radiofront import (
    CityParams,
    GenerationError,
    HeightMap,
    PATHLOSS_RANGES,
    PatchGrid,
    RxConfig,
    Scene,
    TxConfig,
    ValidationError,
    anchor_map,
    anchor_volume,
    dataset_profile,
    euclidean_order,
    gen_city,
    gen_field,
    gen_scene,
    preset_edge_tx,
    preset_serpentine,
    preset_sparse,
    preset_urban_canyon,
    rasterize_tx,
    true_pl_order,
)
from radiofront import propagation
from radiofront.synth import _smooth


def gen_field_oracle(scene, noise_sigma=0.0, seed=0, smooth_sigma=0.0, clamp=None):
    """Pseudo ground truth built one receiver slice at a time."""
    rng = np.random.default_rng(seed)
    slices = []
    for z in scene.rx.slice_heights():
        v = anchor_map(scene, z=z).slice(0)
        if smooth_sigma > 0:
            v = gaussian_filter(v, sigma=smooth_sigma, mode="nearest")
        if noise_sigma > 0:
            v = v + rng.normal(0.0, noise_sigma, size=v.shape)
        slices.append(v)
    values = np.stack(slices)
    if clamp is not None:
        values = np.clip(values, min(clamp), max(clamp))
    return values


class TestGenCity:
    def test_no_buildings_is_flat(self):
        hm = gen_city(CityParams(side_px=32, n_buildings=0, footprint_range=(4, 8)))
        assert np.all(hm.values == 0.0)

    def test_seed_determinism(self):
        p = CityParams(side_px=64, n_buildings=8, footprint_range=(4, 10), seed=42)
        assert np.array_equal(gen_city(p).values, gen_city(p).values)

    def test_area_fraction_bounds(self):
        flo, fhi, n = 4, 8, 6
        for seed in range(100):
            p = CityParams(
                side_px=64, n_buildings=n, footprint_range=(flo, fhi), seed=seed
            )
            covered = int((gen_city(p).values > 0).sum())
            assert n * flo * flo <= covered <= n * fhi * fhi

    def test_heights_within_range(self):
        p = CityParams(
            side_px=48,
            n_buildings=5,
            height_range=(6.6, 19.8),
            footprint_range=(6, 12),
            seed=3,
        )
        vals = gen_city(p).values
        built = vals[vals > 0]
        assert built.min() >= 6.6 and built.max() <= 19.8

    def test_infeasible_placement_raises(self):
        p = CityParams(side_px=16, n_buildings=50, footprint_range=(8, 12), seed=0)
        with pytest.raises(GenerationError):
            gen_city(p)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0, got -1"):
            CityParams(seed=-1)

    def test_dataset_profiles(self):
        assert dataset_profile("radiomapseer").height_range == (25.0, 25.0)
        assert dataset_profile("urbanradio3d").height_range == (6.6, 19.8)
        with pytest.raises(ValueError):
            dataset_profile("nonsense")


class TestGenScene:
    def test_tx_pixel_is_open(self):
        for seed in range(20):
            p = CityParams(side_px=48, n_buildings=10, footprint_range=(4, 12), seed=seed)
            sc = gen_scene(p)
            mask = rasterize_tx(sc).slice(0)
            assert sc.heightmap.values[mask == 1.0][0] == 0.0

    def test_deterministic(self):
        p = CityParams(side_px=48, n_buildings=6, footprint_range=(4, 10), seed=9)
        a, b = gen_scene(p), gen_scene(p)
        assert a.tx == b.tx
        assert np.array_equal(a.heightmap.values, b.heightmap.values)

    def test_tx_takes_txconfig_defaults(self):
        p = CityParams(side_px=32, n_buildings=2, footprint_range=(3, 6), seed=4)
        tx = gen_scene(p).tx
        assert replace(tx, x=0.0, y=0.0) == TxConfig(0.0, 0.0)

    def test_float32_resolution_builds_what_its_value_builds(self):
        # == compares a float32 with a float in float32, so compare types and bits
        kw = dict(side_px=32, n_buildings=2, footprint_range=(2, 4), seed=1)
        a = gen_scene(CityParams(resolution=np.float32(0.7), **kw))
        b = gen_scene(CityParams(resolution=float(np.float32(0.7)), **kw))
        for s in (a, b):
            assert type(s.tx.x) is float and type(s.tx.y) is float
        assert (a.tx.x, a.tx.y) == (b.tx.x, b.tx.y)
        assert np.array_equal(anchor_map(a).values, anchor_map(b).values)


class TestGenField:
    def scene(self, n_z=1):
        p = CityParams(side_px=32, n_buildings=4, footprint_range=(3, 8), seed=5)
        return gen_scene(p, rx=RxConfig(z_rx=1.5, n_z=n_z, dz=1.0))

    @pytest.mark.parametrize(
        "name, sigma", [("noise_sigma", -1.0), ("smooth_sigma", -0.5), ("noise_sigma", np.inf),
                        ("smooth_sigma", np.nan)]
    )
    def test_bad_sigma_is_refused_not_switched_off(self, name, sigma):
        with pytest.raises(ValidationError, match=f"{name} must be finite and >= 0, got {sigma!r}"):
            gen_field(self.scene(), **{name: sigma})

    def test_negative_seed_is_named(self):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0, got -2"):
            gen_field(self.scene(), noise_sigma=1.0, seed=-2)

    @pytest.mark.parametrize("sigma", [8.2, 1e300])
    def test_kernel_radius_is_bounded_by_the_map_side(self, sigma):
        sc = self.scene()  # 32 px; the radius is int(4 * sigma + 0.5): 32 at sigma 8.1, 33 at 8.2
        gen_field(sc, smooth_sigma=8.1)
        with pytest.raises(ValidationError, match="kernel radius beyond the 32 px map"):
            gen_field(sc, smooth_sigma=sigma)

    def test_field_and_anchor_volume_cast_the_fan_once(self, monkeypatch):
        calls = []
        cold = propagation._anchor_slices
        monkeypatch.setattr(propagation, "_anchor_slices", lambda sc, zs: calls.append(sc) or cold(sc, zs))
        sc = self.scene(n_z=2)
        fld = gen_field(sc, noise_sigma=2.0, seed=3, smooth_sigma=1.0)
        anchor = anchor_volume(sc)
        assert calls == [sc]
        assert np.array_equal(anchor.values, cold(sc, sc.rx.slice_heights()).values)
        assert np.array_equal(fld.values, gen_field_oracle(sc, noise_sigma=2.0, seed=3, smooth_sigma=1.0))

    def test_noiseless_equals_anchor(self):
        sc = self.scene()
        fld = gen_field(sc, noise_sigma=0.0, smooth_sigma=0.0)
        assert np.array_equal(fld.values[0], anchor_map(sc).slice(0))

    def test_flat_map_radially_monotone(self):
        hm = HeightMap(np.zeros((32, 32)), 1.0)
        sc = Scene(hm, TxConfig(10.5, 20.5, 1.5, 5.9e9))
        fld = gen_field(sc, noise_sigma=0.0).slice(0)
        xs = np.arange(32) + 0.5
        dist = np.hypot(xs[None, :] - 10.5, (np.arange(32) + 0.5)[:, None] - 20.5)
        far = dist > sc.tx.d0
        order = np.argsort(dist[far].ravel())
        d_sorted = dist[far].ravel()[order]
        v_sorted = fld[far].ravel()[order]
        # strictly decreasing with distance; mirrored pixels tie exactly
        strict = np.diff(d_sorted) > 0
        assert np.all(np.diff(v_sorted)[strict] < 0)
        assert np.all(np.diff(v_sorted)[~strict] == 0)

    def test_clamp_range_respected(self):
        top, bottom = PATHLOSS_RANGES["radiomapseer"]
        for seed in range(10):
            fld = gen_field(self.scene(), noise_sigma=6.0, seed=seed, clamp=(top, bottom))
            assert fld.values.max() <= top
            assert fld.values.min() >= bottom

    def test_seed_determinism(self):
        sc = self.scene()
        a = gen_field(sc, noise_sigma=4.0, seed=11)
        b = gen_field(sc, noise_sigma=4.0, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_multi_slice_field(self):
        sc = self.scene(n_z=4)
        fld = gen_field(sc, noise_sigma=0.0)
        assert fld.n_z == 4
        for k, z in enumerate(sc.rx.slice_heights()):
            assert np.array_equal(fld.values[k], anchor_map(sc, z=z).slice(0))

    def test_noise_drawn_slice_by_slice(self):
        sc = self.scene(n_z=3)
        fld = gen_field(sc, noise_sigma=3.0, seed=9)
        rng = np.random.default_rng(9)
        for k, z in enumerate(sc.rx.slice_heights()):
            v = anchor_map(sc, z=z).slice(0)
            assert np.array_equal(fld.values[k], v + rng.normal(0.0, 3.0, size=v.shape))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(smooth_sigma=1.3),
            dict(noise_sigma=3.0, seed=4),
            dict(noise_sigma=2.0, smooth_sigma=0.7, seed=13, clamp=(-75.0, -111.0)),
            dict(noise_sigma=6.0, smooth_sigma=2.5, seed=2, clamp=(-47.0, -147.0)),
        ],
    )
    def test_matches_per_slice_oracle(self, kw):
        for n_z in (1, 3):
            sc = self.scene(n_z=n_z)
            assert np.array_equal(gen_field(sc, **kw).values, gen_field_oracle(sc, **kw))

    # not shrunk: a summation-order fault fails on its first differing example
    @settings(max_examples=100, phases=(Phase.explicit, Phase.generate))
    @given(
        sigma=st.sampled_from([0.3, 0.5, 1.0, 1.7, 3.3]),
        n_z=st.integers(1, 3),
        h=st.integers(1, 200),
        w=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sigma=3.3, n_z=2, h=1, w=5, seed=0)  # both sides below the radius of 13
    @example(sigma=1.7, n_z=1, h=200, w=3, seed=1)
    @example(sigma=1e-200, n_z=1, h=4, w=4, seed=2)  # ndimage skips so small a sigma
    def test_smoothing_is_ndimage_bit_for_bit(self, sigma, n_z, h, w, seed):
        values = np.random.default_rng(seed).normal(-100.0, 20.0, (n_z, h, w))
        ref = gaussian_filter(values, sigma=(0, sigma, sigma), mode="nearest")
        assert np.array_equal(_smooth(values, sigma), ref)

    def test_true_pl_order_links_to_euclidean(self):
        # pixel-sized patches with the tx at a pixel center make the mean
        # patch score the exact center pathloss, so the ranking is the
        # distance sort; d0 below the pixel pitch keeps near pixels distinct
        hm = HeightMap(np.zeros((8, 8)), 1.0)
        sc = Scene(hm, TxConfig(3.5, 5.5, 1.5, 5.9e9, d0=0.5))
        fld = gen_field(sc, noise_sigma=0.0)
        pg = PatchGrid.for_scene(sc, patch_px=1)
        assert np.array_equal(true_pl_order(fld, pg).perm, euclidean_order(sc, pg).perm)


class TestPresets:
    def test_presets_build_valid_scenes(self):
        for preset in (preset_edge_tx, preset_urban_canyon, preset_sparse):
            sc = preset(seed=1, side_px=64)
            assert sc.heightmap.width_px == 64
            assert (sc.heightmap.values > 0).any()
            mask = rasterize_tx(sc).slice(0)
            assert sc.heightmap.values[mask == 1.0][0] == 0.0

    def test_preset_determinism(self):
        a = preset_urban_canyon(seed=7, side_px=64)
        b = preset_urban_canyon(seed=7, side_px=64)
        assert np.array_equal(a.heightmap.values, b.heightmap.values)
        assert a.tx == b.tx

    def test_serpentine_forces_single_corridor(self):
        # propagation must crawl the snake: every non-source patch whose
        # parent is not the source sits directly after that parent in the
        # wavefront order, for any orientation
        from radiofront import wavefront_order

        for seed in range(8):
            sc = preset_serpentine(seed=seed, side_px=48)
            pg = PatchGrid.for_scene(sc, patch_px=16)
            order, costs = wavefront_order(sc, pg)
            pos = order.positions()
            for i in range(9):
                parent = int(costs.pred[i])
                if parent >= 0 and parent != costs.source:
                    assert pos[parent] == pos[i] - 1

    @pytest.mark.parametrize(
        "name, preset, min_side",
        [("edge", preset_edge_tx, 10), ("canyon", preset_urban_canyon, 16), ("sparse", preset_sparse, 7),
         ("serpentine", preset_serpentine, 12)],
    )
    def test_too_small_side_names_the_preset(self, name, preset, min_side):
        # a side below 1 breaks the number rule first (tests/test_number_rule.py)
        for side in (min_side - 1, 1):
            with pytest.raises(ValidationError, match=f"preset '{name}' needs side_px >= {min_side}, got {side}"):
                preset(seed=0, side_px=side)
        sc = preset(seed=0, side_px=min_side)
        assert sc.heightmap.width_px == min_side
        assert (sc.heightmap.values > 0).any()

    def test_sparse_places_every_seed_at_its_minimum_side(self):
        for seed in range(300):
            sc = preset_sparse(seed=seed, side_px=7)
            assert (sc.heightmap.values > 0).any()

    @pytest.mark.parametrize("preset", [preset_edge_tx, preset_urban_canyon, preset_sparse, preset_serpentine])
    def test_negative_seed_is_named(self, preset):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0, got -3"):
            preset(seed=-3)

    def test_serpentine_side_validation(self):
        with pytest.raises(ValueError):
            preset_serpentine(seed=0, side_px=40)

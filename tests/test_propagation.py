"""Free-space pathloss, link budget, blockage ratio, anchor map."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from radiofront import (
    HeightMap,
    Scene,
    TxConfig,
    ValidationError,
    anchor_map,
    blockage_ratio,
    blockage_ratio_batch,
    fspl,
    link_threshold,
)
from radiofront.propagation import SPEED_OF_LIGHT


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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
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


class TestSampleCounts:
    def test_overflowing_count_names_the_resolution(self):
        hm = HeightMap(np.zeros((2, 2)), 1e-30)
        sc = Scene(hm, TxConfig(0.0, 0.0, 3.0))
        with pytest.raises(ValidationError, match=re.escape("resolution 1e-30 m")):
            anchor_map(sc)


class TestAnchorMap:
    def test_flat_map_equals_fspl(self):
        sc = flat_scene(side=24, tx=(7.2, 11.9), z_tx=1.5)
        anchor = anchor_map(sc).slice(0)
        for i, j in [(0, 0), (5, 17), (23, 23), (11, 7)]:
            x, y = (j + 0.5), (i + 0.5)
            d = max(math.hypot(x - 7.2, y - 11.9), sc.tx.d0)
            assert anchor[i, j] == pytest.approx(independent_fspl(d, sc.tx.f), abs=1e-9)

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

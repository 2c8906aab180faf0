"""Rotary position kernel identities."""

import math

import numpy as np
import pytest

from radiofront import RopeConfig, rope_rotate_1d, rope_rotate_3d, split_axis_dims
from radiofront.rope import rotary_frequencies


class TestSplitAxisDims:
    def test_exact_even_split(self):
        assert split_axis_dims(6) == (2, 2, 2)
        assert split_axis_dims(12) == (4, 4, 4)

    def test_remainder_goes_to_xy(self):
        assert split_axis_dims(64) == (22, 22, 20)
        assert split_axis_dims(8) == (4, 2, 2)
        assert split_axis_dims(10) == (4, 4, 2)

    def test_parts_even_and_sum(self):
        for d in range(6, 130, 2):
            parts = split_axis_dims(d)
            assert sum(parts) == d
            assert all(p >= 2 and p % 2 == 0 for p in parts)
            assert max(parts) - min(parts) <= 2

    def test_invalid_dims(self):
        for d in (4, 5, 7, -2):
            with pytest.raises(ValueError):
                split_axis_dims(d)


class TestRope1d:
    def test_zero_position_is_identity(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=16)
        assert np.array_equal(rope_rotate_1d(q, 0), q)

    def test_single_block_reference(self):
        out = rope_rotate_1d(np.array([1.0, 0.0]), 1)
        assert out[0] == pytest.approx(math.cos(1.0), abs=1e-15)
        assert out[1] == pytest.approx(math.sin(1.0), abs=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = rng.normal(size=2 * int(rng.integers(1, 40)))
            m = float(rng.uniform(-300, 300))
            out = rope_rotate_1d(q, m)
            assert abs(np.linalg.norm(out) - np.linalg.norm(q)) < 1e-12

    def test_composition(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rng.normal(size=24)
            m, n = rng.uniform(-100, 100, size=2)
            two_step = rope_rotate_1d(rope_rotate_1d(q, m), n)
            one_step = rope_rotate_1d(q, m + n)
            assert np.max(np.abs(two_step - one_step)) < 1e-9

    def test_relative_position_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200)            :
            q = rng.normal(size=32)
            k = rng.normal(size=32)
            m1, m2 = rng.integers(-128, 128, size=2)
            lhs = rope_rotate_1d(q, m1) @ rope_rotate_1d(k, m2)
            rhs = q @ rope_rotate_1d(k, m2 - m1)
            assert abs(lhs - rhs) < 1e-9

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            rope_rotate_1d(np.zeros(5), 1)

    @pytest.mark.parametrize("d", [1, 5, 63])
    def test_frequencies_of_an_odd_dim_are_refused(self, d):
        # pairs of an odd dim leave one element over, as an odd vector or head does
        with pytest.raises(ValueError, match=f"^d must be even, got {d}$"):
            rotary_frequencies(d, 100.0)

    def test_frequencies_of_an_even_dim(self):
        assert rotary_frequencies(0).shape == (0,)
        assert rotary_frequencies(4, 100.0).tolist() == [1.0, 0.1]


class TestRope3d:
    def config(self, d=24):
        return RopeConfig.from_head_dim(d)

    def test_origin_is_identity(self):
        rng = np.random.default_rng(4)
        cfg = self.config()
        q = rng.normal(size=cfg.head_dim)
        assert np.array_equal(rope_rotate_3d(q, 0, 0, 0, cfg), q)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        cfg = self.config(30)
        for _ in range(100):
            q = rng.normal(size=30)
            x, y, z = rng.integers(0, 64, size=3)
            out = rope_rotate_3d(q, x, y, z, cfg)
            assert abs(np.linalg.norm(out) - np.linalg.norm(q)) < 1e-12

    def test_relative_position_identity(self):
        rng = np.random.default_rng(6)
        cfg = self.config(24)
        for _ in range(200):
            q = rng.normal(size=24)
            k = rng.normal(size=24)
            p1 = rng.integers(-32, 32, size=3)
            p2 = rng.integers(-32, 32, size=3)
            lhs = rope_rotate_3d(q, *p1, cfg) @ rope_rotate_3d(k, *p2, cfg)
            rhs = q @ rope_rotate_3d(k, *(p2 - p1), cfg)
            assert abs(lhs - rhs) < 1e-9

    def test_axis_frequencies_are_per_subvector(self):
        # rotating only x must match a 1D rotation of the x subvector with
        # frequencies from that subvector's own length
        rng = np.random.default_rng(7)
        cfg = self.config(24)
        d_x = cfg.axis_dims[0]
        q = rng.normal(size=24)
        out = rope_rotate_3d(q, 9, 0, 0, cfg)
        assert np.allclose(out[:d_x], rope_rotate_1d(q[:d_x], 9), atol=1e-15)
        assert np.array_equal(out[d_x:], q[d_x:])

    def test_shape_mismatch(self):
        cfg = self.config(24)
        with pytest.raises(ValueError):
            rope_rotate_3d(np.zeros(20), 1, 2, 3, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RopeConfig(12, (4, 4, 2))
        with pytest.raises(ValueError):
            RopeConfig(12, (5, 4, 3))

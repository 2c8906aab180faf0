"""Field metrics against independent oracle implementations."""

import math

import numpy as np
import pytest
from conftest import ssim_oracle

from radiofront import (
    GradLossConfig,
    RadioField,
    UNIT_DB,
    UNIT_NORM01,
    ValidationError,
    grad3d_loss,
    hist_stats,
    jensen_shannon,
    nmse,
    psnr,
    rmse_db,
    ssim,
    vertical_grad_error_cdf,
)


def norm_field(values):
    return RadioField(np.asarray(values, float), UNIT_NORM01)


def db_field(values):
    return RadioField(np.asarray(values, float), UNIT_DB)


class TestNmse:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        g = rng.uniform(0, 1, size=(2, 8, 8))
        assert nmse(norm_field(g), norm_field(g)) == 0.0

    def test_doubled_prediction(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(0.05, 0.5, size=(1, 6, 6))
        assert nmse(norm_field(2 * g), norm_field(g)) == pytest.approx(1.0, abs=1e-12)

    def test_scale_law(self):
        rng = np.random.default_rng(2)
        g = rng.uniform(0.1, 0.4, size=(1, 5, 5))
        for c in (0.5, 1.5, 2.0):
            assert nmse(norm_field(c * g), norm_field(g)) == pytest.approx(
                (c - 1) ** 2, abs=1e-12
            )

    def test_zero_gt_rejected(self):
        z = norm_field(np.zeros((1, 4, 4)))
        with pytest.raises(ValidationError):
            nmse(z, z)


class TestRmseDb:
    def test_identical_is_zero(self):
        g = db_field(np.full((1, 4, 4), -90.0))
        assert rmse_db(g, g) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(-140, -60, size=(2, 6, 6))
        for c in (-3.5, 2.25):
            assert rmse_db(db_field(g + c), db_field(g)) == pytest.approx(abs(c), abs=1e-9)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(-140, -60, size=(2, 5, 5))
        g = rng.uniform(-140, -60, size=(2, 5, 5))
        acc = 0.0
        count = 0
        for z in range(2):
            for i in range(5):
                for j in range(5):
                    acc += (p[z, i, j] - g[z, i, j]) ** 2
                    count += 1
        assert rmse_db(db_field(p), db_field(g)) == pytest.approx(
            math.sqrt(acc / count), abs=1e-9
        )

    def test_unit_enforced(self):
        with pytest.raises(ValidationError):
            rmse_db(norm_field(np.zeros((1, 2, 2))), norm_field(np.zeros((1, 2, 2))))


class TestPsnr:
    def test_known_mse(self):
        g = np.full((1, 10, 10), 0.4)
        p = g + 0.1  # MSE exactly 0.01
        assert psnr(norm_field(p), norm_field(g)) == pytest.approx(20.0, abs=1e-9)

    def test_identical_is_inf(self):
        g = norm_field(np.full((1, 3, 3), 0.5))
        assert psnr(g, g) == math.inf

    def test_unit_mse_is_zero_db(self):
        assert psnr(norm_field(np.ones((1, 4, 4))), norm_field(np.zeros((1, 4, 4)))) == 0.0


class TestSsim:
    def test_identical_is_one(self):
        rng = np.random.default_rng(5)
        g = rng.uniform(0, 1, size=(1, 16, 16))
        assert ssim(norm_field(g), norm_field(g)) == pytest.approx(1.0, abs=1e-12)

    def test_contrast_reversal_negative(self):
        tiles = np.indices((16, 16)).sum(axis=0) % 2
        a = tiles.astype(float)
        b = 1.0 - a
        got = ssim(norm_field(a[None]), norm_field(b[None]))
        assert got < 0
        assert got == pytest.approx(ssim_oracle(a, b), abs=1e-6)

    def test_against_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = rng.uniform(0, 1, size=(14, 17))
            b = np.clip(a + rng.normal(0, 0.1, size=a.shape), 0, 1)
            assert ssim(norm_field(a[None]), norm_field(b[None])) == pytest.approx(
                ssim_oracle(a, b), abs=1e-6
            )

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, size=(1, 13, 13))
        b = rng.uniform(0, 1, size=(1, 13, 13))
        assert ssim(norm_field(a), norm_field(b)) == pytest.approx(
            ssim(norm_field(b), norm_field(a)), abs=1e-9
        )

    def test_3d_averages_slices(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(3, 12, 12))
        b = rng.uniform(0, 1, size=(3, 12, 12))
        per_slice = [
            ssim(norm_field(a[k][None]), norm_field(b[k][None])) for k in range(3)
        ]
        assert ssim(norm_field(a), norm_field(b)) == pytest.approx(
            np.mean(per_slice), abs=1e-12
        )

    def test_window_too_large(self):
        small = norm_field(np.zeros((1, 8, 8)))
        with pytest.raises(ValueError, match="window"):
            ssim(small, small)


class TestMetricReport:
    def test_combines_domains(self):
        from radiofront import metric_report

        rng = np.random.default_rng(21)
        gt = rng.uniform(-140, -60, size=(1, 16, 16))
        pred = gt + 2.0
        rep = metric_report(db_field(pred), db_field(gt), lo=-47.0, hi=-169.0)
        assert rep.rmse_db == pytest.approx(2.0, abs=1e-9)
        # a constant dB offset maps to a constant normalized offset of 2/122
        assert rep.nmse > 0
        assert math.isfinite(rep.psnr)
        assert rep.ssim < 1.0


class TestGrad3dLoss:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(-1, 1, size=(2, 8, 8))
        rep = grad3d_loss(g, g)
        assert rep.total == 0.0 and rep.vertical == 0.0
        assert all(v == 0.0 for v in rep.inplane_per_scale.values())

    def test_constant_offset_invisible(self):
        rng = np.random.default_rng(10)
        g = rng.uniform(-1, 1, size=(2, 8, 8))
        assert grad3d_loss(g + 3.7, g).total == pytest.approx(0.0, abs=1e-12)

    def test_hand_enumerated_2x2x2(self):
        g = np.zeros((2, 2, 2))
        p = g.copy()
        p[0, 0, 0] = 2.0
        cfg = GradLossConfig(scales=(1,), lambda_z=0.5)
        rep = grad3d_loss(p, g, cfg)
        # x-diff gaps: slice 0 rows give |-2|, 0; slice 1 rows 0, 0 -> mean 0.5
        # y-diff gaps identical by symmetry -> mean 0.5
        # z-diff gaps: single slice pair, entries |-2|, 0, 0, 0 -> mean 0.5
        assert rep.inplane_per_scale[1] == pytest.approx(1.0, abs=1e-12)
        assert rep.vertical == pytest.approx(0.5, abs=1e-12)
        assert rep.total == pytest.approx(1.25, abs=1e-12)

    def test_vertical_dropped_for_single_slice(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(size=(1, 8, 8))
        g = rng.uniform(size=(1, 8, 8))
        rep = grad3d_loss(p, g, GradLossConfig(scales=(1, 2), lambda_z=100.0))
        assert rep.vertical == 0.0
        assert rep.total == pytest.approx(sum(rep.inplane_per_scale.values()), abs=1e-12)

    def test_multi_scale_pools(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(size=(1, 8, 8))
        g = rng.uniform(size=(1, 8, 8))
        rep = grad3d_loss(p, g, GradLossConfig(scales=(1, 2, 4)))
        pooled2 = p.reshape(1, 4, 2, 4, 2).mean(axis=(2, 4))
        gooled2 = g.reshape(1, 4, 2, 4, 2).mean(axis=(2, 4))
        expected = (
            np.abs(np.diff(pooled2, axis=2) - np.diff(gooled2, axis=2)).mean()
            + np.abs(np.diff(pooled2, axis=1) - np.diff(gooled2, axis=1)).mean()
        )
        assert rep.inplane_per_scale[2] == pytest.approx(expected, abs=1e-12)


class TestVerticalCdf:
    def test_identical_is_step_at_zero(self):
        rng = np.random.default_rng(13)
        g = rng.uniform(size=(3, 4, 4))
        table = vertical_grad_error_cdf(g, g)
        assert np.all(table.values == 0.0)
        assert table.percentile(90) == 0.0

    def test_percentile_matches_sort(self):
        rng = np.random.default_rng(14)
        p = rng.uniform(size=(4, 6, 6))
        g = rng.uniform(size=(4, 6, 6))
        table = vertical_grad_error_cdf(p, g)
        err = np.sort(np.abs(np.diff(p, axis=0) - np.diff(g, axis=0)).ravel())
        n = len(err)
        assert table.percentile(90) == err[math.ceil(0.9 * n) - 1]
        assert table.percentile(100) == err[-1]

    def test_cdf_axioms(self):
        rng = np.random.default_rng(15)
        table = vertical_grad_error_cdf(rng.uniform(size=(3, 5, 5)), rng.uniform(size=(3, 5, 5)))
        assert np.all(np.diff(table.cdf) >= 0)
        assert 0 < table.cdf[0] <= 1 and table.cdf[-1] == 1.0
        assert np.all(np.diff(table.values) >= 0)

    def test_needs_two_slices(self):
        g = np.zeros((1, 4, 4))
        with pytest.raises(ValueError):
            vertical_grad_error_cdf(g, g)


class TestHistStats:
    def test_uniform_histogram(self):
        h = np.full(64, 10.0)
        stats = hist_stats(h, h)
        assert stats.norm_entropy_a == pytest.approx(1.0, abs=1e-12)
        assert stats.gini_a == pytest.approx(0.0, abs=1e-12)

    def test_equal_histograms(self):
        rng = np.random.default_rng(16)
        h = rng.integers(1, 100, size=32).astype(float)
        stats = hist_stats(h, h.copy())
        assert stats.d_js == pytest.approx(0.0, abs=1e-12)
        assert stats.rho == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        h_a = np.array([1.0, 1.0, 0.0, 0.0])
        h_b = np.array([0.0, 0.0, 1.0, 1.0])
        assert hist_stats(h_a, h_b).d_js == pytest.approx(math.log(2), abs=1e-12)

    def test_one_bin_gini(self):
        assert hist_stats([5.0], [5.0]).gini_a == 0.0

    def test_one_hot_gini(self):
        h = np.zeros(100)
        h[3] = 5.0
        stats = hist_stats(h, h)
        assert stats.gini_a == pytest.approx(0.99, abs=1e-12)
        assert stats.norm_entropy_a == 0.0

    def test_jsd_symmetric_and_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = rng.random(16)
            q = rng.random(16)
            d_pq = jensen_shannon(p, q)
            assert d_pq == pytest.approx(jensen_shannon(q, p), abs=1e-12)
            assert 0.0 <= d_pq <= math.log(2) + 1e-12

    def test_zero_histogram_rejected(self):
        with pytest.raises(ValidationError):
            hist_stats(np.zeros(4), np.ones(4))

"""Field metrics against independent oracle implementations."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import ssim_oracle
from hypothesis import Phase, given, settings, strategies as st
from scipy.ndimage import correlate1d

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
    normalize_db,
    psnr,
    rmse_db,
    ssim,
    vertical_grad_error_cdf,
)
from radiofront.metrics import _avg_pool, _gaussian_window, _windowed_mean


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

    # not shrunk: a summation-order fault fails on its first differing example
    @settings(max_examples=100, phases=(Phase.explicit, Phase.generate))
    @given(
        h=st.integers(11, 300),
        w=st.integers(11, 300),
        log_scale=st.floats(-3, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_windowed_mean_is_ndimage_bit_for_bit(self, h, w, log_scale, seed):
        img = np.random.default_rng(seed).standard_normal((h, w)) * 10.0**log_scale
        kernel = _gaussian_window()
        r = len(kernel) // 2
        ref = correlate1d(img, kernel, axis=0, mode="constant")
        ref = correlate1d(ref, kernel, axis=1, mode="constant")[r:-r, r:-r]
        assert np.array_equal(_windowed_mean(img, kernel), ref)

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

    def test_bare_arrays_are_refused_by_name(self):
        from radiofront import metric_report

        gt = np.full((1, 16, 16), -100.0)
        with pytest.raises(ValidationError, match="^normalize_db expects a RadioField in dB$"):
            metric_report(gt, gt, lo=-47.0, hi=-169.0)


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

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"lambda_z": math.nan}, "lambda_z must be finite and >= 0, got nan"),
            ({"lambda_z": math.inf}, "lambda_z must be finite and >= 0, got inf"),
            ({"lambda_z": -1.0}, "lambda_z must be finite and >= 0, got -1.0"),
            ({"scales": (1.5,)}, "scales[0] must be an integer >= 1, got 1.5"),
            ({"scales": (1, 2.0)}, "scales[1] must be an integer >= 1, got 2.0"),
            ({"scales": (0,)}, "scales[0] must be an integer >= 1, got 0"),
            ({"scales": ()}, "scales must be a non-empty sequence, got ()"),
        ],
    )
    def test_bad_config_is_named(self, kwargs, needle):
        with pytest.raises(ValidationError) as err:
            GradLossConfig(**kwargs)
        assert str(err.value) == needle

    def test_numpy_integer_scales_are_accepted(self):
        p = np.random.default_rng(13).uniform(size=(1, 8, 8))
        cfg = GradLossConfig(scales=tuple(np.array([1, 2])))
        assert grad3d_loss(p, p, cfg).inplane_per_scale == {1: 0.0, 2: 0.0}


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


FIELD_METRICS = [nmse, rmse_db, psnr, ssim, grad3d_loss, vertical_grad_error_cdf]


@pytest.mark.parametrize("metric", FIELD_METRICS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_a_bare_array_with_nan_or_inf_is_refused_by_name(metric, bad, side):
    good = np.random.default_rng(0).uniform(0.1, 0.9, size=(2, 12, 12))
    broken = good.copy()
    broken[1, 5, 7] = bad
    args = {"pred": good, "gt": good, side: broken}
    with pytest.raises(ValidationError) as err:
        metric(args["pred"], args["gt"])
    assert str(err.value) == f"{side} contains NaN or infinite values"


@pytest.mark.parametrize("metric", FIELD_METRICS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", [(), (12,), (1, 2, 12, 12)], ids=["0d", "1d", "4d"])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_a_bare_array_not_2d_or_3d_is_refused_by_name(metric, shape, side):
    good = np.random.default_rng(0).uniform(0.1, 0.9, size=(2, 12, 12))
    args = {"pred": good, "gt": good, side: np.full(shape, 0.5)}
    with pytest.raises(ValidationError) as err:
        metric(args["pred"], args["gt"])
    assert str(err.value) == f"{side} must be a 2-D or 3-D field, got shape {shape}"


def test_a_2d_bare_array_with_nan_is_refused():
    # this returned nan: NaN anywhere is a validation error
    with pytest.raises(ValidationError, match="^pred contains NaN or infinite values$"):
        nmse(np.array([[np.nan, 1.0]]), np.array([[1.0, 1.0]]))


# ---------------------------------------------------------------------------
# bit identity of the buffer-owning passes with the expressions they replaced


def pool_ref(v, s):
    nz, h, w = v.shape
    h2, w2 = (h // s) * s, (w // s) * s
    return v[:, :h2, :w2].reshape(nz, h2 // s, s, w2 // s, s).mean(axis=(2, 4))


def gap_ref(dp, dg):
    return float(np.abs(dp - dg).mean()) if dp.size else 0.0


def grad3d_ref(p, g, scales, lambda_z):
    inplane = {}
    for s in sorted(set(scales)):
        ps, gs = pool_ref(p, s), pool_ref(g, s)
        inplane[s] = (gap_ref(np.diff(ps, axis=2), np.diff(gs, axis=2))
                      + gap_ref(np.diff(ps, axis=1), np.diff(gs, axis=1)))
    vertical = gap_ref(np.diff(p, axis=0), np.diff(g, axis=0)) if p.shape[0] > 1 else 0.0
    return sum(inplane.values()) + lambda_z * vertical, inplane, vertical


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def drawn_pair(shape, log_scale, seed, unit01=False):
    """Two C-ordered fields of shape: normal values times 10**log_scale, or with
    unit01, uniform values in [0, 1] times 10**min(log_scale, 0)."""
    rng = np.random.default_rng(seed)
    if unit01:
        return tuple(rng.uniform(0, 1, shape) * 10.0**min(log_scale, 0) for _ in range(2))
    return tuple(rng.standard_normal(shape) * 10.0**log_scale for _ in range(2))


SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 70), st.integers(1, 70))
LOG_SCALES = st.floats(-3, 3)
SEEDS = st.integers(0, 2**32 - 1)


# not shrunk: a summation-order fault fails on its first differing example
class TestBitIdentity:
    @settings(max_examples=300, phases=(Phase.explicit, Phase.generate))
    @given(shape=SHAPES, s=st.integers(1, 10), log_scale=LOG_SCALES, seed=SEEDS)
    def test_avg_pool(self, shape, s, log_scale, seed):
        v, _ = drawn_pair(shape, log_scale, seed)
        assert same_bits(_avg_pool(v, s), pool_ref(v, s))

    @pytest.mark.parametrize("s", [2, 3])
    def test_avg_pool_of_negative_zeros_is_positive_zero(self, s):
        v = np.full((1, 2 * s, 2 * s), -0.0)
        assert same_bits(_avg_pool(v, s), pool_ref(v, s))

    @settings(max_examples=200, phases=(Phase.explicit, Phase.generate))
    @given(
        shape=SHAPES,
        scales=st.lists(st.integers(1, 10), min_size=1, max_size=3),
        lambda_z=st.floats(0, 2),
        log_scale=LOG_SCALES,
        seed=SEEDS,
    )
    def test_grad3d_loss(self, shape, scales, lambda_z, log_scale, seed):
        p, g = drawn_pair(shape, log_scale, seed)
        rep = grad3d_loss(p, g, GradLossConfig(scales=tuple(scales), lambda_z=lambda_z))
        total, inplane, vertical = grad3d_ref(p, g, scales, lambda_z)
        assert same_bits(rep.total, total) and same_bits(rep.vertical, vertical)
        assert rep.inplane_per_scale.keys() == inplane.keys()
        assert all(same_bits(rep.inplane_per_scale[s], inplane[s]) for s in inplane)

    @settings(max_examples=100, phases=(Phase.explicit, Phase.generate))
    @given(shape=SHAPES, log_scale=LOG_SCALES, seed=SEEDS)
    def test_vertical_grad_error_cdf(self, shape, log_scale, seed):
        p, g = drawn_pair(shape, log_scale, seed)
        if shape[0] < 2:
            with pytest.raises(ValueError, match="two height slices"):
                vertical_grad_error_cdf(p, g)
            return
        table = vertical_grad_error_cdf(p, g)
        err = np.sort(np.abs(np.diff(p, axis=0) - np.diff(g, axis=0)).ravel())
        assert same_bits(table.values, err)
        assert same_bits(table.cdf, np.arange(1, len(err) + 1) / len(err))

    @settings(max_examples=100, phases=(Phase.explicit, Phase.generate))
    @given(shape=SHAPES, log_scale=LOG_SCALES, seed=SEEDS)
    def test_pointwise_errors(self, shape, log_scale, seed):
        p, g = drawn_pair(shape, log_scale, seed, unit01=True)
        if (g * g).sum() > 0:
            assert same_bits(nmse(p, g), float(((p - g) ** 2).sum()) / float((g * g).sum()))
        mse = float(((p - g) ** 2).mean())
        assert same_bits(psnr(p, g), math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse))
        p, g = drawn_pair(shape, log_scale, seed)
        assert same_bits(rmse_db(p, g), float(np.sqrt(((p - g) ** 2).mean())))

    @settings(max_examples=100, phases=(Phase.explicit, Phase.generate))
    @given(
        shape=SHAPES,
        lo=st.floats(-200, 0),
        hi=st.floats(-200, 0),
        log_scale=LOG_SCALES,
        seed=SEEDS,
    )
    def test_normalize_db(self, shape, lo, hi, log_scale, seed):
        if lo == hi:
            return
        v, _ = drawn_pair(shape, log_scale, seed)
        v += (lo + hi) / 2  # straddles the window, so values clip at both ends
        out = normalize_db(db_field(v), lo, hi)
        assert same_bits(out.values, np.clip((v - hi) / (lo - hi), 0, 1))


def test_metrics_read_a_fortran_ordered_input_as_its_c_ordered_copy():
    p, g = drawn_pair((3, 40, 50), 0.0, 71)
    pf, gf = np.asfortranarray(p), np.asfortranarray(g)
    assert grad3d_loss(pf, gf) == grad3d_loss(p, g)
    assert same_bits(vertical_grad_error_cdf(pf, gf).values, vertical_grad_error_cdf(p, g).values)
    assert same_bits(rmse_db(pf, gf), rmse_db(p, g))


def _peak_in_fields(metric, pred, gt):
    """metric's traced peak allocation, in sizes of one input field."""
    metric(pred, gt)
    tracemalloc.start()
    try:
        metric(pred, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / pred.values.nbytes


class TestPeakMemory:
    """Fresh full-size temporaries coming back would break these bounds."""

    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(83)
        return tuple(norm_field(rng.uniform(size=(3, 256, 256))) for _ in range(2))

    def test_grad3d_loss_peaks_below_three_fields(self, pair):
        # two scratch fields, and at scale 2 both pooled quarter fields and a row sum
        assert _peak_in_fields(grad3d_loss, *pair) < 3.0

    def test_vertical_grad_error_cdf_peaks_below_two_point_one_fields(self, pair):
        # the errors and one z-difference of (n_z - 1)/n_z fields each, then the errors and the cdf
        assert _peak_in_fields(vertical_grad_error_cdf, *pair) < 2.1

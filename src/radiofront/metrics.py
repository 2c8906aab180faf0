"""Evaluation metrics for radio fields.

NMSE, SSIM, and PSNR operate on normalized [0, 1] fields; RMSE is reported
in dB.  The multi-scale gradient loss and the vertical-gradient error CDF
quantify boundary fidelity and inter-slice continuity of 3D fields, and
hist_stats provides the distribution statistics used to compare pixel- and
token-space representations (normalized entropy, Gini, Jensen-Shannon
divergence, Pearson correlation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import RadioField, UNIT_DB, UNIT_NORM01, ValidationError, _check, normalize_db, shannon_entropy


def _values(fld, expect_unit: str | None = None, what: str = "field") -> np.ndarray:
    # C order (no copy for a C-ordered array), so no result depends on an input's memory layout
    if isinstance(fld, RadioField):
        if expect_unit is not None and fld.unit != expect_unit:
            raise ValidationError(f"{what} must be in {expect_unit}, got {fld.unit}")
        return np.asarray(fld.values, order="C")
    v = np.asarray(fld, dtype=np.float64, order="C")
    if v.ndim not in (2, 3):
        raise ValidationError(f"{what} must be a 2-D or 3-D field, got shape {v.shape}")
    if not np.isfinite(v).all():  # a RadioField is NaN-free by construction; a bare array is not
        raise ValidationError(f"{what} contains NaN or infinite values")
    return v[np.newaxis] if v.ndim == 2 else v


def _pair(pred, gt, expect_unit: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    p = _values(pred, expect_unit, "pred")
    g = _values(gt, expect_unit, "gt")
    if p.shape != g.shape:
        raise ValidationError(f"shape mismatch: pred {p.shape} vs gt {g.shape}")
    return p, g


def _squared_error(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(p - g) ** 2 in one array; numpy squares as x * x, so the bits are the same."""
    d = p - g
    return np.multiply(d, d, out=d)


def nmse(pred, gt) -> float:
    """Normalized mean squared error: sum((pred-gt)^2) / sum(gt^2)."""
    p, g = _pair(pred, gt, UNIT_NORM01)
    denom = float((g * g).sum())
    if denom == 0.0:
        raise ValidationError("nmse undefined for an all-zero ground truth")
    return float(_squared_error(p, g).sum()) / denom


def rmse_db(pred, gt) -> float:
    """Root mean squared error of two dB fields."""
    p, g = _pair(pred, gt, UNIT_DB)
    return float(np.sqrt(_squared_error(p, g).mean()))


def psnr(pred, gt) -> float:
    """Peak signal-to-noise ratio with data range 1.0; inf for equal inputs."""
    p, g = _pair(pred, gt, UNIT_NORM01)
    mse = float(_squared_error(p, g).mean())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    k = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return k / k.sum()


def _correlate_sym(x: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """Correlate x with the odd symmetric kernel w along axis, where the kernel fits.

    Sums in ndimage's order for a symmetric kernel: the centre tap times its
    weight, then (left + right) * weight for each pair of taps, outermost pair
    first.  Each step is one rounding per element, so the result is
    bit-identical to ndimage's correlate1d cropped by len(w) // 2 at each end.
    """
    r = len(w) // 2
    x = np.moveaxis(x, axis, 0)
    n = x.shape[0] - 2 * r
    out = x[r:r + n] * w[r]
    pair = np.empty_like(out)
    for k in range(r):
        np.add(x[k:k + n], x[2 * r - k:2 * r - k + n], out=pair)
        pair *= w[k]
        out += pair
    return np.moveaxis(out, 0, axis)


def _windowed_mean(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # separable gaussian filtering over the fully-valid window positions
    return _correlate_sym(_correlate_sym(img, kernel, 0), kernel, 1)


def _ssim_slice(a: np.ndarray, b: np.ndarray) -> float:
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(
            f"image {a.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
        )
    kernel = _gaussian_window()
    mu_a = _windowed_mean(a, kernel)
    mu_b = _windowed_mean(b, kernel)
    var_a = _windowed_mean(a * a, kernel) - mu_a * mu_a
    var_b = _windowed_mean(b * b, kernel) - mu_b * mu_b
    cov = _windowed_mean(a * b, kernel) - mu_a * mu_b
    c1 = SSIM_K1 ** 2  # data range 1.0
    c2 = SSIM_K2 ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


def ssim(pred, gt) -> float:
    """Mean structural similarity; 3D fields are averaged over slices.

    Gaussian 11x11 window with sigma 1.5, K1=0.01, K2=0.03, data range 1.0,
    evaluated over fully-valid window positions.
    """
    p, g = _pair(pred, gt, UNIT_NORM01)
    return float(np.mean([_ssim_slice(p[k], g[k]) for k in range(p.shape[0])]))


@dataclass(frozen=True)
class MetricReport:
    nmse: float
    rmse_db: float
    ssim: float
    psnr: float


def metric_report(pred_db: RadioField, gt_db: RadioField, lo: float, hi: float) -> MetricReport:
    """All four headline metrics from a pair of dB fields."""
    p01 = normalize_db(pred_db, lo, hi)
    g01 = normalize_db(gt_db, lo, hi)
    return MetricReport(nmse(p01, g01), rmse_db(pred_db, gt_db), ssim(p01, g01), psnr(p01, g01))


# ---------------------------------------------------------------------------
# gradient continuity


@dataclass(frozen=True)
class GradLossConfig:
    scales: tuple[int, ...] = (1, 2, 4)
    lambda_z: float = 0.5

    def __post_init__(self):
        _check("a non-empty sequence", scales=self.scales)
        _check("an integer >= 1", **{f"scales[{i}]": s for i, s in enumerate(self.scales)})
        _check("finite and >= 0", lambda_z=self.lambda_z)


@dataclass(frozen=True)
class GradLossReport:
    total: float
    inplane_per_scale: dict[int, float] = field(default_factory=dict)
    vertical: float = 0.0


def _avg_pool(v: np.ndarray, s: int) -> np.ndarray:
    """Mean of each s x s block of a C-ordered (nz, h, w) array, ragged edges dropped.

    Bit-identical to v.reshape(nz, h // s, s, w // s, s).mean(axis=(2, 4)):
    that reduction starts each block at 0, adds the sum of each of its rows
    in turn, top to bottom, and divides by s * s, so the loop below does the
    same from strided views.  numpy sums a row of 8 or more pairwise, and it
    reduces a map less than two blocks wide in another order; those cases,
    and a block larger than the map, keep the reduction.
    """
    if s == 1:
        return v
    nz, h, w = v.shape
    h2, w2 = (h // s) * s, (w // s) * s
    if s >= 8 or h2 == 0 or w2 < 2 * s:
        return v[:, :h2, :w2].reshape(nz, h2 // s, s, w2 // s, s).mean(axis=(2, 4))
    out, row = np.zeros((nz, h2 // s, w2 // s)), np.empty((nz, h2 // s, w2 // s))
    for r in range(s):
        np.add(v[:, r:h2:s, 0:w2:s], v[:, r:h2:s, 1:w2:s], out=row)
        for c in range(2, s):
            row += v[:, r:h2:s, c:w2:s]
        out += row
    out /= s * s
    return out


def _abs_gap(p: np.ndarray, g: np.ndarray, axis: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|np.diff(p, axis=axis) - np.diff(g, axis=axis)| in the head of the flat scratch array a.

    The differences go into the heads of a and b as C-ordered arrays of
    np.diff's shape, so a reduction over the result sums in the order it
    takes over np.diff's own arrays.
    """
    hi = (slice(None),) * axis + (slice(1, None),)
    lo = (slice(None),) * axis + (slice(None, -1),)
    dp = np.subtract(p[hi], p[lo], out=a[: p[hi].size].reshape(p[hi].shape))
    dp -= np.subtract(g[hi], g[lo], out=b[: dp.size].reshape(dp.shape))
    return np.abs(dp, out=dp)


def _gap(p: np.ndarray, g: np.ndarray, axis: int, a: np.ndarray, b: np.ndarray) -> float:
    """Mean of _abs_gap; 0 for empty differences."""
    d = _abs_gap(p, g, axis, a, b)
    return float(d.mean()) if d.size else 0.0


def grad3d_loss(pred, gt, cfg: GradLossConfig | None = None) -> GradLossReport:
    """Multi-scale in-plane plus vertical finite-difference gap.

    Per scale, both fields are average-pooled and the mean gap between
    their x- and y-differences is accumulated; the vertical term compares
    z-differences at full resolution, weighted by lambda_z, and is exactly
    0 (and dropped) for single-slice fields.  Invariant under adding a
    constant to both inputs.
    """
    cfg = cfg or GradLossConfig()
    p, g = _pair(pred, gt)
    a, b = np.empty(p.size), np.empty(p.size)  # every difference below fits in a field's size
    inplane = {}
    for s in sorted(set(cfg.scales)):
        ps, gs = _avg_pool(p, s), _avg_pool(g, s)
        inplane[s] = _gap(ps, gs, 2, a, b) + _gap(ps, gs, 1, a, b)
    vertical = _gap(p, g, 0, a, b)  # 0 for a single slice, whose z-differences are empty
    total = sum(inplane.values()) + cfg.lambda_z * vertical
    return GradLossReport(total, inplane, vertical)


@dataclass(frozen=True)
class CdfTable:
    """Empirical CDF of per-voxel errors: P(error <= values[i]) = cdf[i]."""

    values: np.ndarray  # sorted ascending
    cdf: np.ndarray

    def percentile(self, q: float) -> float:
        """Empirical quantile (inverted CDF): smallest v with CDF(v) >= q/100."""
        _check("finite", q=q)
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        n = len(self.values)
        # float(q): a numpy float32 q would pick its index in float32
        idx = max(0, min(n - 1, math.ceil(float(q) / 100.0 * n) - 1))
        return float(self.values[idx])


def vertical_grad_error_cdf(pred, gt) -> CdfTable:
    """CDF of |vertical-difference(pred) - vertical-difference(gt)| per voxel."""
    p, g = _pair(pred, gt)
    if p.shape[0] < 2:
        raise ValueError("vertical gradient CDF needs at least two height slices")
    values = _abs_gap(p, g, 0, np.empty(p[1:].size), np.empty(p[1:].size)).ravel()
    values.sort()
    return CdfTable(values, np.arange(1, len(values) + 1) / len(values))


# ---------------------------------------------------------------------------
# distribution statistics


@dataclass(frozen=True)
class HistStats:
    norm_entropy_a: float
    norm_entropy_b: float
    gini_a: float
    gini_b: float
    d_js: float
    rho: float


def _normalize_hist(h, name: str) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.size == 0:
        raise ValidationError(f"histogram {name} must be a non-empty 1D vector")
    if np.any(h < 0) or not np.all(np.isfinite(h)):
        raise ValidationError(f"histogram {name} has negative or non-finite counts")
    total = h.sum()
    if total == 0:
        raise ValidationError(f"histogram {name} has zero total mass")
    return h / total


def _gini(p: np.ndarray) -> float:
    x = np.sort(p)
    n = len(x)
    i = np.arange(1, n + 1)
    return float(((2 * i - n - 1) * x).sum() / n)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def jensen_shannon(p, q) -> float:
    """JSD in nats, symmetric, bounded by ln 2, zero iff equal."""
    p = _normalize_hist(p, "p")
    q = _normalize_hist(q, "q")
    if p.shape != q.shape:
        raise ValidationError("histograms have different bin counts")
    m = 0.5 * (p + q)
    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def hist_stats(h_a, h_b) -> HistStats:
    """Distribution statistics of two count histograms over shared bins."""
    p = _normalize_hist(h_a, "h_a")
    q = _normalize_hist(h_b, "h_b")
    if p.shape != q.shape:
        raise ValidationError("histograms have different bin counts")
    log_bins = math.log(len(p)) if len(p) > 1 else 1.0
    sp, sq = p.std(), q.std()
    if sp == 0.0 and sq == 0.0:
        rho = 1.0 if np.allclose(p, q) else 0.0
    elif sp == 0.0 or sq == 0.0:
        rho = 0.0
    else:
        rho = float(np.corrcoef(p, q)[0, 1])
    return HistStats(
        norm_entropy_a=shannon_entropy(p) / log_bins,
        norm_entropy_b=shannon_entropy(q) / log_bins,
        gini_a=_gini(p),
        gini_b=_gini(q),
        d_js=jensen_shannon(p, q),
        rho=rho,
    )

"""Propagation physics: free-space pathloss, link budget, blockage, anchor map.

All pathloss quantities are signed dB on a consistent dBm-referenced scale,
so free-space loss is negative and deeper loss means a more negative number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import RadioField, Scene, UNIT_DB, TxConfig, ValidationError

SPEED_OF_LIGHT = 299792458.0  # m/s
THERMAL_NOISE_DBM_HZ = -174.0  # 10*log10(k_B * 290 K) in dBm/Hz
CHUNK_RAYS = 2048  # rays sampled per batch in blockage_ratio_batch

# single-channel dB field over the pixel grid at receiver height
AnchorMap = RadioField

_FSPL_CONST = 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)


def fspl(d: float, f: float) -> float:
    """Free-space pathloss as signed dB gain (Friis, negated).

    Strictly decreasing in both distance and frequency.  Callers must clamp
    the distance to the near-field reference d0 before calling.
    """
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    if f <= 0:
        raise ValueError(f"frequency must be positive, got {f}")
    return -(20.0 * math.log10(d) + 20.0 * math.log10(f) + _FSPL_CONST)


def _fspl_array(d: np.ndarray, f: float) -> np.ndarray:
    return -(20.0 * np.log10(d) + 20.0 * math.log10(f) + _FSPL_CONST)


@dataclass(frozen=True)
class LinkBudget:
    """Detectability threshold on the signed-dB pathloss scale."""

    l_thr: float

    def __post_init__(self):
        if not math.isfinite(self.l_thr):
            raise ValidationError("link threshold must be finite")


def link_threshold(tx: TxConfig) -> LinkBudget:
    """Noise-floor pathloss limit: 10*log10(W*N0) + NF - P_tx (dBm-referenced)."""
    noise_floor = THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(tx.w)
    return LinkBudget(noise_floor + tx.nf - tx.p_tx)


def _sample_counts(lengths: np.ndarray, resolution: float) -> np.ndarray:
    """One sample per pixel-length of ray, at least two."""
    counts = np.ceil(lengths / resolution)
    if np.any(counts >= 2.0**63):
        raise ValidationError(f"resolution {resolution!r} m asks for over 2**63 samples on one ray")
    return np.maximum(2, counts.astype(np.int64))


def blockage_ratio_batch(
    heights: np.ndarray,
    resolution: float,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Blocked fraction of each direct segment a[i] -> b[i].

    a, b: (P, 3) endpoint arrays in meters.  K_i = max(2, ceil(len_i / res))
    midpoint samples are placed uniformly along each segment; a sample is
    blocked when its interpolated z lies below the building height at its
    ground-plane pixel.  Swapping a and b visits the same positions, but a
    sample exactly on a pixel edge may round into the other pixel, so the
    ratio is symmetric in endpoint order only up to such samples.
    """
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


def blockage_ratio(scene_or_h, u_a, u_b) -> float:
    """Blocked fraction of the direct 3D path between two points in [0, 1]."""
    h = scene_or_h.heightmap if isinstance(scene_or_h, Scene) else scene_or_h
    a = np.asarray(u_a, dtype=np.float64)
    b = np.asarray(u_b, dtype=np.float64)
    x_max, y_max = h.extent
    for p in (a, b):
        if not (0 <= p[0] < x_max and 0 <= p[1] < y_max):
            raise ValueError(f"endpoint ({p[0]}, {p[1]}) outside map extent")
    return float(blockage_ratio_batch(h.values, h.resolution, a[np.newaxis], b[np.newaxis])[0])


def pixel_centers(h_px: int, w_px: int, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Meshgrid of pixel-center coordinates (xs, ys), each (h_px, w_px)."""
    xs = (np.arange(w_px, dtype=np.float64) + 0.5) * resolution
    ys = (np.arange(h_px, dtype=np.float64) + 0.5) * resolution
    return np.meshgrid(xs, ys)


def anchor_map(scene: Scene, z: float | None = None) -> RadioField:
    """Frequency-aware pathloss anchor over the pixel grid.

    Per pixel u at receiver height: FSPL of the 3D distance (clamped below
    by d0) plus the blockage ratio times the shadow range
    [FSPL(d0, f) - L_thr].  Reduces exactly to FSPL on zero-height maps.
    """
    h = scene.heightmap
    tx = scene.tx
    z_rx = scene.rx.z_rx if z is None else z
    xs, ys = pixel_centers(h.height_px, h.width_px, h.resolution)
    dx = xs - tx.x
    dy = ys - tx.y
    dz = z_rx - tx.z
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    loss = _fspl_array(np.maximum(dist, tx.d0), tx.f)

    targets = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, z_rx)])
    origin = np.broadcast_to(tx.position, targets.shape)
    beta = blockage_ratio_batch(h.values, h.resolution, origin, targets)
    shadow_range = fspl(tx.d0, tx.f) - link_threshold(tx).l_thr
    values = loss + beta.reshape(loss.shape) * shadow_range
    return RadioField(values[np.newaxis], UNIT_DB, h.resolution)


def anchor_volume(scene: Scene) -> RadioField:
    """Anchor evaluated at every receiver slice height (n_z channels)."""
    slices = [anchor_map(scene, z=z).slice(0) for z in scene.rx.slice_heights()]
    return RadioField(np.stack(slices), UNIT_DB, scene.heightmap.resolution)

"""Propagation physics: free-space pathloss, link budget, blockage, anchor map.

All pathloss quantities are signed dB on a consistent dBm-referenced scale,
so free-space loss is negative and deeper loss means a more negative number.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .grids import RadioField, Scene, UNIT_DB, TxConfig, ValidationError

SPEED_OF_LIGHT = 299792458.0  # m/s
THERMAL_NOISE_DBM_HZ = -174.0  # 10*log10(k_B * 290 K) in dBm/Hz
SAMPLE_BUDGET = 1 << 18  # ray samples (member rows x K) held at once by the blockage kernel

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
    """One sample per pixel-length of ray, at least two; lengths holds one entry per ray."""
    if not np.isfinite(lengths).all():
        raise ValidationError("a ray is too long to sample: its length overflows float64")
    with np.errstate(over="ignore"):
        counts = np.ceil(lengths / resolution)
    if np.any(counts >= 2.0**63):
        raise ValidationError(f"resolution {resolution!r} m asks for over 2**63 samples on one ray")
    return np.maximum(2, counts.astype(np.int64))


def _chunks(bounds: np.ndarray, group_k: np.ndarray) -> list[tuple[int, int, int]]:
    """(first group, end group, samples per pass) of each chunk of K-sorted groups.

    Group g owns members bounds[g]:bounds[g + 1].  A chunk takes groups while
    its members x K_max fits SAMPLE_BUDGET; a group over the budget on its
    own is sampled in passes of at most SAMPLE_BUDGET // members samples.
    """
    chunks = []
    g = 0
    while g < len(group_k):
        m0 = int(bounds[g])
        # members x K_max grows with the end group, so bisect for the last end that fits
        fitting = bisect_right(
            range(g + 1, len(group_k) + 1),
            SAMPLE_BUDGET,
            key=lambda end: (int(bounds[end]) - m0) * int(group_k[end - 1]),
        )
        e = g + max(1, fitting)
        width = max(1, SAMPLE_BUDGET // (int(bounds[e]) - m0))
        chunks.append((g, e, min(int(group_k[e - 1]), width)))
        g = e
    return chunks


def _rows(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The leading entries of a flat scratch buffer viewed as a (rows, width) block."""
    return buf[: shape[0] * shape[1]].reshape(shape)


def _blockage(
    heights: np.ndarray,
    resolution: float,
    a: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    bz: np.ndarray,
) -> np.ndarray:
    """Blocked fraction of every segment a[p] -> (bx[p], by[p], bz[s, p]), shape (S, P).

    The (ray, slice) members are stably sorted by (K, ray, slice).  A run of
    members with one ray and one K is a group: its sample positions, pixels
    and heights are computed once, and every member compares its own z with
    them.  Groups are taken in chunks that fit SAMPLE_BUDGET member samples
    (see _chunks).  Each sample keeps t = (k + 0.5) / K of its whole ray, and
    blocked samples are counted as integers, so beta does not depend on the
    chunking.

    When every member is level at one shared z (bz == a[:, 2] == z), dz is
    0.0, so each sample's t * dz + oz is exactly z and the sample is blocked
    exactly when its roof is above z.  Such a call gathers a bool map of the
    roofs above z instead of the roofs themselves, and a group counts once
    for all its members; the result is bit-identical to the float path that
    every other call takes.
    """
    n_s, n_p = bz.shape
    h_px, w_px = heights.shape
    flat_heights = np.ravel(np.asarray(heights, dtype=np.float64))
    ux = bx - a[:, 0]
    uy = by - a[:, 1]
    with np.errstate(over="ignore"):  # an overflow leaves an infinite length, which is reported
        uz = bz - a[:, 2]
        uz *= uz
        lengths = np.sqrt((ux * ux + uy * uy) + uz)
    counts = _sample_counts(lengths, resolution).T.ravel()
    del uz, lengths
    order = np.argsort(counts, kind="stable")  # member index ray * S + slice
    counts = counts[order]
    ray = order // n_s
    first = np.ones(len(order), dtype=bool)
    first[1:] = (counts[1:] != counts[:-1]) | (ray[1:] != ray[:-1])
    bounds = np.append(np.flatnonzero(first), len(order))
    group_k = counts[bounds[:-1]]
    group_ray = ray[bounds[:-1]]
    del counts, ray, first
    chunks = _chunks(bounds, group_k)

    # scratch sized for the largest chunk and reused by every pass, since
    # fresh arrays would page-fault on each pass; takes into it use
    # mode="clip" because the default mode copies through a temporary
    group_size = max(((e - g) * width for g, e, width in chunks), default=0)
    member_size = max(((bounds[e] - bounds[g]) * width for g, e, width in chunks), default=0)
    shared_size = member_size if len(group_k) < len(order) else 0
    level = n_p > 0 and bool(np.all(a[:, 2] == a[0, 2])) and bool(np.all(bz == a[0, 2]))
    t_buf, pos_buf = (np.empty(group_size) for _ in range(2))
    cols_buf, cells_buf = (np.empty(group_size, dtype=np.int64) for _ in range(2))
    if level:
        occupied = flat_heights > a[0, 2]
        hit_buf = np.empty(group_size, dtype=bool)
    else:
        z_buf, roof_z_buf = (np.empty(shared_size) for _ in range(2))
        below_buf = np.empty(member_size, dtype=bool)
    beta = np.empty((n_s, n_p), dtype=np.float64)
    for g, e, width in chunks:
        k = group_k[g:e]
        r = group_ray[g:e]
        member_ray, member_slice = np.divmod(order[bounds[g] : bounds[e]], n_s)
        member_group = np.repeat(np.arange(e - g), np.diff(bounds[g : e + 1]))
        if not level:
            oz = a[member_ray, 2, np.newaxis]
            dz = bz[member_slice, member_ray][:, np.newaxis] - oz
        distinct_k, row_k = np.unique(k, return_inverse=True)
        k_max = int(k[-1])
        # a level group counts once for all its members, which share its z
        blocked = np.zeros(len(k) if level else len(member_ray), dtype=np.int64)
        for k0 in range(0, k_max, width):
            steps = np.arange(k0, min(k0 + width, k_max), dtype=np.float64)
            shape = (len(k), len(steps))
            t_rows = (steps + 0.5) / distinct_k[:, np.newaxis]
            t = t_rows.take(row_k, axis=0, out=_rows(t_buf, shape), mode="clip")
            pos = np.multiply(t, ux[r, np.newaxis], out=_rows(pos_buf, shape))
            pos += a[r, 0, np.newaxis]
            pos /= resolution
            cols = _rows(cols_buf, shape)
            cols[...] = pos
            np.clip(cols, 0, w_px - 1, out=cols)
            np.multiply(t, uy[r, np.newaxis], out=pos)
            pos += a[r, 1, np.newaxis]
            pos /= resolution
            cells = _rows(cells_buf, shape)
            cells[...] = pos
            np.clip(cells, 0, h_px - 1, out=cells)
            cells *= w_px
            cells += cols
            # samples past a group's own K are padding, found in the leading
            # rows since K ascends; they count as clear
            short = np.searchsorted(k, k0 + len(steps))
            lo = max(int(k[0]) - k0, 0)
            padding = steps[lo:] >= k[:short, np.newaxis]
            if level:
                hit = occupied.take(cells, out=_rows(hit_buf, shape), mode="clip")
                np.copyto(hit[:short, lo:], False, where=padding)
                blocked += np.count_nonzero(hit, axis=1)
                continue
            roof = flat_heights.take(cells, out=pos, mode="clip")  # pos is spent
            np.copyto(roof[:short, lo:], -np.inf, where=padding)  # an infinitely low roof
            if len(member_group) > len(k):  # some group serves several slices: a row per member
                shape = (len(member_group), len(steps))
                t = t.take(member_group, axis=0, out=_rows(z_buf, shape), mode="clip")
                roof = roof.take(member_group, axis=0, out=_rows(roof_z_buf, shape), mode="clip")
            t *= dz
            t += oz
            blocked += np.count_nonzero(np.less(t, roof, out=_rows(below_buf, shape)), axis=1)
        if level:
            blocked = blocked[member_group]
        beta[member_slice, member_ray] = blocked / k[member_group]
    return beta


def blockage_ratio_batch(
    heights: np.ndarray,
    resolution: float,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Blocked fraction of each direct segment a[i] -> b[i].

    a, b: (P, 3) arrays of finite endpoints in meters; any other shape, or
    a NaN or infinite coordinate, is a ValueError.  K_i = max(2, ceil(len_i /
    res)) midpoint samples are placed uniformly along each segment; a sample
    is blocked when its interpolated z lies below the building height at its
    ground-plane pixel.  Rays are sorted by K and sampled in chunks of at
    most SAMPLE_BUDGET samples (a longer ray in segments), and the blocked
    samples are counted exactly, so beta does not depend on the chunking.
    When every ray is level at one shared height z, as the ordering's rays
    between 1.5 m patch centres are, a sample's interpolated z is exactly z,
    so the kernel counts the samples that land on a roof above z instead of
    comparing heights; the ratio is the same bit for bit.
    The anchor maps share one kernel with this function and sample each
    ray's x/y once for all height slices with the same K.  Swapping a and b
    visits the same positions, but a sample exactly on a pixel edge may round
    into the other pixel, so the ratio is symmetric in endpoint order only up
    to such samples.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.ndim != 2 or a.shape[1] != 3 or a.shape != b.shape:
        raise ValueError(f"ray endpoints a and b must both be (P, 3), got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("ray endpoints must be finite")
    return _blockage(heights, resolution, a, b[:, 0], b[:, 1], b[np.newaxis, :, 2])[0]


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


def _anchor_slices(scene: Scene, zs) -> RadioField:
    """The anchor map at each receiver height in zs, one channel each, from one kernel call."""
    h = scene.heightmap
    tx = scene.tx
    xs, ys = pixel_centers(h.height_px, h.width_px, h.resolution)
    z = np.asarray(zs, dtype=np.float64).reshape(-1, 1)
    origin = np.broadcast_to(tx.position, (xs.size, 3))
    beta = _blockage(
        h.values, h.resolution, origin, xs.ravel(), ys.ravel(), np.broadcast_to(z, (len(z), xs.size))
    )
    values = beta.reshape(len(z), *xs.shape)
    values *= fspl(tx.d0, tx.f) - link_threshold(tx).l_thr
    dx = xs - tx.x
    dy = ys - tx.y
    dz = z[:, :, np.newaxis] - tx.z
    values += _fspl_array(np.maximum(np.sqrt(dx * dx + dy * dy + dz * dz), tx.d0), tx.f)
    return RadioField(values, UNIT_DB, h.resolution)


def anchor_map(scene: Scene, z: float | None = None) -> RadioField:
    """Frequency-aware pathloss anchor over the pixel grid.

    Per pixel u at receiver height (z_rx unless z is given): FSPL of the 3D
    distance (clamped below by d0) plus the blockage ratio times the shadow
    range [FSPL(d0, f) - L_thr].  Reduces exactly to FSPL on zero-height maps.
    """
    return _anchor_slices(scene, [scene.rx.z_rx if z is None else z])


# (weak reference to a scene, its anchor volume): the last volume computed,
# dropped by the reference's callback when its scene is collected
_volume_cache: tuple[weakref.ref, RadioField] | None = None


def _forget_volume(ref: weakref.ref) -> None:
    global _volume_cache
    entry = _volume_cache
    if entry is not None and entry[0] is ref:
        _volume_cache = None


def anchor_volume(scene: Scene) -> RadioField:
    """Anchor evaluated at every receiver slice height (n_z channels).

    Computed once per live scene object: calling again with the same Scene
    (as gen_field and its caller do) returns the same read-only field.  At
    most one volume is held, that of the last scene asked for, and it is
    dropped when that scene is collected.  Scenes are frozen and their
    height maps own read-only copies, so a held volume cannot go stale.
    """
    global _volume_cache
    entry = _volume_cache  # one read, so a concurrent replace can only cost a recompute
    if entry is not None and entry[0]() is scene:
        return entry[1]
    volume = _anchor_slices(scene, scene.rx.slice_heights())
    _volume_cache = (weakref.ref(scene, _forget_volume), volume)
    return volume

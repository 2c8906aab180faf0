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
RUN_LENGTH = 8  # consecutive samples of a ray the blockage kernel decides at once

# single-channel dB field over the pixel grid at receiver height
AnchorMap = RadioField

_FSPL_CONST = 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)


def fspl(d: float | np.ndarray, f: float) -> float | np.ndarray:
    """Free-space pathloss as signed dB gain (Friis, negated) of a distance or an array of them.

    The library's one Friis expression, which gives the anchor both its
    per-pixel loss and its shadow range.  A scalar distance gives a float.
    Strictly decreasing in both distance and frequency.  Callers must clamp
    the distance to the near-field reference d0; a distance <= 0 or NaN is
    a ValueError naming the smallest (or NaN).
    """
    d = np.asarray(d, dtype=np.float64)
    if d.size and not d.min() > 0:  # a NaN distance is refused too, as its own minimum
        raise ValueError(f"distance must be positive, got {d.min()}")
    if not f > 0:
        raise ValueError(f"frequency must be positive, got {f}")
    loss = -(20.0 * np.log10(d) + 20.0 * math.log10(f) + _FSPL_CONST)
    return float(loss) if loss.ndim == 0 else loss


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


def _runs(n_steps: int) -> tuple[int, int]:
    """(runs, samples per run) that cut n_steps samples into the fewest runs of at most RUN_LENGTH."""
    n_runs = -(-n_steps // RUN_LENGTH)
    return n_runs, -(-n_steps // n_runs)


def _padded(n_steps: int) -> int:
    """Sample slots of n_steps samples cut into runs (see _runs)."""
    n_runs, run = _runs(n_steps)
    return n_runs * run


def _chunks(bounds: np.ndarray, group_k: np.ndarray) -> list[tuple[int, int, int]]:
    """(first group, end group, samples per pass) of each chunk of K-sorted groups.

    Group g owns members bounds[g]:bounds[g + 1].  A chunk takes groups while
    its members x K_max, cut into runs, fits SAMPLE_BUDGET; a group over the
    budget on its own is sampled in passes of at most SAMPLE_BUDGET // members
    samples, rounded down to whole runs.  So the runs of a pass never hold
    more than SAMPLE_BUDGET member samples (or one per member, if more).
    """
    chunks = []
    g = 0
    while g < len(group_k):
        m0 = int(bounds[g])
        # members x K_max grows with the end group, so bisect for the last end that fits
        fitting = bisect_right(
            range(g + 1, len(group_k) + 1),
            SAMPLE_BUDGET,
            key=lambda end: (int(bounds[end]) - m0) * _padded(int(group_k[end - 1])),
        )
        e = g + max(1, fitting)
        width = max(1, SAMPLE_BUDGET // (int(bounds[e]) - m0))
        if width > RUN_LENGTH:
            width -= width % RUN_LENGTH
        chunks.append((g, e, min(int(group_k[e - 1]), width)))
        g = e
    return chunks


def _rows(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The leading entries of a flat scratch buffer viewed as a (rows, width) block."""
    return buf[: shape[0] * shape[1]].reshape(shape)


def _summed_area(mask: np.ndarray) -> np.ndarray:
    """Flat summed-area table of a 2-D bool map: entry i * (w + 1) + j counts mask[:i, :j]."""
    h, w = mask.shape
    table = np.zeros((h + 1, w + 1), dtype=np.int32 if (h + 1) * (w + 1) < 2**31 else np.int64)
    table[1:, 1:] = mask
    np.add.accumulate(table, axis=0, out=table)
    np.add.accumulate(table, axis=1, out=table)
    return table.ravel()


def _pixels(t, origin, u, resolution: float, n: int, pos: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pixel index on one axis of the samples at t of rays origin + t * u, clipped to [0, n) before the cast."""
    np.multiply(t, u, out=pos)
    pos += origin
    pos /= resolution
    np.clip(pos, 0, n - 1, out=pos)
    out[...] = pos
    return out


def _rectangle_counts(table: np.ndarray, corners, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Pixels of each rectangle that a summed-area table counts, from its four corner entries."""
    bottom_right, top_right, bottom_left, top_left = corners
    table.take(bottom_right, out=out, mode="clip")
    out -= table.take(top_right, out=tmp, mode="clip")
    out -= table.take(bottom_left, out=tmp, mode="clip")
    out += table.take(top_left, out=tmp, mode="clip")
    return out


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
    every member counts its blocked samples as integers, so beta does not
    depend on the chunking.

    Each pass cuts every group's samples into runs of at most RUN_LENGTH
    consecutive samples and decides whole runs before it samples any.  t,
    a sample's pixel and its z = t * dz + oz are all monotone in the step k:
    each float operation rounds monotonically, and so do the clip and the
    int cast.  So every member's z lies between z_lo and z_hi, the lowest
    and highest z of any member's first and last sample, and the pixels of
    a run lie in the rectangle spanned by the pixels of its first sample and
    of the next run's first sample, computed with the same expressions (a
    boundary past the ray's K only widens the rectangle).  Summed-area
    tables of the roofs above z_lo and of those above z_hi count the
    rectangle's pixels in four lookups.  None above z_lo: no sample of the
    run is blocked.  All of them above z_hi: every sample of the run is,
    and its samples before K are added as an integer.  Only the undecided
    runs are sampled, exactly as a pass over every sample would, so beta is
    bit-identical.  A NaN roof is above no z and blocks no sample, in the
    tables as in the samples.  A table costs about as much per pixel as a
    sample, so a call with fewer samples than the map has pixels builds none
    and samples every run.  A sample rule that tests a sample lying exactly
    on a pixel edge against every pixel it touches (the tallest pixel) must
    widen each rectangle by the pixels its edge samples touch: one more row
    and column toward the lower index.

    Special cases, each with what removing it cost in paired runs on a 2-core Xeon host:
    - a level call (z_lo == z_hi) gathers a bool map of roofs above z: 12-19%;
    - the slices of a group share its t, pixels and roofs: 1.3-2.5x on volumes;
    - the run-decision stage reuses scratch sized for the largest chunk: 4-19%;
    - no column per member unless a group has two members: 12-20% on sloped fans.
    A level call's samples all have z = z_lo, so a sample is blocked exactly
    when its roof is above z, and that bool map is also its one table's map.
    """
    n_s, n_p = bz.shape
    h_px, w_px = heights.shape
    if n_p == 0:
        return np.empty((n_s, 0))
    flat_heights = np.ravel(np.asarray(heights, dtype=np.float64))
    ux = bx - a[:, 0]
    uy = by - a[:, 1]
    with np.errstate(over="ignore"):  # an overflow leaves an infinite length, which is reported
        uz = bz - a[:, 2]
        uz *= uz
        lengths = np.sqrt((ux * ux + uy * uy) + uz)
    counts = _sample_counts(lengths, resolution)
    del uz, lengths
    # the z of each member's first and last sample, from the kernel's own t * dz + oz
    z_lo, z_hi = np.inf, -np.inf
    for s in range(n_s):
        dz = bz[s] - a[:, 2]
        for t in (0.5 / counts[s], ((counts[s] - 1).astype(np.float64) + 0.5) / counts[s]):
            t *= dz
            t += a[:, 2]
            z_lo, z_hi = min(z_lo, t.min()), max(z_hi, t.max())
    del dz, t
    level = z_lo == z_hi
    counts = counts.T.ravel()
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

    if level:
        occupied = flat_heights > z_lo
    # a table costs about what sampling does per pixel, so a call with fewer
    # samples than the map has pixels samples every run instead
    decide = int(group_k.sum()) >= h_px * w_px
    if decide and level:
        clear_table = full_table = _summed_area(occupied.reshape(h_px, w_px))
    elif decide:
        clear_table = _summed_area(flat_heights.reshape(h_px, w_px) > z_lo)
        full_table = _summed_area(flat_heights.reshape(h_px, w_px) > z_hi)
    # scratch sized for the largest chunk and reused by every pass, since
    # fresh arrays would page-fault on each pass: the four sample blocks
    # first hold a pass's run edges (runs + 1 per group), then its undecided
    # runs; takes into them use mode="clip" because the default mode copies
    # through a temporary
    group_size = member_size = run_size = 0
    for g, e, width in chunks:
        n_runs, run = _runs(width)
        group_size = max(group_size, (e - g) * max(n_runs * run, n_runs + 1))
        member_size = max(member_size, int(bounds[e] - bounds[g]) * n_runs * run)
        run_size = max(run_size, (e - g) * n_runs)
    shared_size = member_size if len(group_k) < len(order) else 0
    t_buf, pos_buf = (np.empty(group_size) for _ in range(2))
    cols_buf, cells_buf = (np.empty(group_size, dtype=np.int64) for _ in range(2))
    low_rows_buf = np.empty(run_size, dtype=np.int64)
    open_buf = np.empty(run_size, dtype=bool)
    if decide:
        high_rows_buf = np.empty(run_size, dtype=np.int64)
        count_buf, tmp_count_buf = (np.empty(run_size, dtype=clear_table.dtype) for _ in range(2))
        clear_buf, full_buf = (np.empty(run_size, dtype=bool) for _ in range(2))
    z_buf, roof_z_buf = (np.empty(shared_size) for _ in range(2))
    below_buf = np.empty(member_size, dtype=bool)
    beta = np.empty((n_s, n_p), dtype=np.float64)
    for g, e, width in chunks:
        k = group_k[g:e]
        k_float = k.astype(np.float64)  # as the int K would divide, without a mixed-type loop
        r = group_ray[g:e]
        member_ray, member_slice = np.divmod(order[bounds[g] : bounds[e]], n_s)
        group_members = np.diff(bounds[g : e + 1])
        member_group = np.repeat(np.arange(e - g), group_members)
        oz = a[member_ray, 2]
        dz = bz[member_slice, member_ray] - oz
        k_max = int(k[-1])
        blocked = np.zeros(len(member_ray), dtype=np.int64)
        # blocks are (step, group), so each group's values broadcast along the long axis
        for k0 in range(0, k_max, width):
            n_steps = min(width, k_max - k0)
            n_runs, run = _runs(n_steps)

            shape = (n_runs, len(k))
            if decide:
                # 1. decide each run from the pixels of its first sample and the next run's
                edge_shape = (n_runs + 1, len(k))
                edges = np.arange(k0, k0 + n_runs * run + 1, run, dtype=np.float64)
                t = np.divide((edges + 0.5)[:, np.newaxis], k_float, out=_rows(t_buf, edge_shape))
                pos = _rows(pos_buf, edge_shape)
                cols = _pixels(t, a[r, 0], ux[r], resolution, w_px, pos, _rows(cols_buf, edge_shape))
                rows = _pixels(t, a[r, 1], uy[r], resolution, h_px, pos, _rows(cells_buf, edge_shape))
                left = np.minimum(cols[:-1], cols[1:], out=_rows(t_buf.view(np.int64), shape))
                right = np.maximum(cols[:-1], cols[1:], out=_rows(pos_buf.view(np.int64), shape))
                area = np.subtract(right, left, out=_rows(cols_buf, shape))  # cols is spent
                area += 1
                top = np.minimum(rows[:-1], rows[1:], out=_rows(low_rows_buf, shape))
                bottom = np.maximum(rows[:-1], rows[1:], out=_rows(high_rows_buf, shape))
                height = np.subtract(bottom, top, out=_rows(cells_buf, shape))  # rows is spent
                height += 1
                area *= height
                # corners in the (h + 1) x (w + 1) table, each made in place of a spent side
                top *= w_px + 1
                bottom += 1
                bottom *= w_px + 1
                right += 1
                bottom_right = np.add(bottom, right, out=height)
                right += top
                bottom += left
                left += top
                corners = (bottom_right, right, bottom, left)
                above = _rows(count_buf, shape)
                tmp = _rows(tmp_count_buf, shape)
                _rectangle_counts(clear_table, corners, above, tmp)
                clear = np.equal(above, 0, out=_rows(clear_buf, shape))
                if not level:
                    _rectangle_counts(full_table, corners, above, tmp)
                full = np.equal(above, area, out=_rows(full_buf, shape))
            # samples of each run before its group's K and the pass's end (top is spent)
            starts = k0 + run * np.arange(n_runs)
            valid = np.subtract(np.minimum(k, k0 + n_steps), starts[:, np.newaxis], out=_rows(low_rows_buf, shape))
            np.clip(valid, 0, run, out=valid)
            undecided = np.greater(valid, 0, out=_rows(open_buf, shape))
            if decide:
                decided = np.multiply(valid, full, out=bottom).sum(axis=0)
                blocked += decided[member_group]
                undecided &= ~clear
                undecided &= ~full
            open_runs = np.flatnonzero(undecided)
            if len(open_runs) == 0:
                continue

            # 2. sample the undecided runs, exactly as a pass over every run would
            open_run, open_row = np.divmod(open_runs, len(k))
            open_valid = valid.ravel()[open_runs]
            shape = (run, len(open_runs))
            steps = np.arange(run, dtype=np.float64)[:, np.newaxis]
            t = np.add(steps, (k0 + run * open_run).astype(np.float64), out=_rows(t_buf, shape))
            t += 0.5
            t /= k_float[open_row]
            ray_row = r[open_row]
            pos = _rows(pos_buf, shape)
            cols = _pixels(t, a[ray_row, 0], ux[ray_row], resolution, w_px, pos, _rows(cols_buf, shape))
            cells = _pixels(t, a[ray_row, 1], uy[ray_row], resolution, h_px, pos, _rows(cells_buf, shape))
            cells *= w_px
            cells += cols
            # samples past a group's own K or the pass's end count as clear
            short = np.flatnonzero(open_valid < run)
            padding = np.arange(run)[:, np.newaxis] >= open_valid[short]
            if level:  # a sample is blocked exactly when occupied marks its pixel; pos is spent
                below = occupied.take(cells, out=_rows(pos_buf.view(bool), shape), mode="clip")
                below[:, short] &= ~padding
            else:
                roof = flat_heights.take(cells, out=pos, mode="clip")  # pos is spent
                roof[:, short] = np.where(padding, -np.inf, roof[:, short])  # an infinitely low roof
            open_member = open_row
            if len(member_group) > len(k):  # some group serves several slices: a column per member
                n_open = group_members[open_row]
                open_index = np.repeat(np.arange(len(open_runs)), n_open)
                open_member = np.arange(len(open_index)) - np.repeat(np.cumsum(n_open) - n_open, n_open)
                open_member += (bounds[g:e] - bounds[g])[open_row][open_index]
                shape = (run, len(open_index))
                if level:
                    below = below.take(open_index, axis=1, out=_rows(below_buf, shape), mode="clip")
                else:
                    t = t.take(open_index, axis=1, out=_rows(z_buf, shape), mode="clip")
                    roof = roof.take(open_index, axis=1, out=_rows(roof_z_buf, shape), mode="clip")
            if not level:
                t *= dz[open_member]
                t += oz[open_member]
                below = np.less(t, roof, out=_rows(below_buf, shape))
            blocked += np.bincount(open_member, np.count_nonzero(below, axis=0), len(member_ray)).astype(np.int64)
        beta[member_slice, member_ray] = blocked / k[member_group]
    return beta


def blockage_ratio_batch(
    heights: np.ndarray,
    resolution: float,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Blocked fraction of each direct segment a[i] -> b[i].

    heights: 2-D map of roof heights with pixels of `resolution` meters, a
    finite number > 0; a map of any other rank or such a resolution is a
    ValueError naming it.  a, b: (P, 3) arrays of finite endpoints in
    meters; any other shape, or a NaN or infinite coordinate, is a
    ValueError.  K_i = max(2, ceil(len_i / res)) midpoint samples are placed
    uniformly along each segment; a sample is blocked when its interpolated
    z lies below the building height at its ground-plane pixel.  Rays are
    sorted by K and sampled in chunks of at most SAMPLE_BUDGET samples (a
    longer ray in segments), and the blocked samples are counted exactly,
    so beta does not depend on the chunking.
    Each chunk cuts its rays into runs of at most RUN_LENGTH samples and
    decides whole runs first.  A sample's pixel and its z are monotone along
    its ray, since every float operation on the way rounds monotonically, so
    the pixels of a run lie in the rectangle between the pixels of its first
    sample and the next run's, and its z between the lowest and highest
    sample z of the call.  Summed-area tables count that rectangle's roofs:
    none above the lowest z and the run is clear, all above the highest z
    and every sample of it is blocked.  Either way its count is an integer,
    so only the undecided runs are sampled and the ratio is the same bit for
    bit as sampling every sample.
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
    if np.ndim(heights) != 2:
        raise ValueError(f"heights must be a 2-D map, got shape {np.shape(heights)}")
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution!r}")
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
    values += fspl(np.maximum(np.sqrt(dx * dx + dy * dy + dz * dz), tx.d0), tx.f)
    return RadioField(values, UNIT_DB, h.resolution)


def anchor_map(scene: Scene, z: float | None = None) -> RadioField:
    """Frequency-aware pathloss anchor over the pixel grid.

    Per pixel u at receiver height (z_rx unless z is given): FSPL of the 3D
    distance (clamped below by d0) plus the blockage ratio times the shadow
    range [FSPL(d0, f) - L_thr].  On a zero-height map every ratio is 0, so
    the anchor is fspl(max(d, d0), f) bit for bit.
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

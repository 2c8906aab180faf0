"""Propagation physics: free-space pathloss, link budget, blockage, anchor map.

All pathloss quantities are signed dB on a consistent dBm-referenced scale,
so free-space loss is negative and deeper loss means a more negative number.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .grids import HeightMap, RadioField, Scene, UNIT_DB, TxConfig, ValidationError, _check, _check_in_map, _held

SPEED_OF_LIGHT = 299792458.0  # m/s
THERMAL_NOISE_DBM_HZ = -174.0  # 10*log10(k_B * 290 K) in dBm/Hz
SAMPLE_BUDGET = 1 << 18  # ray samples (member rows x K) held at once by the blockage kernel
RUN_LENGTH = 8  # consecutive samples of a ray the blockage kernel decides at once

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
    _check("finite and > 0", f=f)
    loss = -(20.0 * np.log10(d) + 20.0 * math.log10(f) + _FSPL_CONST)
    return float(loss) if loss.ndim == 0 else loss


@dataclass(frozen=True)
class LinkBudget:
    """Detectability threshold on the signed-dB pathloss scale."""

    l_thr: float

    def __post_init__(self):
        _check("finite", l_thr=self.l_thr)


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
            key=lambda end: (int(bounds[end]) - m0) * math.prod(_runs(int(group_k[end - 1]))),
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
    """Pixel index on one axis of the samples at t of rays origin + t * u, clipped to [0, n) before the cast.

    A division by 1.0 changes no float, so a 1 m map skips it.  A far sample
    on a fine map may overflow to inf, which the clip puts in the edge pixel.
    """
    np.multiply(t, u, out=pos)
    pos += origin
    if resolution != 1.0:
        with np.errstate(over="ignore"):
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


def _plan(heights: np.ndarray, resolution: float, a: np.ndarray, bx, by, bz) -> tuple:
    """The call-wide part of _blockage, from its segments to the scratch of its passes.

    Returns (flat_heights, ux, uy, order, bounds, group_k, group_ray, chunks,
    level, occupied, tables, buf).  order holds the member indices
    ray * S + slice sorted by (K, ray, slice); group g owns members
    order[bounds[g]:bounds[g + 1]], all with K group_k[g] on ray
    group_ray[g].  occupied marks the roofs above z_lo on a call that is
    level or builds tables, and is None otherwise.  tables is () on a call
    with fewer samples than the map has pixels, and otherwise the
    (clear, full) summed-area tables, one table twice on a level call.
    buf is the call's scratch, sized for its largest pass's sample, member
    and run blocks and allocated after the tables.
    """
    flat_heights = heights.ravel()
    ux = bx - a[:, 0]
    uy = by - a[:, 1]
    with np.errstate(over="ignore"):  # an overflow leaves an infinite length, which is reported
        counts = _sample_counts(np.sqrt((ux * ux + uy * uy) + np.square(bz - a[:, 2])), resolution)
    # the z of each member's first and last sample, from the kernel's own t * dz + oz
    z_lo, z_hi = np.inf, -np.inf
    for s in range(len(bz)):
        dz = bz[s] - a[:, 2]
        for t in (0.5 / counts[s], ((counts[s] - 1).astype(np.float64) + 0.5) / counts[s]):
            t *= dz
            t += a[:, 2]
            z_lo, z_hi = t.min(initial=z_lo), t.max(initial=z_hi)
    # the plan frees each temporary once it is done with it, so that the
    # tables and the scratch reuse that heap: freed at the return instead,
    # fans of 4,096 and 1,024 rays over a 256^2 map faulted in about 3 MB of
    # fresh pages per pair of calls
    del dz, t
    counts = counts.T.ravel()
    order = np.argsort(counts, kind="stable")  # member index ray * S + slice
    counts = counts[order]
    ray = order // len(bz)
    first = np.ones(len(order), dtype=bool)
    first[1:] = (counts[1:] != counts[:-1]) | (ray[1:] != ray[:-1])
    bounds = np.append(np.flatnonzero(first), len(order))
    group_k = counts[bounds[:-1]]
    group_ray = ray[bounds[:-1]]
    del counts, ray, first
    chunks = _chunks(bounds, group_k)

    level = z_lo == z_hi
    # a table costs about what sampling does per pixel, so a call with fewer
    # samples than the map has pixels samples every run instead
    decide = int(group_k.sum()) >= flat_heights.size
    occupied = flat_heights > z_lo if level or decide else None
    tables = (_summed_area(occupied.reshape(heights.shape)),) * 2 if decide else ()
    if decide and not level:
        over_hi = flat_heights > z_hi
        level = np.count_nonzero(over_hi) == tables[0][-1]  # no roof in (z_lo, z_hi]
        if not level:
            tables = (tables[0], _summed_area(over_hi.reshape(heights.shape)))
        del over_hi
    # the four sample blocks first hold a pass's run edges (runs + 1 per
    # group), then its undecided runs
    group_size = member_size = run_size = 0
    for g, e, width in chunks:
        n_runs, run = _runs(width)
        group_size = max(group_size, (e - g) * max(n_runs * run, n_runs + 1))
        member_size = max(member_size, int(bounds[e] - bounds[g]) * n_runs * run)
        run_size = max(run_size, (e - g) * n_runs)
    # scratch sized for the largest pass and reused by every pass, since
    # fresh arrays would page-fault on each pass; takes into it use
    # mode="clip" because the default mode copies through a temporary
    buf = SimpleNamespace(t=np.empty(group_size), pos=np.empty(group_size))
    buf.cols, buf.cells = (np.empty(group_size, dtype=np.int64) for _ in range(2))
    buf.low_rows = np.empty(run_size, dtype=np.int64)
    buf.open = np.empty(run_size, dtype=bool)
    if tables:
        buf.high_rows = np.empty(run_size, dtype=np.int64)
        buf.count, buf.tmp_count = (np.empty(run_size, dtype=tables[0].dtype) for _ in range(2))
        buf.clear, buf.full = (np.empty(run_size, dtype=bool) for _ in range(2))
    if not level:
        shared_size = member_size if len(group_k) < len(order) else 0
        buf.z, buf.roof_z = (np.empty(shared_size) for _ in range(2))
        buf.below = np.empty(member_size, dtype=bool)
    return flat_heights, ux, uy, order, bounds, group_k, group_ray, chunks, level, occupied, tables, buf


def _decide_runs(k0, n_runs, run, k_float, r, a, ux, uy, resolution, h_px, w_px, clear_table, full_table, buf):
    """Stage 1 of _blockage: the clear and the full masks of a pass's (runs, groups) block.

    The pass cuts the samples from step k0 on into n_runs runs of run
    samples; group j has K k_float[j] and samples ray r[j],
    a[r[j]] + t * (ux, uy)[r[j]], on an h_px x w_px map.  Its run edges are
    the (runs + 1, groups) block of t = (edge + 0.5) / K: each run's first
    sample, then the last run's end.  A run is clear when its rectangle
    holds no pixel of clear_table, and full when every pixel of it is in
    full_table, which is clear_table itself on a level call.  buf is the
    scratch of _plan: its t, pos, cols, cells, low_rows and high_rows are
    spent on return, and the masks live in its clear and full.
    """
    shape = (n_runs, len(k_float))
    edges = np.arange(k0, k0 + n_runs * run + 1, run, dtype=np.float64)
    t = np.divide((edges + 0.5)[:, np.newaxis], k_float, out=_rows(buf.t, (n_runs + 1, len(k_float))))
    pos = _rows(buf.pos, t.shape)
    cols = _pixels(t, a[r, 0], ux[r], resolution, w_px, pos, _rows(buf.cols, t.shape))
    rows = _pixels(t, a[r, 1], uy[r], resolution, h_px, pos, _rows(buf.cells, t.shape))
    # each rectangle spans columns [left, right) and rows [top, bottom); t is spent
    left = np.minimum(cols[:-1], cols[1:], out=_rows(buf.t.view(np.int64), shape))
    right = np.maximum(cols[:-1], cols[1:], out=_rows(buf.pos.view(np.int64), shape))
    right += 1
    area = np.subtract(right, left, out=_rows(buf.cols, shape))  # cols is spent
    top = np.minimum(rows[:-1], rows[1:], out=_rows(buf.low_rows, shape))
    bottom = np.maximum(rows[:-1], rows[1:], out=_rows(buf.high_rows, shape))
    bottom += 1
    height = np.subtract(bottom, top, out=_rows(buf.cells, shape))  # rows is spent
    area *= height
    # corners in the (h + 1) x (w + 1) table, each made in place of a spent side
    top *= w_px + 1
    bottom *= w_px + 1
    bottom_right = np.add(bottom, right, out=height)
    right += top
    bottom += left
    left += top
    corners = (bottom_right, right, bottom, left)
    above = _rows(buf.count, shape)
    tmp = _rows(buf.tmp_count, shape)
    _rectangle_counts(clear_table, corners, above, tmp)
    clear = np.equal(above, 0, out=_rows(buf.clear, shape))
    if full_table is not clear_table:
        _rectangle_counts(full_table, corners, above, tmp)
    return clear, np.equal(above, area, out=_rows(buf.full, shape))


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

    A call is level when no roof r has z_lo < r <= z_hi.  Every sample's z
    lies in [z_lo, z_hi], so a sample is then blocked exactly when its roof
    is above z_lo (a NaN roof compares false): the bool map of those roofs
    is the call's one table, stage 2 gathers from it, and the members of a
    group, which share its pixels, share its count, so each undecided run is
    counted once per group.  A call with z_lo == z_hi is level, as the
    ordering's rays between 1.5 m patch centres are.  Otherwise the test
    costs a pass over the map, so only a call that builds tables makes it:
    the roofs above z_hi are a subset of those above z_lo, so none lies in
    between when their count equals the clear table's total.  Anchor
    volumes with slices at 0.5-2.5 m under higher roofs are level; a 30 m
    UAV transmitter, or receivers at roof height, leave a call sloped.  The
    tallest-pixel rule keeps the level rule: a sample is then blocked when
    any pixel it touches has a roof above z_lo.

    _plan owns everything decided once per call: the lengths and K, z_lo
    and z_hi, the sorted members, groups and chunks, the level and no-table
    rules, the tables and the scratch; it frees its temporaries before the
    tables and the scratch are allocated.  _decide_runs is stage 1, from a
    pass's first step, run count and run length to its run edges and its
    clear and full masks.  Stage 2, sampling the runs left open, is the rest
    of the pass loop below.

    Special cases, each with what removing it cost in paired runs on a 2-core Xeon host:
    - a level call gathers from a bool map of roofs above z_lo: 12-19%;
    - a call with no roof in (z_lo, z_hi] is level, not only one with
      z_lo == z_hi: 1.33-1.68x on multi-slice anchor fans, 1.16-1.22x on
      a scene_build cycle's eight fans;
    - the slices of a group share its t, pixels and roofs: 1.3-2.5x on volumes;
    - the run-decision stage reuses scratch sized for the largest chunk: 4-19%;
    - no column per member unless a group has two members: 12-20% on sloped fans;
    - a 1 m map skips the division by its resolution: 7-8% on the cycle's
      eight fans, 10-16% on a 30 m UAV volume.
    """
    n_s, n_p = bz.shape
    h_px, w_px = heights.shape
    plan = _plan(heights, resolution, a, bx, by, bz)
    flat_heights, ux, uy, order, bounds, group_k, group_ray, chunks, level, occupied, tables, buf = plan
    beta = np.empty((n_s, n_p), dtype=np.float64)
    for g, e, width in chunks:
        k = group_k[g:e]
        k_float = k.astype(np.float64)  # as the int K would divide, without a mixed-type loop
        k_max = int(k[-1])
        r = group_ray[g:e]
        members = order[bounds[g] : bounds[e]]
        member_ray, member_slice = np.divmod(members, n_s) if n_s > 1 else (members, 0)
        group_members = np.diff(bounds[g : e + 1])
        member_group = np.repeat(np.arange(e - g), group_members)
        blocked = np.zeros(e - g, dtype=np.int64)  # per group: decided runs, and sampled ones if level
        if not level:
            oz = a[member_ray, 2]
            dz = bz[member_slice, member_ray] - oz
            member_blocked = np.zeros(len(members), dtype=np.int64)
        # blocks are (step, group), so each group's values broadcast along the long axis
        for k0 in range(0, k_max, width):
            n_steps = min(width, k_max - k0)
            n_runs, run = _runs(n_steps)

            shape = (n_runs, len(k))
            if tables:
                # 1. decide each run from the pixels of its first sample and the next run's
                clear, full = _decide_runs(k0, n_runs, run, k_float, r, a, ux, uy, resolution, h_px, w_px, *tables, buf)
            # samples of each run before its group's K and the pass's end, in stage 1's spent low rows
            starts = k0 + run * np.arange(n_runs)
            valid = np.subtract(np.minimum(k, k0 + n_steps), starts[:, np.newaxis], out=_rows(buf.low_rows, shape))
            np.clip(valid, 0, run, out=valid)
            undecided = np.greater(valid, 0, out=_rows(buf.open, shape))
            if tables:
                blocked += np.multiply(valid, full, out=_rows(buf.high_rows, shape)).sum(axis=0)
                decided = np.logical_or(clear, full, out=clear)
                np.greater(undecided, decided, out=undecided)  # undecided and not decided
            open_runs = np.flatnonzero(undecided)
            if len(open_runs) == 0:
                continue

            # 2. sample the undecided runs, exactly as a pass over every run would
            open_run, open_row = np.divmod(open_runs, len(k))
            open_valid = valid.ravel()[open_runs]
            shape = (run, len(open_runs))
            steps = np.arange(run, dtype=np.float64)[:, np.newaxis]
            t = np.add(steps, (k0 + run * open_run).astype(np.float64), out=_rows(buf.t, shape))
            t += 0.5
            t /= k_float[open_row]
            ray_row = r[open_row]
            pos = _rows(buf.pos, shape)
            cols = _pixels(t, a[ray_row, 0], ux[ray_row], resolution, w_px, pos, _rows(buf.cols, shape))
            cells = _pixels(t, a[ray_row, 1], uy[ray_row], resolution, h_px, pos, _rows(buf.cells, shape))
            cells *= w_px
            cells += cols
            # samples past a group's own K or the pass's end count as clear
            short = np.flatnonzero(open_valid < run)
            padding = np.arange(run)[:, np.newaxis] >= open_valid[short]
            if level:  # a sample is blocked exactly when occupied marks its pixel; pos is spent
                below = occupied.take(cells, out=_rows(buf.pos.view(bool), shape), mode="clip")
                below[:, short] &= ~padding
                blocked += np.bincount(open_row, np.count_nonzero(below, axis=0), len(k)).astype(np.int64)
                continue
            roof = flat_heights.take(cells, out=pos, mode="clip")  # pos is spent
            roof[:, short] = np.where(padding, -np.inf, roof[:, short])  # an infinitely low roof
            open_member = open_row
            if len(members) > len(k):  # some group serves several slices: a column per member
                n_open = group_members[open_row]
                open_index = np.repeat(np.arange(len(open_runs)), n_open)
                open_member = np.arange(len(open_index)) - np.repeat(np.cumsum(n_open) - n_open, n_open)
                open_member += (bounds[g:e] - bounds[g])[open_row][open_index]
                shape = (run, len(open_index))
                t = t.take(open_index, axis=1, out=_rows(buf.z, shape), mode="clip")
                roof = roof.take(open_index, axis=1, out=_rows(buf.roof_z, shape), mode="clip")
            t *= dz[open_member]
            t += oz[open_member]
            below = np.less(t, roof, out=_rows(buf.below, shape))
            member_blocked += np.bincount(open_member, np.count_nonzero(below, axis=0), len(members)).astype(np.int64)
        blocked = blocked[member_group]
        if not level:
            blocked += member_blocked
        beta.reshape(-1)[member_slice * n_p + member_ray] = blocked / k[member_group]
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
    When no roof lies above the call's lowest sample z and at or below its
    highest, a sample is blocked exactly when its roof is above that lowest
    z, so the kernel counts the samples that land on such a roof instead of
    comparing heights, once for all the slices of a ray; the ratio is the
    same bit for bit.  Rays at one shared height, as the ordering's rays
    between 1.5 m patch centres are, always qualify; otherwise only a call
    with tables makes the test, which costs a pass over the map.
    The anchor maps share one kernel with this function and sample each
    ray's x/y once for all height slices with the same K.  Swapping a and b
    visits the same positions, but a sample exactly on a pixel edge may round
    into the other pixel, so the ratio is symmetric in endpoint order only up
    to such samples.
    """
    heights = np.asarray(heights, dtype=np.float64)
    if heights.ndim != 2:
        raise ValueError(f"heights must be a 2-D map, got shape {heights.shape}")
    _check("finite and > 0", resolution=resolution)
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.ndim != 2 or a.shape[1] != 3 or a.shape != b.shape:
        raise ValueError(f"ray endpoints a and b must both be (P, 3), got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("ray endpoints must be finite")
    return _blockage(heights, resolution, a, b[:, 0], b[:, 1], b[np.newaxis, :, 2])[0]


def blockage_ratio(scene_or_h, u_a, u_b) -> float:
    """Blocked fraction of the direct 3D path between two points in [0, 1].

    scene_or_h is a Scene or a HeightMap.  Each endpoint is an (x, y, z)
    3-vector in the map; any other shape is a ValueError naming both shapes.
    """
    h = scene_or_h.heightmap if isinstance(scene_or_h, Scene) else scene_or_h
    if not isinstance(h, HeightMap):
        raise ValidationError(f"scene_or_h must be a Scene or HeightMap, got {type(scene_or_h).__name__}")
    a = np.asarray(u_a, dtype=np.float64)
    b = np.asarray(u_b, dtype=np.float64)
    if a.shape != (3,) or b.shape != (3,):
        raise ValueError(f"endpoints u_a and u_b must both be (3,), got {a.shape} and {b.shape}")
    for p in (a, b):
        _check_in_map("endpoint", float(p[0]), float(p[1]), *h.extent)
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
    if z is not None:
        _check("finite", z=z)
    return _anchor_slices(scene, [scene.rx.z_rx if z is None else z])


def anchor_volume(scene: Scene) -> RadioField:
    """Anchor evaluated at every receiver slice height (n_z channels).

    A held result of the scene: calling again with the same Scene (as
    gen_field and its caller do) returns the same read-only field.  Scenes
    are frozen and their height maps own read-only copies, so a held volume
    cannot go stale.
    """
    return _held(scene, "anchor_volume", lambda: _anchor_slices(scene, scene.rx.slice_heights()))

"""Procedural scenes and pseudo ground-truth fields for desk-scale runs.

Cities are axis-aligned rectangular buildings placed without overlap, fully
deterministic from the seed.  Pseudo ground truth is the anchor map plus
optional gaussian smoothing and log-normal (dB-domain) noise, clamped to a
dataset pathloss range when asked.  Three preset layouts reproduce the
qualitative propagation regimes used in the entropy-map analysis: an edge
transmitter behind obstacle rows, an urban canyon, and sparse obstacles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import HeightMap, RadioField, RxConfig, Scene, TxConfig, UNIT_DB, ValidationError, _check
from .metrics import _windowed_mean
from .propagation import anchor_volume

# dataset pathloss range (top, bottom) in dB, by profile name
PATHLOSS_RANGES = {
    "radiomapseer": (-47.0, -147.0),
    "radiomap3dseer": (-75.0, -111.0),
    "urbanradio3d": (-92.0, -169.0),
}
HEIGHT_RANGES = {
    "radiomapseer": (25.0, 25.0),
    "radiomap3dseer": (6.6, 19.8),
    "urbanradio3d": (6.6, 19.8),
}
MAX_PLACEMENT_TRIES = 200  # random placements tried per building


class GenerationError(ValueError):
    """Placement could not satisfy the constraints within bounded retries."""


@dataclass(frozen=True)
class CityParams:
    side_px: int = 256
    resolution: float = 1.0
    n_buildings: int = 12
    height_range: tuple[float, float] = (6.6, 19.8)
    footprint_range: tuple[int, int] = (16, 48)  # pixels per building side
    seed: int = 0

    def __post_init__(self):
        _check("a pair", height_range=self.height_range, footprint_range=self.footprint_range)
        (lo, hi), (flo, fhi) = self.height_range, self.footprint_range
        _check("an integer >= 1", side_px=self.side_px, **{"footprint_range[0]": flo, "footprint_range[1]": fhi})
        _check("an integer >= 0", n_buildings=self.n_buildings, seed=self.seed)
        _check("finite and > 0", resolution=self.resolution)
        # a numpy float32 resolution would place gen_scene's transmitter in float32
        object.__setattr__(self, "resolution", float(self.resolution))
        _check("finite and >= 0", **{"height_range[0]": lo, "height_range[1]": hi})
        if hi < lo:
            raise ValidationError(f"bad height range {self.height_range}")
        if fhi < flo or fhi > self.side_px:
            raise ValidationError(f"bad footprint range {self.footprint_range}")


def dataset_profile(name: str, **overrides) -> CityParams:
    """CityParams emulating a published dataset's height envelope."""
    key = name.lower()
    if key not in HEIGHT_RANGES:
        raise ValueError(f"unknown dataset profile {name!r}")
    return replace(CityParams(height_range=HEIGHT_RANGES[key]), **overrides)


def gen_city(params: CityParams) -> HeightMap:
    """Non-overlapping rectangular buildings, deterministic from the seed."""
    rng = np.random.default_rng(params.seed)
    heights = np.zeros((params.side_px, params.side_px), dtype=np.float64)
    occupied = np.zeros_like(heights, dtype=bool)
    flo, fhi = params.footprint_range
    hlo, hhi = params.height_range
    for b in range(params.n_buildings):
        for _ in range(MAX_PLACEMENT_TRIES):
            w = int(rng.integers(flo, fhi + 1))
            h = int(rng.integers(flo, fhi + 1))
            r = int(rng.integers(0, params.side_px - h + 1))
            c = int(rng.integers(0, params.side_px - w + 1))
            if not occupied[r: r + h, c: c + w].any():
                heights[r: r + h, c: c + w] = rng.uniform(hlo, hhi)
                occupied[r: r + h, c: c + w] = True
                break
        else:
            raise GenerationError(
                f"could not place building {b + 1}/{params.n_buildings} "
                f"after {MAX_PLACEMENT_TRIES} tries (seed {params.seed})"
            )
    return HeightMap(heights, params.resolution)


def _open_pixel(rng: np.random.Generator, heights: np.ndarray) -> tuple[int, int]:
    free = np.flatnonzero(heights.ravel() == 0)
    if free.size == 0:
        raise GenerationError("no building-free pixel available for the transmitter")
    flat = int(free[rng.integers(free.size)])
    return flat // heights.shape[1], flat % heights.shape[1]


def gen_scene(
    params: CityParams,
    tx: TxConfig | None = None,
    rx: RxConfig | None = None,
) -> Scene:
    """City plus transmitter; the tx pixel is never covered by a building."""
    heightmap = gen_city(params)
    if tx is None:
        rng = np.random.default_rng(params.seed + 1)
        i, j = _open_pixel(rng, heightmap.values)
        res = params.resolution
        tx = TxConfig(x=(j + 0.5) * res, y=(i + 0.5) * res)
    return Scene(heightmap, tx, rx or RxConfig())


def _smooth(values: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of each height slice with edge-replicated borders.

    Same kernel (radius int(4 sigma + 0.5)) and summation order as ndimage's
    gaussian_filter(values, (0, sigma, sigma), mode="nearest"), so the result
    is bit-identical to it.
    """
    radius = int(4 * sigma + 0.5)
    if radius == 0:  # the kernel is [1.0]; sigma * sigma may underflow
        return values
    x = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * x**2)
    kernel /= kernel.sum()
    return np.stack([_windowed_mean(np.pad(v, radius, mode="edge"), kernel) for v in values])


def gen_field(
    scene: Scene,
    noise_sigma: float = 0.0,
    seed: int = 0,
    smooth_sigma: float = 0.0,
    clamp: tuple[float, float] | None = None,
) -> RadioField:
    """Pseudo ground truth: anchor map + smoothing + seeded dB noise.

    With noise_sigma=0 and smooth_sigma=0 the result is exactly the anchor
    map at every receiver slice.  The anchor volume is anchor_volume's, held
    by the scene as README's held-results table states, so a later
    anchor_volume(scene) returns it without casting rays again.
    clamp=(top, bottom) clips to a dataset's pathloss range.  A negative or
    non-finite sigma raises ValidationError; it never switches its step off.
    So does a smooth_sigma whose kernel radius, int(4 * sigma + 0.5) px,
    exceeds the larger map side: a wider kernel only adds weight on
    replicated border pixels, while its padding grows with sigma squared.
    A seed that is not an integer >= 0, or a clamp that is not a pair of
    finite numbers, raises ValidationError too.
    """
    _check("an integer >= 0", seed=seed)
    _check("finite and >= 0", noise_sigma=noise_sigma, smooth_sigma=smooth_sigma)
    if clamp is not None:
        _check("a pair", clamp=clamp)
        _check("finite", **{"clamp[0]": clamp[0], "clamp[1]": clamp[1]})
    smooth_sigma = float(smooth_sigma)  # a numpy float32 sigma would build a float32 kernel
    side = max(scene.heightmap.height_px, scene.heightmap.width_px)
    if int(4 * smooth_sigma + 0.5) > side:
        raise ValidationError(
            f"smooth_sigma {smooth_sigma!r} px gives a kernel radius beyond the {side} px map"
        )
    values = anchor_volume(scene).values
    if smooth_sigma > 0:
        values = _smooth(values, smooth_sigma)
    if noise_sigma > 0:
        values = values + np.random.default_rng(seed).normal(0.0, noise_sigma, size=values.shape)
    if clamp is not None:
        values = np.clip(values, min(clamp), max(clamp))
    return RadioField(values, UNIT_DB, scene.heightmap.resolution)


# ---------------------------------------------------------------------------
# propagation-regime presets


def _check_preset(name: str, seed: int, side_px: int, resolution: float, min_side: int) -> float:
    """Refuse a bad preset argument by name, and return resolution as a float.

    A numpy float32 resolution would place the transmitter in float32
    arithmetic; as a float it builds what its value builds.
    """
    _check("an integer >= 0", seed=seed)
    _check("an integer >= 1", side_px=side_px)
    _check("finite and > 0", resolution=resolution)
    if side_px < min_side:
        raise ValidationError(f"preset {name!r} needs side_px >= {min_side}, got {side_px}")
    return float(resolution)


def preset_edge_tx(seed: int = 0, side_px: int = 256, resolution: float = 1.0) -> Scene:
    """Transmitter at the map edge behind staggered obstacle rows."""
    # obstacles are side_px // 8 rows by side_px // 10 columns
    resolution = _check_preset("edge", seed, side_px, resolution, 10)
    rng = np.random.default_rng(seed)
    heights = np.zeros((side_px, side_px))
    for k in range(3):
        c0 = side_px // 4 + k * side_px // 5
        for r0 in range(side_px // 8 + (k % 2) * side_px // 6, side_px - side_px // 8, side_px // 4):
            heights[r0: r0 + side_px // 8, c0: c0 + side_px // 10] = rng.uniform(10, 20)
    tx = TxConfig(x=resolution * side_px * 0.03, y=resolution * side_px * (0.3 + 0.4 * rng.random()))
    return Scene(HeightMap(heights, resolution), tx)


def preset_urban_canyon(seed: int = 0, side_px: int = 256, resolution: float = 1.0) -> Scene:
    """Parallel slabs forming street canyons with crossing corridors."""
    # streets and corridors are side_px // 16 wide
    resolution = _check_preset("canyon", seed, side_px, resolution, 16)
    rng = np.random.default_rng(seed)
    heights = np.zeros((side_px, side_px))
    slab = side_px // 10
    street = side_px // 16
    cross = side_px // 2 + int(rng.integers(-side_px // 8, side_px // 8))
    for c0 in range(street, side_px - slab, slab + street):
        heights[side_px // 16: side_px - side_px // 16, c0: c0 + slab] = rng.uniform(12, 20)
        heights[cross: cross + street, c0: c0 + slab] = 0.0
    tx = TxConfig(x=resolution * street * 0.5, y=resolution * side_px * 0.5)
    return Scene(HeightMap(heights, resolution), tx)


def preset_sparse(seed: int = 0, side_px: int = 256, resolution: float = 1.0) -> Scene:
    """A handful of small isolated obstacles."""
    # its four footprints, up to max(3, side_px // 10) px a side, fit two by
    # two from side 6, but random placement still fails for 7 of seeds 0-999
    # there; from side 7 none of them does
    resolution = _check_preset("sparse", seed, side_px, resolution, 7)
    params = CityParams(
        side_px=side_px,
        resolution=resolution,
        n_buildings=4,
        height_range=(8.0, 15.0),
        footprint_range=(max(2, side_px // 16), max(3, side_px // 10)),
        seed=seed,
    )
    return gen_scene(params)


def _dihedral(heights: np.ndarray, tx_x: float, tx_y: float, side: float, k: int):
    if k & 1:
        heights = heights[:, ::-1]
        tx_x = side - tx_x
    if k & 2:
        heights = heights[::-1, :]
        tx_y = side - tx_y
    if k & 4:
        heights = heights.T
        tx_x, tx_y = tx_y, tx_x
    return heights.copy(), tx_x, tx_y


def preset_serpentine(seed: int = 0, side_px: int = 48, resolution: float = 1.0) -> Scene:
    """Maximal-detour regime: one serpentine street carved through a solid block.

    The map is a 3x3 patch layout (use patch_px = side_px // 3) filled with
    tall buildings except for a two-pixel corridor snaking through every
    patch center, so propagation from the corner transmitter has to follow
    the single street.  The corridor straddles each patch-center line, which
    keeps the center-to-center rays clear under all eight map orientations;
    the seed picks the orientation and the rooftop texture.
    """
    # side_px // 3 px patches must be wider than the two-pixel corridor
    resolution = _check_preset("serpentine", seed, side_px, resolution, 12)
    if side_px % 6:
        raise ValueError(f"serpentine preset needs side_px divisible by 6, got {side_px}")
    rng = np.random.default_rng(seed)
    pp = side_px // 3
    half = pp // 2
    heights = rng.uniform(30.0, 80.0, (side_px, side_px))
    for y in range(half, side_px, pp):  # a street along each patch-centre row
        heights[y - 1: y + 1, :] = 0.0
    for x, y in ((2 * pp + half, half), (half, pp + half)):  # joins rows y and y + pp at column x
        heights[y - 1: y + pp + 1, x - 1: x + 1] = 0.0
    hm, tx_x, tx_y = _dihedral(
        heights, half * resolution, half * resolution, side_px * resolution, seed % 8
    )
    return Scene(HeightMap(hm, resolution), TxConfig(tx_x, tx_y))


PRESETS = {
    "edge": preset_edge_tx,
    "canyon": preset_urban_canyon,
    "sparse": preset_sparse,
    "serpentine": preset_serpentine,
}

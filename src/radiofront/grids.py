"""Grid data model and bit-exact I/O.

Holds the height map, transmitter/receiver configuration, and radio fields,
plus the RGF1 binary grid format shared by every tool in the package.

Conventions:
  - pixel (i, j) means row i, column j; its center sits at
    ((j + 0.5) * resolution, (i + 0.5) * resolution) in meters
  - pathloss is stored as signed dB (negative values)
  - NaN anywhere is a validation error, never silently propagated

RGF1 grids and the entropy module's LTR1 traces share one little-endian
container (write_container/read_container): 4-byte magic | packed header |
float32 values.  The RGF1 header is u8 unit tag (0=meters, 1=dB,
2=normalized01) | u32 width | u32 height | u32 depth | f32 resolution, 21
bytes with the magic; the width*height*depth values are row-major within a
slice, slices outermost.  Data built from float32 round-trips bit-exactly.
Text reports share the row format of write_table.
"""

from __future__ import annotations

import csv
import math
import struct
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MAGIC = b"RGF1"
_RGF1_FMT = "<BIIIf"  # unit tag, width, height, depth, resolution
UNIT_METERS = "meters"
UNIT_DB = "dB"
UNIT_NORM01 = "normalized01"

_UNIT_TAGS = {UNIT_METERS: 0, UNIT_DB: 1, UNIT_NORM01: 2}
_TAG_UNITS = {v: k for k, v in _UNIT_TAGS.items()}

NORM_LO_DB = -47.0
NORM_HI_DB = -169.0

_CSV_HEADER = ["x", "y", "z", "value"]


class ValidationError(ValueError):
    """A grid or configuration violates its invariants."""


class GridFormatError(ValidationError):
    """A grid or trace file that does not hold a valid grid or trace."""


def _check_grid(values: np.ndarray, resolution: float, what: str) -> None:
    """At least one cell, every value finite, a finite positive resolution."""
    if values.size == 0:
        raise ValidationError(f"{what} has no cells")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} contains NaN or infinite values")
    if not 0 < resolution < math.inf:
        raise ValidationError("resolution must be finite and positive")


@dataclass(frozen=True)
class HeightMap:
    """2D grid of building heights in meters; the source of all blockage."""

    values: np.ndarray  # (height_px, width_px), meters
    resolution: float  # meters per pixel

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError("height map must be 2D")
        _check_grid(values, self.resolution, "height map")
        if np.any(values < 0):
            raise ValidationError("building heights must be >= 0")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def height_px(self) -> int:
        return self.values.shape[0]

    @property
    def width_px(self) -> int:
        return self.values.shape[1]

    @property
    def extent(self) -> tuple[float, float]:
        """(x_max, y_max) in meters."""
        return self.width_px * self.resolution, self.height_px * self.resolution


@dataclass(frozen=True)
class TxConfig:
    """Transmitter position and link-budget parameters."""

    x: float  # meters
    y: float  # meters
    z: float = 1.5  # meters above ground
    f: float = 5.9e9  # carrier frequency, Hz
    p_tx: float = 23.0  # transmit power, dBm
    w: float = 10e6  # bandwidth, Hz
    nf: float = 5.0  # noise figure, dB
    d0: float = 1.0  # near-field reference distance, meters

    def __post_init__(self):
        if not self.f > 0:
            raise ValidationError("carrier frequency must be positive")
        if not self.w > 0:
            raise ValidationError("bandwidth must be positive")
        if not self.d0 > 0:
            raise ValidationError("reference distance d0 must be positive")
        if self.z < 0:
            raise ValidationError("transmitter height must be >= 0")
        for name in ("x", "y", "z", "f", "p_tx", "w", "nf", "d0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"tx parameter {name} must be finite")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class RxConfig:
    """Receiver-height slicing: z_rx is the center of the height range."""

    z_rx: float = 1.5  # meters
    n_z: int = 1
    dz: float = 1.0  # slice spacing, meters

    def __post_init__(self):
        if self.n_z < 1:
            raise ValidationError("n_z must be >= 1")
        if self.n_z > 1 and not self.dz > 0:
            raise ValidationError("dz must be positive when n_z > 1")

    def slice_heights(self) -> np.ndarray:
        """z of each slice, centered on z_rx."""
        offsets = np.arange(self.n_z, dtype=np.float64) - (self.n_z - 1) / 2.0
        return self.z_rx + offsets * self.dz


@dataclass(frozen=True)
class RadioField:
    """Pathloss values over (n_z, height_px, width_px), dB or normalized."""

    values: np.ndarray
    unit: str
    resolution: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 2:
            values = values[np.newaxis, :, :]
        if values.ndim != 3:
            raise ValidationError("radio field must be 2D or 3D")
        _check_grid(values, self.resolution, "radio field")
        if self.unit not in (UNIT_DB, UNIT_NORM01):
            raise ValidationError(f"unknown field unit {self.unit!r}")
        if self.unit == UNIT_NORM01 and (np.any(values < 0) or np.any(values > 1)):
            raise ValidationError("normalized field has values outside [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_z(self) -> int:
        return self.values.shape[0]

    @property
    def height_px(self) -> int:
        return self.values.shape[1]

    @property
    def width_px(self) -> int:
        return self.values.shape[2]

    def slice(self, k: int = 0) -> np.ndarray:
        return self.values[k]


@dataclass(frozen=True)
class Scene:
    """Environment input: height map + transmitter + receiver configuration."""

    heightmap: HeightMap
    tx: TxConfig
    rx: RxConfig = field(default_factory=RxConfig)

    def __post_init__(self):
        x_max, y_max = self.heightmap.extent
        if not (0 <= self.tx.x < x_max and 0 <= self.tx.y < y_max):
            raise ValidationError(
                f"transmitter ({self.tx.x}, {self.tx.y}) outside map extent "
                f"[0, {x_max}) x [0, {y_max})"
            )

    def with_tx(self, **kwargs) -> "Scene":
        return Scene(self.heightmap, replace(self.tx, **kwargs), self.rx)


def rasterize_tx(scene: Scene) -> RadioField:
    """Single-channel mask: 1 at the pixel containing the transmitter."""
    h = scene.heightmap
    j = int(scene.tx.x / h.resolution)
    i = int(scene.tx.y / h.resolution)
    mask = np.zeros((1, h.height_px, h.width_px), dtype=np.float64)
    mask[0, i, j] = 1.0
    return RadioField(mask, UNIT_NORM01, h.resolution)


def normalize_db(
    fld: RadioField, lo: float = NORM_LO_DB, hi: float = NORM_HI_DB
) -> RadioField:
    """Min-max map from dB to [0, 1]: lo -> 1, hi -> 0, clamped outside."""
    if lo == hi:
        raise ValidationError("degenerate normalization range: lo == hi")
    if fld.unit != UNIT_DB:
        raise ValidationError("normalize_db expects a dB field")
    v = np.clip((fld.values - hi) / (lo - hi), 0.0, 1.0)
    return RadioField(v, UNIT_NORM01, fld.resolution)


def denormalize_db(
    fld: RadioField, lo: float = NORM_LO_DB, hi: float = NORM_HI_DB
) -> RadioField:
    """Inverse of normalize_db within the clamp range."""
    if lo == hi:
        raise ValidationError("degenerate normalization range: lo == hi")
    if fld.unit != UNIT_NORM01:
        raise ValidationError("denormalize_db expects a normalized field")
    v = hi + fld.values * (lo - hi)
    return RadioField(v, UNIT_DB, fld.resolution)


def atomic_write(path: str | Path, data: bytes | str) -> None:
    """Write data to a sibling temp file, then rename it over path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    tmp.replace(path)


def write_table(path: str | Path, columns, rows) -> None:
    """A ``,``-joined header line, then one line per row of Python numbers in
    repr form (pass numpy values through ``.tolist()``); LF endings, atomic."""
    lines = [",".join(columns), *(",".join(map(repr, row)) for row in rows)]
    atomic_write(path, "\n".join(lines) + "\n")


def write_container(path: str | Path, magic: bytes, fmt: str, fields, values) -> None:
    """Write magic, the header fields packed with struct format fmt, then values as <f4."""
    header = magic + struct.pack(fmt, *fields)
    atomic_write(path, header + values.astype("<f4").tobytes())


def read_container(path: str | Path, magic: bytes, fmt: str, shape) -> tuple[tuple, np.ndarray]:
    """Header fields and float64 payload of a write_container file; shape maps
    the fields to the payload's shape, which the file length must match."""
    raw = Path(path).read_bytes()
    size = 4 + struct.calcsize(fmt)
    if len(raw) < size:
        raise GridFormatError(f"{path}: file shorter than the {size}-byte header")
    if raw[:4] != magic:
        raise GridFormatError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    fields = struct.unpack(fmt, raw[4:size])
    dims = shape(*fields)
    n = 4 * math.prod(dims)
    if len(raw) != size + n:
        raise GridFormatError(f"{path}: payload length {len(raw) - size} bytes, expected {n}")
    values = np.frombuffer(raw, dtype="<f4", offset=size).astype(np.float64)
    return fields, values.reshape(dims)


def save_grid(grid: HeightMap | RadioField, path: str | Path) -> None:
    """Write a grid in RGF1 format; load_grid inverts it bit-exactly."""
    if isinstance(grid, HeightMap):
        tag = _UNIT_TAGS[UNIT_METERS]
        values = grid.values[np.newaxis, :, :]
    elif isinstance(grid, RadioField):
        tag = _UNIT_TAGS[grid.unit]
        values = grid.values
    else:
        raise TypeError(f"cannot save {type(grid).__name__} as a grid")
    depth, height, width = values.shape
    fields = (tag, width, height, depth, float(grid.resolution))
    write_container(path, MAGIC, _RGF1_FMT, fields, values)


def load_grid(path: str | Path) -> HeightMap | RadioField:
    """Read an RGF1 grid; the unit tag decides HeightMap vs RadioField."""
    (tag, _, _, depth, resolution), values = read_container(
        path, MAGIC, _RGF1_FMT, lambda tag, w, h, d, res: (d, h, w)
    )
    if tag not in _TAG_UNITS:
        raise GridFormatError(f"{path}: unknown unit tag {tag}")
    unit = _TAG_UNITS[tag]
    if unit == UNIT_METERS and depth != 1:
        raise GridFormatError(f"{path}: height map must have depth 1, got {depth}")
    try:
        if unit == UNIT_METERS:
            return HeightMap(values[0], float(resolution))
        return RadioField(values, unit, float(resolution))
    except ValidationError as exc:
        raise GridFormatError(f"{path}: {exc}") from None


def grid_from_csv(
    path: str | Path, unit: str = UNIT_DB, resolution: float = 1.0
) -> HeightMap | RadioField:
    """Import a dense grid from UTF-8 CSV with header ``x,y,z,value``.

    x is the column index, y the row index, z the slice index.  Every cell
    of the implied (z, y, x) box must be present exactly once, with a finite
    value (and a non-negative one for meters).
    """
    cells, vals, lines = array("q"), array("d"), array("q")  # cells: x, y, z per row
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [c.strip().lower() for c in next(reader, [])]
            if header == _CSV_HEADER:
                add_cell, add_val, add_line = cells.append, vals.append, lines.append
                for r in reader:
                    add_cell(int(r[0]))
                    add_cell(int(r[1]))
                    add_cell(int(r[2]))
                    add_val(float(r[3]))
                    add_line(reader.line_num)
    except UnicodeDecodeError:
        raise GridFormatError(f"{path}: not UTF-8 text") from None
    except (IndexError, ValueError, csv.Error):
        raise GridFormatError(
            f"{path}: line {reader.line_num}: expected integer x,y,z and a numeric value"
        ) from None
    except OverflowError:
        raise GridFormatError(f"{path}: line {reader.line_num}: cell index beyond int64") from None
    if header != _CSV_HEADER:
        raise GridFormatError(f"{path}: expected CSV header 'x,y,z,value'")
    if not vals:
        raise GridFormatError(f"{path}: no data rows")

    def reject_first(bad: np.ndarray, what: str) -> None:
        if bad.any():
            raise GridFormatError(f"{path}: line {lines[int(np.argmax(bad))]}: {what}")

    vals = np.frombuffer(vals)
    reject_first(~np.isfinite(vals), "value is not finite")
    if unit == UNIT_METERS:
        reject_first(vals < 0, "building height is negative")
    if unit == UNIT_NORM01:
        reject_first((vals < 0) | (vals > 1), "normalized value outside [0, 1]")
    xyz = np.frombuffer(cells, dtype=np.int64).reshape(-1, 3)
    reject_first((xyz < 0).any(axis=1), "negative cell index")
    width, height, depth = (int(m) + 1 for m in xyz.max(axis=0))
    if len(vals) != width * height * depth:
        raise GridFormatError(
            f"{path}: {len(vals)} rows do not fill a {width}x{height}x{depth} grid"
        )
    x, y, z = xyz.T
    flat = (z * height + y) * width + x
    reject_first(np.bincount(flat)[flat] > 1, "duplicate cell")
    values = np.empty(len(vals))
    values[flat] = vals  # no duplicates among width*height*depth rows: every cell set
    values = values.reshape(depth, height, width)
    if unit == UNIT_METERS:
        if depth != 1:
            raise GridFormatError(f"{path}: height map must have depth 1")
        return HeightMap(values[0], resolution)
    return RadioField(values, unit, resolution)


def grid_to_csv(grid: HeightMap | RadioField, path: str | Path) -> None:
    """Export a grid as ``x,y,z,value`` CSV ('.' decimal, locale-free)."""
    values = grid.values[np.newaxis] if isinstance(grid, HeightMap) else grid.values
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for z, plane in enumerate(values):
            for y, row in enumerate(plane):
                writer.writerows([x, y, z, repr(v)] for x, v in enumerate(row.tolist()))

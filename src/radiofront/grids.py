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

This is the layer every other module and the CLI load, so it also holds
what they share: the number rule, held results, shannon_entropy and the
names the CLI offers as choices (order kinds, preset layouts, pathloss
profiles).
"""

from __future__ import annotations

import csv
import math
import os
import struct
import threading
from array import array
from dataclasses import dataclass, field, fields, replace
from itertools import chain, count
from numbers import Integral, Real
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
_CSV_ROW = np.dtype([("x", "<i8"), ("y", "<i8"), ("z", "<i8"), ("value", "<f8")])
# numpy 2.4's loadtxt refuses a cell such as '1.0' or '1e0' in an int64 column
# whatever the warning filters; from 1.23 it read one through a float and
# only warned (a DeprecationWarning, which the default filters hide), so
# grid CSV goes through the C parser from 2.4 on and through the loop before
_LOADTXT_STRICT_INTS = np.lib.NumpyVersion(np.__version__) >= "2.4.0"

# the keys of synth.PATHLOSS_RANGES, synth.PRESETS and ordering.GEOMETRIC_ORDERS,
# in their order (tests/test_cli.py holds them equal)
PATHLOSS_PROFILES = ("radiomapseer", "radiomap3dseer", "urbanradio3d")
PRESET_NAMES = ("edge", "canyon", "sparse", "serpentine")
GEOMETRIC_KINDS = ("raster", "hilbert", "zcurve", "subsample", "alternative")
ORDER_KINDS = ("wavefront", "priorPL", "truePL", *GEOMETRIC_KINDS, "custom")


class ValidationError(ValueError):
    """A grid or configuration violates its invariants."""


class GridFormatError(ValidationError):
    """A grid or trace file that does not hold a valid grid or trace."""


def _finite(value) -> bool:
    """The one number rule: a numbers.Real that is not a bool, NaN or infinite.

    So a 0-d array, a string or None is not a number; numpy scalars are.
    """
    return isinstance(value, Real) and not isinstance(value, bool) and (
        isinstance(value, Integral) or math.isfinite(value)
    )


def _length(value) -> int:
    """len(value), or -1 for a value that has none."""
    try:
        return len(value)
    except TypeError:
        return -1


_RULES = {
    "finite": _finite,
    "finite and > 0": lambda v: _finite(v) and v > 0,
    "finite and >= 0": lambda v: _finite(v) and v >= 0,
    "an integer >= 1": lambda v: _finite(v) and isinstance(v, Integral) and v >= 1,
    "an integer >= 0": lambda v: _finite(v) and isinstance(v, Integral) and v >= 0,
    # the tuple fields, checked before their members are
    "a pair": lambda v: _length(v) == 2,
    "a triple": lambda v: _length(v) == 3,
    "a non-empty sequence": lambda v: _length(v) > 0,
}


def _check(rule: str, **values) -> None:
    """Refuse the first value that breaks rule, a key of _RULES, naming it.

    The ValidationError reads '<name> must be <rule>, got <value!r>'.
    """
    for name, value in values.items():
        if not _RULES[rule](value):
            raise ValidationError(f"{name} must be {rule}, got {value!r}")


def _check_grid(values: np.ndarray, resolution: float, what: str) -> None:
    """At least one cell, every value finite, a finite positive resolution."""
    if values.size == 0:
        raise ValidationError(f"{what} has no cells")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} contains NaN or infinite values")
    _check("finite and > 0", resolution=resolution)


def shannon_entropy(p) -> float:
    """-sum(p log p) over the cells of a probability array; zero cells add 0."""
    p = np.asarray(p).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _fields_equal(self, other) -> bool:
    """`==` for frozen dataclasses that hold arrays: same type, arrays equal by value, the rest by `==`.

    The generated `__eq__` compares a tuple of the fields, which raises for
    arrays of more than one element.  Hashing is left as generated, so these
    objects stay unhashable.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        mine, theirs = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs):
            return False
    return True


# Held results: values derived from an immutable owner, computed once and kept
# in the owner's __dict__ under _HELD, so they live and die with it.
_HELD = "_held"
_held_lock = threading.Lock()


def _held(owner, key, build, cap=None):
    """owner's held value for key, from build() on the first request.

    A hit makes key the most recently used; past cap keys, the least
    recently used is dropped.  build runs outside the lock: two callers that
    miss at once may each build the value, and both get the one stored first.
    """
    with _held_lock:
        store = owner.__dict__.setdefault(_HELD, {})
        if key in store:
            store[key] = value = store.pop(key)
            return value
    value = build()
    with _held_lock:
        value = store.setdefault(key, value)
        while cap is not None and len(store) > cap:
            del store[next(iter(store))]
    return value


def _without_held(self):
    """`__getstate__` of an owner of held results: pickle, copy and deepcopy leave them out."""
    return {k: v for k, v in self.__dict__.items() if k != _HELD}


@dataclass(frozen=True)
class HeightMap:
    """2D grid of building heights in meters; the source of all blockage."""

    values: np.ndarray  # (height_px, width_px), meters
    resolution: float  # meters per pixel

    __eq__ = _fields_equal
    __getstate__ = _without_held

    def __post_init__(self):
        # an own copy: a view of the caller's array could change under a held result
        values = np.array(self.values, dtype=np.float64)
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
        _check("finite", x=self.x, y=self.y, p_tx=self.p_tx, nf=self.nf)
        _check("finite and >= 0", z=self.z)
        _check("finite and > 0", f=self.f, w=self.w, d0=self.d0)

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
        _check("finite", z_rx=self.z_rx, dz=self.dz)
        _check("an integer >= 1", n_z=self.n_z)
        if self.n_z > 1 and not self.dz > 0:
            raise ValidationError(f"dz must be > 0 when n_z > 1, got {self.dz!r}")

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

    __eq__ = _fields_equal

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 2:
            values = values[np.newaxis, :, :]
        if values.ndim != 3:
            raise ValidationError("radio field must be 2D or 3D")
        _check_grid(values, self.resolution, "radio field")
        if self.unit not in (UNIT_DB, UNIT_NORM01):
            raise ValidationError(f"unknown field unit {self.unit!r}")
        if self.unit == UNIT_NORM01 and (values.min() < 0 or values.max() > 1):
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

    __getstate__ = _without_held

    def __post_init__(self):
        for name, kind in (("heightmap", HeightMap), ("tx", TxConfig), ("rx", RxConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValidationError(f"scene {name} must be a {kind.__name__}, got {type(value).__name__}")
        _check_in_map("transmitter", self.tx.x, self.tx.y, *self.heightmap.extent)

    def with_tx(self, **kwargs) -> "Scene":
        return Scene(self.heightmap, replace(self.tx, **kwargs), self.rx)


def _check_in_map(what: str, x, y, x_max: float, y_max: float) -> None:
    """Refuse a point (x, y) outside [0, x_max) x [0, y_max), or not finite, as `what`."""
    if not (0 <= x < x_max and 0 <= y < y_max):
        raise ValidationError(f"{what} ({x!r}, {y!r}) lies outside the map extent [0, {x_max!r}) x [0, {y_max!r}) m")


def _cell(coord: float, size: float, n_cells: int) -> int:
    """The cell of n_cells cells of length size that holds coord in [0, n_cells * size).

    A coord just inside the far edge may divide to n_cells; it lies in the last cell.
    """
    return min(int(coord / size), n_cells - 1)


def rasterize_tx(scene: Scene) -> RadioField:
    """Single-channel mask: 1 at the pixel containing the transmitter."""
    h = scene.heightmap
    j = _cell(scene.tx.x, h.resolution, h.width_px)
    i = _cell(scene.tx.y, h.resolution, h.height_px)
    mask = np.zeros((1, h.height_px, h.width_px), dtype=np.float64)
    mask[0, i, j] = 1.0
    return RadioField(mask, UNIT_NORM01, h.resolution)


def normalize_db(
    fld: RadioField, lo: float = NORM_LO_DB, hi: float = NORM_HI_DB
) -> RadioField:
    """Min-max map from dB to [0, 1]: lo -> 1, hi -> 0, clamped outside."""
    _check("finite", lo=lo, hi=hi)
    if lo == hi:
        raise ValidationError("degenerate normalization range: lo == hi")
    if not isinstance(fld, RadioField) or fld.unit != UNIT_DB:
        raise ValidationError("normalize_db expects a RadioField in dB")
    v = fld.values - hi  # divided and clipped in place: np.clip((values - hi) / (lo - hi), 0, 1)
    return RadioField(np.clip(np.divide(v, lo - hi, out=v), 0.0, 1.0, out=v), UNIT_NORM01, fld.resolution)


def denormalize_db(
    fld: RadioField, lo: float = NORM_LO_DB, hi: float = NORM_HI_DB
) -> RadioField:
    """Inverse of normalize_db within the clamp range."""
    _check("finite", lo=lo, hi=hi)
    if lo == hi:
        raise ValidationError("degenerate normalization range: lo == hi")
    if not isinstance(fld, RadioField) or fld.unit != UNIT_NORM01:
        raise ValidationError("denormalize_db expects a RadioField in normalized units")
    v = hi + fld.values * (lo - hi)
    return RadioField(v, UNIT_DB, fld.resolution)


_temp_ids = count()


def atomic_write(path: str | Path, data) -> None:
    """Write data to a sibling temp file, then rename it over path.

    data is bytes, str (written as UTF-8) or a sequence of buffers written
    one after another, so an array reaches the file without a joined copy.
    The temp file is '<name>.<pid>.<thread id>.<n>.tmp', n counting this
    process's writes, so writers of one path never share one; <name> is at
    most path's first 32 characters, so any name the file system takes for
    path fits.  It is created exclusively, with the permissions
    open(path, "wb") gives.  If the write
    or the rename fails, the temp file is removed and the error re-raised;
    path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name[:32]}.{os.getpid()}.{threading.get_ident()}.{next(_temp_ids)}.tmp")
    if isinstance(data, (bytes, str)):
        data = [data.encode() if isinstance(data, str) else data]
    try:
        with open(tmp, "xb") as fh:
            for chunk in data:
                fh.write(chunk)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_table(path: str | Path, columns, rows) -> None:
    """A ``,``-joined header line, then one line per row of Python numbers in
    repr form (pass numpy values through ``.tolist()``); LF endings, atomic."""
    lines = [",".join(columns), *(",".join(map(repr, row)) for row in rows)]
    atomic_write(path, "\n".join(lines) + "\n")


def _as_float32(path: str | Path, values: np.ndarray) -> np.ndarray:
    """values as a C-ordered <f4 array, or ValidationError naming path for a
    value beyond the float32 range: the rule of every binary writer."""
    with np.errstate(over="ignore"):
        payload = values.astype("<f4", order="C")
    if not np.isfinite(payload).all():
        raise ValidationError(f"{path}: a value lies beyond the float32 range (+-3.4e38)")
    return payload


def write_container(path: str | Path, magic: bytes, fmt: str, fields, values) -> None:
    """Write magic, the header fields packed with struct format fmt, then values as <f4.

    A value or header float that float32 cannot hold raises ValidationError
    naming path, so no file is written that its reader would refuse: one
    beyond the float32 range, or a nonzero header float that rounds to 0.
    """
    payload = _as_float32(path, values)
    header = np.array([f for f in fields if isinstance(f, float)])
    with np.errstate(over="ignore"):
        header32 = header.astype("<f4")
    fits = np.isfinite(header32) & ((header32 != 0) | (header == 0))
    if not fits.all():
        bad = float(header[~fits][0])
        raise ValidationError(f"{path}: header value {bad!r} does not fit float32")
    atomic_write(path, [magic + struct.pack(fmt, *fields), payload])


def read_container(path: str | Path, magic: bytes, fmt: str, shape) -> tuple[tuple, np.ndarray]:
    """Header fields and payload of a write_container file; shape maps the
    fields to the payload's shape, which the file length must match.

    The payload is a read-only <f4 view of the file's bytes: the grid or
    trace built from it converts it to float64 in its one copy.
    """
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
    return fields, np.frombuffer(raw, dtype="<f4", offset=size).reshape(dims)


def _volume(grid: HeightMap | RadioField) -> tuple[str, np.ndarray]:
    """A grid's unit and its (depth, h, w) values: a height map is one meters slice."""
    if isinstance(grid, HeightMap):
        return UNIT_METERS, grid.values[np.newaxis]
    if isinstance(grid, RadioField):
        return grid.unit, grid.values
    raise TypeError(f"cannot save {type(grid).__name__} as a grid")


def _grid(path: str | Path, unit: str, values: np.ndarray, resolution: float):
    """The grid of a file's (depth, h, w) values, or GridFormatError starting with path."""
    try:
        if unit != UNIT_METERS:
            return RadioField(values, unit, resolution)
        if len(values) != 1:
            raise ValidationError(f"height map must have depth 1, got {len(values)}")
        return HeightMap(values[0], resolution)
    except ValidationError as exc:
        raise GridFormatError(f"{path}: {exc}") from None


def save_grid(grid: HeightMap | RadioField, path: str | Path) -> None:
    """Write a grid in RGF1 format; load_grid inverts it bit-exactly."""
    unit, values = _volume(grid)
    fields = (_UNIT_TAGS[unit], *values.shape[::-1], float(grid.resolution))  # width, height, depth
    write_container(path, MAGIC, _RGF1_FMT, fields, values)


def load_grid(path: str | Path) -> HeightMap | RadioField:
    """Read an RGF1 grid; the unit tag decides HeightMap vs RadioField."""
    (tag, *_, resolution), values = read_container(
        path, MAGIC, _RGF1_FMT, lambda tag, w, h, d, res: (d, h, w)
    )
    if tag not in _TAG_UNITS:
        raise GridFormatError(f"{path}: unknown unit tag {tag}")
    return _grid(path, _TAG_UNITS[tag], values, float(resolution))


def _csv_rows_c(path: str | Path) -> np.ndarray | None:
    """The data rows of a grid CSV through numpy's C parser, or None for the loop to read.

    The parser takes less than the loop (no quotes, no underscores, ASCII
    digits, int64 only) and gives the same numbers, but it skips blank lines
    and has no field-size limit.  So a numpy before 2.4, any exception, a
    line longer than csv's field limit, a header the loop would read
    otherwise or a line count other than the rows + 1 returns None.  A file without data rows never
    reaches the parser, which would warn: warning filters are process-wide,
    so this function changes none.
    """
    if not _LOADTXT_STRICT_INTS:
        return None
    limit, n_lines = csv.field_size_limit(), 0

    def lines(fh):
        nonlocal n_lines
        for n_lines, line in enumerate(fh, 1):
            if len(line) > limit:
                raise ValueError("line beyond the csv field limit")
            yield line

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            body = lines(fh)
            header, first = next(body), next(body, "")
            if not first or [c.strip().lower() for c in header.split(",")] != _CSV_HEADER:
                return None
            rows = np.loadtxt(chain([first], body), dtype=_CSV_ROW, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except Exception:  # the loop reads, or refuses, whatever the parser does not take
        return None
    return rows if n_lines == len(rows) + 1 else None


def _csv_rows_loop(path: str | Path) -> tuple[np.ndarray, np.ndarray, array]:
    """(x, y, z) cells, values and line numbers of a grid CSV's data rows, read row by row."""
    cells, vals, lines = array("q"), array("d"), array("q")  # cells: x, y, z per row
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [c.strip().lower() for c in next(reader, [])]
            if header == _CSV_HEADER:
                add_cell, add_val, add_line = cells.append, vals.append, lines.append
                for x, y, z, v in reader:  # a row of any other length raises ValueError
                    add_cell(int(x))
                    add_cell(int(y))
                    add_cell(int(z))
                    add_val(float(v))
                    add_line(reader.line_num)
    except UnicodeDecodeError:
        raise GridFormatError(f"{path}: not UTF-8 text") from None
    except (ValueError, csv.Error):
        raise GridFormatError(
            f"{path}: line {reader.line_num}: "
            "expected four fields, integer x,y,z and a numeric value"
        ) from None
    except OverflowError:
        raise GridFormatError(f"{path}: line {reader.line_num}: cell index beyond int64") from None
    if header != _CSV_HEADER:
        raise GridFormatError(f"{path}: expected CSV header 'x,y,z,value'")
    if not vals:
        raise GridFormatError(f"{path}: no data rows")
    return np.frombuffer(cells, dtype=np.int64).reshape(-1, 3), np.frombuffer(vals), lines


def grid_from_csv(
    path: str | Path, unit: str = UNIT_DB, resolution: float = 1.0
) -> HeightMap | RadioField:
    """Import a dense grid from UTF-8 CSV with header ``x,y,z,value``.

    x is the column index, y the row index, z the slice index.  Each row
    holds exactly these four fields.  Every cell of the implied (z, y, x) box
    must be present exactly once, with a finite value (and a non-negative one
    for meters).

    numpy's C parser reads the file first; a file it cannot vouch for is
    read again by a csv-module loop, whose refusal names the line.  Both
    give the same grid or the same error.
    """
    rows = _csv_rows_c(path)
    if rows is None:
        xyz, vals, lines = _csv_rows_loop(path)
    else:  # one row per line after the header; the int64 and float64 fields share one 8-byte stride
        xyz, vals, lines = rows.view(np.int64).reshape(-1, 4)[:, :3], rows["value"], range(2, len(rows) + 2)

    def reject_first(bad: np.ndarray, what: str) -> None:
        if bad.any():
            raise GridFormatError(f"{path}: line {lines[int(np.argmax(bad))]}: {what}")

    reject_first(~np.isfinite(vals), "value is not finite")
    if unit == UNIT_METERS:
        reject_first(vals < 0, "building height is negative")
    if unit == UNIT_NORM01:
        reject_first((vals < 0) | (vals > 1), "normalized value outside [0, 1]")
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
    return _grid(path, unit, values.reshape(depth, height, width), resolution)


def grid_to_csv(grid: HeightMap | RadioField, path: str | Path) -> None:
    """Export a grid as ``x,y,z,value`` CSV ('.' decimal, locale-free)."""
    _, values = _volume(grid)
    xs = [str(x) for x in range(values.shape[2])]
    lines = [",".join(_CSV_HEADER) + "\r\n"]
    for z, plane in enumerate(values):
        for y, row in enumerate(plane.tolist()):
            yz = f",{y},{z},"
            lines.append("".join([f"{x}{yz}{v!r}\r\n" for x, v in zip(xs, row)]))
    atomic_write(path, "".join(lines))

"""Grid types, RGF1 round-trips, transmitter rasterization, normalization."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from radiofront import (
    GridFormatError,
    HeightMap,
    LogitTrace,
    RadioField,
    RxConfig,
    Scene,
    TxConfig,
    UNIT_DB,
    UNIT_METERS,
    UNIT_NORM01,
    ValidationError,
    denormalize_db,
    grid_from_csv,
    grid_to_csv,
    load_grid,
    load_trace,
    normalize_db,
    rasterize_tx,
    save_grid,
    save_trace,
)
from radiofront.grids import atomic_write


def random_grid(rng):
    """Random HeightMap or RadioField with float32-clean values."""
    h = int(rng.integers(1, 12))
    w = int(rng.integers(1, 12))
    res = float(np.float32(rng.uniform(0.25, 4.0)))
    kind = rng.integers(3)
    if kind == 0:
        vals = rng.uniform(0, 40, size=(h, w)).astype(np.float32)
        return HeightMap(vals, res)
    if kind == 1:
        nz = int(rng.integers(1, 4))
        vals = rng.uniform(-169, -47, size=(nz, h, w)).astype(np.float32)
        return RadioField(vals, UNIT_DB, res)
    nz = int(rng.integers(1, 4))
    vals = rng.uniform(0, 1, size=(nz, h, w)).astype(np.float32)
    return RadioField(vals, UNIT_NORM01, res)


def grids_equal(a, b):
    if type(a) is not type(b):
        return False
    if a.resolution != b.resolution:
        return False
    return np.array_equal(a.values, b.values)


class TestRgf1RoundTrip:
    def test_zero_grid(self, tmp_path):
        g = HeightMap(np.zeros((2, 2)), 1.0)
        save_grid(g, tmp_path / "z.rgf")
        loaded = load_grid(tmp_path / "z.rgf")
        assert isinstance(loaded, HeightMap)
        assert np.array_equal(loaded.values, np.zeros((2, 2)))

    def test_roundtrip_random_grids(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(100):
            g = random_grid(rng)
            path = tmp_path / f"g{i}.rgf"
            save_grid(g, path)
            assert grids_equal(load_grid(path), g)

    def test_volumetric_shape(self, tmp_path):
        # dataset-sized volume: 256 x 256 x 20 declared in the header
        vals = np.zeros((20, 256, 256), dtype=np.float32) - 100.0
        save_grid(RadioField(vals, UNIT_DB), tmp_path / "v.rgf")
        loaded = load_grid(tmp_path / "v.rgf")
        assert (loaded.n_z, loaded.height_px, loaded.width_px) == (20, 256, 256)

    def test_single_value_file_size(self, tmp_path):
        # 21-byte header + 4-byte payload
        save_grid(HeightMap([[25.0]], 1.0), tmp_path / "one.rgf")
        assert (tmp_path / "one.rgf").stat().st_size == 25

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.rgf"
        p.write_bytes(b"NOPE" + bytes(21))
        with pytest.raises(GridFormatError, match="magic"):
            load_grid(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.rgf"
        save_grid(HeightMap(np.ones((3, 3)), 1.0), p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(GridFormatError, match="length"):
            load_grid(p)

    def test_nan_rejected_before_write(self):
        vals = np.ones((2, 2))
        vals[0, 1] = np.nan
        with pytest.raises(ValidationError):
            HeightMap(vals, 1.0)
        with pytest.raises(ValidationError):
            RadioField(vals, UNIT_DB)

    def test_nan_payload_rejected_on_load(self, tmp_path):
        p = tmp_path / "nan.rgf"
        save_grid(HeightMap(np.ones((2, 2)), 1.0), p)
        raw = bytearray(p.read_bytes())
        raw[21:25] = np.array([np.nan], dtype="<f4").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(ValidationError):
            load_grid(p)


class TestInvariants:
    def test_negative_height_rejected(self):
        with pytest.raises(ValidationError):
            HeightMap([[-1.0]], 1.0)

    def test_bad_resolution(self):
        with pytest.raises(ValidationError):
            HeightMap([[0.0]], 0.0)

    @pytest.mark.parametrize("resolution", [np.inf, np.nan])
    def test_non_finite_resolution(self, resolution):
        with pytest.raises(ValidationError, match="resolution"):
            HeightMap([[0.0]], resolution)
        with pytest.raises(ValidationError, match="resolution"):
            RadioField([[-80.0]], UNIT_DB, resolution)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_grid_without_cells(self, shape):
        with pytest.raises(ValidationError, match="no cells"):
            HeightMap(np.zeros(shape), 1.0)
        with pytest.raises(ValidationError, match="no cells"):
            RadioField(np.zeros(shape), UNIT_DB)

    def test_normalized_range_enforced(self):
        with pytest.raises(ValidationError):
            RadioField(np.full((1, 2, 2), 1.5), UNIT_NORM01)

    def test_tx_outside_extent(self):
        hm = HeightMap(np.zeros((4, 4)), 1.0)
        with pytest.raises(ValidationError, match="extent"):
            Scene(hm, TxConfig(4.2, 1.0, 1.5, 5.9e9))

    def test_rx_slices(self):
        rx = RxConfig(z_rx=10.0, n_z=5, dz=2.0)
        assert np.allclose(rx.slice_heights(), [6.0, 8.0, 10.0, 12.0, 14.0])
        with pytest.raises(ValidationError):
            RxConfig(n_z=0)


class TestRasterizeTx:
    def test_origin_pixel(self):
        sc = Scene(HeightMap(np.zeros((4, 4)), 1.0), TxConfig(0.2, 0.3, 1.5, 5.9e9))
        mask = rasterize_tx(sc)
        assert mask.values[0, 0, 0] == 1.0
        assert mask.values.sum() == 1.0

    def test_floor_convention(self):
        sc = Scene(
            HeightMap(np.zeros((256, 256)), 1.0),
            TxConfig(127.5, 127.5, 1.5, 5.9e9),
        )
        mask = rasterize_tx(sc)
        assert mask.values[0, 127, 127] == 1.0

    def test_mask_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            side = int(rng.integers(2, 40))
            res = float(rng.uniform(0.5, 3.0))
            x = float(rng.uniform(0, side * res))
            y = float(rng.uniform(0, side * res))
            sc = Scene(HeightMap(np.zeros((side, side)), res), TxConfig(x, y, 1.5, 1e9))
            assert rasterize_tx(sc).values.sum() == 1.0


class TestNormalization:
    def test_range_endpoints(self):
        fld = RadioField(np.array([[[-47.0, -169.0]]]), UNIT_DB)
        out = normalize_db(fld)
        assert out.values[0, 0, 0] == 1.0
        assert out.values[0, 0, 1] == 0.0

    def test_midpoint(self):
        fld = RadioField(np.array([[[-108.0]]]), UNIT_DB)
        assert normalize_db(fld).values[0, 0, 0] == pytest.approx(0.5)

    def test_clamp_below(self):
        fld = RadioField(np.array([[[-200.0]]]), UNIT_DB)
        assert normalize_db(fld).values[0, 0, 0] == 0.0

    def test_roundtrip_within_range(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(-169, -47, size=(2, 5, 5))
        fld = RadioField(vals, UNIT_DB)
        back = denormalize_db(normalize_db(fld))
        assert np.max(np.abs(back.values - vals)) < 1e-6

    def test_degenerate_range(self):
        fld = RadioField(np.zeros((1, 1, 1)) - 50, UNIT_DB)
        with pytest.raises(ValidationError, match="degenerate"):
            normalize_db(fld, lo=-100.0, hi=-100.0)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        fld = RadioField(rng.uniform(-120, -50, size=(2, 3, 4)), UNIT_DB)
        grid_to_csv(fld, tmp_path / "f.csv")
        back = grid_from_csv(tmp_path / "f.csv", unit=UNIT_DB)
        assert np.array_equal(back.values, fld.values)

    def test_writer_bytes(self, tmp_path):
        fld = RadioField([[[-60.0, -70.25]], [[-0.1, -80.0]]], UNIT_DB)
        grid_to_csv(fld, tmp_path / "f.csv")
        rows = ["x,y,z,value", "0,0,0,-60.0", "1,0,0,-70.25", "0,0,1,-0.1", "1,0,1,-80.0"]
        assert (tmp_path / "f.csv").read_bytes() == "".join(r + "\r\n" for r in rows).encode()

    def test_reader_peak_memory(self, tmp_path):
        # typed arrays, not a Python tuple per row: the peak stays a small multiple of the field
        fld = RadioField(np.random.default_rng(9).uniform(-140, -60, (3, 128, 128)), UNIT_DB)
        grid_to_csv(fld, tmp_path / "f.csv")
        tracemalloc.start()
        try:
            back = grid_from_csv(tmp_path / "f.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, fld.values)
        assert peak < 15 * fld.values.nbytes

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(GridFormatError, match="header"):
            grid_from_csv(p)

    def test_missing_cell(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("x,y,z,value\n0,0,0,1.0\n1,1,0,2.0\n")
        with pytest.raises(GridFormatError):
            grid_from_csv(p)

    def test_negative_index_rejected(self, tmp_path):
        # x=-1 would wrap onto column 1 and fill a 2x2 grid
        p = tmp_path / "neg.csv"
        p.write_text("x,y,z,value\n0,0,0,1.0\n1,0,0,2.0\n0,1,0,3.0\n-1,1,0,4.0\n")
        with pytest.raises(GridFormatError, match="neg.csv"):
            grid_from_csv(p)

    @pytest.mark.parametrize("row", ["0,0,0", "0,a,0,1.0", "0,0,0,x"])
    def test_malformed_row_rejected(self, tmp_path, row):
        p = tmp_path / "short.csv"
        p.write_text(f"x,y,z,value\n{row}\n")
        with pytest.raises(GridFormatError, match="short.csv: line 2"):
            grid_from_csv(p)

    @pytest.mark.parametrize(
        "rows, unit, needle",
        [
            ("0,0,0,1.0\n1,0,0,nan", UNIT_DB, "line 3: value is not finite"),
            ("0,0,0,inf\n1,0,0,1.0", UNIT_DB, "line 2: value is not finite"),
            ("0,0,0,1.0\n1,0,0,-2.0", UNIT_METERS, "line 3: building height is negative"),
            ("0,0,0,1\n1,0,0,2\n1,0,0,3\n1,1,0,4", UNIT_DB, "line 3: duplicate cell"),
            ("0,0,0,0.5\n1,0,0,2.0", UNIT_NORM01, "line 3: normalized value outside"),
            ("0,0,0,-0.5\n1,0,0,1.0", UNIT_NORM01, "line 2: normalized value outside"),
            ("0,0,0,1.0\n9223372036854775808,0,0,2.0", UNIT_DB, "line 3: cell index beyond int64"),
        ],
    )
    def test_bad_cell_named_with_its_line(self, tmp_path, rows, unit, needle):
        p = tmp_path / "cells.csv"
        p.write_text(f"x,y,z,value\n{rows}\n")
        with pytest.raises(GridFormatError, match=f"cells.csv: {needle}"):
            grid_from_csv(p, unit=unit)

    def test_non_utf8_rejected(self, tmp_path):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"x,y,z,value\n0,0,0,1.0\xff\n")
        with pytest.raises(GridFormatError, match="latin.csv: not UTF-8"):
            grid_from_csv(p)


NAN_F32 = np.array([np.nan], dtype="<f4").tobytes()


def write_nan_rgf(p):
    save_grid(RadioField(np.full((1, 2, 2), -75.0), UNIT_DB), p)
    p.write_bytes(p.read_bytes()[:-4] + NAN_F32)


def write_nan_ltr(p):
    save_trace(LogitTrace(np.zeros((2, 3))), p)
    p.write_bytes(p.read_bytes()[:-4] + NAN_F32)


def write_nan_csv(p):
    p.write_text("x,y,z,value\n0,0,0,-75.0\n1,0,0,nan\n")


class TestFileErrors:
    """Every reader reports an invalid file as a GridFormatError naming it."""

    @pytest.mark.parametrize(
        "name, write, read",
        [
            ("nan.rgf", write_nan_rgf, load_grid),
            ("nan.ltr", write_nan_ltr, load_trace),
            ("nan.csv", write_nan_csv, grid_from_csv),
        ],
    )
    def test_nan_cell(self, tmp_path, name, write, read):
        p = tmp_path / name
        write(p)
        with pytest.raises(GridFormatError, match="^" + re.escape(f"{p}: ")):
            read(p)

    def test_format_error_is_a_validation_error(self, tmp_path):
        p = tmp_path / "deep.rgf"
        p.write_bytes(b"RGF1" + struct.pack("<BIIIf", 0, 1, 1, 2, 1.0) + bytes(8))
        with pytest.raises(ValidationError, match="^" + re.escape(f"{p}: height map must")):
            load_grid(p)


class TestAtomicWrite:
    @pytest.mark.parametrize("data", [b"\x00RGF", "a=1\n"])
    def test_replaces_file_and_leaves_no_temp(self, tmp_path, data):
        p = tmp_path / "out.bin"
        p.write_text("old contents")
        atomic_write(p, data)
        assert (p.read_bytes() if isinstance(data, bytes) else p.read_text()) == data
        assert [f.name for f in tmp_path.iterdir()] == ["out.bin"]

"""Grid types, RGF1 round-trips, transmitter rasterization, normalization."""

import copy
import dataclasses
import pickle
import re
import struct
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radiofront import (
    CostField,
    GridFormatError,
    HeightMap,
    LogitTrace,
    OrderPi,
    PatchGrid,
    RadioField,
    RxConfig,
    Scene,
    TxConfig,
    UNIT_DB,
    UNIT_METERS,
    UNIT_NORM01,
    ValidationError,
    anchor_volume,
    blockage_ratio,
    denormalize_db,
    grid_from_csv,
    grid_to_csv,
    load_grid,
    load_trace,
    normalize_db,
    rasterize_tx,
    raster_order,
    save_grid,
    save_trace,
    wavefront_order,
)
from radiofront import grids
from radiofront.grids import _HELD, atomic_write


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

    @pytest.mark.parametrize("layout", ["C", "strided"])
    def test_file_bytes(self, tmp_path, layout):
        # magic, packed header, then the values as <f4 in C order, whatever the layout held
        rng = np.random.default_rng(12)
        big = rng.uniform(-169, -47, size=(3, 10, 14)).astype(np.float32).astype(np.float64)
        values = big if layout == "C" else big[:, ::2, ::3]
        d, h, w = values.shape
        cases = [
            (RadioField(values, UNIT_DB, 0.5), struct.pack("<BIIIf", 1, w, h, d, 0.5), values),
            (HeightMap(values[0] + 200.0, 2.0), struct.pack("<BIIIf", 0, w, h, 1, 2.0), values[0] + 200.0),
        ]
        for grid, header, expected in cases:
            save_grid(grid, tmp_path / "g.rgf")
            golden = b"RGF1" + header + np.asarray(expected, dtype="<f4").tobytes()
            assert (tmp_path / "g.rgf").read_bytes() == golden

    @pytest.mark.parametrize("unit", [UNIT_METERS, UNIT_DB])
    def test_load_peak_is_the_file_plus_one_copy(self, tmp_path, unit):
        values = np.random.default_rng(13).uniform(1, 40, size=(1024, 1024)).astype(np.float32).astype(np.float64)
        grid = HeightMap(values, 1.0) if unit == UNIT_METERS else RadioField(-values, unit)
        p = tmp_path / "big.rgf"
        save_grid(grid, p)
        tracemalloc.start()
        try:
            back = load_grid(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, grid.values)
        # the file's bytes, the float64 values, the finite check's bool mask and 64 KB;
        # a second float64 copy would add 8 MB
        assert peak <= p.stat().st_size + values.nbytes + values.size + (1 << 16)

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


class TestWriterRange:
    """A writer refuses, naming the file and without a warning, what its reader would refuse."""

    @pytest.mark.parametrize(
        "write, needle",
        [
            (lambda p: save_trace(LogitTrace([[1e39, 0.0]]), p), "a value lies beyond the float32 range"),
            (lambda p: save_grid(HeightMap([[1e39]], 1.0), p), "a value lies beyond the float32 range"),
            (lambda p: save_grid(RadioField([[-1e39]], UNIT_DB), p), "a value lies beyond the float32 range"),
            (lambda p: save_grid(HeightMap([[1.0]], 1e39), p), "header value 1e+39 does not fit float32"),
            (lambda p: save_grid(HeightMap([[1.0]], 1e-300), p), "header value 1e-300 does not fit float32"),
        ],
        ids=["trace-logit", "height", "field-value", "huge-resolution", "tiny-resolution"],
    )
    def test_value_float32_cannot_hold(self, tmp_path, write, needle):
        p = tmp_path / "out.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^" + re.escape(f"{p}: {needle}")):
                write(p)
        assert list(tmp_path.iterdir()) == []

    def test_float32_extremes_round_trip(self, tmp_path):
        f32 = np.finfo(np.float32)
        values = np.array([[float(f32.max), -float(f32.max), float(f32.smallest_subnormal), 1e-300]])
        p = tmp_path / "edge.rgf"
        save_grid(RadioField(values, UNIT_DB, float(f32.smallest_subnormal)), p)
        back = load_grid(p)
        assert np.array_equal(back.values, values.astype(np.float32)[np.newaxis])
        assert back.resolution == float(f32.smallest_subnormal)


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

    @settings(max_examples=200)
    @given(
        patch_px=st.integers(1, 6),
        n_side=st.integers(1, 8),
        res=st.sampled_from([0.1, 0.25, 0.3, 0.7, 1.0, 3.7]),
        data=st.data(),
    )
    def test_scene_ray_and_patch_grid_accept_the_same_points(self, patch_px, n_side, res, data):
        hm = HeightMap(np.zeros((patch_px * n_side,) * 2), res)
        extent = hm.extent[0]
        edges = [0.0, -0.0, -5e-324, extent, np.nextafter(extent, 0.0), np.nextafter(extent, np.inf), np.nan]
        coord = st.floats(-extent, 2 * extent) | st.sampled_from(edges)
        x, y = data.draw(coord, label="x"), data.draw(coord, label="y")
        grid = PatchGrid.for_scene(Scene(hm, TxConfig(0.0, 0.0)), patch_px)
        checks = [
            lambda: Scene(hm, TxConfig(x, y)),
            lambda: blockage_ratio(hm, (x, y, 1.5), (0.0, 0.0, 1.5)),
            lambda: grid.patch_of(x, y),
        ]
        verdicts = []
        for check in checks:
            try:
                check()
                verdicts.append(True)
            except ValidationError:
                verdicts.append(False)
        assert verdicts == [0 <= x < extent and 0 <= y < extent] * 3

    @pytest.mark.parametrize("name", ["z_rx", "dz"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_z", [1, 3])
    def test_rx_parameters_must_be_finite(self, name, value, n_z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(f"{name} must be finite, got {value!r}")):
                RxConfig(n_z=n_z, **{name: value})

    def test_height_map_copies_its_input(self):
        base = np.zeros((8, 8))
        hm = HeightMap(base[:], 1.0)
        base[3, 3] = 9.0
        assert hm.values[3, 3] == 0.0
        assert base.flags.writeable and not hm.values.flags.writeable

    def test_rx_slices(self):
        rx = RxConfig(z_rx=10.0, n_z=5, dz=2.0)
        assert np.allclose(rx.slice_heights(), [6.0, 8.0, 10.0, 12.0, 14.0])
        with pytest.raises(ValidationError):
            RxConfig(n_z=0)

    @pytest.mark.parametrize("n_z", [0, -2, 2.5, 3.0, np.nan, np.float64(2.0), "3", None])
    def test_n_z_must_be_an_integer_of_at_least_one(self, n_z):
        with pytest.raises(ValidationError, match=re.escape(f"n_z must be an integer >= 1, got {n_z!r}")):
            RxConfig(n_z=n_z)

    def test_n_z_may_be_a_numpy_integer(self):
        assert np.array_equal(RxConfig(n_z=np.int64(3)).slice_heights(), RxConfig(n_z=3).slice_heights())

    @pytest.mark.parametrize(
        "slot, bad", [(0, np.zeros((4, 4))), (1, (1.5, 1.5)), (2, "x"), (2, None)], ids=["heightmap", "tx", "rx", "rx-none"]
    )
    def test_scene_fields_must_have_their_types(self, slot, bad):
        args = [HeightMap(np.zeros((4, 4)), 1.0), TxConfig(1.5, 1.5), RxConfig()]
        name, kind = [("heightmap", "HeightMap"), ("tx", "TxConfig"), ("rx", "RxConfig")][slot]
        args[slot] = bad
        with pytest.raises(ValidationError, match=f"scene {name} must be a {kind}, got {type(bad).__name__}"):
            Scene(*args)


# each type's three variants: a base, one with another array, one with another non-array field
EQUALITY_CASES = {
    "HeightMap": lambda v: HeightMap(np.full((3, 4), 2.0 * (v == 1)), 1.0 + (v == 2)),
    "RadioField": lambda v: RadioField(np.full((2, 3, 3), -80.0 - (v == 1)), UNIT_DB, 1.0 + (v == 2)),
    "Scene": lambda v: Scene(
        HeightMap(np.full((4, 4), 5.0 * (v == 1)), 1.0), TxConfig(1.5, 1.5), RxConfig(n_z=1 + (v == 2))
    ),
    "OrderPi": lambda v: OrderPi([3, 2, 1, 0] if v == 1 else [0, 1, 2, 3], "custom", {"step": 1 + (v == 2)}),
    "CostField": lambda v: CostField([0.0, 1.0, 2.0 + (v == 1)], [-1, 0, 0], 0 if v < 2 else 1),
    "LogitTrace": lambda v: LogitTrace(
        np.full((4, 3), 0.5 * (v == 1)), OrderPi([1, 0, 2, 3] if v == 2 else [0, 1, 2, 3])
    ),
}


class TestEquality:
    """Two distinct equal-valued objects compare equal; `==` used to raise on their arrays."""

    @pytest.mark.parametrize("name", sorted(EQUALITY_CASES))
    def test_equal_values_compare_equal(self, name):
        make = EQUALITY_CASES[name]
        assert make(0) == make(0)
        assert not make(0) != make(0)

    @pytest.mark.parametrize("variant", [1, 2], ids=["array", "other-field"])
    @pytest.mark.parametrize("name", sorted(EQUALITY_CASES))
    def test_a_differing_field_compares_unequal(self, name, variant):
        make = EQUALITY_CASES[name]
        assert make(0) != make(variant)
        assert not make(variant) == make(0)

    @pytest.mark.parametrize("name", sorted(EQUALITY_CASES))
    def test_other_types_compare_unequal_and_hashing_still_fails(self, name):
        obj = EQUALITY_CASES[name](0)
        for other in (None, 0, "x", obj.__dict__, *(make(0) for n, make in EQUALITY_CASES.items() if n != name)):
            assert obj != other and not obj == other
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)

    def test_array_shape_matters(self):
        assert HeightMap(np.zeros((2, 3)), 1.0) != HeightMap(np.zeros((3, 2)), 1.0)
        assert RadioField(np.zeros((1, 2, 2)), UNIT_DB) == RadioField(np.zeros((2, 2)), UNIT_DB)


def holding(name):
    """A fresh owner of the named type, and the same call on it that holds a derived result."""
    if name == "LogitTrace":
        return LogitTrace(np.arange(12.0).reshape(4, 3), raster_order(2)), lambda t: t.step_entropies()
    scene = Scene(HeightMap(np.eye(16) * 3.0, 1.0), TxConfig(2.5, 3.5), RxConfig(n_z=2))
    if name == "Scene":
        return scene, anchor_volume
    return scene.heightmap, lambda h: wavefront_order(scene, PatchGrid.for_scene(scene, 4))


class TestHeldResults:
    """A held result lives in its owner's __dict__ only; every copy of the owner starts without it."""

    @pytest.mark.parametrize("name", ["HeightMap", "Scene", "LogitTrace"])
    def test_copies_carry_no_held_value(self, name):
        owner, hold = holding(name)
        twin, _ = holding(name)
        hold(owner)
        assert owner.__dict__[_HELD]
        assert pickle.dumps(owner) == pickle.dumps(twin)
        assert repr(owner) == repr(twin) and owner == twin
        for other in (pickle.loads(pickle.dumps(owner)), copy.copy(owner), copy.deepcopy(owner), dataclasses.replace(owner)):
            assert other == owner
            assert _HELD not in other.__dict__


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

    def test_far_edge_transmitter_is_in_the_last_pixel(self):
        # 3.4999999999999996 / 0.7 divides to 5.0, one past the last column
        sc = Scene(HeightMap(np.zeros((5, 5)), 0.7), TxConfig(3.4999999999999996, 1.0))
        assert rasterize_tx(sc).values[0, 1, 4] == 1.0

    @settings(max_examples=300)
    @given(
        side=st.integers(1, 199),
        res=st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 3.7]),
        data=st.data(),
    )
    def test_marked_pixel_is_the_one_pixel_patch_of_the_transmitter(self, side, res, data):
        extent = side * res  # as HeightMap.extent computes it
        coord = st.floats(0.0, extent, exclude_max=True) | st.just(np.nextafter(extent, 0.0))
        x, y = data.draw(coord, label="x"), data.draw(coord, label="y")
        sc = Scene(HeightMap(np.zeros((side, side)), res), TxConfig(x, y))
        marked = np.flatnonzero(rasterize_tx(sc).values)
        assert marked.tolist() == [PatchGrid(1, side, res, 1.5).patch_of(x, y)]


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

    @pytest.mark.parametrize("row", ["0,0,0", "0,a,0,1.0", "0,0,0,x", "0,0,0,1.5,junk"])
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

    def test_an_export_takes_the_c_parser(self, tmp_path):
        grid_to_csv(RadioField(np.full((2, 2, 3), -75.0), UNIT_DB), tmp_path / "f.csv")
        rows = grids._csv_rows_c(tmp_path / "f.csv")
        assert rows is not None and len(rows) == 12

    @pytest.mark.parametrize(
        "text",
        [
            "x,y,z,value\n",  # header only: numpy would warn "input contained no data"
            "x,y,z,value\n0,0,0,1.0\n\n",  # a blank line, which numpy skips
            "x,y,z,value\r0,0,0,1.0\r\r",  # a lone \r ends a line, so this is a blank line too
            '"x",y,z,value\n0,0,0,1.0\n',  # quotes
            '\ufeffx,y,z,value\n0,0,0,1.0\n',  # a BOM before the header
            "x,y,z,value\n0,0,0,1_000\n",
            f"x,y,z,value\n0,0,0,{'0' * 131072}1.5\n",  # beyond csv's field limit, which the loop keeps
        ],
        ids=["header-only", "blank-line", "lone-cr", "quotes", "bom", "underscore", "long-field"],
    )
    def test_what_the_c_parser_cannot_vouch_for_goes_to_the_loop(self, tmp_path, text):
        (tmp_path / "f.csv").write_bytes(text.encode())
        assert grids._csv_rows_c(tmp_path / "f.csv") is None

    @pytest.mark.parametrize("action", ["ignore", "default", "error"])
    @pytest.mark.parametrize(
        "cell, needle",
        [
            ("1.0", "expected four fields"),
            ("2.7", "expected four fields"),
            ("1e0", "expected four fields"),
            ("9223372036854775808", "cell index beyond int64"),
        ],
    )
    def test_a_cell_that_is_not_an_int64_is_refused_under_any_warning_filter(self, tmp_path, cell, needle, action):
        p = tmp_path / "f.csv"
        p.write_text(f"x,y,z,value\n0,0,0,-80\n{cell},0,0,-80\n")
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert grids._csv_rows_c(p) is None
            with pytest.raises(GridFormatError, match=f"f.csv: line 3: {needle}"):
                grid_from_csv(p)

    def test_a_numpy_that_reads_int_cells_through_a_float_never_takes_the_c_parser(self, tmp_path, monkeypatch):
        grid_to_csv(RadioField(np.full((1, 2, 2), -75.0), UNIT_DB), tmp_path / "f.csv")
        monkeypatch.setattr(grids, "_LOADTXT_STRICT_INTS", False)
        assert grids._csv_rows_c(tmp_path / "f.csv") is None
        assert grid_from_csv(tmp_path / "f.csv").values.tolist() == [[[-75.0, -75.0], [-75.0, -75.0]]]


# Cells the C parser and the loop might read differently: each one the two
# paths must read alike, or refuse with the same message.
CELL_TOKENS = ["+1", "-0", " 1", "1 ", "\t1", "01", "1_0", "1.0", "1e0", '"1"', "", "0x1", "\uff11",
               "9223372036854775807", "9223372036854775808", "-9223372036854775809"]
VALUE_TOKENS = ["+.5", "1.", "-0.0", "5e-324", "2.2250738585072014e-308", "1e400", "nan", "-inf",
                "1_000", " 2.5 ", "\t3", '"3"', "", "x", "0x1p3", "1e", "\u0663", "Infinity", "1.5\x00"]
LINE_ENDS = ["\n", "\r\n", "\r"]
HEADERS = ["x,y,z,value", " X , y,z,VALUE ", '"x",y,z,value', "\ufeffx,y,z,value", "x,y,z", "a,b,c,d"]


@st.composite
def grid_csv_texts(draw):
    """A grid CSV of up to 3x2x2 cells in any row order, then up to three faults."""
    w, h, d = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    cells = draw(st.permutations([(x, y, z) for z in range(d) for y in range(h) for x in range(w)]))
    values = st.one_of(st.floats().map(repr), st.sampled_from(VALUE_TOKENS))
    rows = [[str(x), str(y), str(z), draw(values)] for x, y, z in cells]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        fault = draw(st.sampled_from(["cell", "value", "blank", "drop", "repeat", "short", "long"]))
        if fault == "blank":
            rows.insert(at, [""])
        elif at == len(rows):
            continue
        elif fault == "cell":
            rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(st.sampled_from(CELL_TOKENS))
        elif fault == "value":
            rows[at][-1] = draw(st.sampled_from(VALUE_TOKENS))
        elif fault == "drop":
            del rows[at]
        elif fault == "repeat":
            rows.insert(at, list(rows[at]))
        else:
            rows[at] = rows[at][:3] if fault == "short" else rows[at] + ["0"]
    header = draw(st.one_of(st.just(HEADERS[0]), st.sampled_from(HEADERS)))
    lines = [header, *(",".join(r) for r in rows)]
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))[: None if draw(st.booleans()) else -1]


def _csv_outcome(path, unit):
    """The grid read from path, as (class, unit, bytes of its values), or the refusal's message."""
    try:
        grid = grid_from_csv(path, unit=unit)
    except GridFormatError as exc:
        return str(exc)
    return type(grid).__name__, getattr(grid, "unit", UNIT_METERS), grid.values.shape, grid.values.tobytes()


@pytest.mark.parametrize("action", ["error", "ignore"])  # a warning fails the example, or is hidden
@settings(max_examples=400)
@given(text=grid_csv_texts(), unit=st.sampled_from([UNIT_DB, UNIT_METERS, UNIT_NORM01]))
@example(text="x,y,z,value\n0,0,0,1.0\n\n1,0,0,2.0\n", unit=UNIT_DB)  # blank line
@example(text="x,y,z,value\r0,0,0,1.0\r\r1,0,0,2.0\r", unit=UNIT_DB)  # lone \r
@example(text='x,y,z,value\n"0",0,0,"1.5"\n', unit=UNIT_DB)  # quotes
@example(text="x,y,z,value\n0,0,0,+.5\n1,0,0,1.\n", unit=UNIT_NORM01)
@example(text="x,y,z,value\n0,0,0,1_000\n1_0,0,0,1\n", unit=UNIT_METERS)
@example(text="x,y,z,value\n0,0,0,-0.0\n1,0,0,0.0\n", unit=UNIT_METERS)
@example(text="x,y,z,value\n0,0,0,5e-324\n1,0,0,2.225073858507201e-308\n", unit=UNIT_DB)
@example(text="x,y,z,value\n0,0,0,1.0\n9223372036854775808,0,0,2.0\n", unit=UNIT_DB)
@example(text="x,y,z,value\r\n 0 ,\t0, 0 , 1.5 \r\n", unit=UNIT_DB)  # padded spaces
@example(text="x,y,z,value\r\n", unit=UNIT_DB)  # header only
@example(text="\ufeffx,y,z,value\n0,0,0,1.0\n", unit=UNIT_DB)  # BOM
@example(text=f"x,y,z,value\n0,0,0,{'0' * 131072}1.5\n", unit=UNIT_DB)  # past csv's field limit
def test_c_parser_and_loop_give_the_same_grid_or_error(text, unit, action):
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter(action)
        path = Path(d) / "grid.csv"
        path.write_bytes(text.encode())
        fast = _csv_outcome(path, unit)
        with mock.patch.object(grids, "_csv_rows_c", lambda path: None):
            loop = _csv_outcome(path, unit)
    assert fast == loop


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

    def test_writes_a_sequence_of_buffers_in_turn(self, tmp_path):
        p = tmp_path / "out.bin"
        payload = np.arange(6, dtype="<f4").reshape(2, 3)
        atomic_write(p, [b"HEAD", payload, memoryview(b"!")])
        assert p.read_bytes() == b"HEAD" + payload.tobytes() + b"!"
        assert [f.name for f in tmp_path.iterdir()] == ["out.bin"]

    def test_a_failed_rename_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.rgf"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            save_grid(HeightMap(np.zeros((2, 2)), 1.0), target)
        assert [f.name for f in tmp_path.iterdir()] == ["out.rgf"]

    def test_a_failed_write_leaves_no_temp_and_the_old_file(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"old contents")
        with pytest.raises(TypeError):
            atomic_write(p, [b"ab", "x"])  # a str chunk is not a buffer
        assert [f.name for f in tmp_path.iterdir()] == ["x.bin"]
        assert p.read_bytes() == b"old contents"

    def test_concurrent_writers_of_one_path_and_a_reader_see_whole_files(self, tmp_path):
        # every writer used <name>.tmp: a writer renamed a file another was still
        # filling, the reader saw a short file and the other writer's rename failed
        p = tmp_path / "f.rgf"
        rng = np.random.default_rng(29)
        fields = [RadioField(rng.uniform(-150, -50, (2, 128, 128)).astype(np.float32), UNIT_DB) for _ in range(2)]
        save_grid(fields[0], p)
        errors, seen = [], set()
        writing = threading.Barrier(2)
        done = threading.Event()

        def write(k):
            try:
                writing.wait(timeout=10)
                for _ in range(60):
                    save_grid(fields[k], p)
            except Exception as exc:  # a thread's error would be lost; the assertions below read it
                errors.append(exc)

        def read():
            try:
                while not done.is_set():
                    back = load_grid(p)
                    seen.add(next(k for k, f in enumerate(fields) if back == f))
            except Exception as exc:  # a thread's error would be lost; the assertions below read it
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=write, args=(k,)) for k in range(2)]
            reader = threading.Thread(target=read)
            for t in [*writers, reader]:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*writers, reader])
        assert errors == [] and seen
        assert [f.name for f in tmp_path.iterdir()] == ["f.rgf"]

    def test_a_target_name_of_255_bytes_is_written(self, tmp_path):
        # '<name>.tmp' was 4 bytes longer than the longest name the file system takes
        p = tmp_path / ("é" * 127 + "x")
        atomic_write(p, b"x")
        assert p.read_bytes() == b"x"
        assert [f.name for f in tmp_path.iterdir()] == [p.name]

    def test_written_file_has_the_mode_of_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain.bin"
        with open(plain, "wb") as fh:
            fh.write(b"x")
        atomic_write(tmp_path / "out.bin", b"x")
        assert (tmp_path / "out.bin").stat().st_mode == plain.stat().st_mode

"""Readers of outside input return a valid object or a typed error naming the file."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radiofront import (
    GridFormatError,
    HeightMap,
    LogitTrace,
    RadioField,
    UNIT_DB,
    UNIT_METERS,
    ValidationError,
    grid_from_csv,
    grid_to_csv,
    load_grid,
    load_order,
    load_trace,
    raster_order,
    save_grid,
    save_order,
    save_trace,
)

FUZZ = settings(max_examples=150)


def _valid_bytes(write) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "valid"
        write(path)
        return path.read_bytes()


FIELD = RadioField(np.random.default_rng(0).uniform(-120, -50, (2, 2, 3)), UNIT_DB)
HEIGHTS = HeightMap(np.random.default_rng(1).uniform(0, 20, (3, 2)), 1.0)
TRACE = LogitTrace(np.random.default_rng(2).normal(size=(3, 4)))
READERS = {  # name -> (reader, bytes of a valid file)
    "csv_db": (lambda p: grid_from_csv(p, unit=UNIT_DB), _valid_bytes(lambda p: grid_to_csv(FIELD, p))),
    "csv_meters": (
        lambda p: grid_from_csv(p, unit=UNIT_METERS),
        _valid_bytes(lambda p: grid_to_csv(HEIGHTS, p)),
    ),
    "order": (load_order, _valid_bytes(lambda p: save_order(raster_order(3), p))),
    "rgf": (load_grid, _valid_bytes(lambda p: save_grid(FIELD, p))),
    "ltr": (load_trace, _valid_bytes(lambda p: save_trace(TRACE, p))),
}


def assert_valid_or_typed_error(name: str, data: bytes) -> None:
    read, _ = READERS[name]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.dat"
        path.write_bytes(data)
        try:
            read(path)
        except (GridFormatError, ValidationError) as exc:
            assert str(path) in str(exc)


@pytest.mark.parametrize("name", sorted(READERS))
def test_valid_file_loads(name):
    read, valid = READERS[name]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.dat"
        path.write_bytes(valid)
        read(path)


@pytest.mark.parametrize("name", sorted(READERS))
@FUZZ
@given(head=st.integers(0, 40), tail=st.binary(max_size=400))
def test_arbitrary_bytes_after_a_valid_prefix(name, head, tail):
    # head=0 is arbitrary bytes; a valid prefix gets past the header checks
    assert_valid_or_typed_error(name, READERS[name][1][:head] + tail)


@pytest.mark.parametrize("name", sorted(READERS))
@FUZZ
@given(pick=st.data())
def test_one_byte_mutation(name, pick):
    valid = READERS[name][1]
    at = pick.draw(st.integers(0, len(valid) - 1))
    byte = pick.draw(st.integers(0, 255))
    assert_valid_or_typed_error(name, valid[:at] + bytes([byte]) + valid[at + 1:])

"""The CLI ends every run with exit code 0 or 1, at most one stderr line, no
warning, and only files that load with their own readers.

Each example runs one subcommand in-process on argv drawn from small sizes
and extreme floats (0, negative, +-1e+-300), with every output under
tmp_path.  A traceback surfaces as the test's own exception.
"""

import contextlib
import io
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from radiofront import (
    CityParams,
    LogitTrace,
    UNIT_DB,
    gen_field,
    gen_scene,
    grid_from_csv,
    grid_to_csv,
    hilbert_order,
    load_grid,
    load_order,
    raster_order,
    save_grid,
    save_order,
    save_trace,
)
from radiofront.cli import _read_key_values, main

SIDE = 16  # pixels per side of the prepared scene; patch_px 4 gives 16 patches
EXTREMES = (0.0, -1.0, 1e-300, -1e-300, 1e300, -1e300)
FLOATS = st.sampled_from(EXTREMES + (0.5, 2.0, 8.5))  # the last ones fit the scene
SMALL_INTS = st.integers(-1, 4)

PROPERTY = settings(
    max_examples=40,
    phases=(Phase.explicit, Phase.generate),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 16 px scene with its field, CSV copies, orders and traces."""
    d = tmp_path_factory.mktemp("inputs")
    scene = gen_scene(CityParams(side_px=SIDE, n_buildings=2, footprint_range=(2, 4), seed=3))
    fld = gen_field(scene, noise_sigma=1.0, seed=3)
    save_grid(scene.heightmap, d / "heightmap.rgf")
    save_grid(fld, d / "field.rgf")
    grid_to_csv(scene.heightmap, d / "heightmap.csv")
    grid_to_csv(fld, d / "field.csv")
    (d / "scene.txt").write_text(
        f"heightmap=heightmap.rgf\ntx_x={scene.tx.x!r}\ntx_y={scene.tx.y!r}\n"
    )
    save_order(raster_order(4), d / "raster.json")
    save_order(hilbert_order(4), d / "hilbert.json")
    rng = np.random.default_rng(3)
    for name in ("a", "b"):
        save_trace(LogitTrace(rng.normal(size=(16, 5))), d / f"{name}.ltr")
    return d


def _flag(draw, argv, name, values):
    """Append --name=value (so a negative value is not read as a flag), or nothing."""
    if draw(st.booleans()):
        argv.append(f"--{name}={draw(values)}")


def _floats(draw, argv, names) -> list:
    """argv plus --name=value for at most two of names, so that an extreme
    value often meets otherwise valid input."""
    chosen = draw(st.sets(st.sampled_from(names), max_size=2))
    return argv + [f"--{n}={draw(FLOATS)}" for n in sorted(chosen)]


SCENE_FLOATS = ["tx-x", "tx-y", "tx-z", "freq", "power", "bandwidth", "noise-figure", "d0", "z-rx", "dz"]


def _scene_argv(draw, d: Path) -> list:
    source = draw(st.sampled_from(["manifest", "manifest", "rgf", "csv", "field", "none"]))
    if source == "manifest":
        argv = [f"--manifest={d / 'scene.txt'}"]
    elif source == "none":
        argv = []
    else:
        name = {"rgf": "heightmap.rgf", "csv": "heightmap.csv", "field": "field.rgf"}[source]
        argv = [f"--heightmap={d / name}", "--tx-x=2.0", "--tx-y=8.5"]
    _flag(draw, argv, "n-z", SMALL_INTS)
    return argv


@st.composite
def anchor_argv(draw, d, out):
    argv = ["anchor", *_scene_argv(draw, d), f"--out={out / 'anchor.rgf'}"]
    if draw(st.booleans()):
        argv.append(f"--csv={out / 'anchor.csv'}")
    if draw(st.booleans()):
        argv.append("--volume")
    return _floats(draw, argv, SCENE_FLOATS)


@st.composite
def order_argv(draw, d, out):
    argv = ["order", *_scene_argv(draw, d), f"--out={out / 'order.json'}"]
    argv.append(f"--kind={draw(st.sampled_from(['wavefront', 'priorpl', 'truepl', 'hilbert']))}")
    argv.append(f"--patch-px={draw(st.sampled_from([4, 4, 8, 3, 0, -4]))}")
    _flag(draw, argv, "field", st.sampled_from([d / "field.rgf", d / "field.csv", d / "heightmap.rgf"]))
    if draw(st.booleans()):
        argv.append(f"--cost-csv={out / 'costs.csv'}")
    if draw(st.booleans()):
        argv.append("--verify")
    return _floats(draw, argv, SCENE_FLOATS + ["alpha-los", "alpha-nlos", "beta-clamp"])


@st.composite
def metrics_argv(draw, d, out):
    grids = st.sampled_from([d / "field.rgf", d / "field.rgf", d / "field.csv", d / "heightmap.rgf"])
    argv = ["metrics", f"--pred={draw(grids)}", f"--gt={draw(grids)}",
            f"--report={out / 'report.csv'}"]
    if draw(st.booleans()):
        argv.append(f"--per-slice={out / 'slices.csv'}")
    _flag(draw, argv, "scales", st.sampled_from(["1", "1,2,4", "0", "-1", "64"]))
    return _floats(draw, argv, ["norm-lo", "norm-hi", "lambda-z"])


@st.composite
def entropy_argv(draw, d, out):
    traces = st.sampled_from([d / "a.ltr", d / "b.ltr", d / "raster.json"])
    orders = st.sampled_from([d / "raster.json", d / "hilbert.json", d / "a.ltr"])
    argv = ["entropy", f"--trace={draw(traces)}"]
    if draw(st.booleans()):
        argv.append(f"--trace={draw(traces)}")
    _flag(draw, argv, "order", orders)
    _flag(draw, argv, "trace-b", traces)
    _flag(draw, argv, "order-b", orders)
    if draw(st.booleans()):
        argv.append(f"--delta-out={out / 'delta.rgf'}")
    if draw(st.booleans()):
        argv.append(f"--profile-csv={out / 'profile.csv'}")
    if draw(st.booleans()):
        argv.append("--base2")
    return argv


@st.composite
def synth_argv(draw, d, out):
    # small city defaults: CityParams places 12 buildings of 16-48 px, which needs a large side
    side = draw(st.sampled_from([12, 12, 6, 1, 0]))
    argv = ["synth", f"--out-dir={out / 'synth'}", f"--side-px={side}", "--n-buildings=2",
            "--footprint-range=1,3"]
    _flag(draw, argv, "preset", st.sampled_from(["edge", "canyon", "sparse", "serpentine"]))
    _flag(draw, argv, "seed", SMALL_INTS)
    _flag(draw, argv, "count", st.integers(-1, 2))
    _flag(draw, argv, "n-z", SMALL_INTS)
    _flag(draw, argv, "clamp-profile", st.sampled_from(["radiomapseer", "urbanradio3d"]))
    if draw(st.booleans()):
        argv.append(f"--height-range={draw(FLOATS)},{draw(FLOATS)}")
    return _floats(draw, argv, ["resolution", "freq", "z-rx", "dz", "noise-sigma", "smooth-sigma"])


@st.composite
def selftest_argv(draw, d, out):
    return ["selftest", f"--seed={draw(st.integers(-1, 2))}"]


def _check_table(path: Path) -> None:
    """write_table output: a header, then rows of numbers with as many fields."""
    header, *rows = path.read_text().splitlines()
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(header.split(","))
        [float(v) for v in fields]


def _check_manifest(path: Path) -> None:
    manifest = _read_key_values(str(path))
    load_grid(path.parent / manifest["heightmap"])
    load_grid(path.parent / manifest["field"])


READERS = {  # output file name -> its reader
    "anchor.rgf": load_grid,
    "anchor.csv": lambda p: grid_from_csv(p, unit=UNIT_DB),
    "order.json": load_order,
    "costs.csv": _check_table,
    "report.csv": _check_table,
    "slices.csv": _check_table,
    "profile.csv": _check_table,
    "delta.rgf": load_grid,
    "heightmap.rgf": load_grid,
    "field.rgf": load_grid,
    "scene.txt": _check_manifest,
}

COMMANDS = {
    "anchor": anchor_argv,
    "order": order_argv,
    "metrics": metrics_argv,
    "entropy": entropy_argv,
    "synth": synth_argv,
    "selftest": selftest_argv,
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@PROPERTY
@given(data=st.data())
def test_cli_exits_cleanly_and_writes_readable_files(command, data, inputs, tmp_path, monkeypatch):
    monkeypatch.delenv("RADIOFRONT_CONFIG", raising=False)
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    argv = data.draw(COMMANDS[command](inputs, out), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        status = main(argv)
    assert status in (0, 1)
    assert [str(w.message) for w in caught] == []
    assert len(stderr.getvalue().splitlines()) <= 1
    for root, _, files in os.walk(out):
        for name in files:
            READERS[name](Path(root) / name)

"""End-to-end runs of every subcommand through the console entry point."""

import itertools
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radiofront
from radiofront import (
    CostField,
    HeightMap,
    LogitTrace,
    OrderParams,
    PatchGrid,
    RadioField,
    Scene,
    TxConfig,
    UNIT_DB,
    UNIT_NORM01,
    anchor_map,
    load_grid,
    load_order,
    prior_pl_order,
    raster_order,
    save_grid,
    save_order,
    save_trace,
)
from radiofront.cli import main


@pytest.fixture
def city(tmp_path):
    rng = np.random.default_rng(1)
    heights = (rng.random((32, 32)) < 0.2) * rng.uniform(5, 25, (32, 32))
    path = tmp_path / "city.rgf"
    save_grid(HeightMap(heights, 1.0), path)
    return path


def rgf1(tag, values, resolution=1.0):
    """RGF1 bytes written by hand, so invalid grids can be stored too."""
    values = np.asarray(values, dtype="<f4")
    depth, height, width = values.shape
    return b"RGF1" + struct.pack("<BIIIf", tag, width, height, depth, resolution) + values.tobytes()


def ltr1(logits):
    logits = np.asarray(logits, dtype="<f4")
    return b"LTR1" + struct.pack("<II", *logits.shape) + logits.tobytes()


def tx_flags(city):
    return [
        "--heightmap", str(city),
        "--tx-x", "5.5", "--tx-y", "9.5",
        "--freq", "5.9e9",
    ]


def off_by_one(field):
    """bruteforce_costs with the last cost one ulp higher or the last predecessor moved."""
    real = radiofront.cli.bruteforce_costs

    def fake(*args):
        bf = real(*args)
        d, pred = bf.d.copy(), bf.pred.copy()
        if field == "d":
            d[-1] = np.nextafter(d[-1], np.inf)
        else:
            pred[-1] = (pred[-1] + 1) % len(pred)
        return CostField(d, pred, bf.source)

    return fake


class TestAnchorCommand:
    def test_writes_anchor(self, tmp_path, city, capsys):
        out = tmp_path / "anchor.rgf"
        csv_out = tmp_path / "anchor.csv"
        rc = main(["anchor", *tx_flags(city), "--out", str(out), "--csv", str(csv_out)])
        assert rc == 0
        anchor = load_grid(out)
        assert anchor.unit == UNIT_DB
        assert anchor.height_px == 32
        assert csv_out.read_text().startswith("x,y,z,value")

    def test_deterministic_bytes(self, tmp_path, city):
        a, b = tmp_path / "a.rgf", tmp_path / "b.rgf"
        assert main(["anchor", *tx_flags(city), "--out", str(a)]) == 0
        assert main(["anchor", *tx_flags(city), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_tx_fails(self, tmp_path, city, capsys):
        rc = main(["anchor", "--heightmap", str(city), "--out", str(tmp_path / "x.rgf")])
        assert rc == 1
        assert "transmitter" in capsys.readouterr().err

    def test_volume_has_slices(self, tmp_path, city):
        out = tmp_path / "vol.rgf"
        rc = main(["anchor", *tx_flags(city), "--n-z", "3", "--volume", "--out", str(out)])
        assert rc == 0
        assert load_grid(out).n_z == 3

    def test_csv_heightmap_input(self, tmp_path):
        from radiofront import grid_to_csv

        hm = HeightMap(np.zeros((16, 16)), 1.0)
        csv_in = tmp_path / "city.csv"
        grid_to_csv(hm, csv_in)
        out = tmp_path / "a.rgf"
        rc = main(
            [
                "anchor", "--heightmap", str(csv_in),
                "--tx-x", "3.5", "--tx-y", "3.5", "--freq", "5.9e9",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert load_grid(out).height_px == 16


class TestOrderCommand:
    def test_wavefront_with_verify(self, tmp_path, city, capsys):
        out = tmp_path / "order.json"
        costs = tmp_path / "costs.csv"
        rc = main(
            [
                "order", *tx_flags(city),
                "--kind", "wavefront", "--patch-px", "8",
                "--out", str(out), "--cost-csv", str(costs), "--verify",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "containment: holds=True" in captured
        assert "oracle: bellman-ford max relative gap 0.000e+00 (ok)\n" in captured
        order = load_order(out)
        assert order.kind == "wavefront" and len(order) == 16
        lines = costs.read_text().splitlines()
        assert lines[0] == "patch_index,D,pred"
        idx, d, pred = lines[1].split(",")
        assert idx == "0" and float(d) >= 0.0 and int(pred) >= -1

    @pytest.mark.parametrize("field", ["d", "pred"])
    def test_verify_fails_unless_oracle_is_bit_identical(
        self, tmp_path, city, capsys, monkeypatch, field
    ):
        monkeypatch.setattr(radiofront.cli, "bruteforce_costs", off_by_one(field))
        out = str(tmp_path / "o.json")
        assert main(["order", *tx_flags(city), "--patch-px", "8", "--out", out, "--verify"]) == 1
        assert " (FAIL)\n" in capsys.readouterr().out

    def test_geometric_kinds(self, tmp_path, city):
        for kind in ("raster", "hilbert", "zcurve", "subsample", "alternative"):
            out = tmp_path / f"{kind}.json"
            rc = main(["order", *tx_flags(city), "--kind", kind, "--patch-px", "8", "--out", str(out)])
            assert rc == 0
            assert load_order(out).kind == kind

    def test_truepl_needs_field(self, tmp_path, city, capsys):
        rc = main(["order", *tx_flags(city), "--kind", "truepl", "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "--field" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path, city, capsys):
        rc = main(["order", *tx_flags(city), "--kind", "spiral", "--out", str(tmp_path / "o.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --kind: invalid choice: 'spiral'")
        assert err.count("\n") == 1

    def test_priorpl_ranks_the_anchor_map(self, tmp_path, city):
        out = tmp_path / "o.json"
        assert main(["order", *tx_flags(city), "--kind", "priorPL", "--patch-px", "8", "--out", str(out)]) == 0
        scene = Scene(load_grid(city), TxConfig(5.5, 9.5, f=5.9e9))
        expected = prior_pl_order(anchor_map(scene), PatchGrid.for_scene(scene, patch_px=8))
        order = load_order(out)
        assert order.kind == "priorPL"
        np.testing.assert_array_equal(order.perm, expected.perm)

    def test_geometric_kind_verifies_against_wavefront_costs(self, tmp_path, city, capsys):
        flags = [*tx_flags(city), "--patch-px", "8"]
        wave_csv, raster_csv = tmp_path / "wave.csv", tmp_path / "raster.csv"
        assert main(["order", *flags, "--out", str(tmp_path / "w.json"), "--cost-csv", str(wave_csv)]) == 0
        capsys.readouterr()
        rc = main(
            ["order", *flags, "--kind", "raster", "--verify",
             "--out", str(tmp_path / "r.json"), "--cost-csv", str(raster_csv)]
        )
        assert rc == 0  # only the wavefront order must hold containment
        out = capsys.readouterr().out
        assert "containment: holds=False violations=" in out
        assert "oracle: bellman-ford max relative gap 0.000e+00 (ok)\n" in out
        assert raster_csv.read_bytes() == wave_csv.read_bytes()


class TestEntropyCommand:
    def make_traces(self, tmp_path):
        rng = np.random.default_rng(3)
        order = raster_order(4)
        t_a = tmp_path / "a.ltr"
        t_b = tmp_path / "b.ltr"
        o_path = tmp_path / "o.json"
        save_trace(LogitTrace(rng.normal(size=(16, 32)).astype(np.float32)), t_a)
        save_trace(LogitTrace(rng.normal(size=(16, 32)).astype(np.float32)), t_b)
        save_order(order, o_path)
        return t_a, t_b, o_path

    def test_profile_and_delta(self, tmp_path, capsys):
        t_a, t_b, o_path = self.make_traces(tmp_path)
        profile = tmp_path / "profile.csv"
        delta = tmp_path / "dh.rgf"
        rc = main(
            [
                "entropy",
                "--trace", str(t_a), "--order", str(o_path),
                "--trace-b", str(t_b), "--order-b", str(o_path),
                "--profile-csv", str(profile), "--delta-out", str(delta),
            ]
        )
        assert rc == 0
        lines = profile.read_text().splitlines()
        assert lines[0] == "step,mean,std"
        assert len(lines) == 17
        grid = load_grid(delta)
        assert grid.height_px == 4 and grid.width_px == 4

    @pytest.mark.parametrize("flag", ["--delta-out", "--order-b"])
    def test_delta_flag_without_trace_b(self, tmp_path, capsys, flag):
        t_a, _, o_path = self.make_traces(tmp_path)
        profile = tmp_path / "profile.csv"
        target = tmp_path / "given"
        rc = main(
            ["entropy", "--trace", str(t_a), "--order", str(o_path),
             "--profile-csv", str(profile), flag, str(target)]
        )
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {flag} needs --trace-b\n")
        assert not profile.exists() and not target.exists()


class TestMetricsCommand:
    def test_report(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        gt = rng.uniform(-140, -60, size=(1, 16, 16))
        pred = gt + rng.normal(0, 2, size=gt.shape)
        p_gt, p_pred = tmp_path / "gt.rgf", tmp_path / "pred.rgf"
        save_grid(RadioField(gt, UNIT_DB), p_gt)
        save_grid(RadioField(pred, UNIT_DB), p_pred)
        report = tmp_path / "report.csv"
        rc = main(["metrics", "--pred", str(p_pred), "--gt", str(p_gt), "--report", str(report)])
        assert rc == 0
        header, row = report.read_text().splitlines()
        assert header == "nmse,rmse_db,ssim,psnr,grad_total"
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert values["nmse"] > 0 and values["rmse_db"] > 0

    def test_height_map_input_is_named(self, tmp_path, city, capsys):
        save_grid(RadioField(np.full((1, 32, 32), -80.0), UNIT_DB), tmp_path / "gt.rgf")
        argv = ["metrics", "--pred", str(city), "--gt", str(tmp_path / "gt.rgf"),
                "--report", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {city} does not contain a radio field\n"

    def test_normalized_inputs(self, tmp_path):
        rng = np.random.default_rng(8)
        gt = rng.uniform(0, 1, size=(1, 16, 16))
        pred = np.clip(gt + rng.normal(0, 0.05, gt.shape), 0, 1)
        p_gt, p_pred = tmp_path / "gt.rgf", tmp_path / "pred.rgf"
        save_grid(RadioField(gt, UNIT_NORM01), p_gt)
        save_grid(RadioField(pred, UNIT_NORM01), p_pred)
        report = tmp_path / "r.csv"
        rc = main(["metrics", "--pred", str(p_pred), "--gt", str(p_gt), "--report", str(report)])
        assert rc == 0
        row = report.read_text().splitlines()[1].split(",")
        assert float(row[1]) > 0  # rmse computed via denormalization

    @pytest.mark.parametrize("pred_unit, gt_unit", [(UNIT_DB, UNIT_NORM01), (UNIT_NORM01, UNIT_DB)])
    def test_mixed_units_name_both_files(self, tmp_path, capsys, pred_unit, gt_unit):
        values = {UNIT_DB: np.full((1, 4, 4), -80.0), UNIT_NORM01: np.full((1, 4, 4), 0.5)}
        p_pred, p_gt = tmp_path / "pred.rgf", tmp_path / "gt.rgf"
        save_grid(RadioField(values[pred_unit], pred_unit), p_pred)
        save_grid(RadioField(values[gt_unit], gt_unit), p_gt)
        report = tmp_path / "r.csv"
        rc = main(["metrics", "--pred", str(p_pred), "--gt", str(p_gt), "--report", str(report)])
        assert rc == 1
        message = f"error: --pred {p_pred} is in {pred_unit} but --gt {p_gt} is in {gt_unit}\n"
        assert capsys.readouterr() == ("", message)
        assert not report.exists()

    def test_identical_fields(self, tmp_path):
        g = np.random.default_rng(6).uniform(-140, -60, size=(2, 16, 16))
        p_gt = tmp_path / "gt.rgf"
        save_grid(RadioField(g, UNIT_DB), p_gt)
        report = tmp_path / "report.csv"
        per_slice = tmp_path / "slices.csv"
        rc = main(
            [
                "metrics", "--pred", str(p_gt), "--gt", str(p_gt),
                "--report", str(report), "--per-slice", str(per_slice),
            ]
        )
        assert rc == 0
        row = report.read_text().splitlines()[1].split(",")
        assert float(row[0]) == 0.0  # nmse
        assert row[3] == "inf"  # psnr sentinel
        assert len(per_slice.read_text().splitlines()) == 3


class TestSynthCommand:
    def test_single_scene(self, tmp_path):
        out = tmp_path / "scene"
        rc = main(
            [
                "synth", "--out-dir", str(out), "--seed", "4",
                "--side-px", "32", "--n-buildings", "3",
                "--footprint-range", "3,6", "--noise-sigma", "2.0",
                "--clamp-profile", "radiomapseer",
            ]
        )
        assert rc == 0
        hm = load_grid(out / "heightmap.rgf")
        fld = load_grid(out / "field.rgf")
        assert isinstance(hm, HeightMap)
        assert fld.values.min() >= -147.0 and fld.values.max() <= -47.0
        manifest = (out / "scene.txt").read_text()
        assert "tx_x=" in manifest and "heightmap=heightmap.rgf" in manifest

    def test_batch_deterministic(self, tmp_path):
        args = [
            "synth", "--seed", "7", "--count", "3",
            "--side-px", "32", "--n-buildings", "2", "--footprint-range", "3,6",
        ]
        rc = main(args + ["--out-dir", str(tmp_path / "serial")])
        assert rc == 0
        rc = main(args + ["--out-dir", str(tmp_path / "parallel"), "--jobs", "3"])
        assert rc == 0
        for k in range(3):
            a = (tmp_path / "serial" / f"scene_{k:03d}" / "field.rgf").read_bytes()
            b = (tmp_path / "parallel" / f"scene_{k:03d}" / "field.rgf").read_bytes()
            assert a == b

    def test_manifest_feeds_anchor_and_order(self, tmp_path):
        out = tmp_path / "scene"
        assert main(
            [
                "synth", "--out-dir", str(out), "--seed", "2",
                "--side-px", "32", "--n-buildings", "2", "--footprint-range", "3,6",
            ]
        ) == 0
        rc = main(
            [
                "anchor", "--manifest", str(out / "scene.txt"),
                "--out", str(tmp_path / "anchor.rgf"),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "order", "--manifest", str(out / "scene.txt"),
                "--kind", "truepl", "--field", str(out / "field.rgf"),
                "--patch-px", "8", "--out", str(tmp_path / "o.json"),
            ]
        )
        assert rc == 0


    def test_user_values_reach_manifest(self, tmp_path):
        out = tmp_path / "zero"
        common = ["--side-px", "32", "--n-buildings", "2", "--footprint-range", "3,6"]
        assert main(["synth", "--out-dir", str(out), "--z-rx", "0", *common]) == 0
        assert "z_rx=0.0\n" in (out / "scene.txt").read_text()
        out = tmp_path / "preset"
        assert main(
            ["synth", "--out-dir", str(out), "--preset", "sparse", "--freq", "28e9", *common]
        ) == 0
        assert "freq=28000000000.0\n" in (out / "scene.txt").read_text()

    def test_unplaceable_buildings_are_one_error_line(self, tmp_path, capsys):
        rc = main(
            [
                "synth", "--out-dir", str(tmp_path / "d"), "--seed", "1",
                "--side-px", "8", "--footprint-range", "2,3",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: could not place building") and err.count("\n") == 1

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        side=st.integers(1, 12),
        n_buildings=st.integers(0, 12),
        lo=st.integers(0, 14),
        hi=st.integers(0, 14),
    )
    def test_small_cities_exit_cleanly(self, tmp_path_factory, side, n_buildings, lo, hi):
        out = tmp_path_factory.mktemp("synth")
        rc = main(
            [
                "synth", "--out-dir", str(out), "--seed", "1", "--side-px", str(side),
                "--n-buildings", str(n_buildings), "--footprint-range", f"{lo},{hi}",
            ]
        )
        assert rc in (0, 1)

    def test_preset_keeps_its_own_side(self, tmp_path):
        out = tmp_path / "serpentine"
        assert main(["synth", "--out-dir", str(out), "--preset", "serpentine"]) == 0
        assert load_grid(out / "heightmap.rgf").width_px == 48


class TestReaderErrors:
    def assert_one_error_line(self, capsys, needle):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_manifest_line_without_equals(self, tmp_path, city, capsys):
        manifest = tmp_path / "scene.txt"
        manifest.write_text(f"heightmap={city}\ntx_x 5.5\ntx_y=9.5\n")
        rc = main(["anchor", "--manifest", str(manifest), "--out", str(tmp_path / "a.rgf")])
        assert rc == 1
        self.assert_one_error_line(capsys, "scene.txt: line 2")

    def test_config_line_without_equals(self, tmp_path, city, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\n\npatch_px 8\n")
        rc = main(["--config", str(cfg), "order", *tx_flags(city), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        self.assert_one_error_line(capsys, "cfg.txt: line 3")

    @pytest.mark.parametrize(
        "line, needle",
        [
            ("tx_x=abc", "scene.txt: tx_x: could not convert string to float: 'abc'"),
            ("n_z=2.5", "scene.txt: n_z: invalid literal for int()"),
        ],
    )
    def test_bad_manifest_value(self, tmp_path, city, capsys, line, needle):
        manifest = tmp_path / "scene.txt"
        manifest.write_text(f"heightmap={city}\ntx_x=5.5\ntx_y=9.5\n{line}\n")
        rc = main(["anchor", "--manifest", str(manifest), "--out", str(tmp_path / "a.rgf")])
        assert rc == 1
        self.assert_one_error_line(capsys, needle)

    @pytest.mark.parametrize(
        "command, line, needle",
        [
            ("order", "alpha_los=abc", "cfg.txt: alpha_los: could not convert string to float: 'abc'"),
            ("order", "patch-px=8.5", "cfg.txt: patch_px: invalid literal for int()"),
            ("synth", "clamp_profile=bogus", "cfg.txt: clamp_profile: 'bogus' is not one of"),
            ("synth", "footprint_range=3,x", "cfg.txt: footprint_range: invalid literal for int()"),
            ("order", "verify=maybe", "cfg.txt: verify: 'maybe' is not true or false"),
            ("entropy", "order=o.json", "cfg.txt: order: a repeatable option is given as a flag only"),
            ("order", "# ok\nalpha_los=\xff", "cfg.txt: line 2: not UTF-8 text"),
        ],
    )
    def test_bad_config_value(self, tmp_path, city, capsys, command, line, needle):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n", encoding="latin-1")
        argv = {
            "order": [*tx_flags(city), "--out", str(tmp_path / "o.json")],
            "synth": ["--out-dir", str(tmp_path / "s"), "--side-px", "32"],
            "entropy": ["--trace", str(tmp_path / "t.ltr")],
        }[command]
        assert main(["--config", str(cfg), command, *argv]) == 1
        self.assert_one_error_line(capsys, needle)

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["metrics", "--pred", "p.rgf", "--gt", "g.rgf", "--report", "r.csv", "--scales", "1,x"],
             "argument --scales: invalid comma-separated int value: '1,x'"),
            (["order", "--patch-px", "abc", "--out", "o.json"], "argument --patch-px: invalid int"),
            (["order", "--kind", "raster"], "the following arguments are required: --out"),
        ],
    )
    def test_bad_flag(self, capsys, argv, needle):
        assert main(argv) == 1
        self.assert_one_error_line(capsys, needle)

    @pytest.mark.parametrize(
        "payload, argv, needle",
        [
            (rgf1(1, [[[-60.0, np.nan], [-70.0, -80.0]]]),
             ["metrics", "--pred", "bad", "--gt", "good", "--report", "r.csv"],
             "error: bad: radio field contains NaN or infinite values"),
            (rgf1(1, np.zeros((1, 2, 0))),
             ["metrics", "--pred", "good", "--gt", "bad", "--report", "r.csv"],
             "error: bad: radio field has no cells"),
            (rgf1(0, np.zeros((1, 32, 32)), resolution=np.inf),
             ["order", "--heightmap", "bad", "--tx-x", "5.5", "--tx-y", "9.5", "--out", "o.json"],
             "error: bad: resolution must be finite and positive"),
            (ltr1([[0.0, np.inf, 1.0]]), ["entropy", "--trace", "bad"],
             "error: bad: trace contains NaN or infinite logits"),
            (ltr1(np.zeros((0, 3))), ["entropy", "--trace", "bad"],
             "error: bad: trace logits must be (n_steps, vocab) with both >= 1"),
        ],
        ids=["nan-cell", "no-cells", "inf-resolution", "inf-logit", "no-steps"],
    )
    def test_invalid_binary_payload(self, tmp_path, monkeypatch, capsys, payload, argv, needle):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad").write_bytes(payload)
        save_grid(RadioField(np.full((1, 2, 2), -75.0), UNIT_DB), tmp_path / "good")
        assert main(argv) == 1
        self.assert_one_error_line(capsys, needle)

    def test_resolution_too_fine_to_sample(self, tmp_path, capsys):
        hm = tmp_path / "fine.rgf"
        hm.write_bytes(rgf1(0, np.zeros((1, 2, 2)), resolution=1e-30))
        rc = main(
            ["anchor", "--heightmap", str(hm), "--tx-x", "0", "--tx-y", "0", "--tx-z", "3",
             "--out", str(tmp_path / "a.rgf")]
        )
        assert rc == 1
        self.assert_one_error_line(capsys, "samples on one ray")

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--smooth-sigma=-1"], "smooth_sigma must be finite and >= 0, got -1.0"),
            (["--noise-sigma=-1"], "noise_sigma must be finite and >= 0, got -1.0"),
            (["--noise-sigma", "1e300"], "field.rgf: a value lies beyond the float32 range"),
            (["--height-range", "0,1e39"], "heightmap.rgf: a value lies beyond the float32 range"),
            (["--resolution", "1e39"], "heightmap.rgf: header value 1e+39 does not fit float32"),
            (["--resolution", "1e300"], "a ray is too long to sample"),
            (["--n-z", "2", "--dz", "1e308"], "a ray is too long to sample"),
        ],
    )
    def test_synth_value_out_of_range(self, tmp_path, capsys, flags, needle):
        argv = ["synth", "--out-dir", str(tmp_path), "--side-px", "12", "--n-buildings", "2",
                "--footprint-range", "1,3", *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        self.assert_one_error_line(capsys, needle)

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--z-rx", "nan"], "rx parameter z_rx must be finite"),
            (["--n-z", "3", "--dz", "inf"], "rx parameter dz must be finite"),
            (["--seed=-1"], "seed must be >= 0, got -1"),
            (["--preset", "edge", "--seed=-1"], "seed must be >= 0, got -1"),
            (["--preset", "edge", "--side-px", "1"], "preset 'edge' needs side_px >= 10, got 1"),
            (["--preset", "canyon", "--side-px", "6"], "preset 'canyon' needs side_px >= 16, got 6"),
            (["--preset", "sparse", "--side-px", "2"], "preset 'sparse' needs side_px >= 7, got 2"),
            (["--count", "0"], "--count must be >= 1, got 0"),
            (["--count", "-3"], "--count must be >= 1, got -3"),
            (["--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["--jobs", "-2"], "--jobs must be >= 1, got -2"),
        ],
    )
    def test_synth_names_the_bad_value(self, tmp_path, capsys, flags, needle):
        argv = ["synth", "--out-dir", str(tmp_path), "--side-px", "12", "--n-buildings", "2",
                "--footprint-range", "1,3", *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        self.assert_one_error_line(capsys, needle)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--patch-px", "0"], "patch_px must be >= 1, got 0"),
            (["--alpha-nlos", "1e300"], "blockage exponent 1e+300 with beta_clamp 1e-06 overflows"),
        ],
    )
    def test_order_value_out_of_range(self, tmp_path, city, capsys, flags, needle):
        argv = ["order", *tx_flags(city), "--out", str(tmp_path / "o.json"), *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        self.assert_one_error_line(capsys, needle)

    def test_malformed_order_file(self, tmp_path, capsys):
        save_trace(LogitTrace(np.zeros((4, 3))), tmp_path / "t.ltr")
        (tmp_path / "o.json").write_text('{"kind":"raster","perm":[0,1,2,3]}')
        rc = main(["entropy", "--trace", str(tmp_path / "t.ltr"), "--order", str(tmp_path / "o.json")])
        assert rc == 1
        self.assert_one_error_line(capsys, "o.json")

    def test_csv_heightmap_with_short_row(self, tmp_path, capsys):
        hm = tmp_path / "hm.csv"
        hm.write_text("x,y,z,value\n0,0,0\n")
        rc = main(
            ["anchor", "--heightmap", str(hm), "--tx-x", "0.5", "--tx-y", "0.5",
             "--out", str(tmp_path / "a.rgf")]
        )
        assert rc == 1
        self.assert_one_error_line(capsys, "hm.csv: line 2")


def run_fresh_python(code):
    src = Path(radiofront.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def test_cli_import_leaves_scipy_ndimage_unloaded():
    run = run_fresh_python("import sys, radiofront.cli; print('scipy.ndimage' in sys.modules)")
    assert run.stdout.strip() == "False", run.stderr


def test_smoothing_and_ssim_leave_scipy_unloaded(tmp_path):
    # scipy's import costs each process about 375 ms; it is a test oracle only
    code = f"""
import sys
from radiofront import CityParams, gen_field, gen_scene, metric_report
from radiofront.cli import main
fld = gen_field(gen_scene(CityParams(side_px=24, n_buildings=2, footprint_range=(3, 6))), smooth_sigma=1.0)
metric_report(fld, fld, -160.0, -40.0)
out = {str(tmp_path)!r}
assert main(["synth", "--out-dir", out + "/s", "--side-px", "24", "--n-buildings", "2",
             "--footprint-range", "3,6", "--smooth-sigma", "1"]) == 0
assert main(["metrics", "--pred", out + "/s/field.rgf", "--gt", out + "/s/field.rgf",
             "--report", out + "/r.csv"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    run = run_fresh_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]", run.stdout


class TestSelftestCommand:
    def test_all_suites_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        for suite in ("ordering", "entropy", "rope"):
            assert f"PASS {suite}" in out

    @pytest.mark.parametrize("field", ["d", "pred"])
    def test_ordering_suite_demands_bit_identity(self, capsys, monkeypatch, field):
        monkeypatch.setattr(radiofront.cli, "bruteforce_costs", off_by_one(field))
        assert main(["selftest"]) == 1
        assert "FAIL ordering: wavefront and bellman-ford" in capsys.readouterr().out

    def test_negative_seed_names_the_flag(self, capsys):
        assert main(["selftest", "--seed=-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0, got -1\n"

    def test_injected_fault(self, capsys, monkeypatch):
        def broken(rng):
            raise AssertionError("injected fault")

        monkeypatch.setattr(radiofront.cli, "_suite_entropy", broken)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL entropy" in out


class TestConfigPrecedence:
    def test_config_file_overrides_default_but_not_flag(self, tmp_path, city):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("patch_px=8\nkind=raster\n")
        out1 = tmp_path / "o1.json"
        rc = main(["--config", str(cfg), "order", *tx_flags(city), "--out", str(out1)])
        assert rc == 0
        order = load_order(out1)
        assert order.kind == "raster" and len(order) == 16  # config applied
        out2 = tmp_path / "o2.json"
        rc = main(
            ["--config", str(cfg), "order", *tx_flags(city), "--kind", "hilbert", "--out", str(out2)]
        )
        assert rc == 0
        assert load_order(out2).kind == "hilbert"  # flag wins

    def test_config_kind_is_case_insensitive(self, tmp_path, city):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("patch_px=8\nkind=Raster\n")
        out = tmp_path / "o.json"
        assert main(["--config", str(cfg), "order", *tx_flags(city), "--out", str(out)]) == 0
        assert load_order(out).kind == "raster"

    @pytest.mark.parametrize("value, checked", [("false", False), ("True", True)])
    def test_config_switch(self, tmp_path, city, capsys, value, checked):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"verify={value}\npatch_px=8\n")
        assert main(["--config", str(cfg), "order", *tx_flags(city), "--out", str(tmp_path / "o.json")]) == 0
        assert ("containment: holds=True" in capsys.readouterr().out) == checked

    def test_env_var_config(self, tmp_path, city, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("patch_px=4\n")
        monkeypatch.setenv("RADIOFRONT_CONFIG", str(cfg))
        out = tmp_path / "o.json"
        assert main(["order", *tx_flags(city), "--kind", "raster", "--out", str(out)]) == 0
        assert len(load_order(out)) == 64


class TestPrecedence:
    """flag > config file > manifest > library default, observed in output bytes."""

    @pytest.mark.parametrize(
        "command, key, default",
        [("anchor", "tx_z", TxConfig(0, 0).z), ("order", "alpha_nlos", OrderParams().alpha_nlos)],
    )
    def test_flag_config_manifest_library_default(self, tmp_path, city, command, key, default):
        manifest = tmp_path / "scene.txt"
        manifest.write_text(f"heightmap={city}\ntx_x=5.5\ntx_y=9.5\n{key}=3.0\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key}=4.0\n")
        flag = "--" + key.replace("_", "-")
        runs = itertools.count()

        def output(*argv, config=False):
            out = tmp_path / f"out{next(runs)}"
            observed = ["--out", str(out)]
            if command == "order":  # the costs move with alpha_nlos, not always the order
                observed = ["--patch-px", "8", "--out", f"{out}.json", "--cost-csv", str(out)]
            top = ["--config", str(cfg)] if config else []
            assert main([*top, command, *argv, *observed]) == 0
            return out.read_bytes()

        given = {v: output(*tx_flags(city), flag, str(v)) for v in (default, 3.0, 4.0, 5.0)}
        assert len(set(given.values())) == 4
        from_manifest = given[3.0] if key == "tx_z" else given[default]  # scene options only
        assert output("--manifest", str(manifest), flag, "5.0", config=True) == given[5.0]
        assert output("--manifest", str(manifest), config=True) == given[4.0]
        assert output("--manifest", str(manifest)) == from_manifest
        assert output(*tx_flags(city)) == given[default]

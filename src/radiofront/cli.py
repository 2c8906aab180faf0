"""Command-line front end.

Subcommands: anchor, order, entropy, metrics, synth, selftest.  Every run is
deterministic given identical inputs and --seed; every writer replaces files
atomically.

Option precedence is CLI flag > config file > scene manifest > library
default.  The config file (--config or the RADIOFRONT_CONFIG environment
variable) and the manifest (--manifest, scene options only) are flat
``key=value`` text, each value converted with its option's own type.  A bad
value (named with its file and key) or flag ends the run with one ``error:``
line.  Options left unset are not passed on, so the defaults live only in
the library objects: TxConfig, RxConfig, OrderParams, GradLossConfig,
CityParams, the presets and the functions they feed.

Only grids is imported up front (it holds the parser's choice lists too);
each subcommand imports the layers it runs, so a child process loads no
other module.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .grids import (
    ORDER_KINDS,
    PATHLOSS_PROFILES,
    PRESET_NAMES,
    HeightMap,
    RadioField,
    RxConfig,
    Scene,
    TxConfig,
    UNIT_DB,
    UNIT_METERS,
    ValidationError,
    _as_float32,
    _check,
    atomic_write,
    denormalize_db,
    grid_from_csv,
    grid_to_csv,
    load_grid,
    normalize_db,
    save_grid,
    write_table,
)

CONFIG_ENV = "RADIOFRONT_CONFIG"


def _read_key_values(path: str, known: set[str] | None = None) -> dict:
    """Flat ``key=value`` text; blank and '#' lines skipped, '-' in keys read as '_'.

    A leading UTF-8 byte-order mark is dropped, so it never joins the first key.
    With known given, a key not in it is refused with its file and line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        n = exc.object[: exc.start].count(b"\n") + 1
        raise ValidationError(f"{path}: line {n}: not UTF-8 text") from None
    out = {}
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}: line {n} has no '=': {line!r}")
        key = key.strip().replace("-", "_")
        if known is not None and key not in known:
            raise ValidationError(f"{path}: line {n}: {key}: no subcommand has an option of this name")
        out[key] = value.strip()
    return out


def _typed_options(parser: argparse.ArgumentParser, path: str, values: dict) -> dict:
    """The values naming parser's options, each converted with its option's type.

    A switch (--verify) takes true or false; a repeatable option is a flag only.
    """
    out = {}
    for action in parser._actions:
        key, text = action.dest, values.get(action.dest)
        if text is None:
            continue
        try:
            if isinstance(action, argparse._AppendAction):
                raise ValueError("a repeatable option is given as a flag only")
            if action.nargs == 0 and text.lower() not in ("true", "false"):
                raise ValueError(f"{text!r} is not true or false")
            out[key] = text.lower() == "true" if action.nargs == 0 else (action.type or str)(text)
            if action.choices is not None and out[key] not in action.choices:
                raise ValueError(f"{text!r} is not one of {sorted(action.choices)}")
        except ValueError as exc:
            raise ValidationError(f"{path}: {key}: {exc}") from None
    return out


class _Parser(argparse.ArgumentParser):
    """Raises a usage mistake (a bad flag value too) for main to report as one line."""

    def error(self, message):
        raise ValidationError(message)


def _given(**kw) -> dict:
    """The keyword arguments the user set; the library defaults the rest."""
    return {k: v for k, v in kw.items() if v is not None}


def _number_list(cast):
    """argparse type for comma-separated numbers such as '1,2,4'."""
    def parse(text: str) -> tuple:
        return tuple(cast(v) for v in text.split(","))

    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _load_any_grid(path: str, kind: type[HeightMap] | type[RadioField]):
    """The grid of class kind in an RGF1 or CSV file (a CSV holds meters or dB)."""
    unit, what = (UNIT_METERS, "a height map") if kind is HeightMap else (UNIT_DB, "a radio field")
    grid = grid_from_csv(path, unit=unit) if path.endswith(".csv") else load_grid(path)
    if not isinstance(grid, kind):
        raise ValueError(f"{path} does not contain {what}")
    return grid


# scene option (and manifest key) -> TxConfig field; RxConfig fields keep their names
_TX_FIELDS = {"tx_x": "x", "tx_y": "y", "tx_z": "z", "freq": "f",
              "power": "p_tx", "bandwidth": "w", "noise_figure": "nf", "d0": "d0"}
_RX_FIELDS = ("z_rx", "n_z", "dz")
_SCENE_KEYS = ("heightmap", *_TX_FIELDS, *_RX_FIELDS)


def _scene_from_args(args) -> Scene:
    """Scene options by precedence: flag > config file > manifest > library default."""
    opts = {}
    if args.manifest:
        manifest = _read_key_values(args.manifest)
        scene_values = {k: manifest[k] for k in _SCENE_KEYS if k in manifest}
        opts = _typed_options(args.parser, args.manifest, scene_values)
        if "heightmap" in opts and not os.path.isabs(opts["heightmap"]):
            opts["heightmap"] = str(Path(args.manifest).parent / opts["heightmap"])
    opts.update(_given(**{k: getattr(args, k) for k in _SCENE_KEYS}))
    if "heightmap" not in opts:
        raise ValueError("a height map is required (--heightmap or a manifest)")
    grid = _load_any_grid(opts["heightmap"], HeightMap)
    if "tx_x" not in opts or "tx_y" not in opts:
        raise ValueError("transmitter position required (--tx-x/--tx-y or a manifest)")
    tx = TxConfig(**{field: opts[k] for k, field in _TX_FIELDS.items() if k in opts})
    rx = RxConfig(**{k: opts[k] for k in _RX_FIELDS if k in opts})
    return Scene(grid, tx, rx)


def _add_scene_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", help="scene manifest (key=value) from `synth`")
    p.add_argument("--heightmap", help="RGF1 or CSV building height map")
    p.add_argument("--tx-x", type=float, help="transmitter x, meters")
    p.add_argument("--tx-y", type=float, help="transmitter y, meters")
    p.add_argument("--tx-z", type=float, help="transmitter height, meters")
    p.add_argument("--freq", type=float, help="carrier frequency, Hz")
    p.add_argument("--power", type=float, help="transmit power, dBm")
    p.add_argument("--bandwidth", type=float, help="bandwidth, Hz")
    p.add_argument("--noise-figure", type=float, help="noise figure, dB")
    p.add_argument("--d0", type=float, help="near-field reference distance, m")
    p.add_argument("--z-rx", type=float, help="receiver height center, m")
    p.add_argument("--n-z", type=int, help="number of receiver height slices")
    p.add_argument("--dz", type=float, help="height slice spacing, m")


def cmd_anchor(args) -> int:
    from .propagation import anchor_map, anchor_volume

    scene = _scene_from_args(args)
    anchor = anchor_volume(scene) if args.volume else anchor_map(scene)
    save_grid(anchor, args.out)
    if args.csv:
        grid_to_csv(anchor, args.csv)
    print(f"anchor: wrote {args.out} ({anchor.n_z}x{anchor.height_px}x{anchor.width_px} dB)")
    return 0


def _oracle_verdict(scene: Scene, patches: PatchGrid, params, costs) -> tuple[float, bool]:
    """Bellman-Ford's max relative cost gap to costs, and whether its costs and predecessors are bit-identical."""
    from . import ordering

    bf = ordering.bruteforce_costs(scene, patches, params)
    gap = float(np.max(np.abs(bf.d - costs.d) / (1.0 + costs.d)))
    return gap, np.array_equal(bf.d, costs.d) and np.array_equal(bf.pred, costs.pred)


def cmd_order(args) -> int:
    from .propagation import anchor_map
    from .ordering import (
        GEOMETRIC_ORDERS,
        OrderParams,
        PatchGrid,
        prior_pl_order,
        save_costs_csv,
        save_order,
        true_pl_order,
        verify_predecessor_containment,
        wavefront_order,
    )

    scene = _scene_from_args(args)
    patches = PatchGrid.for_scene(scene, **_given(patch_px=args.patch_px))
    params = OrderParams(
        **_given(alpha_los=args.alpha_los, alpha_nlos=args.alpha_nlos, beta_clamp=args.beta_clamp)
    )
    costs = None
    if args.kind == "wavefront":
        order, costs = wavefront_order(scene, patches, params)
    elif args.kind == "priorpl":
        order = prior_pl_order(anchor_map(scene), patches)
    elif args.kind == "truepl":
        if not args.field:
            raise ValueError("--field is required for the truePL order")
        order = true_pl_order(_load_any_grid(args.field, RadioField), patches)
    else:
        order = GEOMETRIC_ORDERS[args.kind](patches.n_side)

    save_order(order, args.out)
    if costs is None and (args.cost_csv or args.verify):
        _, costs = wavefront_order(scene, patches, params)
    if args.cost_csv:
        save_costs_csv(costs, args.cost_csv)
    status = 0
    if args.verify:
        report = verify_predecessor_containment(order, costs)
        print(f"containment: holds={report.holds} violations={len(report.violations)}")
        if patches.n_patches <= 1024:
            gap, ok = _oracle_verdict(scene, patches, params, costs)
            print(f"oracle: bellman-ford max relative gap {gap:.3e} ({'ok' if ok else 'FAIL'})")
            if not ok:
                status = 1
        if args.kind == "wavefront" and not report.holds:
            status = 1
    print(f"order: wrote {args.out} (kind={order.kind}, N={len(order)})")
    return status


def cmd_entropy(args) -> int:
    """Checks every flag and computes every result before it prints or writes anything."""
    from .entropy import delta_h_map, entropy_profile, load_trace
    from .ordering import load_order

    for flag, value in (("--delta-out", args.delta_out), ("--order-b", args.order_b)):
        if value and not args.trace_b:
            raise ValueError(f"{flag} needs --trace-b")
    if args.trace_b and not (args.order and args.order_b):
        raise ValueError("delta map needs --order and --order-b")
    if args.order and len(args.order) not in (1, len(args.trace)):
        raise ValueError("give one --order per --trace, or a single shared one")
    orders = [load_order(p) for p in args.order] if args.order else [None]
    if len(orders) == 1:
        orders *= len(args.trace)
    traces = [load_trace(t, o) for t, o in zip(args.trace, orders)]
    prof = entropy_profile(traces, base2=args.base2)
    dh = None
    if args.trace_b:
        trace_b = load_trace(args.trace_b, load_order(args.order_b))
        dh = delta_h_map(traces[0], trace_b, base2=args.base2)
    if args.profile_csv:
        rows = zip(range(len(prof.mean)), prof.mean.tolist(), prof.std.tolist())
        write_table(args.profile_csv, ("step", "mean", "std"), rows)
    unit = "bits" if args.base2 else "nats"
    print(f"entropy: H_bar = {prof.overall_mean:.4f} {unit} over {len(traces)} trace(s)")
    if dh is not None:
        if args.delta_out:
            save_grid(RadioField(dh.grid[np.newaxis], UNIT_DB), args.delta_out)
        print(f"delta-H: mean={dh.mean:.4f} variance={dh.variance:.4f}")
    return 0


def cmd_metrics(args) -> int:
    from .metrics import GradLossConfig, grad3d_loss, nmse, psnr, rmse_db, ssim

    pred = _load_any_grid(args.pred, RadioField)
    gt = _load_any_grid(args.gt, RadioField)
    if pred.unit != gt.unit:
        raise ValueError(f"--pred {args.pred} is in {pred.unit} but --gt {args.gt} is in {gt.unit}")
    window = _given(lo=args.norm_lo, hi=args.norm_hi)
    if pred.unit == UNIT_DB:
        pred_db, gt_db = pred, gt
        pred01, gt01 = normalize_db(pred, **window), normalize_db(gt, **window)
    else:
        pred01, gt01 = pred, gt
        pred_db, gt_db = denormalize_db(pred, **window), denormalize_db(gt, **window)
    cfg = GradLossConfig(**_given(scales=args.scales, lambda_z=args.lambda_z))
    grad = grad3d_loss(pred01, gt01, cfg)
    values = {
        "nmse": nmse(pred01, gt01),
        "rmse_db": rmse_db(pred_db, gt_db),
        "ssim": ssim(pred01, gt01),
        "psnr": psnr(pred01, gt01),
        "grad_total": grad.total,
    }
    write_table(args.report, values, [[float(v) for v in values.values()]])
    if args.per_slice:
        rows = []
        for k in range(pred01.n_z):
            p_k, g_k = pred01.values[k: k + 1], gt01.values[k: k + 1]
            rmse_k = rmse_db(pred_db.values[k: k + 1], gt_db.values[k: k + 1])
            rows.append((k, nmse(p_k, g_k), rmse_k, psnr(p_k, g_k)))
        write_table(args.per_slice, ("slice", "nmse", "rmse_db", "psnr"), rows)
    print("metrics: " + " ".join(f"{k}={v:.4g}" for k, v in values.items()))
    return 0


def cmd_synth(args) -> int:
    from .synth import PATHLOSS_RANGES, PRESETS, CityParams, gen_field, gen_scene

    _check("an integer >= 1", **{"--count": args.count})
    base = Path(args.out_dir)
    rx = RxConfig(**_given(z_rx=args.z_rx, n_z=args.n_z, dz=args.dz))
    size = _given(side_px=args.side_px, resolution=args.resolution)
    layout = _given(
        n_buildings=args.n_buildings,
        height_range=args.height_range,
        footprint_range=args.footprint_range,
    )
    clamp = PATHLOSS_RANGES.get(args.clamp_profile)
    noise = _given(noise_sigma=args.noise_sigma, smooth_sigma=args.smooth_sigma, clamp=clamp)
    for i in range(args.count):
        seed = args.seed + i
        if args.preset:
            scene = PRESETS[args.preset](seed=seed, **size)
        else:
            scene = gen_scene(CityParams(seed=seed, **size, **layout))
        scene = Scene(scene.heightmap, replace(scene.tx, **_given(f=args.freq)), rx)
        fld = gen_field(scene, seed=seed, **noise)
        out_dir = base / f"scene_{i:03d}" if args.count > 1 else base
        # the binary writers' float32 rule, checked before the directory is made
        _as_float32(out_dir / "heightmap.rgf", scene.heightmap.values)
        _as_float32(out_dir / "field.rgf", fld.values)
        out_dir.mkdir(parents=True, exist_ok=True)  # only now, so a refused scene leaves none
        save_grid(scene.heightmap, out_dir / "heightmap.rgf")
        save_grid(fld, out_dir / "field.rgf")
        manifest = {"seed": seed, "heightmap": "heightmap.rgf", "field": "field.rgf"}
        manifest.update({k: getattr(scene.tx, f) for k, f in _TX_FIELDS.items()})
        manifest.update({k: getattr(rx, k) for k in _RX_FIELDS})
        text = "\n".join(
            f"{k}={float(v)!r}" if isinstance(v, float) else f"{k}={v}"
            for k, v in manifest.items()
        )
        atomic_write(out_dir / "scene.txt", text + "\n")
    print(f"synth: wrote {args.count} scene(s) under {base}")
    return 0


# ---------------------------------------------------------------------------
# selftest


def _suite_ordering(rng) -> None:
    from .ordering import PatchGrid, verify_predecessor_containment, wavefront_order

    for _ in range(5):
        heights = (rng.random((32, 32)) < 0.25) * rng.uniform(5, 30, (32, 32))
        scene = Scene(
            HeightMap(heights, 1.0),
            TxConfig(rng.uniform(0, 32), rng.uniform(0, 32)),
        )
        patches = PatchGrid.for_scene(scene, patch_px=4)
        order, costs = wavefront_order(scene, patches)
        gap, ok = _oracle_verdict(scene, patches, None, costs)
        if not ok:
            raise AssertionError(f"wavefront and bellman-ford disagree: max relative cost gap {gap:.3e}")
        if not verify_predecessor_containment(order, costs).holds:
            raise AssertionError("wavefront order lost predecessor containment")


def _suite_entropy(rng) -> None:
    from .entropy import JointDist, exact_conditional_entropies

    p = rng.random((2, 2, 2, 2))
    joint = JointDist(p / p.sum())
    totals = [
        exact_conditional_entropies(joint, rng.permutation(4)).sum() for _ in range(10)
    ]
    if max(totals) - min(totals) > 1e-9:
        raise AssertionError("chain-rule invariance violated")


def _suite_rope(rng) -> None:
    from .rope import RopeConfig, rope_rotate_3d

    cfg = RopeConfig.from_head_dim(24)
    for _ in range(100):
        q = rng.normal(size=24)
        k = rng.normal(size=24)
        p1 = rng.integers(-32, 32, size=3)
        p2 = rng.integers(-32, 32, size=3)
        rq = rope_rotate_3d(q, *p1, cfg)
        if abs(np.linalg.norm(rq) - np.linalg.norm(q)) > 1e-12:
            raise AssertionError("rotation does not preserve norm")
        lhs = rq @ rope_rotate_3d(k, *p2, cfg)
        rhs = q @ rope_rotate_3d(k, *(p2 - p1), cfg)
        if abs(lhs - rhs) > 1e-9:
            raise AssertionError("relative-position identity violated")


def cmd_selftest(args) -> int:
    _check("an integer >= 0", **{"--seed": args.seed})  # numpy seeds from non-negative integers only
    suites = {
        "ordering": _suite_ordering,
        "entropy": _suite_entropy,
        "rope": _suite_rope,
    }
    failed = []
    for name, suite in suites.items():
        rng = np.random.default_rng(args.seed)
        try:
            suite(rng)
        except AssertionError as exc:
            failed.append(name)
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failed:
        print(f"selftest: FAILED suites: {', '.join(failed)}")
        return 1
    print("selftest: all suites passed")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radiofront",
        description="physics-guided radio-map toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help=f"key=value config file (or ${CONFIG_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anchor", help="compute the pathloss anchor map")
    _add_scene_options(p)
    p.add_argument("--out", required=True, help="output RGF1 path")
    p.add_argument("--csv", help="also export x,y,z,value CSV")
    p.add_argument("--volume", action="store_true", help="evaluate every rx slice")
    p.set_defaults(func=cmd_anchor, parser=p)

    p = sub.add_parser("order", help="construct a generation order")
    _add_scene_options(p)
    p.add_argument(
        "--kind",
        default="wavefront",
        type=str.lower,
        choices=[k.lower() for k in ORDER_KINDS if k != "custom"],
        help="generation order (case-insensitive)",
    )
    p.add_argument("--patch-px", type=int, help="pixels per patch side")
    p.add_argument("--alpha-los", type=float)
    p.add_argument("--alpha-nlos", type=float)
    p.add_argument("--beta-clamp", type=float)
    p.add_argument("--field", help="ground-truth RGF1 field (for --kind truepl)")
    p.add_argument("--out", required=True, help="output order file (JSON)")
    p.add_argument("--cost-csv", help="dump patch_index,D,pred CSV")
    p.add_argument("--verify", action="store_true", help="run containment + oracle checks")
    p.set_defaults(func=cmd_order, parser=p)

    p = sub.add_parser("entropy", help="entropy profile and delta-H map from traces")
    p.add_argument("--trace", action="append", required=True, help="LTR1 trace (repeatable)")
    p.add_argument("--order", action="append", help="order file per trace")
    p.add_argument("--profile-csv", help="write step,mean,std CSV")
    p.add_argument("--trace-b", help="second trace for the delta-H map")
    p.add_argument("--order-b", help="order file for --trace-b")
    p.add_argument("--delta-out", help="write the per-patch delta grid as RGF1")
    p.add_argument("--base2", action="store_true", help="report bits instead of nats")
    p.set_defaults(func=cmd_entropy, parser=p)

    p = sub.add_parser("metrics", help="compare predicted and ground-truth fields")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--report", required=True, help="one-line CSV report path")
    p.add_argument("--per-slice", help="per-slice breakdown CSV")
    p.add_argument("--norm-lo", type=float, help="dB mapped to 1.0")
    p.add_argument("--norm-hi", type=float, help="dB mapped to 0.0")
    p.add_argument("--scales", type=_number_list(int), help="gradient-loss pooling factors")
    p.add_argument("--lambda-z", type=float)
    p.set_defaults(func=cmd_metrics, parser=p)

    p = sub.add_parser("synth", help="generate synthetic scenes and fields")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--preset", choices=sorted(PRESET_NAMES), help="edge|canyon|sparse layout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1, help="number of scenes")
    p.add_argument("--side-px", type=int)
    p.add_argument("--resolution", type=float)
    p.add_argument("--n-buildings", type=int)
    p.add_argument("--height-range", type=_number_list(float), help="lo,hi meters")
    p.add_argument("--footprint-range", type=_number_list(int), help="lo,hi pixels")
    p.add_argument("--freq", type=float)
    p.add_argument("--z-rx", type=float)
    p.add_argument("--n-z", type=int)
    p.add_argument("--dz", type=float)
    p.add_argument("--noise-sigma", type=float, help="dB noise std")
    p.add_argument("--smooth-sigma", type=float, help="gaussian blur, px")
    p.add_argument("--clamp-profile", choices=sorted(PATHLOSS_PROFILES), help="clip range")
    p.set_defaults(func=cmd_synth, parser=p)

    p = sub.add_parser("selftest", help="run the built-in oracle suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest, parser=p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = args.config or os.environ.get(CONFIG_ENV)
        if config:  # config values become the subcommand's defaults; flags still win
            # one file serves every subcommand: a key is refused only if none has that option
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            known = {a.dest for p in sub.choices.values() for a in p._actions if a.dest != "help"}
            args.parser.set_defaults(**_typed_options(args.parser, config, _read_key_values(config, known)))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: inputs, timed ops, output checks, digests.

Every workload is a closed loop with one client: the harness sends the next
op only after the previous one has completed and been checked.  Ops come in
cycles of fixed composition; the harness always runs whole cycles, so every
run and every seed measures the same mix of op shapes.  Inputs derive from
the seed alone.

Each workload provides
  setup()          generate the inputs and warm up (timed as set-up)
  cycle(k)         the op specs of cycle k (cheap, untimed)
  run(spec)        one op; this is what latency and CPU time measure
  after(spec, out) untimed in-process follow-up that the trace still sees
  check(spec, out) output-correctness problems, as a list of strings
  digest(h, spec, out) feed every output byte and result float into h
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import radiofront as rf

LO_DB, HI_DB = rf.PATHLOSS_RANGES["radiomapseer"]


# stream keys for inputs made at set-up and for the warm-up op; cycles use 0, 1, ...
SETUP, WARM = 1 << 30, (1 << 30) + 1


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Independent generator per (seed, keys); the same keys give the same stream."""
    return np.random.default_rng([seed % 2**32, *keys])


def op_seed(seed: int, *keys: int) -> int:
    return int(rng_for(seed, *keys).integers(2**31 - 1))


def _floats(h, *values) -> None:
    h.update(struct.pack(f"<{len(values)}d", *[float(v) for v in values]))


def _array(h, a) -> None:
    a = np.ascontiguousarray(a)
    h.update(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes())


def _is_bijection(perm, n: int) -> bool:
    perm = np.asarray(perm)
    return perm.shape == (n,) and np.array_equal(np.sort(perm), np.arange(n))


def _oracle_problems(scene, patches, order, costs) -> list[str]:
    """Bellman-Ford must reproduce the Dijkstra costs and order bit for bit."""
    bf = rf.bruteforce_costs(scene, patches)
    out = []
    if not np.array_equal(bf.d, costs.d):
        out.append(f"bellman-ford costs differ at N={patches.n_patches}")
    if not np.array_equal(np.argsort(bf.d, kind="stable"), order.perm):
        out.append(f"bellman-ford order differs at N={patches.n_patches}")
    return out


def _order_problems(tag, order, costs, report) -> list[str]:
    """Wavefront invariants, checked independently of the library's verifier.

    Every chain is contained exactly when each patch's predecessor comes
    before it, so one vectorised pass decides containment.
    """
    n = len(costs.d)
    if not _is_bijection(order.perm, n):
        return [f"{tag}: perm is not a bijection"]
    out = []
    if not np.all(np.isfinite(costs.d)):
        out.append(f"{tag}: non-finite costs")
    pos = np.empty(n, dtype=np.int64)
    pos[order.perm] = np.arange(n)
    has_pred = costs.pred >= 0
    holds = bool(np.all(pos[costs.pred[has_pred]] < pos[has_pred]))
    if not holds:
        out.append(f"{tag}: containment broken")
    if report.holds != holds:
        out.append(f"{tag}: verifier says holds={report.holds}, independent check says {holds}")
    return out


def _nearest_open(heights: np.ndarray, fx: float, fy: float) -> tuple[int, int]:
    """Open pixel closest to the fractional position (fx, fy) of the map."""
    h, w = heights.shape
    i0, j0 = int(fy * h), int(fx * w)
    free = np.flatnonzero(heights.ravel() == 0)
    fi, fj = np.divmod(free, w)
    best = int(np.argmin((fi - i0) ** 2 + (fj - j0) ** 2))
    return int(fi[best]), int(fj[best])


def cli_env() -> dict:
    """Environment in which a child interpreter imports this same radiofront."""
    src = str(Path(rf.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Workload:
    name = ""
    # whose CPU time and peak memory the end-to-end metrics report
    rusage = resource.RUSAGE_SELF

    def __init__(self, seed: int, work: Path, tracer, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.tiny = tiny

    def setup(self) -> None:
        pass

    def after(self, spec, out) -> None:
        pass

    def warm_up(self, spec) -> None:
        """Run one op at set-up; a warm-up op that fails its checks fails the run."""
        problems = self.check(spec, self.run(spec))
        if problems:
            raise RuntimeError(f"{self.name} warm-up op failed its checks: " + "; ".join(problems))


# ---------------------------------------------------------------------------


class SceneBuild(Workload):
    """Dataset preparation: scene -> field -> anchors -> orders -> metrics -> RGF1."""

    name = "scene_build"
    # (kind, map side, n_z, transmitter position as a map fraction).  Fixed
    # transmitter fractions keep the ray-fan lengths, and so the kernel's
    # work, the same for every seed; the seed changes the buildings.
    SLOTS = [
        ("city", 256, 1, (0.5, 0.5)),
        ("edge", 128, 3, None),
        ("city", 128, 2, (0.3, 0.6)),
        ("canyon", 256, 1, None),
        ("sparse", 128, 1, None),
        ("serpentine", 192, 1, None),
        ("city", 256, 2, (0.7, 0.25)),
        ("city", 128, 3, (0.5, 0.5)),
    ]
    TINY_SLOTS = [
        ("city", 64, 2, (0.5, 0.5)),
        ("edge", 64, 1, None),
        ("serpentine", 48, 2, None),
    ]
    PATCH_PX = 16

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.warm_up(("city", 64, 1, (0.5, 0.5), op_seed(self.seed, WARM)))

    def cycle(self, k):
        slots = self.TINY_SLOTS if self.tiny else self.SLOTS
        return [(*slot, op_seed(self.seed, k, i)) for i, slot in enumerate(slots)]

    def _scene(self, kind, side, n_z, frac, seed):
        rx = rf.RxConfig(n_z=n_z)
        if kind == "city":
            small = side <= 128
            params = rf.CityParams(
                side_px=side,
                n_buildings=8 if small else 12,
                footprint_range=(side // 16, side * 3 // 16) if small else (16, 48),
                seed=seed,
            )
            hm = rf.gen_city(params)
            i, j = _nearest_open(hm.values, *frac)
            tx = rf.TxConfig(x=j + 0.5, y=i + 0.5, z=1.5, f=5.9e9)
            return rf.Scene(hm, tx, rx)
        preset = rf.PRESETS[kind](seed=seed, side_px=side)
        return rf.Scene(preset.heightmap, preset.tx, rx)

    def run(self, spec):
        kind, side, n_z, frac, seed = spec
        scene = self._scene(kind, side, n_z, frac, seed)
        fld = rf.gen_field(scene, noise_sigma=2.0, seed=seed, smooth_sigma=1.0, clamp=(LO_DB, HI_DB))
        anchor = rf.anchor_volume(scene)
        patches = rf.PatchGrid.for_scene(scene, self.PATCH_PX)
        order, costs = rf.wavefront_order(scene, patches)
        prior = rf.prior_pl_order(anchor, patches)
        report = rf.verify_predecessor_containment(order, costs)
        metrics = rf.metric_report(anchor, fld, LO_DB, HI_DB)
        path = self.work / "field.rgf"
        rf.save_grid(fld, path)
        raw = path.read_bytes()
        loaded = rf.load_grid(path)
        return dict(scene=scene, patches=patches, field=fld, anchor=anchor, order=order,
                    costs=costs, prior=prior, report=report, metrics=metrics, raw=raw, loaded=loaded)

    def check(self, spec, out):
        _, side, n_z, _, _ = spec
        problems = []
        for key in ("field", "anchor"):
            v = out[key].values
            if v.shape != (n_z, side, side) or not np.all(np.isfinite(v)):
                problems.append(f"{key}: shape {v.shape} or non-finite values")
        problems += _order_problems("wavefront", out["order"], out["costs"], out["report"])
        if not _is_bijection(out["prior"].perm, out["patches"].n_patches):
            problems.append("priorPL perm is not a bijection")
        m = out["metrics"]
        if not all(np.isfinite([m.nmse, m.rmse_db, m.ssim, m.psnr])):
            problems.append(f"non-finite metrics {m}")
        expect = out["field"].values.astype("<f4").astype(np.float64)
        if not np.array_equal(out["loaded"].values, expect):
            problems.append("RGF1 round trip is not bit-exact")
        if out["patches"].n_patches <= 1024:
            problems += _oracle_problems(out["scene"], out["patches"], out["order"], out["costs"])
        return problems

    def digest(self, h, spec, out):
        h.update(repr(spec).encode())
        h.update(out["raw"])
        for key in ("order", "prior"):
            _array(h, out[key].perm)
        _array(h, out["costs"].d)
        _array(h, out["anchor"].values)
        m = out["metrics"]
        _floats(h, m.nmse, m.rmse_db, m.ssim, m.psnr)


# ---------------------------------------------------------------------------


class OrderDense(Workload):
    """Dense orders on pre-built 256^2 scenes with a moving transmitter."""

    name = "order_dense"
    N_SCENES = 2

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        side = 64 if self.tiny else 256
        self.scenes, self.anchors, self.free = [], [], []
        for s in range(self.N_SCENES):
            params = rf.CityParams(side_px=side, n_buildings=14 if side > 64 else 4,
                                   footprint_range=(12, 40) if side > 64 else (4, 12),
                                   seed=op_seed(self.seed, SETUP, s))
            scene = rf.gen_scene(params)
            self.scenes.append(scene)
            self.anchors.append(rf.anchor_map(scene))
            self.free.append(np.flatnonzero(scene.heightmap.values.ravel() == 0))
        self.patch_px = (4, 8)  # N = 4096 and 1024 at side 256
        self.warm_up(self.cycle(WARM)[0])

    def cycle(self, k):
        specs = []
        for s in range(self.N_SCENES):
            rng = rng_for(self.seed, k, s)
            flat = int(self.free[s][rng.integers(len(self.free[s]))])
            w = self.scenes[s].heightmap.width_px
            oracle = k % 2 == 0 and s == 0  # Bellman-Ford on every 4th op
            specs.append((s, flat // w, flat % w, oracle))
        return specs

    def run(self, spec):
        s, i, j, _ = spec
        scene = self.scenes[s].with_tx(x=j + 0.5, y=i + 0.5)
        results = []
        for patch_px in self.patch_px:
            patches = rf.PatchGrid.for_scene(scene, patch_px)
            order, costs = rf.wavefront_order(scene, patches)
            report = rf.verify_predecessor_containment(order, costs)
            results.append((patches, order, costs, report))
        n_side = results[0][0].n_side
        geometric = [rf.hilbert_order(n_side), rf.zcurve_order(n_side),
                     rf.subsample_order(n_side), rf.alternative_order(n_side)]
        prior = rf.prior_pl_order(self.anchors[s], results[0][0])
        path = self.work / "order.json"
        rf.save_order(results[0][1], path)
        raw = path.read_bytes()
        loaded = rf.load_order(path)
        return dict(scene=scene, results=results, geometric=geometric, prior=prior, raw=raw, loaded=loaded)

    def check(self, spec, out):
        problems = []
        for patches, order, costs, report in out["results"]:
            problems += _order_problems(f"wavefront N={patches.n_patches}", order, costs, report)
        n = out["results"][0][0].n_patches
        for o in out["geometric"] + [out["prior"]]:
            if not _is_bijection(o.perm, n):
                problems.append(f"{o.kind} perm is not a bijection")
        first = out["results"][0][1]
        if out["loaded"].kind != first.kind or not np.array_equal(out["loaded"].perm, first.perm):
            problems.append("order file round trip changed the order")
        if spec[3]:
            patches, order, costs, _ = out["results"][1]
            problems += _oracle_problems(out["scene"], patches, order, costs)
        return problems

    def digest(self, h, spec, out):
        h.update(repr(spec).encode())
        h.update(out["raw"])
        for _, order, costs, _ in out["results"]:
            _array(h, order.perm)
            _array(h, costs.d)
            _array(h, costs.pred)
        for o in out["geometric"] + [out["prior"]]:
            _array(h, o.perm)


# ---------------------------------------------------------------------------


def _synthetic_field(rng, side: int, n_z: int) -> np.ndarray:
    """Smooth pathloss-like dB volume, float32-representable."""
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    cx, cy = rng.uniform(0.2, 0.8, 2) * side
    dist = np.hypot(xx - cx, yy - cy) + 1.0
    phase = rng.uniform(0, 2 * np.pi, 2)
    ripple = 4.0 * np.sin(xx / 9.0 + phase[0]) * np.cos(yy / 13.0 + phase[1])
    slices = [-52.0 - 22.0 * np.log10(dist) * (1.0 + 0.1 * z) + ripple for z in range(n_z)]
    v = np.stack(slices) + rng.normal(0.0, 1.0, (n_z, side, side))
    return np.clip(v, HI_DB, LO_DB).astype(np.float32).astype(np.float64)


class FieldEval(Workload):
    """Metrics and entropy analysis on pre-built fields and logit traces."""

    name = "field_eval"
    N_PAIRS = 2
    N_TRACES = 4

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        rng = rng_for(self.seed, SETUP)
        side, steps, vocab = (64, 64, 64) if self.tiny else (256, 1024, 1024)
        self.pairs = []
        for _ in range(self.N_PAIRS):
            gt = rf.RadioField(_synthetic_field(rng, side, 3), rf.UNIT_DB)
            noisy = gt.values + rng.normal(0.0, 3.0, gt.values.shape)
            pred = rf.RadioField(np.clip(noisy, HI_DB, LO_DB).astype(np.float32).astype(np.float64), rf.UNIT_DB)
            bins = np.linspace(HI_DB, LO_DB, 65)
            hists = [np.histogram(f.values, bins)[0] for f in (pred, gt)]
            self.pairs.append((pred, gt, *hists))
        n_side = int(round(steps ** 0.5))
        orders = [rf.hilbert_order(n_side), rf.zcurve_order(n_side),
                  rf.raster_order(n_side), rf.alternative_order(n_side)]
        self.traces = []
        for t in range(self.N_TRACES):
            temp = rng.uniform(0.2, 3.0, (steps, 1))
            logits = (rng.standard_normal((steps, vocab)) * temp).astype(np.float32).astype(np.float64)
            self.traces.append(rf.LogitTrace(logits, orders[t]))
        serp = rf.preset_serpentine(seed=int(rng.integers(8)), side_px=48)
        _, costs = rf.wavefront_order(serp, rf.PatchGrid.for_scene(serp, 16))
        self.joint = rf.build_shadow_joint(costs, eps=0.1)
        self.joint_orders = [np.argsort(costs.d, kind="stable"), np.arange(9)]
        self.warm_up(self.cycle(WARM)[0])

    def cycle(self, k):
        return list(range(self.N_PAIRS))

    def run(self, p):
        pred, gt, hist_a, hist_b = self.pairs[p]
        pred01 = rf.normalize_db(pred, LO_DB, HI_DB)
        gt01 = rf.normalize_db(gt, LO_DB, HI_DB)
        report = rf.metric_report(pred, gt, LO_DB, HI_DB)
        grad = rf.grad3d_loss(pred01, gt01)
        cdf = rf.vertical_grad_error_cdf(pred, gt)
        hist = rf.hist_stats(hist_a, hist_b)
        grid_path = self.work / "pred.rgf"
        rf.save_grid(pred, grid_path)
        grid_back = rf.load_grid(grid_path)
        trace = self.traces[p]
        trace_path = self.work / "trace.ltr"
        rf.save_trace(trace, trace_path)
        trace_raw = trace_path.read_bytes()
        trace_back = rf.load_trace(trace_path, trace.order)
        profile = rf.entropy_profile(self.traces)
        delta = rf.delta_h_map(self.traces[p], self.traces[p + 1])
        exact = [rf.exact_conditional_entropies(self.joint, o) for o in self.joint_orders]
        limited = [rf.limited_context_entropy(self.joint, o, 1) for o in self.joint_orders]
        return dict(report=report, grad=grad, cdf=cdf, hist=hist, grid_back=grid_back,
                    trace_raw=trace_raw, trace_back=trace_back, profile=profile, delta=delta,
                    exact=exact, limited=limited)

    def check(self, p, out):
        problems = []
        r, g, hs = out["report"], out["grad"], out["hist"]
        if not (np.isfinite([r.nmse, r.rmse_db, r.psnr, g.total]).all() and r.nmse >= 0 and -1 <= r.ssim <= 1):
            problems.append(f"metric values out of range: {r} grad={g.total}")
        cdf = out["cdf"]
        if not (np.all(np.diff(cdf.values) >= 0) and cdf.cdf[-1] == 1.0):
            problems.append("vertical-gradient CDF is not a sorted distribution")
        if not (0 <= hs.d_js <= np.log(2) + 1e-12 and 0 <= hs.norm_entropy_a <= 1 + 1e-12):
            problems.append(f"histogram statistics out of range: {hs}")
        if not np.array_equal(out["grid_back"].values, self.pairs[p][0].values):
            problems.append("RGF1 round trip is not bit-exact")
        if not np.array_equal(out["trace_back"].logits, self.traces[p].logits):
            problems.append("LTR1 round trip is not bit-exact")
        vocab = self.traces[0].vocab
        mean = out["profile"].mean
        if not (np.all(np.isfinite(mean)) and mean.min() >= 0 and mean.max() <= np.log(vocab) + 1e-9):
            problems.append("entropy profile outside [0, log vocab]")
        if not np.all(np.isfinite(out["delta"].grid)):
            problems.append("delta-H map has non-finite entries")
        joint_h = self.joint.entropy()
        for steps, limited in zip(out["exact"], out["limited"]):
            if abs(steps.sum() - joint_h) > 1e-9:
                problems.append(f"chain rule broken: {steps.sum()!r} != {joint_h!r}")
            if limited < steps.mean() - 1e-12:
                problems.append("limited-context entropy below full-context entropy")
        return problems

    def digest(self, h, p, out):
        h.update(repr(p).encode())
        h.update(out["trace_raw"])
        r, g, hs = out["report"], out["grad"], out["hist"]
        _floats(h, r.nmse, r.rmse_db, r.ssim, r.psnr, g.total, g.vertical,
                hs.norm_entropy_a, hs.norm_entropy_b, hs.gini_a, hs.gini_b, hs.d_js, hs.rho,
                out["profile"].overall_mean, out["delta"].mean, out["delta"].variance, *out["limited"])
        _array(h, out["cdf"].values)
        _array(h, out["profile"].mean)
        _array(h, out["profile"].std)
        _array(h, out["delta"].grid)
        for steps in out["exact"]:
            _array(h, steps)


# ---------------------------------------------------------------------------


class CliPipeline(Workload):
    """synth -> anchor -> order --verify -> metrics -> entropy, one process each."""

    name = "cli_pipeline"
    rusage = resource.RUSAGE_CHILDREN
    ORACLE_OK = re.compile(r"^oracle: .* \(ok\)$", re.M)

    def setup(self) -> None:
        self.side = 64 if self.tiny else 128
        self.setup_dir = self.work / "inputs"
        self.setup_dir.mkdir(parents=True, exist_ok=True)
        self.op_dir = self.work / "op"
        rng = rng_for(self.seed, SETUP)
        steps, vocab = (64, 32) if self.tiny else (1024, 256)
        self.steps = steps
        n_side = int(round(steps ** 0.5))
        for name, order in (("a", rf.hilbert_order(n_side)), ("b", rf.zcurve_order(n_side))):
            logits = (rng.standard_normal((steps, vocab)) * rng.uniform(0.2, 3.0, (steps, 1))).astype(np.float32)
            rf.save_trace(rf.LogitTrace(logits, order), self.setup_dir / f"trace_{name}.ltr")
            rf.save_order(order, self.setup_dir / f"order_{name}.json")
        cli_startup_ms(repeats=1)  # warm-up

    def cycle(self, k):
        return [op_seed(self.seed, k)]

    def commands(self, seed):
        """(subcommand, argv) of one chain; paths are relative to the op directory."""
        inputs = "../inputs"
        return [
            ("synth", ["synth", "--out-dir", "scene", "--seed", str(seed), "--side-px", str(self.side),
                       "--n-z", "3", "--n-buildings", "8", "--footprint-range", f"{self.side // 16},{self.side * 3 // 16}",
                       "--smooth-sigma", "1.0", "--noise-sigma", "2.0", "--clamp-profile", "radiomapseer"]),
            ("anchor", ["anchor", "--manifest", "scene/scene.txt", "--volume",
                        "--out", "anchor.rgf", "--csv", "anchor.csv"]),
            ("order", ["order", "--manifest", "scene/scene.txt", "--patch-px", "8", "--verify",
                       "--cost-csv", "costs.csv", "--out", "order.json"]),
            ("metrics", ["metrics", "--pred", "anchor.csv", "--gt", "scene/field.rgf",
                         "--report", "report.csv", "--per-slice", "slices.csv",
                         "--norm-lo", str(LO_DB), "--norm-hi", str(HI_DB)]),
            ("entropy", ["entropy", "--trace", f"{inputs}/trace_a.ltr", "--order", f"{inputs}/order_a.json",
                         "--trace-b", f"{inputs}/trace_b.ltr", "--order-b", f"{inputs}/order_b.json",
                         "--delta-out", "delta.rgf", "--profile-csv", "profile.csv"]),
        ]

    def run(self, seed):
        shutil.rmtree(self.op_dir, ignore_errors=True)
        self.op_dir.mkdir(parents=True)
        env = cli_env()
        steps = []
        for sub, argv in self.commands(seed):
            with self.tracer.span(f"cli.{sub}"):
                proc = subprocess.run([sys.executable, "-m", "radiofront.cli", *argv], cwd=self.op_dir,
                                      env=env, capture_output=True, text=True, timeout=120)
            steps.append((sub, proc.returncode, proc.stdout, proc.stderr))
            if proc.returncode != 0:
                break
        return dict(dir=self.op_dir, steps=steps)

    def after(self, seed, out):
        """Read the CLI's anchor CSV back in-process and export it again.

        The CSV reader and writer run inside the CLI children, where the
        trace cannot see them; this repeats them on the same file so the
        traced run measures the grids CSV layer, and the check compares.
        """
        op_dir = out["dir"]
        if not (op_dir / "anchor.csv").exists():
            return
        out["csv_grid"] = rf.grid_from_csv(op_dir / "anchor.csv")
        rf.grid_to_csv(out["csv_grid"], self.work / "anchor_again.csv")
        written = sum(p.stat().st_size for p in op_dir.rglob("*") if p.is_file())
        self.tracer.count("cli.output_bytes", written)

    def check(self, seed, out):
        steps = out["steps"]
        problems = [f"{sub} exited {code}: {err.strip()[-300:]}" for sub, code, _, err in steps if code != 0]
        if problems or len(steps) != 5:
            return problems or ["pipeline stopped early"]
        stdout = {sub: text for sub, _, text, _ in steps}
        d = out["dir"]
        if "containment: holds=True violations=0" not in stdout["order"]:
            problems.append("order --verify did not report containment: holds=True")
        if not self.ORACLE_OK.search(stdout["order"]):
            problems.append("order --verify did not report oracle: ... (ok)")
        if "entropy: H_bar" not in stdout["entropy"]:
            problems.append("entropy printed no H_bar line")
        anchor = rf.load_grid(d / "anchor.rgf")
        field = rf.load_grid(d / "scene" / "field.rgf")
        if anchor.values.shape != (3, self.side, self.side) or field.values.shape != anchor.values.shape:
            problems.append(f"anchor/field shapes {anchor.values.shape} {field.values.shape}")
        csv_grid = out.get("csv_grid")
        if csv_grid is None or not np.array_equal(csv_grid.values.astype(np.float32), anchor.values.astype(np.float32)):
            problems.append("anchor CSV and RGF1 disagree")
        if (self.work / "anchor_again.csv").read_bytes() != (d / "anchor.csv").read_bytes():
            problems.append("anchor CSV does not round-trip through grid_from_csv/grid_to_csv")
        order = rf.load_order(d / "order.json")
        n = (self.side // 8) ** 2
        if not _is_bijection(order.perm, n):
            problems.append("order file perm is not a bijection")
        if len((d / "costs.csv").read_text().splitlines()) != n + 1:
            problems.append("cost CSV does not have one row per patch")
        header, row = (d / "report.csv").read_text().splitlines()
        values = [float(v) for v in row.split(",")]
        if header.split(",")[0] != "nmse" or not np.all(np.isfinite(values)):
            problems.append(f"metrics report not finite: {row}")
        if len((d / "slices.csv").read_text().splitlines()) != 4:
            problems.append("per-slice report does not have three slices")
        if len((d / "profile.csv").read_text().splitlines()) != self.steps + 1:
            problems.append("entropy profile CSV has the wrong length")
        return problems

    def digest(self, h, seed, out):
        h.update(repr(seed).encode())
        for sub, code, stdout, _ in out["steps"]:
            h.update(f"{sub}:{code}:{stdout}".encode())
        d = out["dir"]
        for p in sorted(d.rglob("*")):
            if p.is_file():
                h.update(p.relative_to(d).as_posix().encode())
                h.update(p.read_bytes())


def cli_startup_ms(repeats: int = 3) -> float:
    """Median wall time of a bare ``import radiofront.cli`` interpreter."""
    env = cli_env()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import radiofront.cli"], env=env, check=True, timeout=120)
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


WORKLOADS = {w.name: w for w in (SceneBuild, OrderDense, FieldEval, CliPipeline)}

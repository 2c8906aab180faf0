"""Generation-order construction over a patch grid.

The wavefront order ranks map patches by blockage-weighted shortest-path
cost from the transmitter: every patch starts with a direct-path cost and
relaxation over the 8-connected patch graph lets shadowed patches reach
lower costs through detours.  Sorting the final costs (ties broken by
ascending patch index) yields a permutation in which every patch comes
after its predecessor, so each prefix contains the patch's entire
lowest-cost predecessor chain.

Predecessor rule, shared by the wavefront solver and the Bellman-Ford
oracle: a patch whose relaxed cost beats its direct-path cost points at the
tight neighbour s (d[s] + w(s, i) == d[i]) that comes first in (cost, index)
order, i.e. the smallest (d[s], s); every other patch keeps its direct-path
predecessor, the source.

Also provided: the geometric scan orders (raster, hilbert, z-curve,
subsample, serpentine), pathloss-ranked orders, a Bellman-Ford oracle, and
the predecessor-containment verifier.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .grids import RadioField, Scene, ValidationError, atomic_write, write_table
from .propagation import blockage_ratio_batch

NO_PRED = -1

# Relative margin below which a relaxed cost is considered tied with the
# direct-path cost.  Summing edge square roots can land a few ulps below the
# directly computed distance on geometrically equivalent routes; genuine
# detours clear this margin by many orders.  Sub-margin improvements keep
# the direct route, so zero-blockage scenes reduce exactly to the distance
# sort.
RELAX_GUARD = 1e-13


def _snap_to_direct(d, pred, initial):
    """Treat sub-margin improvements over the direct cost as ties."""
    near = (d < initial.d) & (initial.d - d <= RELAX_GUARD * np.maximum(1.0, initial.d))
    d = np.where(near, initial.d, d)
    pred = np.where(near, initial.pred, pred)
    return d, pred


@dataclass(frozen=True)
class PatchGrid:
    """Tiling of a square map into n_side x n_side patches.

    Patch index is row-major: patch (r, c) has index r * n_side + c and its
    center sits at ((c + 0.5) * patch_px * res, (r + 0.5) * patch_px * res)
    at receiver height z.
    """

    patch_px: int
    n_side: int
    resolution: float
    z: float

    def __post_init__(self):
        if self.patch_px < 1 or self.n_side < 1:
            raise ValidationError("patch_px and n_side must be >= 1")

    @classmethod
    def for_scene(cls, scene: Scene, patch_px: int = 16) -> "PatchGrid":
        h = scene.heightmap
        if h.width_px != h.height_px:
            raise ValidationError("patch grid requires a square map")
        if patch_px < 1:
            raise ValidationError(f"patch_px must be >= 1, got {patch_px}")
        if h.width_px % patch_px != 0:
            raise ValidationError(
                f"patch_px {patch_px} does not divide map side {h.width_px}"
            )
        return cls(patch_px, h.width_px // patch_px, h.resolution, scene.rx.z_rx)

    @property
    def n_patches(self) -> int:
        return self.n_side * self.n_side

    @property
    def patch_len(self) -> float:
        """Patch side length in meters."""
        return self.patch_px * self.resolution

    def centers(self) -> np.ndarray:
        """(N, 3) patch-center coordinates in meters."""
        side = self.patch_len
        idx = np.arange(self.n_patches)
        cx = (idx % self.n_side + 0.5) * side
        cy = (idx // self.n_side + 0.5) * side
        return np.column_stack([cx, cy, np.full(self.n_patches, self.z)])

    def patch_of(self, x: float, y: float) -> int:
        side = self.patch_len
        c = min(int(x / side), self.n_side - 1)
        r = min(int(y / side), self.n_side - 1)
        return r * self.n_side + c


@dataclass(frozen=True)
class OrderParams:
    """Blockage exponents and the clamp keeping fully-blocked edges finite."""

    alpha_los: float = 2.0
    alpha_nlos: float = 2.0
    beta_clamp: float = 1e-6

    def __post_init__(self):
        if self.alpha_los < 0 or self.alpha_nlos < 0:
            raise ValidationError("blockage exponents must be >= 0")
        if not 0 < self.beta_clamp < 1:
            raise ValidationError("beta_clamp must lie in (0, 1)")


@dataclass(frozen=True)
class CostField:
    """Relaxed cost and predecessor pointer per patch.

    A detour-improved patch points at its tight neighbour with the smallest
    (d, index); every other patch at the source, which has NO_PRED.
    """

    d: np.ndarray  # (N,) accumulated cost
    pred: np.ndarray  # (N,) predecessor index, NO_PRED for the source
    source: int

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=np.float64))
        object.__setattr__(self, "pred", np.asarray(self.pred, dtype=np.int64))
        n = len(self.d)
        if len(self.pred) != n or np.any((self.pred < NO_PRED) | (self.pred >= n)):
            raise ValidationError(f"pred must hold {n} entries, each {NO_PRED} or in [0, {n})")
        if not 0 <= self.source < n:
            raise ValidationError(f"source {self.source} outside [0, {n})")


@dataclass(frozen=True)
class OrderPi:
    """Permutation over the N patches; perm[n] is the patch at step n."""

    perm: np.ndarray
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        if self.kind not in ORDER_KINDS:
            raise ValidationError(f"unknown order kind {self.kind!r}")
        if not np.array_equal(np.sort(perm), np.arange(len(perm))):
            raise ValidationError("order is not a bijection on {0..N-1}")
        perm.setflags(write=False)
        object.__setattr__(self, "perm", perm)

    def __len__(self) -> int:
        return len(self.perm)

    @property
    def n_side(self) -> int:
        n = int(round(len(self.perm) ** 0.5))
        if n * n != len(self.perm):
            raise ValidationError("order does not cover a square patch grid")
        return n

    def positions(self) -> np.ndarray:
        """positions()[i] is the step at which patch i is generated."""
        pos = np.empty(len(self.perm), dtype=np.int64)
        pos[self.perm] = np.arange(len(self.perm))
        return pos


def _argsort_by_cost(d: np.ndarray) -> np.ndarray:
    """Ascending cost; the stable sort breaks ties by ascending patch index."""
    return np.argsort(d, kind="stable")


def _edge_list(n_side: int) -> tuple[np.ndarray, np.ndarray]:
    """Undirected 8-connected edges (i, j) with i < j over the patch grid."""
    r, c = np.divmod(np.arange(n_side * n_side), n_side)
    src, dst = [], []
    for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
        rr, cc = r + dr, c + dc
        ok = (rr >= 0) & (rr < n_side) & (cc >= 0) & (cc < n_side)
        src.append(np.flatnonzero(ok))
        dst.append(rr[ok] * n_side + cc[ok])
    return np.concatenate(src), np.concatenate(dst)


def _blocked_lengths(scene: Scene, a, b, alpha: float, clamp: float) -> np.ndarray:
    """Length of each segment a[i] -> b[i] divided by max(1 - beta, clamp)^alpha."""
    h = scene.heightmap
    beta = blockage_ratio_batch(h.values, h.resolution, a, b)
    with np.errstate(divide="ignore", over="ignore"):  # an infinite cost is reported
        cost = np.linalg.norm(b - a, axis=1) / np.maximum(1.0 - beta, clamp) ** alpha
    if not np.isfinite(cost).all():
        raise ValidationError(
            f"blockage exponent {alpha!r} with beta_clamp {clamp!r} overflows a segment cost"
        )
    return cost


def init_costs(scene: Scene, patches: PatchGrid, params: OrderParams | None = None) -> CostField:
    """Direct-path cost per patch: distance inflated by (1 - beta)^-alpha_los.

    The patch containing the transmitter is the source and costs 0; all
    other patches initially point at it (their best-known route is the
    direct ray from the transmitter).
    """
    params = params or OrderParams()
    centers = patches.centers()
    source = patches.patch_of(scene.tx.x, scene.tx.y)
    origin = np.broadcast_to(scene.tx.position, centers.shape)
    d = _blocked_lengths(scene, origin, centers, params.alpha_los, params.beta_clamp)
    d[source] = 0.0
    pred = np.full(patches.n_patches, source, dtype=np.int64)
    pred[source] = NO_PRED
    return CostField(d, pred, source)


def edge_weights(
    scene: Scene, patches: PatchGrid, params: OrderParams | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8-connected hop weights: center distance / (1 - beta)^alpha_nlos."""
    params = params or OrderParams()
    centers = patches.centers()
    src, dst = _edge_list(patches.n_side)
    return src, dst, _blocked_lengths(
        scene, centers[src], centers[dst], params.alpha_nlos, params.beta_clamp
    )


def _relax_frontier(d0: np.ndarray, s: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Bellman-Ford rounds over the edges whose source's cost fell last round;
    # every other edge would offer the same candidate as before
    d = d0.copy()
    changed = np.ones(len(d), dtype=bool)
    while changed.any():
        e = np.flatnonzero(changed[s])
        prev = d.copy()
        np.minimum.at(d, t[e], d[s[e]] + w[e])
        changed = d < prev
    return d


def _relax_bellman_ford(d0: np.ndarray, s: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    d = d0.copy()
    for _ in range(len(d0)):
        candidate = d.copy()
        np.minimum.at(candidate, t, d[s] + w)
        if np.array_equal(candidate, d):
            break
        d = candidate
    return d


def _tight_predecessors(d, initial: CostField, s, t, w) -> np.ndarray:
    """Predecessors of the converged costs d under the module's predecessor rule."""
    pred = initial.pred.copy()
    e = np.flatnonzero((d[s] + w == d[t]) & (d[t] < initial.d[t]))
    e = e[np.lexsort((s[e], d[s[e]], t[e]))]  # by target, then (d[s], s)
    first = e[np.unique(t[e], return_index=True)[1]]
    pred[t[first]] = s[first]
    return pred


def _solve(scene: Scene, patches: PatchGrid, params: OrderParams, relax) -> CostField:
    initial = init_costs(scene, patches, params)
    src, dst, w = edge_weights(scene, patches, params)
    # every undirected edge in both directions: sources s, targets t
    s, t, w = np.concatenate([src, dst]), np.concatenate([dst, src]), np.concatenate([w, w])
    d = relax(initial.d, s, t, w)
    d, pred = _snap_to_direct(d, _tight_predecessors(d, initial, s, t, w), initial)
    return CostField(d, pred, initial.source)


def wavefront_order(
    scene: Scene, patches: PatchGrid, params: OrderParams | None = None
) -> tuple[OrderPi, CostField]:
    """Blockage-aware shortest-cost order expanding outward from the transmitter.

    Relaxes the direct-path costs over the 8-connected patch graph in whole
    array rounds until no cost falls, then returns the patches sorted by
    ascending final cost (ties by ascending index) together with the cost
    field and its predecessor pointers.
    """
    params = params or OrderParams()
    costs = _solve(scene, patches, params, _relax_frontier)
    return OrderPi(_argsort_by_cost(costs.d), "wavefront", asdict(params)), costs


def bruteforce_costs(
    scene: Scene, patches: PatchGrid, params: OrderParams | None = None
) -> CostField:
    """Bellman-Ford relaxation over the same graph; oracle for wavefront_order."""
    return _solve(scene, patches, params or OrderParams(), _relax_bellman_ford)


# ---------------------------------------------------------------------------
# geometric scan orders


def raster_order(n_side: int) -> OrderPi:
    """Row-major scan."""
    return OrderPi(np.arange(n_side * n_side), "raster")


def alternative_order(n_side: int) -> OrderPi:
    """Serpentine scan: even rows left-to-right, odd rows right-to-left."""
    rows = np.arange(n_side * n_side).reshape(n_side, n_side)
    rows[1::2] = rows[1::2, ::-1].copy()
    return OrderPi(rows.ravel(), "alternative")


def _require_pow2(n_side: int, kind: str) -> None:
    if n_side < 1 or n_side & (n_side - 1):
        raise ValueError(f"{kind} order requires a power-of-two grid side, got {n_side}")


def hilbert_order(n_side: int) -> OrderPi:
    """Hilbert space-filling curve visit order."""
    _require_pow2(n_side, "hilbert")
    t = np.arange(n_side * n_side, dtype=np.int64)
    x, y = np.zeros((2, t.size), dtype=np.int64)
    s = 1
    while s < n_side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        flip = (ry == 0) & (rx == 1)
        x, y = np.where(flip, s - 1 - x, x), np.where(flip, s - 1 - y, y)
        x, y = np.where(ry == 0, y, x), np.where(ry == 0, x, y)
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return OrderPi(y * n_side + x, "hilbert")


def zcurve_order(n_side: int) -> OrderPi:
    """Morton (Z-curve) visit order."""
    _require_pow2(n_side, "zcurve")
    bits = max(1, n_side.bit_length() - 1)
    d = np.arange(n_side * n_side, dtype=np.int64)
    x = np.zeros_like(d)
    y = np.zeros_like(d)
    for b in range(bits):
        x |= ((d >> (2 * b)) & 1) << b
        y |= ((d >> (2 * b + 1)) & 1) << b
    return OrderPi(y * n_side + x, "zcurve")


def subsample_order(n_side: int) -> OrderPi:
    """Coarse-to-fine strided passes: stride n/2, n/4, ... 1, skipping visits."""
    strides = [max(1, n_side // 2)]
    while strides[-1] > 1:
        strides.append(strides[-1] // 2)
    r, c = np.divmod(np.arange(n_side * n_side), n_side)
    # a patch is visited in the first pass whose stride divides both r and c
    first = np.argmax([(r % s == 0) & (c % s == 0) for s in strides], axis=0)
    return OrderPi(np.lexsort((c, r, first)), "subsample")


GEOMETRIC_ORDERS = {
    "raster": raster_order,
    "hilbert": hilbert_order,
    "zcurve": zcurve_order,
    "subsample": subsample_order,
    "alternative": alternative_order,
}
ORDER_KINDS = ("wavefront", "priorPL", "truePL", *GEOMETRIC_ORDERS, "custom")


# ---------------------------------------------------------------------------
# pathloss-ranked orders


def _pl_order(values: np.ndarray, patches: PatchGrid | int, kind: str) -> OrderPi:
    """Patches by mean value, strongest (largest signed dB) first, like the wavefront."""
    n_side = patches if isinstance(patches, int) else patches.n_side
    h_px = values.shape[0]
    if values.shape[0] != values.shape[1] or h_px % n_side != 0:
        raise ValidationError(
            f"{values.shape} grid does not cover a {n_side}x{n_side} patch grid"
        )
    k = h_px // n_side
    scores = values.reshape(n_side, k, n_side, k).mean(axis=(1, 3)).ravel()
    return OrderPi(_argsort_by_cost(-scores), kind)


def prior_pl_order(anchor: RadioField, patches: PatchGrid | int) -> OrderPi:
    """Rank patches by mean anchor value, strongest signal first."""
    return _pl_order(anchor.slice(0), patches, "priorPL")


def true_pl_order(fld: RadioField, patches: PatchGrid | int) -> OrderPi:
    """Oracle order: rank patches by the ground-truth field (z-mean)."""
    return _pl_order(fld.values.mean(axis=0), patches, "truePL")


def euclidean_order(scene: Scene, patches: PatchGrid) -> OrderPi:
    """Plain ascending-distance sort of patch centers from the transmitter."""
    dist = np.linalg.norm(patches.centers() - scene.tx.position, axis=1)
    return OrderPi(_argsort_by_cost(dist), "custom")


def sample_training_order(rng, orders) -> OrderPi:
    """Uniform choice among candidate orders, reproducible from the rng seed."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    orders = list(orders.values()) if isinstance(orders, dict) else list(orders)
    if not orders:
        raise ValueError("no candidate orders supplied")
    return orders[int(rng.integers(len(orders)))]


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class ContainmentReport:
    holds: bool
    # (patch, predecessor, patch_step, predecessor_step) for each patch
    # generated no later than its own predecessor, in ascending patch order
    violations: list


def verify_predecessor_containment(order: OrderPi, costs: CostField) -> ContainmentReport:
    """Check that each patch's predecessor chain precedes it in the order.

    A chain precedes its patch exactly when every link i -> pred[i] does
    (by induction along the chain), so one pass over the links decides it.
    A self-loop or a cycle in pred always leaves some link violated.
    """
    if len(order) != len(costs.d):
        raise ValidationError("order and cost field cover different patch grids")
    pos = order.positions()
    patch = np.flatnonzero(costs.pred != NO_PRED)
    pred = costs.pred[patch]
    bad = pos[pred] >= pos[patch]
    rows = np.column_stack([patch, pred, pos[patch], pos[pred]])[bad]
    violations = [tuple(r) for r in rows.tolist()]
    return ContainmentReport(not violations, violations)


# ---------------------------------------------------------------------------
# order file I/O


def save_order(order: OrderPi, path: str | Path) -> None:
    """Write the single-object order document (kind, np, perm, params)."""
    doc = {
        "kind": order.kind,
        "np": order.n_side,
        "perm": [int(i) for i in order.perm],
        "params": order.params,
    }
    atomic_write(path, json.dumps(doc, indent=None, separators=(",", ":")))


def load_order(path: str | Path) -> OrderPi:
    try:
        doc = json.loads(Path(path).read_text())
        if not (isinstance(doc, dict) and {"kind", "np", "perm"} <= doc.keys()):
            raise ValidationError("expected a JSON object with kind, np and perm")
        perm = doc["perm"]
        if not (isinstance(perm, list) and all(type(v) is int for v in perm)):
            raise ValidationError("perm must be a list of integers")
        order = OrderPi(np.array(perm, dtype=np.int64), doc["kind"], doc.get("params", {}))
        if order.n_side != doc["np"]:
            raise ValidationError(f"perm length does not match np={doc['np']}")
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return order


def save_costs_csv(costs: CostField, path: str | Path) -> None:
    """Cost dump: one ``patch_index,D,pred`` row per patch."""
    rows = zip(range(len(costs.d)), costs.d.tolist(), costs.pred.tolist())
    write_table(path, ("patch_index", "D", "pred"), rows)

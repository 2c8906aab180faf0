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

The patch graph (edges, their lengths and blockage, and each patch's
8-neighbour stencil) does not depend on the transmitter, so it is built once
per live height map and patch grid and held; see edge_weights.

Also provided: the geometric scan orders (raster, hilbert, z-curve,
subsample, serpentine), pathloss-ranked orders, a Bellman-Ford oracle, and
the predecessor-containment verifier.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .grids import ORDER_KINDS, HeightMap, RadioField, Scene, ValidationError, _cell, _check, _check_in_map, _fields_equal, _held, atomic_write, write_table
from .propagation import blockage_ratio_batch, pixel_centers

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
        _check("an integer >= 1", patch_px=self.patch_px, n_side=self.n_side)
        _check("finite and > 0", resolution=self.resolution)
        _check("finite", z=self.z)

    @classmethod
    def for_scene(cls, scene: Scene, patch_px: int = 16) -> "PatchGrid":
        h = scene.heightmap
        if h.width_px != h.height_px:
            raise ValidationError("patch grid requires a square map")
        _check("an integer >= 1", patch_px=patch_px)
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
        xs, ys = pixel_centers(self.n_side, self.n_side, self.patch_len)
        return np.column_stack([xs.ravel(), ys.ravel(), np.full(self.n_patches, self.z)])

    def patch_of(self, x: float, y: float) -> int:
        """The patch holding point (x, y), which must lie in [0, n_side * patch_len) on both axes."""
        extent = self.patch_px * self.n_side * self.resolution  # the map's extent, as HeightMap computes it
        _check_in_map("point", x, y, extent, extent)
        side = self.patch_len
        return _cell(y, side, self.n_side) * self.n_side + _cell(x, side, self.n_side)


@dataclass(frozen=True)
class OrderParams:
    """Blockage exponents and the clamp keeping fully-blocked edges finite."""

    alpha_los: float = 2.0
    alpha_nlos: float = 2.0
    beta_clamp: float = 1e-6

    def __post_init__(self):
        _check("finite and >= 0", alpha_los=self.alpha_los, alpha_nlos=self.alpha_nlos)
        _check("finite and > 0", beta_clamp=self.beta_clamp)
        if not self.beta_clamp < 1:
            raise ValidationError(f"beta_clamp must lie in (0, 1), got {self.beta_clamp!r}")


@dataclass(frozen=True)
class CostField:
    """Relaxed cost and predecessor pointer per patch.

    A detour-improved patch points at its tight neighbour with the smallest
    (d, index); every other patch at the source, which has NO_PRED.
    """

    d: np.ndarray  # (N,) accumulated cost
    pred: np.ndarray  # (N,) predecessor index, NO_PRED for the source
    source: int

    __eq__ = _fields_equal

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if d.ndim != 1 or not np.isfinite(d).all():
            raise ValidationError(f"d must be a 1-D array of finite costs, got {self.d!r}")
        pred = np.asarray(self.pred)
        if pred.ndim != 1 or not np.issubdtype(pred.dtype, np.integer):
            raise ValidationError(f"pred must be a 1-D integer array, got {self.pred!r}")
        pred = pred.astype(np.int64, copy=False)
        n = len(d)
        if len(pred) != n or np.any((pred < NO_PRED) | (pred >= n)):
            raise ValidationError(f"pred must hold {n} entries, each {NO_PRED} or in [0, {n})")
        _check("an integer >= 0", source=self.source)
        if not self.source < n:
            raise ValidationError(f"source {self.source} outside [0, {n})")
        for name, a in (("d", d), ("pred", pred)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class OrderPi:
    """Permutation over the N patches; perm[n] is the patch at step n."""

    perm: np.ndarray
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    __eq__ = _fields_equal

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        if perm.ndim != 1:
            raise ValidationError(f"perm must be 1-D, got {self.perm!r}")
        if self.kind not in ORDER_KINDS:
            raise ValidationError(f"unknown order kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ValidationError(f"params must be a dict, got {self.params!r}")
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


def _edge_list(n_side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Undirected 8-connected edges (src, dst) with src < dst over the patch grid,
    and each patch's stencil: nbr[i, k] is patch i's neighbour in direction k and
    edge[i, k] the index of that hop in (src, dst).  Where the grid ends, nbr[i, k]
    is i and edge[i, k] is -1."""
    patch = np.arange(n_side * n_side)
    r, c = np.divmod(patch, n_side)
    nbr = np.repeat(patch[:, None], 8, axis=1)
    edge = np.full(nbr.shape, -1)
    src, dst, k = [], [], 0
    for j, (dr, dc) in enumerate(((0, 1), (1, 0), (1, 1), (1, -1))):
        rr, cc = r + dr, c + dc
        ok = (rr >= 0) & (rr < n_side) & (cc >= 0) & (cc < n_side)
        s, t = np.flatnonzero(ok), rr[ok] * n_side + cc[ok]
        e = np.arange(k, k + len(s))
        # direction j runs s -> t, direction 7 - j back along the same edge
        nbr[s, j], edge[s, j], nbr[t, 7 - j], edge[t, 7 - j] = t, e, s, e
        src.append(s)
        dst.append(t)
        k += len(s)
    return np.concatenate(src), np.concatenate(dst), nbr, edge


def _check_fits(scene: Scene, patches: PatchGrid) -> None:
    """Refuse a patch grid that does not tile the scene's map at its resolution."""
    h = scene.heightmap
    side = patches.patch_px * patches.n_side
    if h.height_px != side or h.width_px != side:
        raise ValidationError(
            f"patch grid of {patches.n_side} x {patches.n_side} patches of {patches.patch_px} px "
            f"covers {side} x {side} px, but the map is {h.height_px} x {h.width_px} px"
        )
    if patches.resolution != h.resolution:
        raise ValidationError(
            f"patch grid resolution {patches.resolution!r} differs from the map's {h.resolution!r}"
        )


def _segments(h: HeightMap, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Length and blockage ratio of each segment a[i] -> b[i] over the map."""
    return np.linalg.norm(b - a, axis=1), blockage_ratio_batch(h.values, h.resolution, a, b)


def _blocked_cost(length, beta, alpha: float, clamp: float) -> np.ndarray:
    """Each length divided by max(1 - beta, clamp)^alpha."""
    with np.errstate(divide="ignore", over="ignore"):  # an infinite cost is reported
        cost = length / np.maximum(1.0 - beta, clamp) ** alpha
    if not np.isfinite(cost).all():
        raise ValidationError(
            f"blockage exponent {alpha!r} with beta_clamp {clamp!r} overflows a segment cost"
        )
    return cost


@dataclass(frozen=True)
class _PatchGraph:
    """The transmitter-independent part of the wavefront solve on one map and patch grid.

    Undirected edges src[k] < dst[k] with their center distance and beta, and
    the 8-neighbour stencil (nbr, edge) of _edge_list.  Every array is read-only.
    """

    src: np.ndarray
    dst: np.ndarray
    length: np.ndarray
    beta: np.ndarray
    nbr: np.ndarray
    edge: np.ndarray

    @classmethod
    def build(cls, h: HeightMap, patches: PatchGrid) -> "_PatchGraph":
        centers = patches.centers()
        src, dst, nbr, edge = _edge_list(patches.n_side)
        length, beta = _segments(h, centers[src], centers[dst])
        arrays = (src, dst, length, beta, nbr, edge)
        for a in arrays:
            a.setflags(write=False)
        return cls(*arrays)


# A graph takes about 253 bytes per patch (32 per undirected edge, 128 for the
# stencil), so a map holds at most _GRAPHS_PER_MAP x 253 x N bytes: 4.1 MB for
# grids of N = 4096 (a 256^2 map at patch_px 4), 66 MB at N = 65,536 (patch_px 1).
_GRAPHS_PER_MAP = 4


def _patch_graph(h: HeightMap, patches: PatchGrid) -> _PatchGraph:
    """The graph of this map object and patch grid, held by the map."""
    return _held(h, patches, lambda: _PatchGraph.build(h, patches), _GRAPHS_PER_MAP)


def init_costs(scene: Scene, patches: PatchGrid, params: OrderParams | None = None) -> CostField:
    """Direct-path cost per patch: distance inflated by (1 - beta)^-alpha_los.

    The patch containing the transmitter is the source and costs 0; all
    other patches initially point at it (their best-known route is the
    direct ray from the transmitter).
    """
    _check_fits(scene, patches)
    params = params or OrderParams()
    centers = patches.centers()
    source = patches.patch_of(scene.tx.x, scene.tx.y)
    origin = np.broadcast_to(scene.tx.position, centers.shape)
    length, beta = _segments(scene.heightmap, origin, centers)
    d = _blocked_cost(length, beta, params.alpha_los, params.beta_clamp)
    d[source] = 0.0
    pred = np.full(patches.n_patches, source, dtype=np.int64)
    pred[source] = NO_PRED
    return CostField(d, pred, source)


def edge_weights(
    scene: Scene, patches: PatchGrid, params: OrderParams | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8-connected hop weights: center distance / max(1 - beta, beta_clamp)^alpha_nlos.

    Returns read-only (src, dst, w) over the undirected edges src < dst.  The
    edges, their lengths and beta depend only on the map and the patch grid,
    so they are computed once per live HeightMap object and patch grid and
    held; every call recomputes w from them with the same expression, so any
    OrderParams reads the same held graph.
    """
    _check_fits(scene, patches)
    params = params or OrderParams()
    graph = _patch_graph(scene.heightmap, patches)
    w = _blocked_cost(graph.length, graph.beta, params.alpha_nlos, params.beta_clamp)
    w.setflags(write=False)
    return graph.src, graph.dst, w


def _relax_frontier(d0, nbr, w) -> np.ndarray:
    """Bellman-Ford rounds over the hops out of the patches whose cost fell last round.

    Every other hop would offer the same candidate as before.  Row i of the
    stencil (nbr, w) holds patch i's hops; an off-grid hop costs inf, so it
    offers no candidate.  np.minimum.at takes the same minimum in any hop
    order, so the order within a row does not change d.
    """
    d = d0.copy()
    frontier = np.arange(len(d))
    while frontier.size:
        prev = d.copy()
        np.minimum.at(d, nbr[frontier].ravel(), (d[frontier, None] + w[frontier]).ravel())
        frontier = np.flatnonzero(d < prev)
    return d


def _relax_bellman_ford(d0: np.ndarray, nbr: np.ndarray, w: np.ndarray) -> np.ndarray:
    d = d0.copy()
    for _ in range(len(d0)):
        candidate = d.copy()
        np.minimum.at(candidate, nbr.ravel(), (d[:, None] + w).ravel())
        if np.array_equal(candidate, d):
            break
        d = candidate
    return d


def _tight_predecessors(d, initial: CostField, nbr, w) -> np.ndarray:
    """Predecessors of the converged costs d under the module's predecessor rule.

    Hop weights are symmetric, so row i of the stencil also holds the hops into
    patch i: its tight neighbours s have d[s] + w == d[i].
    """
    dn = d[nbr]
    tight = (dn + w == d[:, None]) & (d < initial.d)[:, None]
    # the smallest (d[s], s): the lowest tight cost, then the lowest index among its ties
    lowest = np.where(tight, dn, np.inf).min(axis=1, keepdims=True)
    best = np.where(tight & (dn == lowest), nbr, len(d)).min(axis=1)
    return np.where(best < len(d), best, initial.pred)


def _solve(scene: Scene, patches: PatchGrid, params: OrderParams, relax=None) -> CostField:
    """Relaxed costs over the held patch graph's stencil: by the frontier, or by
    relax(d0, nbr, w) when one is given."""
    initial = init_costs(scene, patches, params)
    _, _, w = edge_weights(scene, patches, params)
    graph = _patch_graph(scene.heightmap, patches)
    w = np.append(w, np.inf)[graph.edge]  # an off-grid hop, edge -1, costs inf
    d = (relax or _relax_frontier)(initial.d, graph.nbr, w)
    d, pred = _snap_to_direct(d, _tight_predecessors(d, initial, graph.nbr, w), initial)
    return CostField(d, pred, initial.source)


def wavefront_order(
    scene: Scene, patches: PatchGrid, params: OrderParams | None = None
) -> tuple[OrderPi, CostField]:
    """Blockage-aware shortest-cost order expanding outward from the transmitter.

    Relaxes the direct-path costs over the 8-connected patch graph in whole
    array rounds, each over the hops out of the patches whose cost fell in
    the round before, until no cost falls.  Returns the patches sorted by
    ascending final cost (ties by ascending index) together with the cost
    field and its predecessor pointers.  The patch graph and its edge
    blockage are held per live map object and patch grid (see edge_weights),
    so another transmitter on the same map (Scene.with_tx) casts only the
    direct-path rays.  The grid must tile the map at its resolution.
    """
    params = params or OrderParams()
    costs = _solve(scene, patches, params)
    return OrderPi(_argsort_by_cost(costs.d), "wavefront", asdict(params)), costs


def bruteforce_costs(
    scene: Scene, patches: PatchGrid, params: OrderParams | None = None
) -> CostField:
    """Bellman-Ford relaxation over the same graph; oracle for wavefront_order."""
    return _solve(scene, patches, params or OrderParams(), _relax_bellman_ford)


# ---------------------------------------------------------------------------
# geometric scan orders


def _side(n_side: int, pow2_kind: str | None = None) -> int:
    """n_side as an int, refused by name unless it is an integer >= 1 (and a power of two for pow2_kind)."""
    _check("an integer >= 1", n_side=n_side)
    if pow2_kind and n_side & (n_side - 1):
        raise ValueError(f"{pow2_kind} order requires a power-of-two grid side, got {n_side}")
    return int(n_side)


def raster_order(n_side: int) -> OrderPi:
    """Row-major scan."""
    n_side = _side(n_side)
    return OrderPi(np.arange(n_side * n_side), "raster")


def alternative_order(n_side: int) -> OrderPi:
    """Serpentine scan: even rows left-to-right, odd rows right-to-left."""
    n_side = _side(n_side)
    rows = np.arange(n_side * n_side).reshape(n_side, n_side)
    rows[1::2] = rows[1::2, ::-1].copy()
    return OrderPi(rows.ravel(), "alternative")


def hilbert_order(n_side: int) -> OrderPi:
    """Hilbert space-filling curve visit order."""
    n_side = _side(n_side, "hilbert")
    # the curve of side 2s is four copies of the side-s curve: transposed, shifted by s in y,
    # shifted by s in x and y, and reflected in the anti-diagonal into the last quadrant
    x = y = np.zeros(1, np.int64)
    s = 1
    while s < n_side:
        x, y = np.concatenate((y, x, x + s, 2 * s - 1 - y)), np.concatenate((x, y + s, y + s, s - 1 - x))
        s *= 2
    return OrderPi(y * n_side + x, "hilbert")


def zcurve_order(n_side: int) -> OrderPi:
    """Morton (Z-curve) visit order."""
    n_side = _side(n_side, "zcurve")
    x = y = np.zeros(1, np.int64)  # the curve of side 2s is the side-s curve in each quadrant, row by row
    s = 1
    while s < n_side:
        x, y = np.concatenate((x, x + s, x, x + s)), np.concatenate((y, y, y + s, y + s))
        s *= 2
    return OrderPi(y * n_side + x, "zcurve")


def subsample_order(n_side: int) -> OrderPi:
    """Coarse-to-fine strided passes: stride n/2, n/4, ... 1, skipping visits."""
    n_side = _side(n_side)
    strides = [max(1, n_side // 2)]
    while strides[-1] > 1:
        strides.append(strides[-1] // 2)
    r, c = np.divmod(np.arange(n_side * n_side), n_side)
    # a patch is visited in the first pass whose stride divides both r and c;
    # a stable sort keeps each pass in row-major (r, c) order
    first = np.argmax([(r % s == 0) & (c % s == 0) for s in strides], axis=0)
    return OrderPi(np.argsort(first, kind="stable"), "subsample")


GEOMETRIC_ORDERS = {
    "raster": raster_order,
    "hilbert": hilbert_order,
    "zcurve": zcurve_order,
    "subsample": subsample_order,
    "alternative": alternative_order,
}


# ---------------------------------------------------------------------------
# pathloss-ranked orders


def _pl_order(values: np.ndarray, patches: PatchGrid | int, kind: str) -> OrderPi:
    """Patches by mean value, strongest (largest signed dB) first, like the wavefront."""
    n_side = patches.n_side if isinstance(patches, PatchGrid) else _side(patches)
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
    _check_fits(scene, patches)
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
        "perm": order.perm.tolist(),
        "params": order.params,
    }
    atomic_write(path, json.dumps(doc, indent=None, separators=(",", ":")))


def load_order(path: str | Path) -> OrderPi:
    try:
        doc = json.loads(Path(path).read_text())
        if not (isinstance(doc, dict) and {"kind", "np", "perm"} <= doc.keys()):
            raise ValidationError("expected a JSON object with kind, np and perm")
        perm = doc["perm"]
        if not (isinstance(perm, list) and {int}.issuperset(map(type, perm))):
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

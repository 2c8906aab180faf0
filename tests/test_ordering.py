"""Wavefront relaxation, geometric orders, PL ranking, containment checks."""

import gc
import heapq
import itertools
import json
import pickle
import re
import tempfile
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from radiofront import (
    CityParams,
    CostField,
    HeightMap,
    OrderParams,
    OrderPi,
    PatchGrid,
    Scene,
    TxConfig,
    alternative_order,
    anchor_map,
    bruteforce_costs,
    euclidean_order,
    gen_scene,
    hilbert_order,
    init_costs,
    load_order,
    prior_pl_order,
    raster_order,
    sample_training_order,
    save_order,
    subsample_order,
    true_pl_order,
    verify_predecessor_containment,
    wavefront_order,
    zcurve_order,
)
from radiofront import ordering
from radiofront.grids import _HELD, RadioField, RxConfig, UNIT_DB, ValidationError
from radiofront.ordering import (
    NO_PRED,
    _edge_list,
    _patch_graph,
    _relax_bellman_ford,
    _relax_frontier,
    _solve,
    _tight_predecessors,
    edge_weights,
    save_costs_csv,
)
from radiofront.synth import PRESETS


def flat_scene(side_px=24, res=1.0, tx=(4.0, 12.0), z_tx=1.5):
    hm = HeightMap(np.zeros((side_px, side_px)), res)
    return Scene(hm, TxConfig(tx[0], tx[1], z_tx, 5.9e9))


def wall_scene():
    """3x3 patch scene: the middle patch column is walled except the bottom."""
    heights = np.zeros((24, 24))
    heights[:16, 10:14] = 80.0
    hm = HeightMap(heights, 1.0)
    return Scene(hm, TxConfig(4.0, 12.0, 1.5, 5.9e9))


def floyd_warshall_costs(scene, patches, params):
    """Independent oracle: all-pairs shortest paths + best entry cost."""
    initial = init_costs(scene, patches, params)
    src, dst, w = edge_weights(scene, patches, params)
    n = patches.n_patches
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j, wij in zip(src, dst, w):
        dist[i, j] = dist[j, i] = wij
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i, k] + dist[k, j]
                if via < dist[i, j]:
                    dist[i, j] = via
    return np.min(initial.d[:, None] + dist, axis=0)


def relax_dijkstra(d0, nbr, w):
    """Independent oracle: heapq Dijkstra from every patch's direct-path cost."""
    nbr, w = nbr.tolist(), w.tolist()
    d = d0.tolist()
    heap = [(di, i) for i, di in enumerate(d)]
    heapq.heapify(heap)
    # weights are non-negative: a node's one entry costing d[i] is its only live one
    while heap:
        di, i = heapq.heappop(heap)
        if di > d[i]:
            continue
        for j, wij in zip(nbr[i], w[i]):
            nd = di + wij
            if nd < d[j]:
                d[j] = nd
                heapq.heappush(heap, (nd, j))
    return np.array(d)


def spiral_corridor_scene():
    """64x64 patches of 4 px: 100 m walls on every odd patch ring, one gap per
    ring alternating between the bottom and top sides, transmitter in the
    corner patch, so detour chains run for dozens of hops."""
    n, patch_px = 64, 4
    r, c = np.divmod(np.arange(n * n), n)
    ring = np.minimum.reduce([r, c, n - 1 - r, n - 1 - c])
    gap_row = np.where(ring // 2 % 2 == 0, n - 1 - ring, ring)
    wall = (ring % 2 == 1) & ~((r == gap_row) & (c == n // 2))
    heights = np.kron(wall.reshape(n, n) * 100.0, np.ones((patch_px, patch_px)))
    scene = Scene(HeightMap(heights, 1.0), TxConfig(patch_px / 2, patch_px / 2, 1.5, 5.9e9))
    return scene, PatchGrid.for_scene(scene, patch_px=patch_px)


def relaxation_cases():
    """(scene, patches): random cities, the four presets, a spiral corridor at N=4096."""
    for seed in range(6):
        sc = gen_scene(CityParams(side_px=64, n_buildings=8, footprint_range=(4, 14), seed=seed))
        yield sc, PatchGrid.for_scene(sc, patch_px=4)
    for make in PRESETS.values():
        sc = make()
        yield sc, PatchGrid.for_scene(sc, patch_px=8)
    yield spiral_corridor_scene()


class TestInitCosts:
    def test_flat_map_distances(self):
        sc = flat_scene(tx=(4.0, 12.0))  # patch (1, 0) center, z matches rx
        pg = PatchGrid.for_scene(sc, patch_px=8)
        cf = init_costs(sc, pg)
        dist = np.linalg.norm(pg.centers() - sc.tx.position, axis=1)
        assert np.array_equal(cf.d, np.where(np.arange(9) == cf.source, 0.0, dist))

    def test_half_blockage_doubles_cost(self):
        # one wall pixel-row blocking exactly half the samples is awkward to
        # stage; instead check the formula directly at beta = 0.5
        sc = wall_scene()
        pg = PatchGrid.for_scene(sc, patch_px=8)
        from radiofront import blockage_ratio

        cf = init_costs(sc, pg, OrderParams(alpha_los=1.0))
        centers = pg.centers()
        for i in range(9):
            if i == cf.source:
                continue
            beta = blockage_ratio(sc, sc.tx.position, centers[i])
            d = np.linalg.norm(centers[i] - sc.tx.position)
            assert cf.d[i] == pytest.approx(d / max(1 - beta, 1e-6), rel=1e-12)

    def test_source_patch_costs_zero(self):
        sc = wall_scene()
        pg = PatchGrid.for_scene(sc, patch_px=8)
        cf = init_costs(sc, pg)
        assert cf.source == pg.patch_of(sc.tx.x, sc.tx.y)
        assert cf.d[cf.source] == 0.0


class TestWavefrontOrder:
    def test_flat_map_is_distance_sort(self):
        # tx at a patch center so the zero source cost is the true distance
        sc = flat_scene(side_px=80, tx=(28.0, 52.0), z_tx=1.5)
        pg = PatchGrid.for_scene(sc, patch_px=8)
        order, costs = wavefront_order(sc, pg)
        assert np.array_equal(order.perm, euclidean_order(sc, pg).perm)
        dist = np.linalg.norm(pg.centers() - sc.tx.position, axis=1)
        assert np.array_equal(costs.d, dist)

    def test_detour_matches_floyd_warshall(self):
        sc = wall_scene()
        pg = PatchGrid.for_scene(sc, patch_px=8)
        params = OrderParams()
        _, costs = wavefront_order(sc, pg, params)
        expected = floyd_warshall_costs(sc, pg, params)
        assert np.allclose(costs.d, expected, rtol=1e-12, atol=0)
        # the mid-right patch must actually use the detour through the
        # bottom gap: cheaper than its direct shot through the wall
        direct = init_costs(sc, pg, params).d
        far_mid = 5  # patch (1, 2), straight behind the wall
        assert costs.d[far_mid] < direct[far_mid]
        assert costs.pred[far_mid] == 7  # routed via the bottom-middle patch

    def test_first_element_is_source(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            heights = (rng.random((24, 24)) < 0.2) * rng.uniform(5, 30, (24, 24))
            sc = Scene(
                HeightMap(heights, 1.0),
                TxConfig(rng.uniform(0, 24), rng.uniform(0, 24), 1.5, 5.9e9),
            )
            pg = PatchGrid.for_scene(sc, patch_px=8)
            order, costs = wavefront_order(sc, pg)
            assert order.perm[0] == costs.source

    def test_deterministic(self):
        sc = wall_scene()
        pg = PatchGrid.for_scene(sc, patch_px=8)
        o1, c1 = wavefront_order(sc, pg)
        o2, c2 = wavefront_order(sc, pg)
        assert np.array_equal(o1.perm, o2.perm)
        assert np.array_equal(c1.d, c2.d)
        assert np.array_equal(c1.pred, c2.pred)

    def test_pred_costs_strictly_increase(self):
        sc = wall_scene()
        pg = PatchGrid.for_scene(sc, patch_px=8)
        _, costs = wavefront_order(sc, pg)
        for i in range(pg.n_patches):
            if i != costs.source:
                assert costs.d[costs.pred[i]] < costs.d[i]


class TestBadParameters:
    """A bad patch size or exponent ends in ValidationError, never a numpy fault."""

    @pytest.mark.parametrize("patch_px", [0, -8])
    def test_patch_px_below_one_is_refused_before_dividing(self, patch_px):
        with pytest.raises(ValidationError, match=f"patch_px must be an integer >= 1, got {patch_px}"):
            PatchGrid.for_scene(wall_scene(), patch_px=patch_px)

    @pytest.mark.parametrize(
        "params", [OrderParams(alpha_nlos=1e300), OrderParams(alpha_los=1e300), OrderParams(beta_clamp=1e-300)]
    )
    def test_overflowing_segment_cost_is_named(self, params):
        sc = wall_scene()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflows a segment cost"):
                wavefront_order(sc, PatchGrid.for_scene(sc, patch_px=8), params)


class TestPatchGridFit:
    """A patch grid that does not tile its scene's map is refused, not clipped."""

    SOLVERS = [init_costs, edge_weights, wavefront_order, bruteforce_costs, euclidean_order]

    @pytest.mark.parametrize("solve", SOLVERS)
    @pytest.mark.parametrize(
        "patches, needle",
        [
            (PatchGrid(4, 40, 1.0, 1.5), "covers 160 x 160 px, but the map is 64 x 64 px"),
            (PatchGrid(8, 7, 1.0, 1.5), "covers 56 x 56 px, but the map is 64 x 64 px"),
            (PatchGrid(8, 8, 3.0, 1.5), "patch grid resolution 3.0 differs from the map's 1.0"),
        ],
    )
    def test_grid_off_the_map_is_refused(self, solve, patches, needle):
        sc = flat_scene(side_px=64, tx=(4.0, 12.0))
        with pytest.raises(ValidationError, match=re.escape(needle)):
            solve(sc, patches)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_non_square_map_is_refused(self, solve):
        sc = Scene(HeightMap(np.zeros((32, 64)), 1.0), TxConfig(4.0, 12.0))
        with pytest.raises(ValidationError, match=re.escape("the map is 32 x 64 px")):
            solve(sc, PatchGrid(8, 8, 1.0, 1.5))

    @pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_resolution_is_named(self, resolution):
        with pytest.raises(ValidationError, match=re.escape(f"resolution must be finite and > 0, got {resolution!r}")):
            PatchGrid(8, 8, resolution, 1.5)

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_z_is_named(self, z):
        with pytest.raises(ValidationError, match=re.escape(f"z must be finite, got {z!r}")):
            PatchGrid(8, 8, 1.0, z)

    @pytest.mark.parametrize(
        "x, y",
        [(-5.0, 0.5), (0.5, -5.0), (-5.0, -5.0), (100.0, 100.0), (8.0, 0.5), (0.5, 8.0),
         (float("inf"), 0.5), (0.5, -float("inf")), (float("nan"), 0.5)],
    )
    def test_point_off_the_grid_is_refused(self, x, y):
        with pytest.raises(ValidationError, match=re.escape(f"point ({x!r}, {y!r}) lies outside")):
            PatchGrid(4, 2, 1.0, 1.5).patch_of(x, y)

    def test_point_just_inside_the_far_edge_is_in_the_last_patch(self):
        pg = PatchGrid(4, 2, 1.0, 1.5)
        assert pg.patch_of(0.0, 0.0) == 0
        assert pg.patch_of(np.nextafter(8.0, 0), np.nextafter(8.0, 0)) == 3
        # 3.5 - 1 ulp divided by the 0.7 m patch rounds up to 5.0
        pg = PatchGrid(1, 5, 0.7, 1.5)
        x = np.nextafter(3.5, 0)
        assert int(x / pg.patch_len) == 5
        assert pg.patch_of(x, x) == 24

    def test_fitting_grid_is_accepted(self):
        sc = flat_scene(side_px=64, tx=(4.0, 12.0))
        order, _ = wavefront_order(sc, PatchGrid(8, 8, 1.0, 1.5))
        assert len(order) == 64


def count_edge_casts(monkeypatch):
    """Ray counts of every blockage call the ordering module makes."""
    rays = []
    cast = ordering.blockage_ratio_batch

    def counted(heights, resolution, a, b):
        rays.append(len(a))
        return cast(heights, resolution, a, b)

    monkeypatch.setattr(ordering, "blockage_ratio_batch", counted)
    return rays


def fresh_copy(scene):
    """The same scene on an equal but distinct height map, which holds no patch graph."""
    h = scene.heightmap
    return Scene(HeightMap(h.values, h.resolution), scene.tx, scene.rx)


def held_graphs(h):
    """The patch graphs a height map holds, by patch grid, least recently used first."""
    return h.__dict__.get(_HELD, {})


def eq_outcome(a, b):
    try:
        return a == b
    except Exception as exc:  # the outcome is compared, whatever it is
        return type(exc), str(exc)


class TestPatchGraphCache:
    def city(self, seed=3, side_px=64, z_rx=1.5):
        sc = gen_scene(CityParams(side_px=side_px, n_buildings=8, footprint_range=(4, 14), seed=seed))
        return Scene(sc.heightmap, sc.tx, RxConfig(z_rx=z_rx))

    def test_second_transmitter_casts_only_the_direct_rays(self, monkeypatch):
        rays = count_edge_casts(monkeypatch)
        sc = self.city()
        pg = PatchGrid.for_scene(sc, patch_px=4)
        n_edges = len(edge_weights(sc, pg)[0])
        assert rays == [n_edges]
        wavefront_order(sc, pg)
        wavefront_order(sc.with_tx(x=40.5, y=9.5), pg)
        bruteforce_costs(sc.with_tx(x=20.5), pg)
        assert rays == [n_edges] + [pg.n_patches] * 3

    def test_held_graph_equals_a_fresh_one(self):
        base = self.city(seed=5)
        for z_rx, patch_px in itertools.product((1.5, 7.0), (4, 8)):
            sc = Scene(base.heightmap, TxConfig(30.5, 22.5, 1.5, 5.9e9), RxConfig(z_rx=z_rx))
            pg = PatchGrid.for_scene(sc, patch_px)
            wavefront_order(sc, pg)  # the graph is held before the sweep reads it
            for alpha, clamp in itertools.product((0.0, 1.0, 2.5), (1e-6, 0.3)):
                params = OrderParams(alpha_nlos=alpha, beta_clamp=clamp)
                cold = fresh_copy(sc)
                for held, fresh in zip(edge_weights(sc, pg, params), edge_weights(cold, pg, params)):
                    assert np.array_equal(held, fresh)
                (o1, c1), (o2, c2) = wavefront_order(sc, pg, params), wavefront_order(cold, pg, params)
                assert np.array_equal(o1.perm, o2.perm)
                assert np.array_equal(c1.d, c2.d)
                assert np.array_equal(c1.pred, c2.pred)
                b1, b2 = bruteforce_costs(sc, pg, params), bruteforce_costs(cold, pg, params)
                assert np.array_equal(b1.d, b2.d) and np.array_equal(b1.pred, b2.pred)
        # every sweep read the graphs held by the base map: one per patch grid
        assert len(held_graphs(base.heightmap)) == 4

    def test_returned_weights_are_read_only(self):
        sc = self.city()
        for a in edge_weights(sc, PatchGrid.for_scene(sc, 8)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    def test_returned_costs_are_read_only(self):
        sc = self.city()
        _, costs = wavefront_order(sc, PatchGrid.for_scene(sc, 8))
        for a in (costs.d, costs.pred):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    def test_held_graphs_stay_at_the_cap(self):
        sc = self.city(side_px=64)
        grids = [PatchGrid.for_scene(sc, p) for p in (1, 2, 4, 8, 16, 32)]
        for pg in grids:
            wavefront_order(sc, pg)
            assert len(held_graphs(sc.heightmap)) <= ordering._GRAPHS_PER_MAP
        held = held_graphs(sc.heightmap)
        assert list(held) == grids[-ordering._GRAPHS_PER_MAP:]
        # a hit makes its grid the last one evicted
        wavefront_order(sc, grids[-4])
        wavefront_order(sc, grids[0])
        assert list(held) == [grids[-2], grids[-1], grids[-4], grids[0]]

    def test_graphs_are_dropped_with_their_map(self):
        sc = self.city()
        pg = PatchGrid.for_scene(sc, 8)
        wavefront_order(sc, pg)
        graph, hm = weakref.ref(held_graphs(sc.heightmap)[pg]), weakref.ref(sc.heightmap)
        gc.collect()
        assert graph() is not None
        del sc
        gc.collect()
        assert hm() is None
        assert graph() is None

    def test_two_threads_on_one_map_agree(self):
        sc = self.city(seed=7)
        # more patch sizes than the cap, so the threads also race on evictions
        tasks = [(x, px) for x in (5.5, 20.5, 33.5, 50.5, 61.5) for px in (2, 4, 8, 16, 32)] * 2
        cold = fresh_copy(sc)

        def solve(task, scene):
            x, px = task
            s = scene.with_tx(x=x)
            order, costs = wavefront_order(s, PatchGrid.for_scene(s, px))
            return order.perm, costs.d, costs.pred

        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda task: solve(task, sc), tasks))
        for task, result in zip(tasks, got):
            for a, b in zip(result, solve(task, cold)):
                assert np.array_equal(a, b)

    def test_map_equality_repr_and_pickle_are_unchanged(self):
        sc = self.city()
        hm = sc.heightmap
        twin = HeightMap(hm.values, hm.resolution)
        before = pickle.dumps(hm), repr(hm), eq_outcome(hm, twin), eq_outcome(hm, hm)
        wavefront_order(sc, PatchGrid.for_scene(sc, 8))
        assert held_graphs(hm)
        assert (pickle.dumps(hm), repr(hm), eq_outcome(hm, twin), eq_outcome(hm, hm)) == before
        assert np.array_equal(pickle.loads(before[0]).values, hm.values)


class TestStencil:
    @pytest.mark.parametrize("n_side", [1, 2, 3, 4, 5])
    def test_every_edge_appears_once_from_each_end(self, n_side):
        src, dst, nbr, edge = _edge_list(n_side)
        n = n_side * n_side
        r, c = np.divmod(np.arange(n), n_side)
        adjacent = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if max(abs(r[i] - r[j]), abs(c[i] - c[j])) == 1
        ]
        assert sorted(zip(src.tolist(), dst.tolist())) == adjacent
        assert nbr.shape == edge.shape == (n, 8)
        hops = [(i, j, e) for i in range(n) for j, e in zip(nbr[i].tolist(), edge[i].tolist())]
        # every edge once from each end, and an off-grid slot points at its own patch
        both_ends = [(s, t, k) for k, (s, t) in enumerate(zip(src.tolist(), dst.tolist()))]
        both_ends += [(t, s, k) for s, t, k in both_ends]
        assert sorted(h for h in hops if h[2] != -1) == sorted(both_ends)
        assert all(j == i for i, j, e in hops if e == -1)

    @pytest.mark.parametrize("patch_px", [4, 8, 32, 256])
    def test_held_graph_stays_under_256_bytes_per_patch(self, patch_px):
        sc = flat_scene(side_px=256, tx=(4.0, 12.0))
        pg = PatchGrid.for_scene(sc, patch_px)
        graph = _patch_graph(sc.heightmap, pg)
        assert sum(a.nbytes for a in vars(graph).values()) <= 256 * pg.n_patches


class TestFrontierRelaxation:
    @settings(max_examples=60, phases=(Phase.explicit, Phase.generate))
    @given(
        city=st.integers(0, 2**16),
        shuffle=st.integers(0, 2**32 - 1),
        patch_px=st.sampled_from([2, 4, 8]),
        alpha=st.sampled_from([0.5, 2.0, 4.0]),
    )
    def test_edge_order_does_not_matter(self, city, shuffle, patch_px, alpha):
        sc = gen_scene(CityParams(side_px=32, n_buildings=5, footprint_range=(3, 10), seed=city))
        pg = PatchGrid.for_scene(sc, patch_px)
        params = OrderParams(alpha_nlos=alpha)
        initial = init_costs(sc, pg, params)
        graph = _patch_graph(sc.heightmap, pg)
        nbr, w = graph.nbr, np.append(edge_weights(sc, pg, params)[2], np.inf)[graph.edge]
        d = _relax_frontier(initial.d, nbr, w)
        pred = _tight_predecessors(d, initial, nbr, w)
        # shuffle the hops within each row of the stencil
        p = np.argsort(np.random.default_rng(shuffle).random(nbr.shape), axis=1)
        nbr, w = np.take_along_axis(nbr, p, axis=1), np.take_along_axis(w, p, axis=1)
        assert np.array_equal(_relax_frontier(initial.d, nbr, w), d)
        assert np.array_equal(_tight_predecessors(d, initial, nbr, w), pred)
        assert np.array_equal(_relax_bellman_ford(initial.d, nbr, w), d)

    @settings(max_examples=150, phases=(Phase.explicit, Phase.generate))
    @given(data=st.data(), n_side=st.integers(1, 5))
    def test_predecessor_rule_on_integer_costs(self, data, n_side):
        # integer costs sum exactly, so ties between routes, between tight
        # neighbours and with the direct cost are common
        src, dst, nbr, edge = _edge_list(n_side)
        n = n_side * n_side
        w = np.array(data.draw(st.lists(st.integers(1, 3), min_size=len(src), max_size=len(src))), float)
        d0 = np.array(data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)), float)
        source = data.draw(st.integers(0, n - 1))
        d0[source] = 0.0
        initial = CostField(d0, np.where(np.arange(n) == source, NO_PRED, source), source)
        hops = list(zip(np.r_[src, dst].tolist(), np.r_[dst, src].tolist(), np.r_[w, w].tolist()))
        # the oracle relaxes and applies the rule over the undirected edge list
        d = d0.tolist()
        for _ in range(n):
            for s, t, wst in hops:
                d[t] = min(d[t], d[s] + wst)
        expected = initial.pred.copy()
        for i in range(n):
            tight = [(d[s], s) for s, t, wst in hops if t == i and d[s] + wst == d[i]]
            if d[i] < d0[i]:
                expected[i] = min(tight)[1]
        stencil_w = np.append(w, np.inf)[edge]
        got = _relax_frontier(d0, nbr, stencil_w)
        assert np.array_equal(got, d)
        assert np.array_equal(_tight_predecessors(got, initial, nbr, stencil_w), expected)

    @pytest.mark.parametrize(
        "name, side_px", [("edge", 256), ("canyon", 256), ("sparse", 256), ("serpentine", 192)]
    )
    def test_frontier_bellman_ford_and_heapq_agree_on_presets(self, name, side_px):
        sc = PRESETS[name](side_px=side_px)
        pg = PatchGrid.for_scene(sc, side_px // 32)
        assert pg.n_patches == 1024
        order, costs = wavefront_order(sc, pg)
        for oracle in (bruteforce_costs(sc, pg), _solve(sc, pg, OrderParams(), relax_dijkstra)):
            assert np.array_equal(oracle.d, costs.d)
            assert np.array_equal(oracle.pred, costs.pred)
            assert np.array_equal(np.argsort(oracle.d, kind="stable"), order.perm)
        assert np.any((costs.pred != costs.source) & (costs.pred != NO_PRED))


class TestBruteforceOracle:
    def test_matches_on_random_scenes(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            heights = (rng.random((32, 32)) < 0.25) * rng.uniform(5, 30, (32, 32))
            sc = Scene(
                HeightMap(heights, 1.0),
                TxConfig(rng.uniform(0, 32), rng.uniform(0, 32), 1.5, 5.9e9),
            )
            pg = PatchGrid.for_scene(sc, patch_px=4)
            _, costs = wavefront_order(sc, pg)
            bf = bruteforce_costs(sc, pg)
            assert np.array_equal(bf.d, costs.d)
            assert np.array_equal(bf.pred, costs.pred)

    def test_frontier_full_sweep_and_heapq_agree(self):
        for sc, pg in relaxation_cases():
            order, costs = wavefront_order(sc, pg)
            for oracle in (bruteforce_costs(sc, pg), _solve(sc, pg, OrderParams(), relax_dijkstra)):
                assert np.array_equal(oracle.d, costs.d)
                assert np.array_equal(oracle.pred, costs.pred)
                assert np.array_equal(np.argsort(oracle.d, kind="stable"), order.perm)
            # every case routes some patch through a detour
            assert np.any((costs.pred != costs.source) & (costs.pred != NO_PRED))

    def test_flat_map_equals_distances(self):
        sc = flat_scene(tx=(12.0, 20.0), z_tx=1.5)  # patch (2, 1) center
        pg = PatchGrid.for_scene(sc, patch_px=8)
        bf = bruteforce_costs(sc, pg)
        dist = np.linalg.norm(pg.centers() - sc.tx.position, axis=1)
        assert np.array_equal(bf.d, dist)

    def test_single_patch(self):
        sc = flat_scene(side_px=8, tx=(4.0, 4.0))
        pg = PatchGrid.for_scene(sc, patch_px=8)
        bf = bruteforce_costs(sc, pg)
        assert np.array_equal(bf.d, [0.0])


def hilbert_oracle(n_side):
    """Hilbert visit order, one curve index at a time."""
    perm = np.empty(n_side * n_side, dtype=np.int64)
    for d in range(n_side * n_side):
        x = y = 0
        t = d
        s = 1
        while s < n_side:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            if ry == 0:
                if rx == 1:
                    x, y = s - 1 - x, s - 1 - y
                x, y = y, x
            x += s * rx
            y += s * ry
            t //= 4
            s *= 2
        perm[d] = y * n_side + x
    return perm


def zcurve_oracle(n_side):
    """Morton visit order, one curve index at a time: x from the even bits, y from the odd bits."""
    perm = np.empty(n_side * n_side, dtype=np.int64)
    for d in range(n_side * n_side):
        x = y = 0
        for b in range(n_side.bit_length()):  # d < n_side ** 2, so no bit is missed
            x |= ((d >> (2 * b)) & 1) << b
            y |= ((d >> (2 * b + 1)) & 1) << b
        perm[d] = y * n_side + x
    return perm


def subsample_oracle(n_side):
    """Strided passes n/2, n/4, ... 1 over the grid, skipping patches already visited."""
    seen = np.zeros(n_side * n_side, dtype=bool)
    out = []
    stride = max(1, n_side // 2)
    while True:
        for r in range(0, n_side, stride):
            for c in range(0, n_side, stride):
                i = r * n_side + c
                if not seen[i]:
                    seen[i] = True
                    out.append(i)
        if stride == 1:
            break
        stride //= 2
    return np.array(out)


class TestGeometricOrders:
    def test_raster_2(self):
        assert np.array_equal(raster_order(2).perm, [0, 1, 2, 3])

    def test_zcurve_2_equals_raster(self):
        assert np.array_equal(zcurve_order(2).perm, [0, 1, 2, 3])

    def test_hilbert_2(self):
        assert np.array_equal(hilbert_order(2).perm, [0, 2, 3, 1])

    def test_frozen_4x4_curves(self):
        # enumerated by hand from the curve definitions
        assert np.array_equal(
            hilbert_order(4).perm,
            [0, 1, 5, 4, 8, 12, 13, 9, 10, 14, 15, 11, 7, 6, 2, 3],
        )
        assert np.array_equal(
            zcurve_order(4).perm,
            [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15],
        )
        assert np.array_equal(
            subsample_order(4).perm,
            [0, 2, 8, 10, 1, 3, 4, 5, 6, 7, 9, 11, 12, 13, 14, 15],
        )

    @pytest.mark.parametrize("n_side", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_hilbert_matches_oracle(self, n_side):
        assert np.array_equal(hilbert_order(n_side).perm, hilbert_oracle(n_side))

    @pytest.mark.parametrize("n_side", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_zcurve_matches_oracle(self, n_side):
        assert np.array_equal(zcurve_order(n_side).perm, zcurve_oracle(n_side))

    def test_subsample_matches_oracle(self):
        for n_side in range(1, 70):
            assert np.array_equal(subsample_order(n_side).perm, subsample_oracle(n_side))

    def test_alternative_serpentine(self):
        assert np.array_equal(alternative_order(3).perm, [0, 1, 2, 5, 4, 3, 6, 7, 8])

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            hilbert_order(3)
        with pytest.raises(ValueError):
            zcurve_order(6)

    def test_all_bijective(self):
        for make in (raster_order, alternative_order, subsample_order):
            for n in (1, 2, 3, 4, 7, 16):
                assert np.array_equal(np.sort(make(n).perm), np.arange(n * n))
        for make in (hilbert_order, zcurve_order):
            for n in (1, 2, 4, 8, 16):
                assert np.array_equal(np.sort(make(n).perm), np.arange(n * n))


class TestPathlossOrders:
    def test_flat_map_matches_wavefront(self):
        sc = flat_scene(side_px=32, tx=(7.0, 17.0), z_tx=1.5)  # a patch center
        pg = PatchGrid.for_scene(sc, patch_px=2)  # one anchor value per 2x2
        order, _ = wavefront_order(sc, pg)
        coarse = anchor_at_patch_centers(sc, pg)
        assert np.array_equal(prior_pl_order(coarse, pg).perm, order.perm)

    def test_constant_anchor_identity(self):
        anchor = RadioField(np.full((1, 8, 8), -90.0), UNIT_DB)
        assert np.array_equal(prior_pl_order(anchor, 4).perm, np.arange(16))

    def test_enumerated_four_patches(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            vals = rng.uniform(-140, -50, size=(1, 2, 2))
            anchor = RadioField(vals, UNIT_DB)
            got = prior_pl_order(anchor, 2).perm
            scores = vals[0].ravel()
            expected = None
            for perm in itertools.permutations(range(4)):
                ok = all(
                    scores[perm[k]] > scores[perm[k + 1]]
                    or (scores[perm[k]] == scores[perm[k + 1]] and perm[k] < perm[k + 1])
                    for k in range(3)
                )
                if ok:
                    expected = perm
                    break
            assert np.array_equal(got, expected)

    def test_true_pl_reduces_over_z(self):
        rng = np.random.default_rng(29)
        vals = rng.uniform(-140, -50, size=(3, 4, 4))
        fld = RadioField(vals, UNIT_DB)
        got = true_pl_order(fld, 2).perm
        flat = RadioField(vals.mean(axis=0, keepdims=True), UNIT_DB)
        assert np.array_equal(got, true_pl_order(flat, 2).perm)


def anchor_at_patch_centers(scene, patches):
    """Anchor resampled so that each patch holds one pixel at its center."""
    coarse_hm = HeightMap(
        np.zeros((patches.n_side, patches.n_side)), patches.patch_len
    )
    coarse = Scene(coarse_hm, scene.tx, scene.rx)
    return anchor_map(coarse)


def chain_walk(costs, i):
    """Predecessor chain of patch i, followed link by link (acyclic pred only)."""
    out, j = [], int(costs.pred[i])
    while j != NO_PRED:
        out.append(j)
        j = int(costs.pred[j])
    return out


def containment_cases():
    """(order, costs) over wall and random-city cost fields: wavefront, raster,
    Hilbert where the grid side is a power of two, and random permutations."""
    rng = np.random.default_rng(43)
    grids = [(wall_scene(), 6), (wall_scene(), 8)] + [
        (gen_scene(CityParams(side_px=64, n_buildings=6, footprint_range=(6, 14), seed=s)), 8)
        for s in range(6)
    ]
    for sc, patch_px in grids:
        pg = PatchGrid.for_scene(sc, patch_px=patch_px)
        wave, costs = wavefront_order(sc, pg)
        orders = [wave, raster_order(pg.n_side)]
        if pg.n_side & (pg.n_side - 1) == 0:
            orders.append(hilbert_order(pg.n_side))
        orders += [OrderPi(rng.permutation(pg.n_patches)) for _ in range(4)]
        for order in orders:
            yield order, costs


class TestContainment:
    def test_matches_chain_walk_and_per_edge_list(self):
        verdicts = set()
        for order, costs in containment_cases():
            pos = order.positions()
            report = verify_predecessor_containment(order, costs)
            holds = all(pos[j] < pos[i] for i in range(len(order)) for j in chain_walk(costs, i))
            per_edge = [
                (i, int(p), int(pos[i]), int(pos[p]))
                for i, p in enumerate(costs.pred)
                if p != NO_PRED and pos[p] >= pos[i]
            ]
            assert report.holds == holds
            assert report.violations == per_edge
            verdicts.add(holds)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "pred, violations",
        [
            ([NO_PRED, 1, 0, 0], [(1, 1, 1, 1)]),  # self-loop
            ([NO_PRED, 2, 1, 0], [(1, 2, 1, 2)]),  # 2-cycle
        ],
    )
    def test_cyclic_pred_is_a_violation(self, pred, violations):
        costs = CostField(np.arange(4.0), pred, 0)
        report = verify_predecessor_containment(raster_order(2), costs)
        assert not report.holds
        assert report.violations == violations

    @pytest.mark.parametrize(
        "pred, source, needle",
        [
            ([NO_PRED, -2, 0, 0], 0, "each -1 or in [0, 4)"),
            ([NO_PRED, 4, 0, 0], 0, "each -1 or in [0, 4)"),
            ([NO_PRED, 0, 0], 0, "pred must hold 4 entries"),
            ([NO_PRED, 0, 0, 0], 4, "source 4 outside [0, 4)"),
            ([NO_PRED, 0, 0, 0], -1, "source must be an integer >= 0, got -1"),
        ],
    )
    def test_pred_and_source_range_checked(self, pred, source, needle):
        with pytest.raises(ValidationError, match=re.escape(needle)):
            CostField(np.arange(4.0), pred, source)

    @pytest.mark.parametrize(
        "d, pred, needle",
        [
            (np.zeros((2, 2)), [NO_PRED, 0], "d must be a 1-D array of finite costs"),
            ([0.0, float("nan")], [NO_PRED, 0], "d must be a 1-D array of finite costs"),
            ([0.0, 1.0], [NO_PRED, 0.5], "pred must be a 1-D integer array, got [-1, 0.5]"),
        ],
        ids=["2-D d", "NaN d", "float pred"],
    )
    def test_costs_must_be_1d_and_finite_and_pred_integer(self, d, pred, needle):
        with pytest.raises(ValidationError, match=re.escape(needle)):
            CostField(d, pred, 0)

    def test_wavefront_always_holds(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            heights = (rng.random((32, 32)) < 0.3) * rng.uniform(5, 40, (32, 32))
            sc = Scene(
                HeightMap(heights, 1.0),
                TxConfig(rng.uniform(0, 32), rng.uniform(0, 32), 1.5, 5.9e9),
            )
            pg = PatchGrid.for_scene(sc, patch_px=4)
            order, costs = wavefront_order(sc, pg)
            report = verify_predecessor_containment(order, costs)
            assert report.holds and not report.violations

    def test_raster_violates_on_wall_scene(self):
        sc = wall_scene()
        pg = PatchGrid.for_scene(sc, patch_px=8)
        _, costs = wavefront_order(sc, pg)
        report = verify_predecessor_containment(raster_order(3), costs)
        assert not report.holds
        assert len(report.violations) >= 1

    def test_single_patch_trivially_holds(self):
        sc = flat_scene(side_px=8, tx=(4.0, 4.0))
        pg = PatchGrid.for_scene(sc, patch_px=8)
        order, costs = wavefront_order(sc, pg)
        assert verify_predecessor_containment(order, costs).holds


class TestSampleTrainingOrder:
    def make_orders(self):
        return [raster_order(4), hilbert_order(4), zcurve_order(4)]

    def test_deterministic_from_seed(self):
        orders = self.make_orders()
        picks = [sample_training_order(123, orders).kind for _ in range(5)]
        assert len(set(picks)) == 1

    def test_uniform_frequencies(self):
        orders = self.make_orders()
        rng = np.random.default_rng(99)
        counts = {o.kind: 0 for o in orders}
        for _ in range(30000):
            counts[sample_training_order(rng, orders).kind] += 1
        for kind, c in counts.items():
            assert 0.323 <= c / 30000 <= 0.343, (kind, c)

    def test_single_candidate(self):
        only = raster_order(2)
        assert sample_training_order(7, [only]) is only


# JSON values of every type: a bool, a float, a string, null or a list is no perm entry
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


class TestOrderFiles:
    def test_roundtrip(self, tmp_path):
        sc = wall_scene()
        pg = PatchGrid.for_scene(sc, patch_px=8)
        order, _ = wavefront_order(sc, pg)
        save_order(order, tmp_path / "o.json")
        back = load_order(tmp_path / "o.json")
        assert np.array_equal(back.perm, order.perm)
        assert back.kind == order.kind
        assert back.params == order.params

    def test_file_bytes(self, tmp_path):
        save_order(OrderPi(np.array([2, 0, 3, 1], dtype=np.int32), "custom", {"step": 2}), tmp_path / "o.json")
        assert (tmp_path / "o.json").read_bytes() == b'{"kind":"custom","np":2,"perm":[2,0,3,1],"params":{"step":2}}'

    def test_bijection_enforced(self):
        with pytest.raises(Exception):
            OrderPi(np.array([0, 0, 1, 2]))

    @pytest.mark.parametrize(
        "perm, params, needle",
        [
            (np.arange(4), "x", "params must be a dict, got 'x'"),
            (np.arange(4), [("step", 2)], "params must be a dict, got [('step', 2)]"),
            (True, {}, "perm must be 1-D, got True"),
            (np.arange(4).reshape(2, 2), {}, "perm must be 1-D, got array([[0, 1],\n       [2, 3]])"),
        ],
    )
    def test_perm_and_params_are_named(self, perm, params, needle):
        with pytest.raises(ValidationError) as err:
            OrderPi(perm, "custom", params)
        assert str(err.value) == needle

    def test_params_that_are_not_an_object_are_refused_on_load(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind":"raster","np":2,"perm":[0,1,2,3],"params":"x"}')
        with pytest.raises(ValidationError) as err:
            load_order(p)
        assert str(err.value) == f"{p}: params must be a dict, got 'x'"

    @pytest.mark.parametrize(
        "text",
        [
            '{"np":2,"perm":[0,1,2,3]}',
            '{"kind":"raster","perm":[0,1,2,3]}',
            '{"kind":"raster","np":2}',
            "[0,1,2,3]",
            '{"kind":"raster","np":2,"perm":null}',
            '{"kind":"raster","np":2,"perm":[0,1,2]}',
            "not json",
            # non-integer entries used to be cast: 0.9 -> 0, true -> 1, "2" -> 2
            '{"kind":"raster","np":2,"perm":[0.9,1.2,2.5,3.1]}',
            '{"kind":"raster","np":2,"perm":[0,1,2,3.0]}',
            '{"kind":"raster","np":2,"perm":[false,true,2,3]}',
            '{"kind":"raster","np":2,"perm":["0","1","2","3"]}',
            '{"kind":"raster","np":1,"perm":[99999999999999999999]}',
        ],
    )
    def test_malformed_document_rejected(self, tmp_path, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        with pytest.raises(ValidationError, match="bad.json"):
            load_order(p)

    @settings(max_examples=300)
    @given(ints=st.lists(st.integers(), max_size=6), others=st.lists(JSON_VALUES, max_size=2), data=st.data())
    def test_perm_type_check_agrees_with_the_per_entry_loop(self, ints, others, data):
        # the reference: the per-entry Python loop over the entry types
        perm = list(ints)
        for value in others:
            perm.insert(data.draw(st.integers(0, len(perm))), value)
        loop_refuses = not all(type(v) is int for v in perm)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "o.json"
            path.write_text(json.dumps({"kind": "custom", "np": 2, "perm": perm}))
            try:
                load_order(path)
                refused = False
            except ValidationError as exc:
                refused = str(exc) == f"{path}: perm must be a list of integers"
        assert refused == loop_refuses

    def test_costs_csv_rows(self, tmp_path):
        sc = wall_scene()
        _, costs = wavefront_order(sc, PatchGrid.for_scene(sc, patch_px=8))
        save_costs_csv(costs, tmp_path / "c.csv")
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "patch_index,D,pred" and len(lines) == 10
        for i, line in enumerate(lines[1:]):
            assert line == f"{i},{float(costs.d[i])!r},{int(costs.pred[i])}"
        assert [f.name for f in tmp_path.iterdir()] == ["c.csv"]

"""Step entropy, profiles, delta-H maps, and exact joint-distribution tools."""

import math
import pickle
import re
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from radiofront import (
    HeightMap,
    JointDist,
    LogitTrace,
    OrderPi,
    PatchGrid,
    Scene,
    TxConfig,
    ValidationError,
    build_shadow_joint,
    delta_h_map,
    entropy_profile,
    exact_conditional_entropies,
    limited_context_entropy,
    load_trace,
    raster_order,
    save_trace,
    step_entropy,
    wavefront_order,
)
from radiofront import entropy
from radiofront.entropy import _BLOCK_LOGITS, LN2, _cond_entropy, _entropies
from radiofront.ordering import CostField


def binary_entropy(eps):
    if eps in (0.0, 1.0):
        return 0.0
    return -eps * math.log(eps) - (1 - eps) * math.log(1 - eps)


def random_joint(rng, n_vars, n_symbols=2):
    p = rng.random((n_symbols,) * n_vars)
    return JointDist(p / p.sum())


def step_entropy_oracle(z, base2=False):
    """Softmax entropy of one 1D logit row, one numpy call at a time."""
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max()
    expz = np.exp(z)
    total = expz.sum()
    p = expz / total
    h = float(np.log(total) - (p * z).sum())
    h = min(max(h, 0.0), float(np.log(z.size)))
    return h / LN2 if base2 else h


def entropies_reference(logits, base2=False):
    """Softmax entropies of (n, vocab) float64 logits, each step one whole-array pass."""
    # C order: numpy sums Fortran-ordered rows in another order than 1D vectors
    z = np.subtract(logits, logits.max(axis=1, keepdims=True), order="C")
    p = np.exp(z)
    total = p.sum(axis=1)
    p /= total[:, np.newaxis]
    p *= z
    h = np.clip(np.log(total) - p.sum(axis=1), 0.0, np.log(z.shape[1]))
    return h / LN2 if base2 else h


def laid_out(big, n, vocab, layout):
    """An (n, vocab) view or copy of the (2n, 3 vocab) array big in the given layout."""
    if layout == "strided":
        return big[::2, ::3]
    corner = big[:n, :vocab]
    return np.asfortranarray(corner) if layout == "F" else np.ascontiguousarray(corner)


def limited_context_oracle(joint, order, k):
    """Per-step conditionals on the last k tokens, added left to right."""
    total = 0.0
    for n in range(len(order)):
        ctx = tuple(order[max(0, n - k): n])
        total += _cond_entropy(joint.marginal(ctx + (order[n],)))
    return total / len(order)


class TestStepEntropy:
    def test_uniform_is_log_vocab(self):
        assert step_entropy(np.zeros(16384)) == pytest.approx(math.log(16384), abs=1e-12)

    def test_one_hot_is_zero(self):
        z = np.zeros(512)
        z[7] = 1e6
        assert step_entropy(z) == pytest.approx(0.0, abs=1e-12)

    def test_fair_binary(self):
        z = np.full(64, -1e6)
        z[3] = z[41] = 0.0
        assert step_entropy(z) == pytest.approx(math.log(2), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(size=100)
            c = rng.uniform(-1e3, 1e3)
            assert step_entropy(z + c) == pytest.approx(step_entropy(z), abs=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = int(rng.integers(2, 300))
            h = step_entropy(rng.normal(scale=5, size=v))
            assert 0.0 <= h <= math.log(v)

    def test_base2_flag(self):
        assert step_entropy(np.zeros(8), base2=True) == pytest.approx(3.0, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            step_entropy(np.array([0.0, np.nan]))
        with pytest.raises(ValidationError):
            step_entropy(np.array([0.0, np.inf]))


class TestStepEntropiesOracle:
    """Whole-trace entropies equal the one-row oracle bit for bit."""

    @pytest.mark.parametrize("base2", [False, True])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_rows_match_oracle(self, layout, base2):
        rng = np.random.default_rng(23)
        for n, vocab in [(1, 1), (6, 1), (1, 40), (37, 53), (64, 1024), (1024, 64)]:
            big = rng.normal(scale=rng.uniform(0.1, 20.0), size=(2 * n, 3 * vocab))
            z = laid_out(big, n, vocab, layout)
            trace = LogitTrace(z)
            expected = np.array([step_entropy_oracle(row, base2) for row in z])
            # the trace holds a copy, so only the direct call sees z's own layout
            assert np.array_equal(_entropies(z, base2), expected)
            assert np.array_equal(trace.step_entropies(base2), expected)
            assert np.array_equal(entropies_reference(z, base2), expected)
            assert step_entropy(z[-1], base2) == expected[-1]

    @pytest.mark.parametrize("base2", [False, True])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_block_edges_match_reference(self, layout, base2):
        rows = _BLOCK_LOGITS // 1000  # rows per block at vocab 1000
        shapes = [
            (3, _BLOCK_LOGITS + 7),  # vocab above the block: one row per block
            (rows - 1, 1000), (rows, 1000), (rows + 1, 1000),
            (3 * (_BLOCK_LOGITS // 1024), 1024),  # three full blocks, no partial one
        ]
        rng = np.random.default_rng(31)
        for n, vocab in shapes:
            big = rng.normal(scale=rng.uniform(0.1, 20.0), size=(2 * n, 3 * vocab))
            z = laid_out(big, n, vocab, layout)
            expected = entropies_reference(z, base2)
            assert np.array_equal(_entropies(z, base2), expected)
            assert np.array_equal(LogitTrace(z).step_entropies(base2), expected)
            assert np.array_equal(expected, [step_entropy_oracle(row, base2) for row in z])

    @settings(max_examples=200, phases=(Phase.explicit, Phase.generate))
    @given(data=st.data())
    def test_any_block_gives_the_reference(self, data):
        # blocks of a few logits put block edges everywhere, and below the vocab
        block = data.draw(st.one_of(st.just(_BLOCK_LOGITS), st.integers(1, 200)))
        n, vocab = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 60))
        layout = data.draw(st.sampled_from(["C", "F", "strided"]))
        base2 = data.draw(st.booleans())
        scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0, 1e4]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        z = laid_out(rng.normal(scale=scale, size=(2 * n, 3 * vocab)), n, vocab, layout)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy, "_BLOCK_LOGITS", block)
            direct = _entropies(z, base2)
            h = LogitTrace(z).step_entropies(base2)
        expected = entropies_reference(z, base2)
        assert np.array_equal(direct, expected) and np.array_equal(h, expected)


class TestOverflowingRowRange:
    """Finite logits further apart than float64's max still give [0, log vocab]."""

    def test_step_entropy(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert step_entropy([1e308, -1e308]) == 0.0
            assert step_entropy([1e308, 1e308, -1e308]) == pytest.approx(math.log(2), abs=1e-15)
            assert step_entropy([-1e308, 1e308, 0.0], base2=True) == 0.0

    def test_trace_profile_and_delta(self):
        z = np.random.default_rng(41).normal(size=(9, 16))
        z[4, :2] = 1e308, -1e308
        trace = LogitTrace(z, raster_order(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = trace.step_entropies()
            prof = entropy_profile([trace])
            dh = delta_h_map(trace, trace)
        assert h[4] == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            expected = entropies_reference(z)
        # rows whose range does not overflow keep the reference's bits
        assert np.array_equal(np.delete(h, 4), np.delete(expected, 4))
        assert np.array_equal(prof.mean, h) and np.isfinite(prof.overall_mean)
        assert np.array_equal(dh.grid, np.zeros((3, 3)))

    @settings(max_examples=200, phases=(Phase.explicit, Phase.generate))
    @given(data=st.data())
    def test_any_finite_logits(self, data):
        n, vocab = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
        top = np.finfo(np.float64).max
        finite = st.one_of(
            st.sampled_from([1e308, -1e308, top, -top]),
            st.floats(-30, 30),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        z = data.draw(arrays(np.float64, (n, vocab), elements=finite))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = LogitTrace(z).step_entropies()
        assert np.all((h >= 0.0) & (h <= np.log(vocab)))
        with np.errstate(over="ignore", invalid="ignore"):
            expected = entropies_reference(z)
        kept = ~np.isnan(expected)
        assert np.array_equal(h[kept], expected[kept])


class TestStepEntropiesMemory:
    def test_peak_is_the_output_plus_block_scratch(self):
        n = 4096
        trace = LogitTrace(np.random.default_rng(37).normal(size=(n, 1024)))
        tracemalloc.start()
        try:
            trace.step_entropies()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole-array pass holds two (n, vocab) float64 temporaries: 64 MB here
        assert peak <= 3 * n * 8 + 4 * _BLOCK_LOGITS * 8 < 2 << 20


class TestHeldEntropies:
    """A trace computes its step entropies once; every request gets the same bits in a fresh array."""

    @staticmethod
    def logits(seed=43, shape=(37, 53)):
        return np.random.default_rng(seed).normal(scale=4.0, size=shape)

    def test_kernel_runs_once_per_trace(self, monkeypatch):
        calls = []

        def spy(logits, base2):
            calls.append(base2)
            return _entropies(logits, base2)

        traces = [LogitTrace(self.logits(seed, (16, 12)), raster_order(4)) for seed in range(4)]
        monkeypatch.setattr(entropy, "_entropies", spy)
        entropy_profile(traces)
        delta_h_map(traces[0], traces[1])
        entropy_profile(traces, base2=True)
        assert calls == [False] * 4

    @pytest.mark.parametrize("first", [False, True])
    def test_held_results_equal_a_fresh_trace(self, first):
        z = self.logits()
        trace = LogitTrace(z)
        trace.step_entropies(first)
        for base2 in (False, True, first):
            h = trace.step_entropies(base2)
            assert np.array_equal(h, LogitTrace(z.copy()).step_entropies(base2))
            assert np.array_equal(h, _entropies(z, base2))

    @pytest.mark.parametrize("base2", [False, True])
    def test_returned_arrays_are_fresh(self, base2):
        z = self.logits()
        trace = LogitTrace(z)
        h = trace.step_entropies(base2)
        assert h.flags.writeable
        h[:] = -1.0
        assert np.array_equal(trace.step_entropies(base2), _entropies(z, base2))
        assert trace.step_entropies(base2) is not trace.step_entropies(base2)

    def test_equality_repr_and_pickle_are_unchanged(self):
        trace = LogitTrace(self.logits(shape=(9, 5)), raster_order(3))
        twin = LogitTrace(self.logits(shape=(9, 5)), raster_order(3))
        before = pickle.dumps(trace), repr(trace), trace == twin, twin == trace
        trace.step_entropies()
        assert (pickle.dumps(trace), repr(trace), trace == twin, twin == trace) == before
        back = pickle.loads(before[0])
        assert back == trace
        assert np.array_equal(back.step_entropies(), trace.step_entropies())

    def test_the_callers_array_stays_its_own(self):
        z = self.logits(shape=(4, 6))
        trace = LogitTrace(z)
        h = trace.step_entropies()
        z[0, 0] = 50.0
        assert z.flags.writeable
        assert np.array_equal(trace.logits, self.logits(shape=(4, 6)))
        assert np.array_equal(trace.step_entropies(), h)

    def test_writing_the_base_of_a_view_changes_nothing(self):
        big = self.logits(shape=(4, 6))
        trace = LogitTrace(big[:2])
        big[0, 0] = 50.0
        assert big.flags.writeable
        assert np.array_equal(trace.logits, self.logits(shape=(4, 6))[:2])
        assert np.array_equal(trace.step_entropies(), _entropies(self.logits(shape=(4, 6))[:2], False))

    def test_two_threads_get_equal_results(self):
        z = self.logits(shape=(256, 512))
        trace = LogitTrace(z)
        start = threading.Barrier(2)
        results = [None, None]

        def work(i):
            start.wait()
            results[i] = trace.step_entropies(bool(i)), trace.step_entropies()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        expected = _entropies(z, False)
        assert np.array_equal(results[0][0], expected) and np.array_equal(results[1][1], expected)
        assert np.array_equal(results[0][1], expected) and np.array_equal(results[1][0], _entropies(z, True))


def uniform_block_logits(n_steps, vocab, active):
    """Logits whose softmax is uniform over the first `active` symbols."""
    z = np.full((n_steps, vocab), -1e9)
    z[:, :active] = 0.0
    return z


class TestEntropyProfile:
    def test_constant_uniform_profile(self):
        trace = LogitTrace(np.zeros((6, 32)))
        prof = entropy_profile([trace])
        assert np.allclose(prof.mean, math.log(32), atol=1e-12)
        assert np.allclose(prof.std, 0.0)
        assert prof.overall_mean == pytest.approx(math.log(32), abs=1e-12)

    def test_mean_of_two_traces(self):
        t_a = LogitTrace(uniform_block_logits(3, 16, 8))  # ln 8 per step
        t_b = LogitTrace(uniform_block_logits(3, 16, 2))  # ln 2 per step
        prof = entropy_profile([t_a, t_b])
        expected = (math.log(8) + math.log(2)) / 2
        assert np.allclose(prof.mean, expected, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            entropy_profile([LogitTrace(np.zeros((3, 8))), LogitTrace(np.zeros((4, 8)))])


class TestDeltaHMap:
    def test_self_difference_is_zero(self):
        rng = np.random.default_rng(3)
        order = raster_order(3)
        t = LogitTrace(rng.normal(size=(9, 16)), order)
        dh = delta_h_map(t, t)
        assert np.array_equal(dh.grid, np.zeros((3, 3)))
        assert dh.mean == 0.0 and dh.variance == 0.0

    def test_marked_patches(self):
        # patches 0 and 5 carry ln 8 vs ln 2 entropy: delta is ln 4 there
        marked = {0, 5}
        za = np.stack(
            [uniform_block_logits(1, 16, 8 if p in marked else 2)[0] for p in range(9)]
        )
        zb = uniform_block_logits(9, 16, 2)
        order = raster_order(3)
        dh = delta_h_map(LogitTrace(za, order), LogitTrace(zb, order))
        expected = np.zeros(9)
        expected[list(marked)] = math.log(4)
        assert np.allclose(dh.grid.ravel(), expected, atol=1e-9)

    def test_orders_may_differ(self):
        # the same per-patch logits delivered under two different orders
        # scatter back to identical patch maps, so the difference is zero
        rng = np.random.default_rng(5)
        per_patch = rng.normal(size=(9, 12))
        o_a = raster_order(3)
        o_b = OrderPi(np.roll(np.arange(9), 4))
        t_a = LogitTrace(per_patch[o_a.perm], o_a)
        t_b = LogitTrace(per_patch[o_b.perm], o_b)
        dh = delta_h_map(t_a, t_b)
        assert np.allclose(dh.grid, 0.0, atol=1e-12)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], np.arange(4), "raster", 4])
    def test_order_must_be_an_order_or_none(self, order):
        with pytest.raises(ValidationError, match=f"trace order must be an OrderPi or None, got {type(order).__name__}"):
            LogitTrace(np.zeros((4, 3)), order)

    def test_grid_mismatch(self):
        t_a = LogitTrace(np.zeros((9, 4)), raster_order(3))
        t_b = LogitTrace(np.zeros((4, 4)), raster_order(2))
        with pytest.raises(ValidationError):
            delta_h_map(t_a, t_b)


class TestExactConditionalEntropies:
    def test_independent_fair_bits(self):
        probs = np.full((2, 2, 2, 2), 1 / 16)
        joint = JointDist(probs)
        for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
            h = exact_conditional_entropies(joint, order)
            assert np.allclose(h, math.log(2), atol=1e-12)

    def test_perfectly_correlated_pair(self):
        joint = JointDist(np.array([[0.5, 0.0], [0.0, 0.5]]))
        for order in ([0, 1], [1, 0]):
            h = exact_conditional_entropies(joint, order)
            assert h[0] == pytest.approx(math.log(2), abs=1e-12)
            assert h[1] == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_invariance(self):
        rng = np.random.default_rng(11)
        joint = random_joint(rng, 3)
        totals = []
        for _ in range(20):
            order = rng.permutation(3)
            totals.append(exact_conditional_entropies(joint, order).sum())
        assert max(totals) - min(totals) < 1e-9
        assert totals[0] == pytest.approx(joint.entropy(), abs=1e-9)


class TestExactInputChecks:
    """Non-finite probabilities, and orders or k that are not integers, are refused by name."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_joint_refuses_non_finite_probabilities(self, bad):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            JointDist(np.array([[bad, 0.5], [0.5, 0.0]]))

    @pytest.mark.parametrize(
        "order, bad",
        [([0, 1.7, 2], 1.7), ([0.0, 1.0, 2.0], 0.0), (["0", "1", "2"], "0"),
         (np.array([0.0, 1.0, 2.0]), np.float64(0.0))],
        ids=["fraction", "whole-floats", "strings", "float-array"],
    )
    @pytest.mark.parametrize("call", [
        exact_conditional_entropies, lambda j, o: limited_context_entropy(j, o, 1),
    ], ids=["exact", "limited"])
    def test_order_entries_must_be_integers(self, call, order, bad):
        joint = random_joint(np.random.default_rng(47), 3)
        needle = f"order[{list(order).index(bad)}] must be an integer >= 0, got {bad!r}"
        with pytest.raises(ValidationError, match=re.escape(needle)):
            call(joint, order)

    @pytest.mark.parametrize("k", [1.5, np.float64(2.0), "1", None])
    def test_k_must_be_an_integer(self, k):
        joint = random_joint(np.random.default_rng(53), 3)
        with pytest.raises(ValidationError, match=re.escape(f"k must be an integer >= 0, got {k!r}")):
            limited_context_entropy(joint, [0, 1, 2], k)

    def test_numpy_integers_are_accepted(self):
        joint = random_joint(np.random.default_rng(59), 3)
        order = np.array([2, 0, 1], dtype=np.int32)
        assert np.array_equal(exact_conditional_entropies(joint, order),
                              exact_conditional_entropies(joint, [2, 0, 1]))
        assert limited_context_entropy(joint, order, np.int64(1)) == limited_context_entropy(joint, [2, 0, 1], 1)


class TestLimitedContext:
    def test_full_context_recovers_exact(self):
        rng = np.random.default_rng(13)
        joint = random_joint(rng, 4)
        order = [2, 0, 3, 1]
        exact_mean = exact_conditional_entropies(joint, order).mean()
        for k in (3, 5, 10):
            assert limited_context_entropy(joint, order, k) == pytest.approx(
                exact_mean, abs=1e-12
            )

    def test_adds_steps_left_to_right(self):
        rng = np.random.default_rng(29)
        for _ in range(4):
            joint = random_joint(rng, 9)
            order = [int(i) for i in rng.permutation(9)]
            for k in range(10):
                assert limited_context_entropy(joint, order, k) == limited_context_oracle(
                    joint, order, k
                )

    def test_independent_vars_insensitive(self):
        probs = np.full((2, 2, 2), 1 / 8)
        joint = JointDist(probs)
        vals = {
            limited_context_entropy(joint, order, k)
            for order in ([0, 1, 2], [2, 1, 0])
            for k in (0, 1, 2)
        }
        assert max(vals) - min(vals) < 1e-12

    def test_marginalizing_cannot_reduce_entropy(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            joint = random_joint(rng, 4)
            order = list(rng.permutation(4))
            exact_mean = exact_conditional_entropies(joint, order).mean()
            for k in (0, 1, 2):
                assert limited_context_entropy(joint, order, k) >= exact_mean - 1e-9

    def test_flat_scene_orders_tie(self):
        # on flat scenes every patch copies the deterministic source, so
        # tokens are independent and k=1 entropy is order-insensitive
        hm = HeightMap(np.zeros((24, 24)), 1.0)
        sc = Scene(hm, TxConfig(4.0, 12.0, 1.5, 5.9e9))  # a patch center
        pg = PatchGrid.for_scene(sc, patch_px=8)
        wf, costs = wavefront_order(sc, pg)
        joint = build_shadow_joint(costs, eps=0.1)
        h_wf = limited_context_entropy(joint, wf, 1)
        h_ra = limited_context_entropy(joint, raster_order(3), 1)
        assert h_wf <= h_ra + 1e-12
        assert h_wf == pytest.approx(h_ra, abs=1e-12)

    def test_chain_vs_separating_order(self):
        # line chain 0 -> 1 -> 2 -> 3 of copy channels with flip eps
        eps = 0.1
        costs = CostField(np.array([0.0, 1.0, 2.0, 3.0]), np.array([-1, 0, 1, 2]), 0)
        joint = build_shadow_joint(costs, eps)
        chain_mean = limited_context_entropy(joint, [0, 1, 2, 3], 1)
        # each step sees its true parent: mean of three copy channels
        assert chain_mean == pytest.approx(3 * binary_entropy(eps) / 4, abs=1e-12)
        separating = limited_context_entropy(joint, [0, 2, 1, 3], 1)
        assert chain_mean < separating


class TestShadowJoint:
    def flat_costs(self):
        hm = HeightMap(np.zeros((16, 16)), 1.0)
        sc = Scene(hm, TxConfig(4.0, 4.0, 1.5, 5.9e9))  # patch (0, 0) center
        pg = PatchGrid.for_scene(sc, patch_px=8)
        _, costs = wavefront_order(sc, pg)
        return costs

    def test_deterministic_when_eps_zero(self):
        joint = build_shadow_joint(self.flat_costs(), eps=0.0)
        assert joint.entropy() == pytest.approx(0.0, abs=1e-12)

    def test_half_eps_gives_independent_bits(self):
        joint = build_shadow_joint(self.flat_costs(), eps=0.5)
        assert joint.entropy() == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_flat_2x2_entropy(self):
        joint = build_shadow_joint(self.flat_costs(), eps=0.1)
        assert joint.entropy() == pytest.approx(3 * binary_entropy(0.1), abs=1e-12)

    def test_size_limit(self):
        costs = CostField(np.zeros(13), np.full(13, -1), 0)
        with pytest.raises(ValidationError):
            build_shadow_joint(costs)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(19)
        for i in range(20):
            logits = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(2, 30))))
            trace = LogitTrace(logits.astype(np.float32))
            save_trace(trace, tmp_path / f"t{i}.ltr")
            back = load_trace(tmp_path / f"t{i}.ltr")
            assert np.array_equal(back.logits, trace.logits)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_file_bytes(self, tmp_path, layout):
        rng = np.random.default_rng(61)
        big = rng.normal(size=(12, 21)).astype(np.float32).astype(np.float64)
        z = laid_out(big, 6, 7, layout)
        save_trace(LogitTrace(z), tmp_path / "t.ltr")
        golden = b"LTR1" + struct.pack("<II", 6, 7) + z.astype("<f4").tobytes()
        assert (tmp_path / "t.ltr").read_bytes() == golden

    def test_load_peak_is_the_file_plus_one_copy(self, tmp_path):
        logits = np.random.default_rng(67).normal(size=(1024, 1024)).astype(np.float32).astype(np.float64)
        p = tmp_path / "big.ltr"
        save_trace(LogitTrace(logits), p)
        tracemalloc.start()
        try:
            back = load_trace(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.logits, logits)
        # the file's bytes, the float64 logits, the finite check's bool mask and 64 KB;
        # a second float64 copy would add 8 MB
        assert peak <= p.stat().st_size + logits.nbytes + logits.size + (1 << 16)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_trace_without_steps_or_vocab(self, tmp_path, shape):
        with pytest.raises(ValidationError, match="n_steps, vocab"):
            LogitTrace(np.zeros(shape))
        p = tmp_path / "empty.ltr"
        p.write_bytes(b"LTR1" + np.array(shape, dtype="<u4").tobytes())
        with pytest.raises(ValidationError, match="^" + re.escape(f"{p}: trace logits")):
            load_trace(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ltr"
        p.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(Exception, match="magic"):
            load_trace(p)

    def test_truncated(self, tmp_path):
        trace = LogitTrace(np.zeros((2, 3)))
        p = tmp_path / "t.ltr"
        save_trace(trace, p)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(Exception, match="length"):
            load_trace(p)

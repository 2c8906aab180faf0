"""Order-dependent entropy analysis.

Two layers of tooling live here.  The trace side turns per-step logit
vectors from an autoregressive decoder into entropy profiles and per-patch
entropy-difference maps.  The exact side works on small enumerable joint
distributions: conditional entropies under any generation order, a
limited-context variant that conditions on only the last k prefix tokens,
and a shadow-chain toy joint in which every patch copies its propagation
predecessor's token through a binary noisy channel.

All entropies are in nats; pass base2=True where offered for bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import GridFormatError, ValidationError, _check, _fields_equal, _held, _without_held, read_container, shannon_entropy, write_container
from .ordering import NO_PRED, CostField, OrderPi

LTR_MAGIC = b"LTR1"
_LTR1_FMT = "<II"  # n_steps, vocab
LN2 = float(np.log(2.0))
_BLOCK_LOGITS = 1 << 15  # logits per row block of the step-entropy kernel (256 KB of float64)


def _entropies(logits: np.ndarray, base2: bool) -> np.ndarray:
    """Softmax entropy of each row of finite (n, vocab) float64 logits.

    Rows are taken in blocks of at most _BLOCK_LOGITS logits (one row when
    the vocab is larger), each through arrays of its own, so each block's
    passes stay in cache.  A row's sums run over the same contiguous values
    in any block, so the result does not depend on the blocking.
    """
    n, vocab = logits.shape
    rows = min(n, max(1, _BLOCK_LOGITS // vocab))
    total = np.empty(n)
    h = np.empty(n)  # sum of p * z per row, then the entropy
    # a row range beyond float64 overflows x - max to -inf, and 0 * -inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            block = logits[start:start + rows]
            # C order: numpy sums Fortran-ordered rows in another order than 1D vectors
            z = np.subtract(block, block.max(axis=1, keepdims=True), order="C")
            p = np.exp(z)
            t = np.sum(p, axis=1, out=total[start:start + rows])
            p /= t[:, np.newaxis]
            p *= z
            np.sum(p, axis=1, out=h[start:start + rows])
        np.log(total, out=total)
        np.subtract(total, h, out=h)
        np.clip(h, 0.0, np.log(vocab), out=h)
        for i in np.flatnonzero(np.isnan(h)):
            # the logits that overflowed carry zero probability: drop them
            row = logits[i]
            h[i] = _entropies(row[np.isfinite(row - row.max())][np.newaxis], False)[0]
    if base2:
        h /= LN2
    return h


def step_entropy(logits, base2: bool = False) -> float:
    """Shannon entropy of softmax(logits), numerically stable.

    Bounded by [0, log(vocab)] and invariant to adding a constant to all
    logits.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValidationError("logits must be a non-empty 1D vector")
    if not np.all(np.isfinite(z)):
        raise ValidationError("logits contain NaN or infinite values")
    return float(_entropies(z[np.newaxis], base2)[0])


@dataclass(frozen=True)
class LogitTrace:
    """Per-step decoder logits; step n targets patch order.perm[n].

    The trace keeps its own read-only float64 copy of the logits, and holds
    its step entropies in nats from the first request on (n_steps float64,
    kept out of ==, repr and pickle).
    """

    logits: np.ndarray  # (n_steps, vocab)
    order: OrderPi | None = None

    __eq__ = _fields_equal
    __getstate__ = _without_held

    def __post_init__(self):
        # an own copy: writing to the caller's array cannot change the logits or the held entropies
        logits = np.array(self.logits, dtype=np.float64)
        if logits.ndim != 2 or 0 in logits.shape:
            raise ValidationError("trace logits must be (n_steps, vocab) with both >= 1")
        if not np.all(np.isfinite(logits)):
            raise ValidationError("trace contains NaN or infinite logits")
        if not (self.order is None or isinstance(self.order, OrderPi)):
            raise ValidationError(f"trace order must be an OrderPi or None, got {type(self.order).__name__}")
        if self.order is not None and len(self.order) != logits.shape[0]:
            raise ValidationError("trace length does not match its order")
        logits.setflags(write=False)
        object.__setattr__(self, "logits", logits)

    @property
    def n_steps(self) -> int:
        return self.logits.shape[0]

    @property
    def vocab(self) -> int:
        return self.logits.shape[1]

    def step_entropies(self, base2: bool = False) -> np.ndarray:
        """Softmax entropy of each step, as a fresh array; the nats are a held result of the trace."""
        nats = _held(self, "nats", lambda: _entropies(self.logits, False))
        # the same single division per element as _entropies(logits, True) makes
        return nats / LN2 if base2 else nats.copy()


@dataclass(frozen=True)
class EntropyProfile:
    """Sample-averaged predictive entropy per generation step."""

    mean: np.ndarray  # (n_steps,)
    std: np.ndarray  # (n_steps,)
    overall_mean: float


def entropy_profile(traces, base2: bool = False) -> EntropyProfile:
    """Per-step mean/std of predictive entropy across traces."""
    traces = list(traces)
    if not traces:
        raise ValidationError("no traces supplied")
    shape = (traces[0].n_steps, traces[0].vocab)
    if any((t.n_steps, t.vocab) != shape for t in traces):
        raise ValidationError("traces disagree on n_steps or vocab")
    h = np.stack([t.step_entropies(base2) for t in traces])
    mean = h.mean(axis=0)
    return EntropyProfile(mean, h.std(axis=0), float(mean.mean()))


@dataclass(frozen=True)
class DeltaHMap:
    grid: np.ndarray  # (n_side, n_side) entropy difference per patch
    mean: float
    variance: float


def delta_h_map(trace_a: LogitTrace, trace_b: LogitTrace, base2: bool = False) -> DeltaHMap:
    """Per-patch entropy difference H_a(patch) - H_b(patch).

    Each trace's step entropies are scattered onto the patch grid through
    its own order, so the two traces may use different generation orders
    over the same grid.
    """
    for name, t in (("a", trace_a), ("b", trace_b)):
        if t.order is None:
            raise ValidationError(f"trace {name} has no generation order attached")
    if trace_a.n_steps != trace_b.n_steps:
        raise ValidationError("traces cover different patch grids")
    n_side = trace_a.order.n_side
    h_a = trace_a.step_entropies(base2)[trace_a.order.positions()]
    h_b = trace_b.step_entropies(base2)[trace_b.order.positions()]
    diff = (h_a - h_b).reshape(n_side, n_side)
    return DeltaHMap(diff, float(diff.mean()), float(diff.var()))


# ---------------------------------------------------------------------------
# exact small-scale joints


@dataclass(frozen=True)
class JointDist:
    """Exact joint distribution over n_vars variables of n_symbols outcomes."""

    probs: np.ndarray  # shape (n_symbols,) * n_vars

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim < 1:
            raise ValidationError("joint needs at least one variable")
        if len(set(probs.shape)) != 1:
            raise ValidationError("all variables must share one alphabet size")
        if not np.all(np.isfinite(probs)):
            raise ValidationError("joint has NaN or infinite probabilities")
        if np.any(probs < 0):
            raise ValidationError("joint has negative probabilities")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValidationError(f"joint sums to {probs.sum()!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_vars(self) -> int:
        return self.probs.ndim

    @property
    def n_symbols(self) -> int:
        return self.probs.shape[0]

    def entropy(self) -> float:
        return shannon_entropy(self.probs)

    def marginal(self, axes: tuple[int, ...]) -> np.ndarray:
        """Marginal over the given variables, in the given axis order."""
        drop = tuple(a for a in range(self.n_vars) if a not in axes)
        m = self.probs.sum(axis=drop) if drop else self.probs
        kept = [a for a in range(self.n_vars) if a in axes]
        return np.transpose(m, [kept.index(a) for a in axes])


def _cond_entropy(m1: np.ndarray) -> float:
    """H(last axis of m1 | other axes) of a joint marginal table m1."""
    m0 = np.asarray(m1.sum(axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = m1 / m0[..., np.newaxis]
        terms = np.where(m1 > 0, m1 * np.log(ratio), 0.0)
    return float(-terms.sum())


def _step_conditionals(joint: JointDist, order, k: int) -> list[float]:
    """H(x_order[n] | the last k tokens before step n) for each step n."""
    order = list(order.perm if isinstance(order, OrderPi) else order)
    _check("an integer >= 0", **{f"order[{n}]": i for n, i in enumerate(order)})
    order = [int(i) for i in order]
    if sorted(order) != list(range(joint.n_vars)):
        raise ValidationError("order is not a permutation of the variables")
    return [_cond_entropy(joint.marginal(tuple(order[max(0, n - k): n + 1])))
            for n in range(len(order))]


def exact_conditional_entropies(joint: JointDist, order) -> np.ndarray:
    """H(x_order[n] | x_order[<n]) for each step, by exact marginalization.

    Their sum equals the joint entropy for every order (chain rule).
    """
    return np.array(_step_conditionals(joint, order, joint.n_vars))


def limited_context_entropy(joint: JointDist, order, k: int) -> float:
    """Mean step entropy of a predictor seeing only the last k prefix tokens.

    At each step the exact conditional given just the k most recent tokens
    of the order is formed by marginalizing everything earlier; its entropy
    under the true conditional is averaged over steps.  k >= n_vars - 1
    recovers the mean of exact_conditional_entropies.
    """
    _check("an integer >= 0", k=k)
    total = 0.0
    for h in _step_conditionals(joint, order, k):
        total += h  # left to right: sum() compensates from Python 3.12 on
    return total / joint.n_vars


def build_shadow_joint(costs: CostField, eps: float = 0.1) -> JointDist:
    """Exact joint of binary tokens copied down the predecessor tree.

    The source patch emits 1 with probability 1; every other patch copies
    its cost-field predecessor's token with probability 1 - eps and flips
    it with probability eps.  Enumerates all 2^N outcomes, so N <= 12.
    """
    n = len(costs.d)
    if n > 12:
        raise ValidationError(f"shadow joint limited to 12 patches, got {n}")
    _check("finite and >= 0", eps=eps)
    eps = float(eps)  # a numpy float32 eps would make 1 - eps in float32
    if not eps <= 1:
        raise ValidationError("flip probability must lie in [0, 1]")
    tokens = np.indices((2,) * n)  # tokens[i] is x_i over the outcome table
    probs = np.ones((2,) * n, dtype=np.float64)
    for i in range(n):
        p = int(costs.pred[i])
        if p == NO_PRED:
            probs = probs * (tokens[i] == 1)
        else:
            probs = probs * np.where(tokens[i] == tokens[p], 1.0 - eps, eps)
    return JointDist(probs)


# ---------------------------------------------------------------------------
# LTR1 trace I/O


def save_trace(trace: LogitTrace, path: str | Path) -> None:
    """Write logits as LTR1; the order travels in its own order file."""
    write_container(path, LTR_MAGIC, _LTR1_FMT, trace.logits.shape, trace.logits)


def load_trace(path: str | Path, order: OrderPi | None = None) -> LogitTrace:
    _, logits = read_container(path, LTR_MAGIC, _LTR1_FMT, lambda *shape: shape)
    try:
        return LogitTrace(logits, order)
    except ValidationError as exc:
        raise GridFormatError(f"{path}: {exc}") from None

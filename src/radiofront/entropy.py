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

from .grids import GridFormatError, ValidationError, read_container, write_container
from .ordering import NO_PRED, CostField, OrderPi

LTR_MAGIC = b"LTR1"
_LTR1_FMT = "<II"  # n_steps, vocab
LN2 = float(np.log(2.0))


def shannon_entropy(p) -> float:
    """-sum(p log p) over the cells of a probability array; zero cells add 0."""
    p = np.asarray(p).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _entropies(logits: np.ndarray, base2: bool) -> np.ndarray:
    """Softmax entropy of each row of finite (n, vocab) logits."""
    # C order: numpy sums Fortran-ordered rows in another order than 1D vectors
    z = np.subtract(logits, logits.max(axis=1, keepdims=True), order="C")
    p = np.exp(z)
    total = p.sum(axis=1)
    p /= total[:, np.newaxis]
    p *= z
    h = np.clip(np.log(total) - p.sum(axis=1), 0.0, np.log(z.shape[1]))
    return h / LN2 if base2 else h


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
    """Per-step decoder logits; step n targets patch order.perm[n]."""

    logits: np.ndarray  # (n_steps, vocab)
    order: OrderPi | None = None

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=np.float64)
        if logits.ndim != 2 or 0 in logits.shape:
            raise ValidationError("trace logits must be (n_steps, vocab) with both >= 1")
        if not np.all(np.isfinite(logits)):
            raise ValidationError("trace contains NaN or infinite logits")
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
        return _entropies(self.logits, base2)


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
    order = [int(i) for i in (order.perm if isinstance(order, OrderPi) else order)]
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
    if k < 0:
        raise ValidationError("context length k must be >= 0")
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
    if not 0 <= eps <= 1:
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

"""1D and 3D rotary position embeddings for spatial registration.

The 1D rotation acts on interleaved element pairs (2j-1, 2j), each rotated
by angle m * phi_j with phi_j = theta_base^(-2(j-1)/d).  The 3D variant
partitions the head dimension into axis-specific subvectors and applies an
independent 1D rotation per axis, so attention scores between rotated
queries and keys depend only on relative (x, y, z) offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ValidationError, _check


def split_axis_dims(d: int) -> tuple[int, int, int]:
    """Near-even split of the head dim into even (d_x, d_y, d_z).

    Leftover pairs go to x first, then y, keeping horizontal resolution
    when d is not divisible by 6.
    """
    _check("an integer >= 1", d=d)
    if d < 6 or d % 2:
        raise ValueError(f"head dim must be even and >= 6, got {d}")
    pairs = d // 2
    per, rem = divmod(pairs, 3)
    return tuple(2 * (per + (1 if axis < rem else 0)) for axis in range(3))


@dataclass(frozen=True)
class RopeConfig:
    head_dim: int
    axis_dims: tuple[int, int, int]
    theta_base: float = 10000.0

    def __post_init__(self):
        _check("a triple", axis_dims=self.axis_dims)
        _check("an integer >= 1", head_dim=self.head_dim, **{f"axis_dims[{i}]": a for i, a in enumerate(self.axis_dims)})
        if any(a % 2 for a in self.axis_dims):
            raise ValidationError(f"axis_dims must be three even integers, got {self.axis_dims!r}")
        if sum(self.axis_dims) != self.head_dim:
            raise ValidationError(
                f"axis dims {self.axis_dims} do not sum to head_dim {self.head_dim}"
            )
        _check("finite and > 0", theta_base=self.theta_base)

    @classmethod
    def from_head_dim(cls, d: int, theta_base: float = 10000.0) -> "RopeConfig":
        return cls(d, split_axis_dims(d), theta_base)


def rotary_frequencies(d: int, theta_base: float = 10000.0) -> np.ndarray:
    """phi_j = theta_base^(-2(j-1)/d) for j = 1 .. d/2."""
    _check("an integer >= 0", d=d)
    if d % 2:
        raise ValueError(f"d must be even, got {d}")
    _check("finite and > 0", theta_base=theta_base)
    return theta_base ** (-2.0 * np.arange(d // 2) / d)


def rope_rotate_1d(q, m: float, theta_base: float = 10000.0) -> np.ndarray:
    """Rotate consecutive pairs of q by m * phi_j; preserves the norm."""
    _check("finite", m=m)
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size % 2:
        raise ValueError(f"vector length must be even, got shape {q.shape}")
    ang = m * rotary_frequencies(q.size, theta_base)
    c, s = np.cos(ang), np.sin(ang)
    even, odd = q[0::2], q[1::2]
    out = np.empty_like(q)
    out[0::2] = c * even - s * odd
    out[1::2] = s * even + c * odd
    return out


def rope_rotate_3d(q, x: float, y: float, z: float, config: RopeConfig) -> np.ndarray:
    """Rotate each axis subvector with its own index and frequency ladder.

    The same coordinate rule serves 2D and 3D: hold z fixed for planar use.
    """
    _check("finite", x=x, y=y, z=z)
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size != config.head_dim:
        raise ValueError(f"expected a vector of length {config.head_dim}, got {q.shape}")
    d_x, d_y, _ = config.axis_dims
    parts = (q[:d_x], q[d_x: d_x + d_y], q[d_x + d_y:])
    return np.concatenate(
        [rope_rotate_1d(part, m, config.theta_base) for part, m in zip(parts, (x, y, z))]
    )

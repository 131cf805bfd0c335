"""Multi-index lattices, hyperrectangles, and boundary-face geometry.

The basic vocabulary shared by every other module: componentwise-ordered
integer multi-indices, axis-aligned boxes, and face selectors that pin a
subset of axes at the lower domain boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

MultiIndex = tuple[int, ...]

#: Face selector: one entry per axis, 0 for an active (interval) axis and
#: -1 for an axis pinned at its lower endpoint.
FaceSpec = tuple[int, ...]

#: Subscript letters for the einsum specs built per axis elsewhere.
EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def as_multiindex(alpha: Sequence[int] | int, ndim: int | None = None) -> MultiIndex:
    """Validate and normalize a multi-index (a scalar means a 1-D index)."""
    if isinstance(alpha, (int, np.integer)):
        alpha = (int(alpha),)
    out = tuple(int(a) for a in alpha)
    if len(out) < 1:
        raise ValueError("multi-index must have at least one entry")
    if any(a != b for a, b in zip(out, alpha)):
        raise ValueError(f"multi-index entries must be integers, got {alpha!r}")
    if any(a < 0 for a in out):
        raise ValueError(f"multi-index entries must be >= 0, got {out}")
    if ndim is not None and len(out) != ndim:
        raise ValueError(f"expected {ndim} entries, got {len(out)}")
    return out


def leq(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """Componentwise partial order: alpha <= beta on every axis."""
    if len(alpha) != len(beta):
        raise ValueError("multi-indices of different length are not comparable")
    return all(a <= b for a, b in zip(alpha, beta))


def meet(alpha: Sequence[int], beta: Sequence[int]) -> MultiIndex:
    """Componentwise minimum."""
    return tuple(min(a, b) for a, b in zip(alpha, beta))


def lattice_size(delta: Sequence[int]) -> int:
    """Number of multi-indices alpha with 0 <= alpha <= delta."""
    return math.prod(d + 1 for d in as_multiindex(delta))


def multiindex_range(delta: Sequence[int] | int) -> list[MultiIndex]:
    """All alpha with 0 <= alpha <= delta, first axis varying fastest.

    The order is deterministic and matches the layout of the boundary-value
    tables for 2-D expansions: (0,0), (1,0), (2,0), (0,1), ...
    """
    delta = as_multiindex(delta)
    ranges = [range(d + 1) for d in reversed(delta)]
    return [tuple(reversed(t)) for t in itertools.product(*ranges)]


def face_spec(alpha: Sequence[int] | int, delta: Sequence[int] | int) -> FaceSpec:
    """Face selector for the trace of D^alpha: active where alpha_i == delta_i.

    Axes where the derivative order is below the smoothness order get pinned
    at the lower boundary (-1); axes at top order stay active (0).
    """
    alpha = as_multiindex(alpha)
    delta = as_multiindex(delta, ndim=len(alpha))
    if not leq(alpha, delta):
        raise ValueError(f"alpha={alpha} is not <= delta={delta}")
    return tuple(0 if a == d else -1 for a, d in zip(alpha, delta))


def active_axes(face: Sequence[int]) -> tuple[int, ...]:
    """Axes on which a face-supported function actually varies."""
    return tuple(i for i, b in enumerate(face) if b == 0)


@dataclass(frozen=True)
class HyperRect:
    """Axis-aligned box prod_i [lo_i, hi_i]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(a) for a in self.lo)
        hi = tuple(float(b) for b in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or len(lo) < 1:
            raise ValueError("lo and hi must be equal-length, nonempty")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError(f"need lo < hi on every axis, got {lo}, {hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def contains(self, point: Sequence[float], tol: float = 1e-12) -> bool:
        point = tuple(float(p) for p in point)
        if len(point) != self.ndim:
            return False
        return all(
            a - tol * (b - a) <= p <= b + tol * (b - a)
            for p, a, b in zip(point, self.lo, self.hi)
        )

    @classmethod
    def cube(cls, ndim: int, lo: float = -1.0, hi: float = 1.0) -> "HyperRect":
        return cls((lo,) * ndim, (hi,) * ndim)


@dataclass(frozen=True)
class TraceFunction:
    """A function supported on a boundary face.

    ``values`` is a plain float for vertex faces (no active axis), otherwise
    a callable of the active coordinates only (broadcasting over arrays) or
    any object with an ``eval_grid`` method over the active axes.
    """

    face: FaceSpec
    values: Union[float, Callable, object]

    @property
    def active(self) -> tuple[int, ...]:
        return active_axes(self.face)

    @property
    def is_scalar(self) -> bool:
        return not self.active

    def __call__(self, *coords):
        if self.is_scalar:
            if coords:
                raise TypeError("scalar trace takes no coordinates")
            return float(self.values)
        if callable(self.values):
            return self.values(*coords)
        grids = np.meshgrid(*map(np.atleast_1d, coords), indexing="ij", sparse=True)
        return self.values.eval_grid([g.ravel() for g in grids])

    def eval_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Values on the tensor grid spanned by per-active-axis node arrays."""
        if self.is_scalar:
            if axes:
                raise ValueError("scalar trace has no grid axes")
            return np.asarray(float(self.values))
        if len(axes) != len(self.active):
            raise ValueError(f"expected {len(self.active)} axes, got {len(axes)}")
        if hasattr(self.values, "eval_grid"):
            return self.values.eval_grid(list(axes))
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        shape = tuple(len(a) for a in axes)
        return np.broadcast_to(np.asarray(self.values(*grids), float), shape)

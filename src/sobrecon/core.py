"""Multi-index lattices, hyperrectangles, and boundary-face geometry.

The basic vocabulary shared by every other module: componentwise-ordered
integer multi-indices, axis-aligned boxes, face selectors that pin a
subset of axes at the lower domain boundary, and ``contract_axes``, the one
per-axis contraction of a tensor grid that every basis projection, grid
evaluation and tensor-product quadrature runs through.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MultiIndex = tuple[int, ...]

#: Face selector: one entry per axis, 0 for an active (interval) axis and
#: -1 for an axis pinned at its lower endpoint.
FaceSpec = tuple[int, ...]


def contract_axes(grid: np.ndarray, tables: Sequence[np.ndarray]) -> np.ndarray:
    """Contract axis i of a tensor grid with tables[i], for every axis: an
    (n_i, m_i) table leaves an axis of m_i entries in place i, an (n_i,)
    weight vector sums axis i away.

    The last axis goes first and each result axis is put in front, so every
    step reads the grid's trailing axis, which on a C-ordered grid needs no
    copy.  A 1-D grid is one ``tensordot``, i.e. one BLAS product."""
    for t in reversed(tables):
        grid = np.tensordot(t, grid, axes=(0, grid.ndim - 1))
    return grid


def as_multiindex(alpha: Sequence[int] | int, ndim: int | None = None) -> MultiIndex:
    """Validate and normalize a multi-index (a scalar means a 1-D index)."""
    if isinstance(alpha, (int, np.integer)):
        alpha = (int(alpha),)
    out = tuple(int(a) for a in alpha)
    if len(out) < 1:
        raise ValueError("multi-index must have at least one entry")
    if out != tuple(alpha):
        raise ValueError(f"multi-index entries must be integers, got {alpha!r}")
    if min(out) < 0:
        raise ValueError(f"multi-index entries must be >= 0, got {out}")
    if ndim is not None and len(out) != ndim:
        raise ValueError(f"expected {ndim} entries, got {len(out)}")
    return out


def leq(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """Componentwise partial order: alpha <= beta on every axis."""
    if len(alpha) != len(beta):
        raise ValueError("multi-indices of different length are not comparable")
    return all(a <= b for a, b in zip(alpha, beta))


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
        for i, (a, b) in enumerate(zip(lo, hi)):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"bounds must be finite, got [{a}, {b}] on axis {i}")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError(f"need lo < hi on every axis, got {lo}, {hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    def check_inside(self, axis: int, x: np.ndarray):
        """Raise ValueError if any coordinate in `x` lies outside [lo, hi] on
        `axis` by more than 1e-12 of the axis width."""
        lo, hi = self.lo[axis], self.hi[axis]
        tol = 1e-12 * (hi - lo)
        bad = (x < lo - tol) | (x > hi + tol)
        if np.any(bad):
            where = float(np.asarray(x)[bad].reshape(-1)[0])
            raise ValueError(f"point outside domain on axis {axis}: {where!r} not in [{lo}, {hi}]")

    @classmethod
    def cube(cls, ndim: int) -> "HyperRect":
        """The standard hypercube [-1, 1]^ndim."""
        return cls((-1.0,) * ndim, (1.0,) * ndim)


@dataclass(frozen=True, eq=False)
class TraceFunction:
    """The trace of D^alpha f on a lower boundary face: D^alpha f read as a
    function of the face's active axes, every other axis pinned at its lower
    endpoint.

    `f` needs only `domain` and `derivative_grids(indices, axes)` (PiecewisePoly,
    LegendreSeries, AnalyticFunction).  Face, alpha and f fix one summand of
    the expansion, so a reader needs nothing else.
    """

    face: FaceSpec
    f: object
    alpha: MultiIndex

    @property
    def active(self) -> tuple[int, ...]:
        return active_axes(self.face)

    def eval_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Values on the tensor grid spanned by one node array per active
        axis; each pinned axis is read as the one-node array [domain.lo[i]]
        and squeezed out, so a vertex face reads eval_grid([]) as 0-d."""
        return next(face_grids([self], axes))


def face_grids(traces: Sequence[TraceFunction], axes: Sequence[np.ndarray]):
    """Yield eval_grid(axes) of each trace in order, for traces of one
    function on one face, from one derivative_grids read of that function:
    its per-axis tables (and a LegendreSeries' derivatives) are built once."""
    first = traces[0]
    if len(axes) != len(first.active):
        raise ValueError(f"expected {len(first.active)} axes, got {len(axes)}")
    it = iter(axes)
    full = [next(it) if b == 0 else np.array([first.f.domain.lo[i]])
            for i, b in enumerate(first.face)]
    pinned = tuple(i for i, b in enumerate(first.face) if b < 0)
    for values in first.f.derivative_grids([t.alpha for t in traces], full):
        yield np.squeeze(values, axis=pinned)


def boundary_trace(f, alpha, order) -> TraceFunction:
    """Trace of D^alpha f on the face it lives on in an order-`order`
    expansion, for any f with `domain` and `derivative_grid`; nothing is
    evaluated until the trace is read with eval_grid."""
    alpha = as_multiindex(alpha, ndim=f.domain.ndim)
    return TraceFunction(face_spec(alpha, order), f, alpha)

"""Target functions with exact derivative evaluators.

Approximation targets carry a closed-form evaluator for every admissible
mixed derivative, plus per-axis breakpoint and singular-point metadata that
drives quadrature panel placement.  Derivatives are never obtained by
numerical differentiation; finite differences appear only in the tests, as
a cross-check away from breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .core import (
    HyperRect,
    MultiIndex,
    TraceFunction,
    as_multiindex,
    boundary_trace,
    leq,
    multiindex_range,
)


@dataclass(frozen=True)
class AnalyticFunction:
    """A function with exact point evaluators for all derivatives up to `delta`.

    ``derivatives`` maps every multi-index alpha <= delta (exactly that set)
    to a vectorized evaluator of D^alpha; the zero index must evaluate the
    function itself.  ``breakpoints`` lists interior points per axis where
    some derivative loses smoothness; ``singular_points`` at most one point
    per axis where a derivative is unbounded (quadrature grades its panels
    toward it, and grading has one center per axis).
    ``piece_degree``, when given, states that the function is a polynomial
    of at most that degree per axis between its breakpoints, so its error
    norms can be integrated exactly by degree-sized Gauss rules.
    """

    domain: HyperRect
    delta: MultiIndex
    derivatives: Mapping[MultiIndex, Callable]
    breakpoints: tuple[tuple[float, ...], ...] = ()
    singular_points: tuple[tuple[float, ...], ...] = ()
    name: str = ""
    piece_degree: MultiIndex | None = None

    def __post_init__(self):
        delta = as_multiindex(self.delta, ndim=self.domain.ndim)
        object.__setattr__(self, "delta", delta)
        lattice = multiindex_range(delta)
        derivs = {as_multiindex(a, ndim=self.domain.ndim): f
                  for a, f in self.derivatives.items()}
        if set(derivs) != set(lattice):
            missing = set(lattice) - set(derivs)
            extra = set(derivs) - set(lattice)
            raise ValueError(
                f"derivative table must cover exactly alpha <= {delta}; "
                f"missing {sorted(missing)}, extraneous {sorted(extra)}"
            )
        object.__setattr__(self, "derivatives", derivs)
        nd = self.domain.ndim
        bp = self.breakpoints or ((),) * nd
        sp = self.singular_points or ((),) * nd
        bp = tuple(tuple(float(x) for x in axis) for axis in bp)
        sp = tuple(tuple(float(x) for x in axis) for axis in sp)
        if len(bp) != nd or len(sp) != nd:
            raise ValueError("breakpoints and singular_points need one tuple per axis")
        if any(len(axis) > 1 for axis in sp):
            raise ValueError(f"at most one singular point per axis, got {sp}")
        for i in range(nd):
            for x in bp[i] + sp[i]:
                if not self.domain.lo[i] < x < self.domain.hi[i]:
                    raise ValueError(f"breakpoint {x} not strictly inside axis {i}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "singular_points", sp)
        if self.piece_degree is not None:
            object.__setattr__(self, "piece_degree",
                               as_multiindex(self.piece_degree, ndim=nd))

    def __call__(self, *coords):
        return self.derivatives[(0,) * self.domain.ndim](*coords)

    def derivative_grid(self, alpha, axes) -> np.ndarray:
        alpha = as_multiindex(alpha, ndim=self.domain.ndim)
        if not leq(alpha, self.delta):
            raise ValueError(f"derivative {alpha} unavailable (delta={self.delta})")
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        shape = tuple(len(a) for a in axes)
        return np.broadcast_to(np.asarray(self.derivatives[alpha](*grids), float), shape)

    def derivative_grids(self, indices, axes):
        """Yield D^alpha on the tensor grid for each alpha in `indices`."""
        for alpha in indices:
            yield self.derivative_grid(alpha, axes)

    def boundary_trace(self, alpha, order=None) -> TraceFunction:
        """Trace of D^alpha on its face in an order-`order` expansion (order
        defaults to delta and may not exceed it), read by core.boundary_trace
        through derivative_grid like every other function kind."""
        order = self.delta if order is None else as_multiindex(order, ndim=self.domain.ndim)
        if not leq(order, self.delta):
            raise ValueError(f"expansion order {order} exceeds smoothness {self.delta}")
        return boundary_trace(self, alpha, order)

"""Tensor Legendre series on the standard hypercube, stable at high degree.

Coefficients are stored in the orthonormal basis (each factor scaled by
sqrt(k + 1/2)), so the L2 norm is the Euclidean coefficient norm.  All
calculus is done as sparse linear maps on coefficients, exact in exact
arithmetic and rounded in float (``antiderivative`` states its measured
error); the expansion's kernel lift (x+1)^k/k! * f, along an axis where f
is constant, is the k-fold antiderivative there.  Values are produced by
the upward three-term recurrence, which is backward stable on [-1, 1];
nothing here ever forms a monomial representation, so degrees in the
hundreds are safe.  The recurrence fills each row of the basis table in
place, so a degree-256 table on a fig1 grid costs its own 43 MB and no
temporaries.  Values are read on tensor grids only (``eval_grid``,
``derivative_grids``): the coefficients are contracted with one basis table
per axis by ``core.contract_axes``.  A grid read with ``derivative_grids``
reuses these tables for every derivative order, and builds each order's
coefficients once, by one derivative-matrix application to the stored
coefficients of the next-lower order on the same prefix of axes.  Every
coefficient axis has at least one entry; a 0-d series is a plain value (a
vertex trace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    HyperRect,
    MultiIndex,
    TraceFunction,
    as_multiindex,
    boundary_trace,
    contract_axes,
)


def _scale(n: int) -> np.ndarray:
    return np.sqrt(np.arange(n) + 0.5)


def legendre_values(max_degree: int, x) -> np.ndarray:
    """Matrix of orthonormal basis values sqrt(k + 1/2) P_k(x), shape
    (max_degree+1, len(x)), by recurrence.

    Each row is filled in place with the operations, in their order, of
    P_{k+1} = ((2k+1) x P_k - k P_{k-1}) / (k+1), so the table is the one
    that expression gives, bit for bit, without a temporary per row."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    x = np.atleast_1d(np.asarray(x, float))
    out = np.empty((max_degree + 1, x.size))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    tmp = np.empty(x.size)
    for k in range(1, max_degree):
        row = out[k + 1]
        np.multiply(2 * k + 1, x, out=row)
        row *= out[k]
        np.multiply(k, out[k - 1], out=tmp)
        row -= tmp
        row /= k + 1
    out *= _scale(max_degree + 1)[:, None]
    return out


@lru_cache(maxsize=None)
def _antiderivative_matrix(n: int) -> np.ndarray:
    """Orthonormal-coefficient map of integration from -1, (n+1, n)."""
    m = np.zeros((n + 1, n))
    m[0, 0] = 1.0
    m[1, 0] = 1.0
    for k in range(1, n):
        m[k + 1, k] = 1.0 / (2 * k + 1)
        m[k - 1, k] = -1.0 / (2 * k + 1)
    return m * _scale(n)[None, :] / _scale(n + 1)[:, None]


@lru_cache(maxsize=None)
def _derivative_matrix(n: int) -> np.ndarray:
    """Orthonormal-coefficient map of d/dx, (max(n-1, 1), n)."""
    rows = max(n - 1, 1)
    m = np.zeros((rows, n))
    for k in range(1, n):
        for j in range(k - 1, -1, -2):
            m[j, k] = 2 * j + 1.0
    return m * _scale(n)[None, :] / _scale(rows)[:, None]


def _apply_axis(coeffs: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(matrix, coeffs, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True, eq=False)
class LegendreSeries:
    """Tensor polynomial in the orthonormal Legendre basis on [-1, 1]^N."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, float)
        for axis, n in enumerate(coeffs.shape):
            if n == 0:
                raise ValueError(f"coefficient axis {axis} has length zero")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def ndim(self) -> int:
        return self.coeffs.ndim

    @property
    def degree(self) -> MultiIndex:
        return tuple(s - 1 for s in self.coeffs.shape)

    @property
    def cell_counts(self) -> MultiIndex:
        """One cell per axis: the whole hypercube."""
        return (1,) * self.ndim

    @property
    def domain(self) -> HyperRect:
        return HyperRect.cube(self.ndim)

    # ------------------------------------------------------------- evaluation

    def derivative_grids(self, indices, axes):
        """Yield D^alpha on the tensor grid spanned by one node array per
        axis, for each alpha in `indices` in order.  One basis table per
        axis serves every alpha: its leading rows are the table of the
        lower-degree derivative.

        The coefficients of D^alpha are those of its predecessor (alpha with
        its last nonzero entry lowered by one) with one more derivative
        matrix applied, as ``mixed_derivative`` makes them, so each is built
        once per call from the stored predecessor."""
        nd = self.ndim
        if len(axes) != nd:
            raise ValueError(f"expected {nd} axis arrays")
        domain = self.domain
        tables = []
        for i, x in enumerate(axes):
            domain.check_inside(i, np.asarray(x, float))
            tables.append(legendre_values(self.degree[i], x))
        derivs = {(0,) * nd: self.coeffs}  # alpha -> coefficients of D^alpha
        for alpha in indices:
            alpha = as_multiindex(alpha, ndim=nd)
            chain = []  # (index, axis it was differentiated on last), not stored yet
            while alpha not in derivs:
                i = max(k for k, a in enumerate(alpha) if a)
                chain.append((alpha, i))
                alpha = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            coeffs = derivs[alpha]
            for alpha, i in reversed(chain):
                coeffs = _apply_axis(coeffs, _derivative_matrix(coeffs.shape[i]), i)
                derivs[alpha] = coeffs
            yield contract_axes(coeffs, [t[:n] for t, n in zip(tables, coeffs.shape)])

    def eval_grid(self, axes) -> np.ndarray:
        return next(self.derivative_grids([(0,) * self.ndim], axes))

    # --------------------------------------------------------------- calculus

    def antiderivative(self, axis: int, times: int = 1) -> "LegendreSeries":
        """`times`-fold integration from the lower boundary -1 along one axis;
        zero folds return this series.

        Each fold applies a two-diagonal map with rounded entries, and the
        folds cancel: on a constant c (the kernel lift c (x+1)^k/k!), the
        worst coefficient error over 201 values of c, in ulps of the largest
        exact coefficient, was 0.61, 1.11, 3.46, 8.14, 16.4 and 31.3 for k =
        1..6, about twice as large per fold from k = 3
        (tests/test_legseries.py checks it against exact coefficients)."""
        if times < 0:
            raise ValueError(f"fold count must be non-negative, got times={times}")
        out = self
        for _ in range(times):
            n = out.coeffs.shape[axis]
            out = LegendreSeries(_apply_axis(out.coeffs, _antiderivative_matrix(n), axis))
        return out

    def derivative(self, axis: int, order: int = 1) -> "LegendreSeries":
        if order < 0:
            raise ValueError(f"derivative order must be non-negative, got {order}")
        out = self.coeffs
        for _ in range(order):
            out = _apply_axis(out, _derivative_matrix(out.shape[axis]), axis)
        return LegendreSeries(out)

    def mixed_derivative(self, alpha) -> "LegendreSeries":
        out = self
        for i, a in enumerate(as_multiindex(alpha, ndim=self.ndim)):
            out = out.derivative(i, a)
        return out

    def derivative_grid(self, alpha, axes) -> np.ndarray:
        return next(self.derivative_grids([alpha], axes))

    def boundary_trace(self, alpha, order) -> TraceFunction:
        """Trace of D^alpha on the face it lives on in an order-`order` expansion."""
        return boundary_trace(self, alpha, order)

    # -------------------------------------------------------------- algebra

    def pad_to(self, degree: MultiIndex) -> "LegendreSeries":
        if len(degree) != self.ndim:
            raise ValueError(f"expected {self.ndim} degrees, got {len(degree)}")
        pad = [(0, d + 1 - s) for d, s in zip(degree, self.coeffs.shape)]
        if any(p[1] < 0 for p in pad):
            raise ValueError("cannot reduce degree by padding")
        return LegendreSeries(np.pad(self.coeffs, pad))

    def __add__(self, other: "LegendreSeries") -> "LegendreSeries":
        if not isinstance(other, LegendreSeries):
            return NotImplemented
        if self.ndim != other.ndim:
            raise ValueError("operands live on different domains")
        degree = tuple(max(a, b) for a, b in zip(self.degree, other.degree))
        return LegendreSeries(self.pad_to(degree).coeffs + other.pad_to(degree).coeffs)

    def __rmul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return LegendreSeries(float(scalar) * self.coeffs)

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def extend(self, positions: tuple[int, ...], ndim: int) -> "LegendreSeries":
        """Embed into `ndim` axes: this series varies on `positions`, the new
        axes carry the constant extension."""
        if len(positions) != self.ndim:
            raise ValueError("positions must match current dimensionality")
        shape = [1] * ndim
        for pos, size in zip(positions, self.coeffs.shape):
            shape[pos] = size
        factor = math.sqrt(2.0) ** (ndim - self.ndim)
        order = list(positions) + [i for i in range(ndim) if i not in positions]
        coeffs = np.transpose(
            self.coeffs.reshape(self.coeffs.shape + (1,) * (ndim - self.ndim)),
            np.argsort(order),
        )
        return LegendreSeries(factor * coeffs.reshape(shape))

"""Tensor Legendre series on the standard hypercube, stable at high degree.

Coefficients are stored in the orthonormal basis (each factor scaled by
sqrt(k + 1/2)), so the L2 norm is the Euclidean coefficient norm.  All
calculus is done as exact sparse linear maps on coefficients, and values are
produced by the upward three-term recurrence, which is backward stable on
[-1, 1]; nothing here ever forms a monomial representation, so degrees in
the hundreds are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    EINSUM_LETTERS,
    HyperRect,
    MultiIndex,
    TraceFunction,
    as_multiindex,
    boundary_trace,
)


def _scale(n: int) -> np.ndarray:
    return np.sqrt(np.arange(n) + 0.5)


def legendre_values(max_degree: int, x, normalized: bool = True) -> np.ndarray:
    """Matrix of basis values, shape (max_degree+1, len(x)), by recurrence."""
    x = np.atleast_1d(np.asarray(x, float))
    out = np.empty((max_degree + 1, x.size))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for k in range(1, max_degree):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    if normalized:
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
def _x_matrix(n: int) -> np.ndarray:
    """Orthonormal-coefficient map of multiplication by x, (n+1, n)."""
    m = np.zeros((n + 1, n))
    for k in range(n):
        m[k + 1, k] = (k + 1.0) / (2 * k + 1)
        if k >= 1:
            m[k - 1, k] = k / (2 * k + 1.0)
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
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, float))

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

    @classmethod
    def constant(cls, value: float, ndim: int) -> "LegendreSeries":
        c = np.full((1,) * ndim, float(value) * math.sqrt(2.0) ** ndim)
        return cls(c)

    # ------------------------------------------------------------- evaluation

    def eval_grid(self, axes) -> np.ndarray:
        if len(axes) != self.ndim:
            raise ValueError(f"expected {self.ndim} axis arrays")
        domain = self.domain
        ops, subs = [self.coeffs], [EINSUM_LETTERS[: self.ndim]]
        out = EINSUM_LETTERS[self.ndim: 2 * self.ndim]
        for i, x in enumerate(axes):
            domain.check_inside(i, np.asarray(x, float))
            ops.append(legendre_values(self.degree[i], x))
            subs.append(EINSUM_LETTERS[i] + out[i])
        return np.einsum(",".join(subs) + "->" + out, *ops, optimize=True)

    def __call__(self, *coords):
        if len(coords) != self.ndim:
            raise TypeError(f"expected {self.ndim} coordinates, got {len(coords)}")
        arrs = np.broadcast_arrays(*[np.asarray(c, float) for c in coords])
        shape = arrs[0].shape
        flat = [a.reshape(-1) for a in arrs]
        domain = self.domain
        for i, x in enumerate(flat):
            domain.check_inside(i, x)
        ops, subs = [self.coeffs], [EINSUM_LETTERS[: self.ndim]]
        for i in range(self.ndim):
            ops.append(legendre_values(self.degree[i], flat[i]))  # (d+1, M)
            subs.append(EINSUM_LETTERS[i] + "z")
        val = np.einsum(",".join(subs) + "->z", *ops, optimize=True)
        return val.reshape(shape) if shape else float(val[0])

    # --------------------------------------------------------------- calculus

    def antiderivative(self, axis: int) -> "LegendreSeries":
        """Integration from the lower boundary -1 along one axis."""
        n = self.coeffs.shape[axis]
        return LegendreSeries(_apply_axis(self.coeffs, _antiderivative_matrix(n), axis))

    def derivative(self, axis: int, order: int = 1) -> "LegendreSeries":
        out = self.coeffs
        for _ in range(order):
            out = _apply_axis(out, _derivative_matrix(out.shape[axis]), axis)
        return LegendreSeries(out)

    def multiply_kernel(self, axis: int, k: int) -> "LegendreSeries":
        """Multiply by the kernel (x + 1)^k / k! along one axis."""
        out = self.coeffs
        for _ in range(k):
            n = out.shape[axis]
            grown = _apply_axis(out, _x_matrix(n), axis)
            pad = [(0, 0)] * out.ndim
            pad[axis] = (0, 1)
            out = grown + np.pad(out, pad)
        return LegendreSeries(out / math.factorial(k))

    def mixed_derivative(self, alpha) -> "LegendreSeries":
        out = self
        for i, a in enumerate(as_multiindex(alpha, ndim=self.ndim)):
            out = out.derivative(i, a)
        return out

    def derivative_grid(self, alpha, axes) -> np.ndarray:
        return self.mixed_derivative(alpha).eval_grid(axes)

    def boundary_trace(self, alpha, order) -> TraceFunction:
        """Trace of D^alpha on the face it lives on in an order-`order` expansion."""
        return boundary_trace(self, alpha, order)

    # -------------------------------------------------------------- algebra

    def pad_to(self, degree: MultiIndex) -> "LegendreSeries":
        pad = [(0, d + 1 - s) for d, s in zip(degree, self.coeffs.shape)]
        if any(p[1] < 0 for p in pad):
            raise ValueError("cannot reduce degree by padding")
        return LegendreSeries(np.pad(self.coeffs, pad))

    def __add__(self, other: "LegendreSeries") -> "LegendreSeries":
        if not isinstance(other, LegendreSeries):
            return NotImplemented
        degree = tuple(max(a, b) for a, b in zip(self.degree, other.degree))
        return LegendreSeries(self.pad_to(degree).coeffs + other.pad_to(degree).coeffs)

    def __sub__(self, other):
        return self + (-1.0) * other

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

    # ----------------------------------------------------------------- norms

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

"""Tensor-grid piecewise polynomials with exact calculus.

Every approximant built from boundary-trace projections, every polynomial
kernel z^k/k!, and every step function lives in this class, which is closed
under evaluation, differentiation, antidifferentiation, products, and exact
integration.

Coefficients are stored in the scaled-monomial basis (s - c)^k / k! about
each cell's lower corner c.  In this basis the kernels z^k/k! are unit
coefficient vectors, differentiation and antidifferentiation are index
shifts, and re-anchoring a piece to a new corner is the evaluation of its
derivatives there (no factorial ratios appear anywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FaceSpec,
    HyperRect,
    MultiIndex,
    TraceFunction,
    active_axes,
    as_multiindex,
    face_spec,
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _powers(z, degree: int) -> np.ndarray:
    """Rows of z^k/k! for k = 0..degree, shape (len(z), degree+1)."""
    z = np.atleast_1d(np.asarray(z, float))
    out = np.empty((z.size, degree + 1))
    out[:, 0] = 1.0
    for k in range(1, degree + 1):
        out[:, k] = out[:, k - 1] * z / k
    return out


def _shift_matrix(h: float, degree: int) -> np.ndarray:
    """Re-anchoring map: coefficients about c become coefficients about c+h.

    In the scaled-monomial basis the new coefficients are the derivatives at
    the new anchor, b_p = sum_k a_k h^(k-p)/(k-p)!.
    """
    row = _powers(np.array([h]), degree)[0]
    out = np.zeros((degree + 1, degree + 1))
    for j in range(degree + 1):
        out[np.arange(degree + 1 - j), np.arange(j, degree + 1)] = row[j]
    return out


def _factorial_tensor(degree: MultiIndex) -> np.ndarray:
    """Outer product of per-axis factorial vectors, shape prod(d_i+1)."""
    out = np.ones(tuple(d + 1 for d in degree))
    for i, d in enumerate(degree):
        fac = np.array([math.factorial(k) for k in range(d + 1)], float)
        shape = [1] * len(degree)
        shape[i] = d + 1
        out = out * fac.reshape(shape)
    return out


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """Piecewise polynomial on a tensor grid of cells over a hyperrectangle.

    ``breaks[i]`` holds the strictly increasing interior breakpoints of axis
    i; ``coeffs`` has shape (cells_1, ..., cells_N, deg_1+1, ..., deg_N+1).
    Evaluation uses the half-open cell convention (last cell closed); pieces
    are not required to match across breaks, so step functions are members.
    """

    domain: HyperRect
    breaks: tuple[np.ndarray, ...]
    coeffs: np.ndarray

    def __post_init__(self):
        nd = self.domain.ndim
        breaks = tuple(np.asarray(b, float).reshape(-1) for b in self.breaks)
        if len(breaks) != nd:
            raise ValueError(f"expected {nd} break arrays, got {len(breaks)}")
        for i, b in enumerate(breaks):
            if b.size and (np.any(np.diff(b) <= 0)
                           or b[0] <= self.domain.lo[i] or b[-1] >= self.domain.hi[i]):
                raise ValueError(f"breaks on axis {i} must increase strictly inside the domain")
        coeffs = np.asarray(self.coeffs, float)
        if coeffs.ndim != 2 * nd:
            raise ValueError(f"coefficient array must have {2 * nd} dims, got {coeffs.ndim}")
        for i, b in enumerate(breaks):
            if coeffs.shape[i] != b.size + 1:
                raise ValueError(f"axis {i}: {coeffs.shape[i]} cell rows for {b.size} breaks")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "coeffs", coeffs)

    # ------------------------------------------------------------------ shape

    @property
    def ndim(self) -> int:
        return self.domain.ndim

    @property
    def cell_counts(self) -> MultiIndex:
        return self.coeffs.shape[: self.ndim]

    @property
    def degree(self) -> MultiIndex:
        return tuple(s - 1 for s in self.coeffs.shape[self.ndim:])

    def edges(self, axis: int) -> np.ndarray:
        return np.concatenate(
            ([self.domain.lo[axis]], self.breaks[axis], [self.domain.hi[axis]])
        )

    # ------------------------------------------------------------- constructors

    @classmethod
    def constant(cls, domain: HyperRect, value: float) -> "PiecewisePoly":
        nd = domain.ndim
        return cls(domain, (np.array([]),) * nd, np.full((1,) * (2 * nd), float(value)))

    @classmethod
    def kernel(cls, domain: HyperRect, axis: int, k: int) -> "PiecewisePoly":
        """The polynomial z^k/k! in z = s_axis - lo_axis: a unit coefficient."""
        nd = domain.ndim
        shape = (1,) * nd + tuple(k + 1 if i == axis else 1 for i in range(nd))
        coeffs = np.zeros(shape)
        coeffs[(0,) * nd + tuple(k if i == axis else 0 for i in range(nd))] = 1.0
        return cls(domain, (np.array([]),) * nd, coeffs)

    @classmethod
    def from_cell_values(cls, domain: HyperRect, breaks, values) -> "PiecewisePoly":
        """Piecewise constant from per-cell values."""
        nd = domain.ndim
        values = np.asarray(values, float)
        if values.ndim != nd:
            raise ValueError(f"cell values must have {nd} dims")
        return cls(domain, tuple(breaks), values.reshape(values.shape + (1,) * nd))

    # ------------------------------------------------------------- evaluation

    def _locate(self, axis: int, x: np.ndarray) -> np.ndarray:
        br = self.breaks[axis]
        if br.size == 0:
            return np.zeros(np.shape(x), dtype=int)
        return np.searchsorted(br, x, side="right")

    def _check_inside(self, axis: int, x: np.ndarray):
        lo, hi = self.domain.lo[axis], self.domain.hi[axis]
        tol = 1e-12 * (hi - lo)
        bad = (x < lo - tol) | (x > hi + tol)
        if np.any(bad):
            where = np.asarray(x)[bad].reshape(-1)[0]
            raise ValueError(f"point outside domain on axis {axis}: {where!r} not in [{lo}, {hi}]")
        return np.clip(x, lo, hi)

    def __call__(self, *coords):
        if len(coords) != self.ndim:
            raise TypeError(f"expected {self.ndim} coordinates, got {len(coords)}")
        arrs = np.broadcast_arrays(*[np.asarray(c, float) for c in coords])
        shape = arrs[0].shape
        flat = [self._check_inside(i, a.reshape(-1)) for i, a in enumerate(arrs)]
        idx = [self._locate(i, f) for i, f in enumerate(flat)]
        val = self.coeffs[tuple(idx)]  # (M, deg_1+1, ..., deg_N+1)
        for i in reversed(range(self.ndim)):
            z = flat[i] - self.edges(i)[idx[i]]
            val = np.einsum("m...k,mk->m...", val, _powers(z, self.degree[i]))
        return val.reshape(shape) if shape else float(val[0])

    def eval_grid(self, axes) -> np.ndarray:
        """Values on the tensor grid spanned by one node array per axis."""
        if len(axes) != self.ndim:
            raise ValueError(f"expected {self.ndim} axis arrays")
        nd = self.ndim
        ops, subs = [self.coeffs], [_LETTERS[:nd] + _LETTERS[nd:2 * nd]]
        node_letters = _LETTERS[2 * nd:3 * nd]
        for i, x in enumerate(axes):
            x = self._check_inside(i, np.asarray(x, float).reshape(-1))
            idx = self._locate(i, x)
            block = np.zeros((x.size, self.cell_counts[i], self.degree[i] + 1))
            block[np.arange(x.size), idx, :] = _powers(x - self.edges(i)[idx], self.degree[i])
            ops.append(block)
            subs.append(node_letters[i] + _LETTERS[i] + _LETTERS[nd + i])
        spec = ",".join(subs) + "->" + node_letters
        return np.einsum(spec, *ops, optimize=True)

    # --------------------------------------------------------------- calculus

    def derivative(self, axis: int, order: int = 1) -> "PiecewisePoly":
        """Cellwise derivative along one axis (a.e. derivative for step pieces)."""
        if order <= 0:
            return self
        dax = self.ndim + axis
        if order > self.degree[axis]:
            shape = list(self.coeffs.shape)
            shape[dax] = 1
            return PiecewisePoly(self.domain, self.breaks, np.zeros(shape))
        slc = [slice(None)] * self.coeffs.ndim
        slc[dax] = slice(order, None)
        return PiecewisePoly(self.domain, self.breaks, self.coeffs[tuple(slc)].copy())

    def mixed_derivative(self, alpha) -> "PiecewisePoly":
        out = self
        for i, a in enumerate(as_multiindex(alpha, ndim=self.ndim)):
            out = out.derivative(i, a)
        return out

    def derivative_grid(self, alpha, axes) -> np.ndarray:
        return self.mixed_derivative(alpha).eval_grid(axes)

    def antiderivative(self, axis: int) -> "PiecewisePoly":
        """Antiderivative vanishing at the lower boundary, continuous across breaks."""
        nd, dax = self.ndim, self.ndim + axis
        pad = [(0, 0)] * self.coeffs.ndim
        pad[dax] = (1, 0)
        b = np.pad(self.coeffs, pad)
        arr = np.moveaxis(b, (axis, dax), (0, 1))  # (cells, deg+2, ...)
        widths = np.diff(self.edges(axis))
        vals = np.einsum("ck,ck...->c...", _powers(widths, self.degree[axis] + 1), arr)
        offsets = np.cumsum(vals, axis=0)
        arr[1:, 0, ...] += offsets[:-1]
        return PiecewisePoly(self.domain, self.breaks, b)

    def multiply_kernel(self, axis: int, k: int) -> "PiecewisePoly":
        """Multiply by the kernel z^k/k! in z = s_axis - lo_axis."""
        return PiecewisePoly.kernel(self.domain, axis, k) * self

    def break_jumps(self, axis: int) -> np.ndarray:
        """Largest coefficient jump across each interior break of one axis,
        comparing the left piece's value at the break with the right piece's."""
        arr = np.moveaxis(self.coeffs, (axis, self.ndim + axis), (0, 1))
        widths = np.diff(self.edges(axis))
        left = np.einsum("ck,ck...->c...", _powers(widths, self.degree[axis]), arr)[:-1]
        right = arr[1:, 0, ...]
        return np.abs(left - right).reshape(left.shape[0], -1).max(axis=1)

    def integral(self, axes=None) -> float:
        """Exact integral over the domain (or over a subset of axes, in which
        case the remaining axes must carry a constant single piece)."""
        nd = self.ndim
        axes = tuple(range(nd)) if axes is None else tuple(sorted(set(axes)))
        ops, subs = [self.coeffs], [_LETTERS[:nd] + _LETTERS[nd:2 * nd]]
        out = ""
        for i in range(nd):
            if i in axes:
                w = _powers(np.diff(self.edges(i)), self.degree[i] + 1)[:, 1:]
                ops.append(w)
                subs.append(_LETTERS[i] + _LETTERS[nd + i])
            else:
                if self.cell_counts[i] != 1 or self.degree[i] != 0:
                    raise ValueError(f"axis {i} must be constant to stay out of the integral")
                out += _LETTERS[i] + _LETTERS[nd + i]
        res = np.einsum(",".join(subs) + "->" + out, *ops, optimize=True)
        return float(np.squeeze(res))

    def inner(self, other: "PiecewisePoly") -> float:
        """Exact L2 inner product over the domain."""
        return (self * other).integral()

    # -------------------------------------------------------------- arithmetic

    def _refine_axis(self, axis: int, extra) -> "PiecewisePoly":
        extra = np.asarray(extra, float).reshape(-1)
        lo, hi = self.domain.lo[axis], self.domain.hi[axis]
        extra = extra[(extra > lo) & (extra < hi)]
        new_breaks = np.unique(np.concatenate([self.breaks[axis], extra]))
        if new_breaks.size == self.breaks[axis].size:
            return self
        old_edges = self.edges(axis)
        new_edges = np.concatenate(([lo], new_breaks, [hi]))
        mids = 0.5 * (new_edges[:-1] + new_edges[1:])
        parent = self._locate(axis, mids)
        h = new_edges[:-1] - old_edges[parent]
        d = self.degree[axis]
        shifts = np.stack([_shift_matrix(hj, d) for hj in h])
        arr = np.take(self.coeffs, parent, axis=axis)
        arr = np.moveaxis(arr, (axis, self.ndim + axis), (0, 1))
        out = np.einsum("cpk,ck...->cp...", shifts, arr)
        out = np.moveaxis(out, (0, 1), (axis, self.ndim + axis))
        breaks = list(self.breaks)
        breaks[axis] = new_breaks
        return PiecewisePoly(self.domain, tuple(breaks), np.ascontiguousarray(out))

    def refine(self, other: "PiecewisePoly") -> "PiecewisePoly":
        """This polynomial re-expressed on the union of both break grids."""
        out = self
        for i in range(self.ndim):
            out = out._refine_axis(i, other.breaks[i])
        return out

    def _pad_degree(self, degree: MultiIndex) -> "PiecewisePoly":
        if tuple(degree) == self.degree:
            return self
        pad = [(0, 0)] * self.ndim + [
            (0, d - cur) for d, cur in zip(degree, self.degree)
        ]
        if any(p[1] < 0 for p in pad):
            raise ValueError("cannot reduce degree by padding")
        return PiecewisePoly(self.domain, self.breaks, np.pad(self.coeffs, pad))

    def __add__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        if self.domain != other.domain:
            raise ValueError("operands live on different domains")
        f, g = self.refine(other), other.refine(self)
        degree = tuple(max(a, b) for a, b in zip(f.degree, g.degree))
        f, g = f._pad_degree(degree), g._pad_degree(degree)
        return PiecewisePoly(self.domain, f.breaks, f.coeffs + g.coeffs)

    def __neg__(self):
        return PiecewisePoly(self.domain, self.breaks, -self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return PiecewisePoly(self.domain, self.breaks, float(scalar) * self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return self.__rmul__(other)
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        if self.domain != other.domain:
            raise ValueError("operands live on different domains")
        f, g = self.refine(other), other.refine(self)
        nd = self.ndim
        df, dg = f.degree, g.degree
        dout = tuple(a + b for a, b in zip(df, dg))
        fa = f.coeffs / _factorial_tensor(df).reshape((1,) * nd + tuple(d + 1 for d in df))
        ga = g.coeffs / _factorial_tensor(dg).reshape((1,) * nd + tuple(d + 1 for d in dg))
        out = np.zeros(f.cell_counts + tuple(d + 1 for d in dout))
        cells = (slice(None),) * nd
        for m in np.ndindex(*[d + 1 for d in df]):
            sel = fa[cells + m][(...,) + (None,) * nd]
            out[cells + tuple(slice(mi, mi + di + 1) for mi, di in zip(m, dg))] += sel * ga
        out *= _factorial_tensor(dout).reshape((1,) * nd + tuple(d + 1 for d in dout))
        return PiecewisePoly(self.domain, f.breaks, out)

    # -------------------------------------------------------------- restriction

    def restrict(self, face: FaceSpec) -> "PiecewisePoly":
        """Pin every face-inactive axis at its lower endpoint.

        The result is still defined on the full domain, constant (single
        degree-0 piece) along the pinned axes: the constant extension used by
        the reconstruction operators.
        """
        if len(face) != self.ndim:
            raise ValueError("face selector has wrong length")
        sel = [slice(None)] * self.coeffs.ndim
        breaks = list(self.breaks)
        for i, b in enumerate(face):
            if b == 0:
                continue
            if b > 0:
                raise ValueError("upper faces are not supported")
            sel[i] = slice(0, 1)
            sel[self.ndim + i] = slice(0, 1)
            breaks[i] = np.array([])
        return PiecewisePoly(self.domain, tuple(breaks), self.coeffs[tuple(sel)].copy())

    def boundary_trace(self, alpha, order) -> TraceFunction:
        """Trace of D^alpha on the face it lives on in an order-`order` expansion."""
        alpha = as_multiindex(alpha, ndim=self.ndim)
        face = face_spec(alpha, order)
        restricted = self.mixed_derivative(alpha).restrict(face)
        active = active_axes(face)
        if not active:
            return TraceFunction(face, float(np.squeeze(restricted.coeffs)))
        return TraceFunction(face, _FacePoly(restricted, active))

    # -------------------------------------------------------------- comparison

    def allclose(self, other: "PiecewisePoly", tol: float = 1e-10) -> bool:
        return coeff_distance(self, other) <= tol


class _FacePoly:
    """View of a face-restricted PiecewisePoly as a function of the active axes."""

    def __init__(self, pw: PiecewisePoly, active: tuple[int, ...]):
        self.pw = pw
        self.active = active

    def eval_grid(self, axes) -> np.ndarray:
        full = []
        it = iter(axes)
        for i in range(self.pw.ndim):
            full.append(next(it) if i in self.active else np.array([self.pw.domain.lo[i]]))
        values = self.pw.eval_grid(full)
        drop = tuple(i for i in range(self.pw.ndim) if i not in self.active)
        return np.squeeze(values, axis=drop) if drop else values

    def __call__(self, *coords):
        it = iter(coords)
        full = [next(it) if i in self.active else self.pw.domain.lo[i]
                for i in range(self.pw.ndim)]
        return self.pw(*full)


def coeff_distance(f: PiecewisePoly, g: PiecewisePoly) -> float:
    """Max coefficient difference on the common refinement, relative to the
    largest coefficient magnitude of either operand (0-safe)."""
    a, b = f.refine(g), g.refine(f)
    degree = tuple(max(x, y) for x, y in zip(a.degree, b.degree))
    a, b = a._pad_degree(degree), b._pad_degree(degree)
    scale = max(np.max(np.abs(a.coeffs)), np.max(np.abs(b.coeffs)), 1e-300)
    return float(np.max(np.abs(a.coeffs - b.coeffs)) / scale)

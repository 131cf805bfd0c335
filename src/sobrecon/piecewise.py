"""Tensor-grid piecewise polynomials with exact calculus.

Step-function approximants, the polynomial kernels z^k/k!, and the inputs
of the exact trace roundtrips live in this class, which is closed under
evaluation, differentiation, antidifferentiation and exact integration.
Products are by scalars only; ``f * g`` of two piecewise polynomials raises
``TypeError``.  The expansion's kernel lift z^k/k! * f, along an axis where
f is constant, is the k-fold antiderivative there (Cauchy's formula for
repeated integration), which writes the constant into slot k.

Coefficients are stored in the scaled-monomial basis (s - c)^k / k! about
each cell's lower corner c.  In this basis the kernels z^k/k! are unit
coefficient vectors, differentiation and antidifferentiation are index
shifts, and re-anchoring a piece to a new corner is the evaluation of its
derivatives there (no factorial ratios appear anywhere).

Evaluation is by cell lookup: each node finds its cell once per axis
(half-open cells, last cell closed), and the coefficient rows of those
cells are contracted with the node's powers axis by axis.  A grid read
with ``derivative_grids`` reuses these per-axis tables for every
derivative order it is asked for, and computes each partial contraction
once: after axes 0..i are read, the partial result depends only on the
orders alpha_0..alpha_i, so every order with that prefix starts from it.
Sums and comparisons first put their operands on the union of their breaks
(``common_breaks``, ``on_breaks``), re-anchoring each piece at the corners
of the finer cells it covers.  Integration reuses the calculus: the exact
integral is the antiderivative along each integrated axis read at the
axis's upper end.

The public constructor validates breaks and coefficient shapes.  Results of
operations on valid polynomials are valid by construction and skip that
check: they are built through ``PiecewisePoly._make``.  Either way the
shape facts ``ndim``, ``cell_counts`` and ``degree`` are computed once, when
the polynomial is built, and stored as plain attributes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    FaceSpec,
    HyperRect,
    MultiIndex,
    TraceFunction,
    as_multiindex,
    boundary_trace,
)


def _powers(z: np.ndarray, degree: int) -> np.ndarray:
    """Rows of z^k/k! for k = 0..degree of a 1-D float array z, shape
    (len(z), degree+1)."""
    out = np.empty((len(z), degree + 1))
    out[:, 0] = 1.0
    for k in range(1, degree + 1):
        out[:, k] = out[:, k - 1] * z / k
    return out


def _shift_matrices(h: np.ndarray, degree: int) -> np.ndarray:
    """Re-anchoring maps, one per entry of h: coefficients about c become
    coefficients about c + h, shape (len(h), degree+1, degree+1).

    In the scaled-monomial basis the new coefficients are the derivatives at
    the new anchor, b_p = sum_k a_k h^(k-p)/(k-p)!.
    """
    powers = np.zeros((len(h), degree + 2))  # a zero column for k < p
    powers[:, :-1] = _powers(h, degree)
    return powers[:, _shift_lags(degree)]


@functools.lru_cache(maxsize=None)
def _shift_lags(degree: int) -> np.ndarray:
    """k - p where k >= p, else degree + 1, for p, k = 0..degree (shared, read-only)."""
    lag = np.subtract.outer(np.arange(degree + 1), np.arange(degree + 1)).T  # k - p
    out = np.where(lag >= 0, lag, degree + 1)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _cell_axes(nd: int, axis: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis order that brings the cell and degree axes of `axis` to the
    front of an N-D coefficient array (the view that
    ``np.moveaxis(coeffs, (axis, nd + axis), (0, 1))`` gives), and its inverse."""
    front = (axis, nd + axis)
    perm = front + tuple(k for k in range(2 * nd) if k not in front)
    return perm, tuple(perm.index(k) for k in range(2 * nd))


def _cellwise(coeffs: np.ndarray, axis: int, mats: np.ndarray) -> np.ndarray:
    """Apply mats[c] to the axis-`axis` coefficient vector of every cell c
    along that axis (coeffs has one cell row per matrix).  einsum's summation
    order depends on the operands' memory layout, so mats is made C-ordered
    to keep results independent of how it was built."""
    perm, inverse = _cell_axes(coeffs.ndim // 2, axis)
    out = np.einsum("cpk,ck...->cp...", np.ascontiguousarray(mats), coeffs.transpose(perm))
    return np.ascontiguousarray(out.transpose(inverse))


def _shape_facts(nd: int, coeffs: np.ndarray) -> dict:
    """``ndim``, ``cell_counts`` and ``degree`` of an N-D polynomial with
    these coefficients, stored by both constructors as plain attributes (not
    dataclass fields); no operation changes the shape of ``coeffs`` later."""
    shape = coeffs.shape
    return {"ndim": nd, "cell_counts": shape[:nd], "degree": tuple([s - 1 for s in shape[nd:]])}


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two strictly increasing break arrays; sorts only when
    neither is empty and they differ."""
    if b.size == 0 or a is b or np.array_equal(a, b):
        return a
    if a.size == 0:
        return b
    return np.union1d(a, b)


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """Piecewise polynomial on a tensor grid of cells over a hyperrectangle.

    ``breaks[i]`` holds the strictly increasing interior breakpoints of axis
    i; ``coeffs`` has shape (cells_1, ..., cells_N, deg_1+1, ..., deg_N+1).
    Evaluation uses the half-open cell convention (last cell closed); pieces
    are not required to match across breaks, so step functions are members.
    ``ndim``, ``cell_counts`` (cells per axis) and ``degree`` (per axis) are
    plain attributes set when the polynomial is built.
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
            # stated as what valid breaks satisfy, so that a NaN is refused too
            if b.size and not (np.all(np.diff(b) > 0)
                               and self.domain.lo[i] < b[0] and b[-1] < self.domain.hi[i]):
                raise ValueError(f"breaks on axis {i} must increase strictly inside the domain")
        coeffs = np.asarray(self.coeffs, float)
        if coeffs.ndim != 2 * nd:
            raise ValueError(f"coefficient array must have {2 * nd} dims, got {coeffs.ndim}")
        for i, b in enumerate(breaks):
            if coeffs.shape[i] != b.size + 1:
                raise ValueError(f"axis {i}: {coeffs.shape[i]} cell rows for {b.size} breaks")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "coeffs", coeffs)
        self.__dict__.update(_shape_facts(nd, coeffs))

    @classmethod
    def _make(cls, domain: HyperRect, breaks: tuple[np.ndarray, ...],
              coeffs: np.ndarray) -> "PiecewisePoly":
        """Unchecked constructor for results of operations on valid
        polynomials: ``breaks`` are float arrays and ``coeffs`` a float array
        of matching shape, so nothing is converted or validated."""
        out = object.__new__(cls)
        out.__dict__.update(domain=domain, breaks=breaks, coeffs=coeffs,
                            **_shape_facts(domain.ndim, coeffs))
        return out

    # ------------------------------------------------------------------ shape

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
        self.domain.check_inside(axis, x)
        return np.clip(x, self.domain.lo[axis], self.domain.hi[axis])

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

    def derivative_grids(self, indices, axes):
        """Yield D^alpha on the tensor grid spanned by one node array per
        axis, for each alpha in `indices` in order.

        Each node's cell and its row of (x - corner)^k/k! are found once per
        axis; D^alpha then contracts, axis by axis, the coefficient rows
        alpha_i.. of the nodes' cells with the leading power columns.  After
        axes 0..i are read, the partial result depends on alpha[:i+1] only,
        so each such stage is computed once per call and shared by every
        alpha with that prefix.
        """
        nd = self.ndim
        if len(axes) != nd:
            raise ValueError(f"expected {nd} axis arrays")
        cells, powers = [], []
        for i, x in enumerate(axes):
            x = self._check_inside(i, np.asarray(x, float).reshape(-1))
            idx = self._locate(i, x)
            cells.append(idx)
            powers.append(_powers(x - self.edges(i)[idx], self.degree[i]))
        shape = tuple(len(idx) for idx in cells)
        stages = {}  # alpha[:i+1] -> val after axes 0..i are read, for i < nd-1
        for alpha in indices:
            alpha = as_multiindex(alpha, ndim=nd)
            if any(a > d for a, d in zip(alpha, self.degree)):
                yield np.zeros(shape)
                continue
            # val: (cells_i.., degrees_i.., nodes_..i-1) before axis i is read.
            start, val = 0, self.coeffs
            for i in range(nd - 1, 0, -1):
                if alpha[:i] in stages:
                    start, val = i, stages[alpha[:i]]
                    break
            for i in range(start, nd):
                rest = nd - i
                val = np.take(val[(slice(None),) * rest + (slice(alpha[i], None),)],
                              cells[i], axis=0)
                val = np.einsum("nk,nk...->...n", powers[i][:, :self.degree[i] + 1 - alpha[i]],
                                np.moveaxis(val, rest, 1))
                if i < nd - 1:
                    stages[alpha[:i + 1]] = val
            yield val

    def eval_grid(self, axes) -> np.ndarray:
        """Values on the tensor grid spanned by one node array per axis."""
        return next(self.derivative_grids([(0,) * self.ndim], axes))

    # --------------------------------------------------------------- calculus

    def derivative(self, axis: int, order: int = 1) -> "PiecewisePoly":
        """Cellwise derivative along one axis (a.e. derivative for step pieces)."""
        if order < 0:
            raise ValueError(f"derivative order must be non-negative, got {order}")
        return self.mixed_derivative(tuple(order if i == axis else 0 for i in range(self.ndim)))

    def mixed_derivative(self, alpha) -> "PiecewisePoly":
        """D^alpha, cell by cell: one slice of the coefficient rows alpha_i..
        on every axis at once (zero when some alpha_i exceeds the degree)."""
        alpha = as_multiindex(alpha, ndim=self.ndim)
        if not any(alpha):
            return self
        rows = self.coeffs[(slice(None),) * self.ndim + tuple(slice(a, None) for a in alpha)]
        rows = np.zeros([max(n, 1) for n in rows.shape]) if rows.size == 0 else rows.copy()
        return PiecewisePoly._make(self.domain, self.breaks, rows)

    def derivative_grid(self, alpha, axes) -> np.ndarray:
        return next(self.derivative_grids([alpha], axes))

    def antiderivative(self, axis: int, times: int = 1) -> "PiecewisePoly":
        """The `times`-fold antiderivative along one axis: each fold vanishes
        at the lower boundary and is continuous across breaks; zero folds
        return this polynomial.  On one cell a fold only moves every
        coefficient up one slot, so the folds are one shift by `times`; along
        an axis where the polynomial is constant (one cell, degree 0) that
        writes the constant into slot `times`, the product with the kernel
        z^times/times!.

        On more cells the folds share one table of width powers.  Each
        fold's array is allocated in the original axis order and written
        through a transposed view, as a single fold is, so the result has
        the same bits as `times` successive single folds (einsum's summation
        order follows the operands' memory layout).
        """
        if times < 0:
            raise ValueError(f"fold count must be non-negative, got times={times}")
        if times == 0:
            return self
        nd, d = self.ndim, self.degree[axis]
        shape = list(self.coeffs.shape)
        if self.cell_counts[axis] == 1:
            shape[nd + axis] += times
            b = np.zeros(shape)
            b[(slice(None),) * (nd + axis) + (slice(times, None),)] = self.coeffs
            return PiecewisePoly._make(self.domain, self.breaks, b)
        perm = _cell_axes(nd, axis)[0]
        powers = _powers(np.diff(self.edges(axis)), d + times)
        prev = self.coeffs.transpose(perm)
        for fold in range(times):
            shape[nd + axis] += 1
            b = np.zeros(shape)
            arr = b.transpose(perm)  # (cells, deg+2, ...)
            arr[:, 1:] = prev
            # each cell starts where the one below ends
            vals = np.einsum("ck,ck...->c...", powers[:, :d + fold + 2], arr)
            arr[1:, 0, ...] += np.cumsum(vals, axis=0)[:-1]
            prev = arr
        return PiecewisePoly._make(self.domain, self.breaks, b)

    def break_jumps(self, axis: int) -> np.ndarray:
        """Largest coefficient jump across each interior break of one axis,
        comparing the left piece's value at the break with the right piece's."""
        arr = self.coeffs.transpose(_cell_axes(self.ndim, axis)[0])
        widths = np.diff(self.edges(axis))
        left = np.einsum("ck,ck...->c...", _powers(widths, self.degree[axis]), arr)[:-1]
        right = arr[1:, 0, ...]
        return np.abs(left - right).reshape(left.shape[0], -1).max(axis=1)

    def integral(self, axes=None) -> float:
        """Exact integral over the domain (or over a subset of axes, in which
        case the remaining axes must carry a constant single piece): the
        antiderivative along each integrated axis, read at that axis's upper
        end (and at the lower end of the others)."""
        axes = range(self.ndim) if axes is None else set(axes)
        f, corner = self, []
        for i in range(self.ndim):
            if i in axes:
                f = f.antiderivative(i)
                corner.append(np.array([self.domain.hi[i]]))
            elif self.cell_counts[i] != 1 or self.degree[i] != 0:
                raise ValueError(f"axis {i} must be constant to stay out of the integral")
            else:
                corner.append(np.array([self.domain.lo[i]]))
        return f.eval_grid(corner).item()

    # -------------------------------------------------------------- arithmetic

    def on_breaks(self, breaks, axes=None) -> "PiecewisePoly":
        """This polynomial on the finer break grid ``breaks`` (one array per
        axis, holding this polynomial's own breaks) along ``axes`` (every
        axis by default): each piece is re-anchored at the corners of the
        cells it covers, and a piece of degree 0 along an axis is copied."""
        out = self
        for i in range(self.ndim) if axes is None else axes:
            if breaks[i].size == out.breaks[i].size:
                continue
            new_edges = np.concatenate(([self.domain.lo[i]], breaks[i], [self.domain.hi[i]]))
            parent = out._locate(i, 0.5 * (new_edges[:-1] + new_edges[1:]))
            coeffs = np.take(out.coeffs, parent, axis=i)
            if out.degree[i]:
                h = new_edges[:-1] - out.edges(i)[parent]
                coeffs = _cellwise(coeffs, i, _shift_matrices(h, out.degree[i]))
            out = PiecewisePoly._make(self.domain, out.breaks[:i] + (breaks[i],)
                                      + out.breaks[i + 1:], coeffs)
        return out

    def __add__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        if self.domain != other.domain:
            raise ValueError("operands live on different domains")
        degree = tuple(max(a, b) for a, b in zip(self.degree, other.degree))
        return _accumulate(_zeros(self.domain, common_breaks((self, other)), degree),
                           (self, other))

    def __rmul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return PiecewisePoly._make(self.domain, self.breaks, float(scalar) * self.coeffs)

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

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
            if b not in (0, -1):
                raise ValueError(f"face entries must be 0 or -1, got {b!r} on axis {i}")
            if b == -1:
                sel[i] = slice(0, 1)
                sel[self.ndim + i] = slice(0, 1)
                breaks[i] = np.array([])
        return PiecewisePoly._make(self.domain, tuple(breaks), self.coeffs[tuple(sel)].copy())

    def boundary_trace(self, alpha, order) -> TraceFunction:
        """Trace of D^alpha on the face it lives on in an order-`order` expansion."""
        return boundary_trace(self, alpha, order)


def _zeros(domain: HyperRect, breaks: tuple[np.ndarray, ...],
           degree: MultiIndex) -> PiecewisePoly:
    cells = tuple(b.size + 1 for b in breaks)
    return PiecewisePoly._make(domain, breaks, np.zeros(cells + tuple(d + 1 for d in degree)))


def _accumulate(total: PiecewisePoly, terms: Iterable[PiecewisePoly]) -> PiecewisePoly:
    """Add each term, re-expressed on total's break grid, into total's
    coefficients in place; returns total.  Every term's breaks must be among
    total's and its degree at most total's."""
    nd = total.ndim
    for t in terms:
        t = t.on_breaks(total.breaks)
        total.coeffs[(slice(None),) * nd + tuple(slice(0, d + 1) for d in t.degree)] += t.coeffs
    return total


def common_breaks(polys: Iterable[PiecewisePoly]) -> tuple[np.ndarray, ...]:
    """The union of the polynomials' break arrays, axis by axis: the
    coarsest break grid that every one of them can be put on (on_breaks)."""
    return tuple(functools.reduce(_union, axis) for axis in zip(*(f.breaks for f in polys)))


def coeff_distance(f: PiecewisePoly, g: PiecewisePoly) -> float:
    """Max coefficient difference on the common refinement, relative to the
    largest coefficient magnitude of either operand (0-safe)."""
    if f.domain != g.domain:
        raise ValueError("operands live on different domains")
    breaks = common_breaks((f, g))
    degree = tuple(max(x, y) for x, y in zip(f.degree, g.degree))
    # on the common grid; an operand at the common degree is only refined
    a, b = (h if h.degree == degree else _accumulate(_zeros(f.domain, breaks, degree), (h,))
            for h in (f.on_breaks(breaks), g.on_breaks(breaks)))
    scale = max(np.max(np.abs(a.coeffs)), np.max(np.abs(b.coeffs)), 1e-300)
    return float(np.max(np.abs(a.coeffs - b.coeffs)) / scale)

"""Reconstruction of a function from its boundary traces, and the inverse.

A function with mixed smoothness of order ``delta`` is the sum, over all
derivative orders ``alpha <= delta``, of a tensor-product operator applied
to the trace of D^alpha on a lower boundary face.  Per axis the operator is
the identity (order 0 of 0), multiplication by the kernel z^k/k! (below top
order), or a Volterra integral with kernel z^(k-1)/(k-1)! (at top order),
which for polynomial inputs reduces to repeated exact antidifferentiation.

Trace functions are carried on the full domain, constant along their
face-inactive axes (the constant extension the tensor operators act on), as
PiecewisePoly values or as LegendreSeries on the standard hypercube.  Both
supply the two calculus maps the operators need, multiply_kernel and
antiderivative, so one reconstruction serves both representations.  The way
back, extract_traces_poly, and the exact bundle norm take PiecewisePoly only;
a LegendreSeries gives its traces one at a time through boundary_trace,
which is how dc_error measures a Legendre approximant.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    HyperRect,
    MultiIndex,
    TraceFunction,
    active_axes,
    as_multiindex,
    face_spec,
    leq,
    multiindex_range,
)
from .legseries import LegendreSeries
from .piecewise import PiecewisePoly, sum_terms


Trace = PiecewisePoly | LegendreSeries


def apply_tensor(alpha, delta, f: Trace) -> Trace:
    """Apply the tensor-product operator of one lattice index alpha <= delta.

    Per axis i, with a = alpha_i: multiplication by the kernel z^a/a! where
    a < delta_i (the trace's face pins axis i), else the a-fold Volterra
    integral, which on polynomials is a-fold exact antidifferentiation
    (Cauchy) and for a = 0 is the identity.
    """
    alpha = as_multiindex(alpha)
    delta = as_multiindex(delta, ndim=len(alpha))
    if not leq(alpha, delta):
        raise ValueError(f"alpha={alpha} is not <= delta={delta}")
    out = f
    for axis, (a, d) in enumerate(zip(alpha, delta)):
        if a < d:
            out = out.multiply_kernel(axis, a)
        else:
            for _ in range(a):
                out = out.antiderivative(axis)
    return out


@dataclass(frozen=True, eq=False)
class PolyTraceBundle:
    """The complete family of boundary traces of an order-`order` expansion.

    One trace per lattice index alpha <= order, each constant along its
    face-inactive axes; all PiecewisePoly or all LegendreSeries.  The exact
    norm and bundle_from need PiecewisePoly entries; the norm of a
    LegendreSeries bundle is dc_norm of its reconstruction, by quadrature.
    """

    order: MultiIndex
    entries: Mapping[MultiIndex, Trace]

    def __post_init__(self):
        order = as_multiindex(self.order)
        object.__setattr__(self, "order", order)
        lattice = multiindex_range(order)
        entries = dict(self.entries)
        if set(entries) != set(lattice):
            raise ValueError("bundle entries do not cover the lattice 0 <= alpha <= order")
        domain = entries[lattice[0]].domain
        for alpha in lattice:
            e = entries[alpha]
            if e.domain != domain:
                raise ValueError("bundle entries live on different domains")
            face = face_spec(alpha, order)
            for i, b in enumerate(face):
                if b < 0 and (e.cell_counts[i] > 1 or e.degree[i] > 0):
                    raise ValueError(
                        f"entry {alpha} varies along inactive axis {i} of face {face}"
                    )
        object.__setattr__(self, "entries", entries)

    @property
    def domain(self) -> HyperRect:
        return self.entries[multiindex_range(self.order)[0]].domain

    def norm(self) -> float:
        """Root-sum-of-squares of the face L2 norms of all traces, each
        integrated by a Gauss rule that is exact for its degree.  Needs
        PiecewisePoly entries."""
        kinds = {type(e).__name__ for e in self.entries.values()
                 if not isinstance(e, PiecewisePoly)}
        if kinds:
            raise ValueError(f"the exact bundle norm needs PiecewisePoly entries, "
                             f"got {', '.join(sorted(kinds))}")
        total = 0.0
        for alpha in multiindex_range(self.order):
            face = face_spec(alpha, self.order)
            e = self.entries[alpha]
            total += e.inner(e, axes=active_axes(face))
        return math.sqrt(total)

    def scaled(self, factor: float) -> "PolyTraceBundle":
        return PolyTraceBundle(
            self.order, {a: float(factor) * e for a, e in self.entries.items()}
        )

    def __add__(self, other: "PolyTraceBundle") -> "PolyTraceBundle":
        if self.order != other.order:
            raise ValueError("bundle orders differ")
        return PolyTraceBundle(
            self.order, {a: e + other.entries[a] for a, e in self.entries.items()}
        )

    def allclose(self, other: "PolyTraceBundle", tol: float = 1e-10) -> bool:
        if self.order != other.order:
            return False
        return all(
            self.entries[a].allclose(other.entries[a], tol)
            for a in multiindex_range(self.order)
        )


def bundle_from(order, mapping, domain: HyperRect) -> PolyTraceBundle:
    """Wrap a mapping whose values may be scalars or PiecewisePoly traces."""
    entries = {}
    for alpha, value in mapping.items():
        alpha = as_multiindex(alpha)
        if isinstance(value, PiecewisePoly):
            entries[alpha] = value
        else:
            entries[alpha] = PiecewisePoly.constant(domain, float(value))
    return PolyTraceBundle(as_multiindex(order), entries)


def reconstruct(bundle: PolyTraceBundle) -> Trace:
    """Sum of the lifted traces, in the representation of the entries; the
    inverse of extract_traces_poly.

    Piecewise terms are added as they are lifted, each break grid refined
    once (see sum_terms), instead of refining a running total per term.
    """
    lattice = multiindex_range(bundle.order)
    terms = (apply_tensor(alpha, bundle.order, bundle.entries[alpha]) for alpha in lattice)
    if isinstance(bundle.entries[lattice[0]], LegendreSeries):
        return functools.reduce(operator.add, terms)
    return sum_terms(terms)


def check_membership(u: PiecewisePoly, delta, tol: float = 1e-10):
    """Verify the cross-break smoothness that order-`delta` membership needs.

    Along each axis i, the derivatives of order k < delta_i must be
    continuous across every axis-i breakpoint (as functions of the other
    variables).  Raises with the offending order and breakpoint otherwise.
    """
    delta = as_multiindex(delta, ndim=u.ndim)
    for axis, d in enumerate(delta):
        if d == 0 or u.breaks[axis].size == 0:
            continue
        for k in range(d):
            g = u.derivative(axis, k)
            scale = max(float(np.max(np.abs(g.coeffs))), 1.0)
            err = g.break_jumps(axis)
            if np.any(err > tol * scale):
                j = int(np.argmax(err))
                raise ValueError(
                    f"order-{k} derivative along axis {axis} jumps by {err[j]:.3e} "
                    f"across break s_{axis} = {g.breaks[axis][j]!r}; "
                    f"input is not smooth enough for order {delta}"
                )


def extract_traces_poly(u: PiecewisePoly, delta, tol: float = 1e-10) -> PolyTraceBundle:
    """All boundary traces of an admissible piecewise polynomial."""
    delta = as_multiindex(delta, ndim=u.ndim)
    check_membership(u, delta, tol)
    entries = {
        alpha: u.mixed_derivative(alpha).restrict(face_spec(alpha, delta))
        for alpha in multiindex_range(delta)
    }
    return PolyTraceBundle(delta, entries)


def fund_int_pair(k: int, top: int, v: PiecewisePoly, axis: int = 0):
    """Both sides of the one-axis integration identity used in the induction:
    the antiderivative of the (k, top) lift equals the (k+1, top+1) lift;
    apply_tensor rejects any k outside 0 <= k <= top."""

    def on_axis(n):
        return tuple(n if i == axis else 0 for i in range(v.ndim))

    lhs = apply_tensor(on_axis(k), on_axis(top), v).antiderivative(axis)
    rhs = apply_tensor(on_axis(k + 1), on_axis(top + 1), v)
    return lhs, rhs


def term_at_point(alpha, delta, trace: TraceFunction, point, domain: HyperRect,
                  rule=None) -> float:
    """Numeric value at one point of a single lifted-trace summand.

    Volterra factors are integrated by quadrature over the sub-box
    prod [lo_i, s_i]; multiplier factors contribute scalar kernel values.
    Intended for inspection tables, not for bulk evaluation.
    """
    from . import quadrature  # runtime import keeps module deps one-way

    alpha = as_multiindex(alpha)
    delta = as_multiindex(delta, ndim=len(alpha))
    point = tuple(float(p) for p in point)
    if not domain.contains(point):
        raise ValueError(f"point {point} outside domain")
    rule = rule or quadrature.QuadratureRule()

    factor = 1.0
    volterra, identity = [], []
    for i, (a, d) in enumerate(zip(alpha, delta)):
        if a < d:
            z = point[i] - domain.lo[i]
            factor *= z**a / math.factorial(a)
        elif d > 0:
            volterra.append(i)
        else:
            identity.append(i)

    active = sorted(volterra + identity)
    if not volterra:
        if trace.is_scalar:
            return factor * float(trace.values)
        coords = [point[i] for i in active]
        return factor * float(np.squeeze(trace(*[np.array([c]) for c in coords])))

    axes, weights, kernels = [], [], []
    for i in volterra:
        if point[i] <= domain.lo[i]:
            return 0.0
        x, w = quadrature.axis_quadrature(
            domain.lo[i], point[i], rule.axis_splits(i), rule.axis_grading(i),
            rule.nodes, rule.panels,
        )
        axes.append(x)
        weights.append(w)
        k = delta[i] - 1
        kernels.append((point[i] - x) ** k / math.factorial(k))

    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    args = []
    g_iter = iter(grids)
    for i in active:
        args.append(next(g_iter) if i in volterra else point[i])
    values = np.asarray(trace(*args), float)
    shape = tuple(len(x) for x in axes)
    total = np.broadcast_to(values, shape)
    for i in range(len(axes)):
        shape_i = [1] * len(axes)
        shape_i[i] = -1
        total = total * (weights[i] * kernels[i]).reshape(shape_i)
    return factor * float(total.sum())

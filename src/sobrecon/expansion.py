"""Reconstruction of a function from its boundary traces, and the inverse.

A function with mixed smoothness of order ``delta`` is the sum, over all
derivative orders ``alpha <= delta``, of a tensor-product operator applied
to the trace of D^alpha on a lower boundary face.  Per axis, with a =
alpha_i, the operator is the a-fold antiderivative from the lower end: the
Volterra integral with kernel z^(a-1)/(a-1)! (Cauchy's formula), and the
identity at a = 0.  Below top order the trace is constant along the axis,
where the a folds are multiplication by the kernel z^a/a!.

Trace functions are carried on the full domain, constant along their
face-inactive axes, as PiecewisePoly values or as LegendreSeries on the
standard hypercube.  Both supply the maps the operators need (the a-fold
antiderivative and +), so one reconstruction serves both.  reconstruct puts
piecewise entries on one break grid, the union of all entries' breaks,
before any lift, then applies the operators axis by axis, last axis first,
summing the terms that share their orders on the axes not yet lifted (sum
factorization).  The way back, extract_traces_poly, and the exact bundle
norm, which integrates each trace over its own face with a Gauss rule sized
to its degree, take PiecewisePoly only.

Inputs are validated at the public boundary (apply_tensor's indices and its
trace's pinned axes, the PolyTraceBundle constructor's lattice, entry types
and faces, both through one pinned-axis check); bundles that
extract_traces_poly, scaled and + build are valid by construction.  Every
function kind also gives its traces through core.boundary_trace, as a
TraceFunction(face, f, alpha): that is how the trace projections and
term_at_point read one summand.  dc_error reads the same faces without
TraceFunctions, through quadrature.error_components.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import quadrature
from .core import (
    FaceSpec,
    MultiIndex,
    TraceFunction,
    active_axes,
    as_multiindex,
    contract_axes,
    face_spec,
    leq,
    multiindex_range,
)
from .legseries import LegendreSeries
from .piecewise import PiecewisePoly, common_breaks


Trace = PiecewisePoly | LegendreSeries


def apply_tensor(alpha, delta, f: Trace) -> Trace:
    """Apply the tensor-product operator of one lattice index alpha <= delta:
    per axis i, the alpha_i-fold antiderivative from the lower end.

    Where 0 < alpha_i < delta_i the trace's face pins axis i, and the folds
    are multiplication by the kernel z^a/a! only if f is constant there
    (one cell, degree 0); a trace of either type that varies along such an
    axis is refused with ValueError.
    """
    alpha = as_multiindex(alpha)
    delta = as_multiindex(delta, ndim=len(alpha))
    if not leq(alpha, delta):
        raise ValueError(f"alpha={alpha} is not <= delta={delta}")
    _check_constant_on(f, [i for i, (a, d) in enumerate(zip(alpha, delta)) if 0 < a < d],
                       f"the trace lifted at alpha={alpha}")
    for axis, a in enumerate(alpha):
        f = f.antiderivative(axis, a)
    return f


def _check_constant_on(f: Trace, axes, what: str):
    """Refuse f if it varies (more than one cell, or a positive degree)
    along any of `axes`: a trace is constant along the axes its face pins."""
    for i in axes:
        if f.cell_counts[i] > 1 or f.degree[i] > 0:
            raise ValueError(f"{what} varies along inactive axis {i}")


@functools.lru_cache(maxsize=64)
def _lattice_faces(order: MultiIndex) -> tuple[tuple[MultiIndex, FaceSpec], ...]:
    """(alpha, face_spec(alpha, order)) for every alpha <= order, in
    multiindex_range order; cached, so each order is validated once."""
    return tuple((alpha, face_spec(alpha, order)) for alpha in multiindex_range(order))


@dataclass(frozen=True, eq=False)
class PolyTraceBundle:
    """The complete family of boundary traces of an order-`order` expansion.

    One trace per lattice index alpha <= order, each constant along its
    face-inactive axes; all PiecewisePoly or all LegendreSeries, on a domain
    with one axis per entry of `order`.  The exact norm needs PiecewisePoly
    entries; the norm of a LegendreSeries bundle is dc_error(f, None, ...)
    of its reconstruction f, by quadrature.
    """

    order: MultiIndex
    entries: Mapping[MultiIndex, Trace]

    def __post_init__(self):
        order = as_multiindex(self.order)
        object.__setattr__(self, "order", order)
        faces = _lattice_faces(order)
        entries = dict(self.entries)
        if set(entries) != {alpha for alpha, _ in faces}:
            raise ValueError("bundle entries do not cover the lattice 0 <= alpha <= order")
        kinds = {type(e).__name__ for e in entries.values()}
        if len(kinds) > 1:
            raise ValueError(f"bundle entries mix types: {', '.join(sorted(kinds))}")
        domain = entries[faces[0][0]].domain
        if len(order) != domain.ndim:
            raise ValueError(f"order {order} has {len(order)} entries "
                             f"but the entries are {domain.ndim}-D")
        for alpha, face in faces:
            e = entries[alpha]
            if e.domain != domain:
                raise ValueError("bundle entries live on different domains")
            _check_constant_on(e, [i for i, b in enumerate(face) if b < 0],
                               f"entry {alpha} of face {face}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _make(cls, order: MultiIndex, entries: dict) -> "PolyTraceBundle":
        """Unchecked constructor for bundles that are valid by construction:
        `order` is normalized and `entries` a dict that covers its lattice."""
        out = object.__new__(cls)
        out.__dict__.update(order=order, entries=entries)
        return out

    def norm(self) -> float:
        """Root-sum-of-squares of the face L2 norms of all traces, summed in
        lattice order.  Needs PiecewisePoly entries.

        Each trace is read on its own cells: a Gauss-Legendre rule of
        degree_i + 1 nodes per cell on each active axis, which integrates
        the square exactly in exact arithmetic, and the one node lo_i of
        weight 1 on each pinned axis; the face norm squared is the sum of
        w * e^2 over those nodes.

        Worst relative error of the squared norm against the exact integral
        in rational arithmetic, for the order-(0, 0) bundle of ``p =
        PiecewisePoly(HyperRect.cube(2), (np.array([]),) * 2,
        default_rng(seed).standard_normal((1, 1, d + 1, d)))`` over seeds
        0-199: 9.7e-16 at d=4 and d=6, 2.0e-15 at d=8 and 7.2e-16 at d=12.
        """
        kind = type(self.entries[multiindex_range(self.order)[0]])
        if kind is not PiecewisePoly:
            raise ValueError(f"the exact bundle norm needs PiecewisePoly entries, "
                             f"got {kind.__name__}")
        total = 0.0
        for alpha, face in _lattice_faces(self.order):
            e, xs, ws = self.entries[alpha], [], []
            for i, (lo, hi, b) in enumerate(zip(e.domain.lo, e.domain.hi, face)):
                x, w = (quadrature.axis_quadrature(lo, hi, e.breaks[i], None,
                                                   nodes=e.degree[i] + 1, panels=1)
                        if b == 0 else (np.array([lo]), np.ones(1)))
                xs.append(x)
                ws.append(w)
            v = e.eval_grid(xs)
            total += float(contract_axes(v * v, ws))
        return math.sqrt(total)

    def scaled(self, factor: float) -> "PolyTraceBundle":
        return PolyTraceBundle._make(
            self.order, {a: float(factor) * e for a, e in self.entries.items()}
        )

    def __add__(self, other: "PolyTraceBundle") -> "PolyTraceBundle":
        if self.order != other.order:
            raise ValueError("bundle orders differ")
        return PolyTraceBundle._make(
            self.order, {a: e + other.entries[a] for a, e in self.entries.items()}
        )


def reconstruct(bundle: PolyTraceBundle) -> Trace:
    """Sum of the lifted traces, in the representation of the entries; the
    inverse of extract_traces_poly, exactly so for piecewise entries.

    Piecewise entries are first put on the union of all entries' breaks
    along their active axes.  Then, for axis j from last to first, the terms
    that share alpha[:j] are lifted on axis j and summed in order alpha_j =
    0..delta_j: the alpha_j-fold antiderivative of each, which on a pinned
    term's single cell is its kernel lift (each fills its own coefficient
    slot); that sum is refined once onto the union cells when the top
    term's delta_j-fold lift joins it.  Axis j takes one operator per prefix
    alpha[:j+1] (sum factorization).  The bundle was validated when it was
    built, so nothing is checked here.
    """
    order = bundle.order
    level = bundle.entries  # alpha[:j+1] -> sum of the lifts on axes j+1..
    if isinstance(level[(0,) * len(order)], PiecewisePoly):
        grid = common_breaks(level.values())
        level = {alpha: level[alpha].on_breaks(grid, active_axes(face))
                 for alpha, face in _lattice_faces(order)}
    for j in reversed(range(len(order))):
        d = order[j]
        level = {prefix: functools.reduce(operator.add, (
                     level[prefix + (a,)].antiderivative(j, a) for a in range(d + 1)))
                 for prefix in dict.fromkeys(alpha[:j] for alpha in level)}
    return level[()]


def check_membership(u: PiecewisePoly, delta):
    """Verify the cross-break smoothness that order-`delta` membership needs.

    Along each axis i, the derivatives of order k < delta_i must be
    continuous across every axis-i breakpoint (as functions of the other
    variables), to 1e-10 of the largest coefficient (at least 1).  Raises
    with the offending order and breakpoint otherwise.
    """
    delta = as_multiindex(delta, ndim=u.ndim)
    for axis, d in enumerate(delta):
        if d == 0 or u.breaks[axis].size == 0:
            continue
        for k in range(d):
            g = u.derivative(axis, k)
            scale = max(float(np.max(np.abs(g.coeffs))), 1.0)
            err = g.break_jumps(axis)
            if np.any(err > 1e-10 * scale):
                j = int(np.argmax(err))
                raise ValueError(
                    f"order-{k} derivative along axis {axis} jumps by {err[j]:.3e} "
                    f"across break s_{axis} = {g.breaks[axis][j]!r}; "
                    f"input is not smooth enough for order {delta}"
                )


def extract_traces_poly(u: PiecewisePoly, delta) -> PolyTraceBundle:
    """All boundary traces of an admissible piecewise polynomial (see
    check_membership)."""
    delta = as_multiindex(delta, ndim=u.ndim)
    check_membership(u, delta)
    return PolyTraceBundle._make(delta, {alpha: u.mixed_derivative(alpha).restrict(face)
                                         for alpha, face in _lattice_faces(delta)})


def fund_int_pair(k: int, top: int, v: PiecewisePoly):
    """Both sides of the one-axis integration identity used in the induction,
    on axis 0: the antiderivative of the (k, top) lift equals the
    (k+1, top+1) lift; apply_tensor rejects any k outside 0 <= k <= top.
    Both lifts are antiderivatives on axis 0, so the pair checks that k
    folds then one more equal k+1 folds; the kernel identity itself is
    checked by the tests (see the verify module)."""
    rest = (0,) * (v.ndim - 1)
    lhs = apply_tensor((k,) + rest, (top,) + rest, v).antiderivative(0)
    rhs = apply_tensor((k + 1,) + rest, (top + 1,) + rest, v)
    return lhs, rhs


def term_at_point(trace: TraceFunction, point, rule: quadrature.QuadratureRule) -> float:
    """Numeric value at one point of the summand that lifts `trace`.

    Everything comes from the trace: the domain is trace.f.domain, and per
    axis i with a = alpha_i a pinned axis gives the kernel z^a/a!, an active
    axis with a > 0 the a-fold Volterra integral with kernel
    (s - x)^(a-1)/(a-1)! over [lo_i, s_i], by quadrature, and an active axis
    with a = 0 the identity.  The trace is read once with eval_grid: Volterra
    axes at their quadrature nodes, identity axes at the point's coordinate.
    Intended for inspection tables, not for bulk evaluation.
    """
    domain = trace.f.domain
    point = tuple(float(p) for p in point)
    if len(point) != domain.ndim:
        raise ValueError(f"point needs {domain.ndim} coordinates, got {len(point)}")
    for i, x in enumerate(point):
        domain.check_inside(i, x)

    factor = 1.0
    volterra = {}  # axis -> (nodes, weights times kernel) on [lo_i, s_i]
    for i, (a, b) in enumerate(zip(trace.alpha, trace.face)):
        if b < 0:
            z = point[i] - domain.lo[i]
            factor *= z**a / math.factorial(a)
        elif a > 0:
            if point[i] <= domain.lo[i]:
                return 0.0
            x, w = quadrature.axis_quadrature(
                domain.lo[i], point[i], rule.axis_splits(i), rule.axis_grading(i),
                rule.nodes, rule.panels,
            )
            volterra[i] = (x, w * ((point[i] - x) ** (a - 1) / math.factorial(a - 1)))

    # identity axes (active, a = 0) are read at the point itself
    axes = [volterra[i][0] if i in volterra else np.array([point[i]]) for i in trace.active]
    total = trace.eval_grid(axes).reshape(tuple(len(x) for x, _ in volterra.values()))
    for n, (_, weighted) in enumerate(volterra.values()):
        shape = [1] * len(volterra)
        shape[n] = -1
        total = total * weighted.reshape(shape)
    # numpy's sum starts from +0.0; a term with no Volterra axis is read
    # directly, so a zero keeps its sign
    return factor * float(total.sum() if volterra else total)

"""Composite Gauss-Legendre quadrature and the norms built on it.

Panels are laid out per axis from a uniform baseline plus mandatory split
points (function breakpoints, approximant cell edges), with optional
geometric grading toward an integrable singularity.  Gauss nodes are
strictly interior, so singular points and breakpoints are never evaluated.
A tensor grid is built once per (domain, rule) and its node and weight
arrays are then shared, read-only, by every reader of that grid.  Every
reader is given its rule: the default size lives only in QuadratureRule's
fields, and rule_for completes a base rule for a target.  Every integral is
the grid values contracted with one weight vector per axis by
``core.contract_axes``.

Every error norm, of f alone when g is None, is one ``error_components``
read of the squared L2 norms of D^alpha (f - g): plain L2 (alpha = 0), the
mixed-smoothness Sobolev norm (the box alpha <= order), the isotropic norm
that ``bench.error_norms`` sums from the same components, and the
discrete-continuous norm, whose D^alpha is read on the face where its
boundary trace lives (pinned axes at their lower endpoint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (
    HyperRect,
    as_multiindex,
    contract_axes,
    face_spec,
    multiindex_range,
)

#: Ratio of successive panel widths toward a grading center.
GRADING_RATIO = 0.25


@dataclass(frozen=True)
class AxisGrading:
    """Geometric panel refinement toward one point of an axis: `panels`
    levels whose widths shrink by GRADING_RATIO toward `center`."""

    center: float
    panels: int = 40

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError(f"grading center must be finite, got {self.center}")
        if isinstance(self.panels, bool) or not isinstance(self.panels, (int, np.integer)):
            raise ValueError(f"grading panels must be an integer, got {self.panels!r}")
        object.__setattr__(self, "panels", int(self.panels))
        if self.panels < 1:
            raise ValueError("grading needs at least one panel")


@dataclass(frozen=True)
class QuadratureRule:
    """Composite tensor Gauss rule: node count per panel, baseline panel
    count per axis, mandatory per-axis splits, optional per-axis grading."""

    nodes: int = 16
    panels: int = 32
    splits: tuple[tuple[float, ...], ...] | None = None
    grading: tuple[AxisGrading | None, ...] | None = None

    def __post_init__(self):
        for name, value in (("nodes", self.nodes), ("panels", self.panels)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.nodes < 2:
            raise ValueError("need at least 2 Gauss nodes per panel")
        if self.panels < 1:
            raise ValueError("need at least 1 panel per axis")
        # tuples throughout, so that a rule is hashable (grid_quadrature's key)
        if self.splits is not None:
            object.__setattr__(self, "splits",
                               tuple(tuple(float(s) for s in axis) for axis in self.splits))
        if self.grading is not None:
            object.__setattr__(self, "grading", tuple(self.grading))

    def axis_splits(self, axis: int) -> tuple[float, ...]:
        """Mandatory split points of one axis (none when unspecified)."""
        if self.splits is None or axis >= len(self.splits):
            return ()
        return self.splits[axis]

    def axis_grading(self, axis: int) -> AxisGrading | None:
        """Grading of one axis, or None for uniform panels."""
        if self.grading is None or axis >= len(self.grading):
            return None
        return self.grading[axis]


def rule_for(u, base: QuadratureRule = QuadratureRule(), *,
             extra_splits=None) -> QuadratureRule:
    """Concrete rule for a target function: the base rule's size, splits at
    its breakpoints (and `extra_splits`) and geometric grading toward its
    singular point on each axis (at most one, see AnalyticFunction)."""
    ndim = u.domain.ndim
    splits = [set(base.axis_splits(i)) for i in range(ndim)]
    grading = [base.axis_grading(i) for i in range(ndim)]
    for i in range(ndim):
        splits[i] |= set(u.breakpoints[i]) | set(u.singular_points[i])
        if u.singular_points[i] and grading[i] is None:
            grading[i] = AxisGrading(center=u.singular_points[i][0])
    if extra_splits is not None:
        for i in range(ndim):
            splits[i] |= set(float(s) for s in extra_splits[i])
    return replace(base, splits=tuple(tuple(sorted(s)) for s in splits), grading=tuple(grading))


#: Distinct (domain, rule) grids that grid_quadrature keeps; one figure
#: sweep or `verify all` pass reads a few dozen.
_GRID_CACHE_SIZE = 64


@lru_cache(maxsize=None)
def _gauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def axis_quadrature(lo: float, hi: float, splits, grading: AxisGrading | None,
                    nodes: int, panels: int):
    """Nodes and weights of the composite rule on [lo, hi].

    Segments between mandatory splits are subdivided uniformly with a panel
    budget proportional to their length; segments touching the grading
    center c are subdivided geometrically toward it instead, with panel
    edges at offsets (b - a) r^k from c.  Levels whose offset is below
    8 ulp(c) / (1 - largest Gauss node) are dropped, so every node of the
    innermost panel [c, c + h] sits at least 4 ulps from c and no two panel
    edges round to the same float; at c = 0 every level is kept.

    A segment that does not touch c is graded the same way toward its end
    nearer to c, keeping only the offsets that are at least that end's
    distance from c (and above the same floor): a split next to c then
    leaves no uniform panel beside the singularity.  A segment farther from
    c than r times its own length keeps only the whole-segment level and is
    subdivided uniformly.
    """
    if hi <= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    ref_x, ref_w = _gauss(nodes)
    cuts = {float(s) for s in splits if lo < float(s) < hi}
    center = None
    if grading is not None and lo < grading.center < hi:
        center = float(grading.center)
        cuts.add(center)
    edges = np.array(sorted({lo, hi} | cuts))

    panel_edges = []
    for a, b in zip(edges[:-1], edges[1:]):
        graded = False
        if center is not None:
            near = a if a >= center else b  # c is a cut, so it is never inside
            offsets = (b - a) * GRADING_RATIO ** np.arange(grading.panels - 1, -1, -1.0)
            h_min = 8.0 * np.spacing(abs(center)) / (1.0 - ref_x[-1])
            keep = offsets >= max(abs(near - center), h_min)
            keep[-1] = True  # the whole segment, even a split within h_min of c
            graded = near == center or keep.sum() > 1
        if graded:
            offsets = np.concatenate(([0.0], offsets[keep]))
            sub = a + offsets if near == a else b - offsets[::-1]
            sub[0], sub[-1] = a, b
        else:
            n = max(1, round(panels * (b - a) / (hi - lo)))
            sub = np.linspace(a, b, n + 1)
        panel_edges.append(sub[:-1])
    panel_edges.append(np.array([hi]))
    grid = np.concatenate(panel_edges)

    half = 0.5 * np.diff(grid)
    mid = grid[:-1] + half
    x = (mid[:, None] + half[:, None] * ref_x[None, :]).reshape(-1)
    w = (half[:, None] * ref_w[None, :]).reshape(-1)
    return x, w


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _grid(domain: HyperRect, rule: QuadratureRule):
    axes, weights = [], []
    for i in range(domain.ndim):
        x, w = axis_quadrature(
            domain.lo[i], domain.hi[i], rule.axis_splits(i),
            rule.axis_grading(i), rule.nodes, rule.panels,
        )
        x.flags.writeable = False
        w.flags.writeable = False
        axes.append(x)
        weights.append(w)
    return tuple(axes), tuple(weights)


def grid_quadrature(domain: HyperRect, rule: QuadratureRule):
    """Per-axis node and weight arrays of the tensor rule on the domain.

    Each (domain, rule) grid is built once and its arrays are shared,
    read-only, by every later call with an equal domain and rule; the two
    lists are new on every call."""
    axes, weights = _grid(domain, rule)
    return list(axes), list(weights)


def grid_values(f, axes) -> np.ndarray:
    """Evaluate a plain callable f(*coords) on the tensor grid of per-axis
    node arrays."""
    shape = tuple(len(a) for a in axes)
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    return np.broadcast_to(np.asarray(f(*grids), float), shape)


def _check_finite(values: np.ndarray, axes):
    if np.all(np.isfinite(values)):
        return
    at = np.argwhere(~np.isfinite(values))[0]
    node = tuple(float(axes[i][j]) for i, j in enumerate(at))
    raise ValueError(f"integrand is not finite at quadrature node {node}")


def integrate(f, domain: HyperRect, rule: QuadratureRule) -> float:
    """Tensor-product composite Gauss approximation of the integral over the domain."""
    axes, weights = grid_quadrature(domain, rule)
    values = grid_values(f, axes)
    _check_finite(values, axes)
    return float(contract_axes(values, weights))


def _face_axes(axes, weights, face, domain: HyperRect):
    """Node and weight arrays of a face's tensor grid: an active axis keeps
    the domain's arrays, a pinned axis is the one node lo_i with weight 1.
    (perfbench/tracing.py counts the face-grid nodes of dc_error through
    this name.)"""
    return ([x if b == 0 else np.array([lo]) for x, b, lo in zip(axes, face, domain.lo)],
            [w if b == 0 else np.ones(1) for w, b in zip(weights, face)])


def error_components(f, g, indices, domain: HyperRect,
                     rule: QuadratureRule, order=None) -> dict:
    """Squared L2 norm of D^alpha (f - g) (of D^alpha f when g is None) for
    every alpha in `indices`, in that order.

    Without `order` each is read on the domain's quadrature grid; given
    `order`, on the face face_spec(alpha, order) where the trace of D^alpha
    lives in an order-`order` expansion.  The indices of one grid are read
    together, so each operand reads each grid once."""
    domain_axes, domain_weights = grid_quadrature(domain, rule)
    indices = list(indices)
    if order is not None:  # one entry per axis, or _face_axes would drop axes
        order = as_multiindex(order, ndim=domain.ndim)
    faces = {}  # face (None: the whole domain) -> its indices, in order
    for alpha in indices:
        faces.setdefault(None if order is None else face_spec(alpha, order), []).append(alpha)
    components = {}
    for face, group in faces.items():
        axes, weights = ((domain_axes, domain_weights) if face is None
                         else _face_axes(domain_axes, domain_weights, face, domain))
        f_grids = f.derivative_grids(group, axes)
        g_grids = None if g is None else g.derivative_grids(group, axes)
        for alpha in group:
            values = next(f_grids)
            if g_grids is None:
                _check_finite(values, axes)
                squares = values * values  # an operand's own grid: never written
            else:
                squares = values - next(g_grids)
                _check_finite(squares, axes)
                squares *= squares
            components[alpha] = float(contract_axes(squares, weights))
    return {alpha: components[alpha] for alpha in indices}


def l2_error(f, g, domain: HyperRect, rule: QuadratureRule) -> float:
    """L2 norm of f - g (of f alone when g is None), by quadrature."""
    zero = (0,) * domain.ndim
    comp = error_components(f, g, [zero], domain, rule)
    return math.sqrt(max(comp[zero], 0.0))


def sobolev_error(f, g, order, domain: HyperRect, rule: QuadratureRule) -> float:
    """Mixed-smoothness Sobolev norm of f - g (of f alone when g is None),
    by quadrature: the root-sum-of-squares of the L2 norms of D^alpha over
    the box alpha <= order.

    Both operands must supply derivative values on tensor grids up to the
    requested order.
    """
    comp = error_components(f, g, multiindex_range(order), domain, rule)
    return math.sqrt(max(sum(comp.values()), 0.0))


def dc_error(f, g, order, domain: HyperRect, rule: QuadratureRule) -> float:
    """Discrete-continuous norm of f - g (of f alone when g is None):
    root-sum-of-squares of the face L2 norms of all boundary traces, the
    trace of D^alpha read on its face face_spec(alpha, order).

    Both operands must supply derivative values on tensor grids up to the
    requested order."""
    comp = error_components(f, g, multiindex_range(order), domain, rule, order)
    return math.sqrt(max(sum(comp.values()), 0.0))

"""L2 projections of boundary traces and the approximants built from them.

Two pipelines: coefficients in the orthonormal Legendre basis (spectral,
kept in coefficient form so degrees in the hundreds stay stable), and cell
averages on a uniform grid (the step-function basis, immune to the
oscillation that smooth bases develop at jumps).  Either projection is
applied trace-by-trace and the approximant of the original function is then
reassembled through the reconstruction operators; projecting at order zero
is the plain L2 projection of the function itself (the paper's direct
projection).

Both pipelines contract the trace's values on the quadrature grid with one
weighted table per active axis through ``core.contract_axes``: the Legendre
basis table, or a one-hot table that sums each cell's weighted nodes.
Vertex traces take the same path with no active axis, so both projections
return their value unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import AnalyticFunction
from .core import (
    HyperRect,
    MultiIndex,
    as_multiindex,
    contract_axes,
    leq,
    multiindex_range,
)
from .expansion import PolyTraceBundle, reconstruct
from .legseries import LegendreSeries, legendre_values
from .piecewise import PiecewisePoly
from .quadrature import QuadratureRule, grid_quadrature, grid_values, rule_for


def cell_edges(counts, ndim: int) -> tuple[tuple[float, ...], ...]:
    """Interior edges of the uniform cell grid on the standard hypercube."""
    counts = as_multiindex(counts, ndim=ndim)
    return tuple(tuple(np.linspace(-1.0, 1.0, k + 1)[1:-1]) for k in counts)


def _grid_coefficients(f, tables, axes) -> np.ndarray:
    """Contract the values of f on the tensor grid of `axes` with one
    (coefficients, nodes) table per axis, quadrature weights included."""
    return contract_axes(grid_values(f, axes), [t.T for t in tables])


def _legendre_from_grid(f, degree: MultiIndex, axes, weights) -> LegendreSeries:
    tables = []
    for d, x, w in zip(degree, axes, weights):
        table = legendre_values(d, x)
        table *= w  # in place: one (d+1, nodes) table alive, not two
        tables.append(table)
    return LegendreSeries(_grid_coefficients(f, tables, axes))


def _cell_averages_from_grid(f, counts: MultiIndex, axes, weights) -> np.ndarray:
    tables = []
    for k, x, w in zip(counts, axes, weights):
        # each node's cell as PiecewisePoly finds it (half-open cells), read
        # against the cell edges themselves: x + 1 rounds to 1 just left of 0
        idx = np.searchsorted(np.linspace(-1.0, 1.0, k + 1)[1:-1], x, side="right")
        agg = np.zeros((k, x.size))
        agg[idx, np.arange(x.size)] = w
        tables.append(agg)
    volume = math.prod(2.0 / k for k in counts)
    return _grid_coefficients(f, tables, axes) / volume


# --------------------------------------------------------- order-gamma driver


def _project_traces(u: AnalyticFunction, gamma: MultiIndex, rule: QuadratureRule,
                    project_face):
    """Project every boundary trace of the order-gamma expansion and
    reassemble.  `project_face(trace, axes, weights)` receives the nodes and
    weights of the trace's active axes and returns the projected trace
    extended to the full cube (a constant for vertex traces)."""
    if not leq(gamma, u.delta):
        raise ValueError(f"projection order {gamma} exceeds smoothness {u.delta}")
    if u.domain != HyperRect.cube(u.domain.ndim):
        raise ValueError("trace projections assume the standard hypercube")
    axes, weights = grid_quadrature(u.domain, rule)
    entries = {}
    for alpha in multiindex_range(gamma):
        trace = u.boundary_trace(alpha, gamma)
        act = trace.active
        entries[alpha] = project_face(trace, [axes[i] for i in act],
                                      [weights[i] for i in act])
    return reconstruct(PolyTraceBundle(gamma, entries))


def sobolev_project_legendre(u: AnalyticFunction, gamma, degree,
                             rule: QuadratureRule) -> LegendreSeries:
    """Order-gamma approximant: project each boundary trace onto Legendre
    polynomials of (face-restricted) degree `degree`, then reassemble.

    The result is a polynomial of degree at most degree + gamma per axis.
    At order zero this is the plain L2 Legendre projection of u.  The rule
    is completed with u's splits and grading by `rule_for(u, rule)`.
    """
    nd = u.domain.ndim
    gamma = as_multiindex(gamma, ndim=nd)
    degree = as_multiindex(degree, ndim=nd)
    rule = rule_for(u, rule)

    def project_face(trace, axes, weights):
        act = trace.active
        degs = tuple(degree[i] for i in act)
        return _legendre_from_grid(trace, degs, axes, weights).extend(act, nd)

    return _project_traces(u, gamma, rule, project_face)


def sobolev_project_step(u: AnalyticFunction, gamma, counts,
                         rule: QuadratureRule) -> PiecewisePoly:
    """Order-gamma approximant from cell-averaged boundary traces: a
    piecewise polynomial of degree at most gamma per axis on the cell grid.
    The rule gets u's splits and grading and the cell edges from `rule_for`."""
    nd = u.domain.ndim
    gamma = as_multiindex(gamma, ndim=nd)
    counts = as_multiindex(counts, ndim=nd)
    rule = rule_for(u, rule, extra_splits=cell_edges(counts, nd))

    def project_face(trace, axes, weights):
        act = trace.active
        # cell averages on the active axes, one cell along the pinned ones
        face_counts = tuple(counts[i] if i in act else 1 for i in range(nd))
        averages = _cell_averages_from_grid(
            trace, tuple(counts[i] for i in act), axes, weights)
        return PiecewisePoly.from_cell_values(
            u.domain, cell_edges(face_counts, nd), averages.reshape(face_counts))

    return _project_traces(u, gamma, rule, project_face)


def random_legendre_poly(rng: np.random.Generator, degree) -> LegendreSeries:
    """Random coefficient tensor, used as a perturbation direction."""
    degree = as_multiindex(degree)
    return LegendreSeries(rng.standard_normal(tuple(d + 1 for d in degree)))

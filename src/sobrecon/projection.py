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
basis table (``legendre_values``), or a one-hot table (``step_values``)
that sums each cell's weighted nodes.  Vertex traces take the same path
with no active axis, so both projections return their value unchanged.

The weighted tables live in a memo keyed by (basis, domain, completed rule,
axis, size) that ``shared_tables`` opens: traces of one projection that
share an active axis share its table, and a sweep that opens one block per
parameter lets every order at that parameter share it too.  A projection
made outside a block keeps its own memo for the length of the call.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

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
from .quadrature import QuadratureRule, grid_quadrature, rule_for


def cell_edges(counts, ndim: int) -> tuple[tuple[float, ...], ...]:
    """Interior edges of the uniform cell grid on the standard hypercube."""
    counts = as_multiindex(counts, ndim=ndim)
    return tuple(tuple(np.linspace(-1.0, 1.0, k + 1)[1:-1]) for k in counts)


def step_values(count: int, x) -> np.ndarray:
    """One-hot table of the uniform `count`-cell grid on [-1, 1], shape
    (count, len(x)): entry (j, n) is 1 when node x[n] lies in cell j.

    Each node's cell is the one PiecewisePoly finds (half-open cells), read
    against the cell edges themselves: x + 1 rounds to 1 just left of 0."""
    x = np.asarray(x, float)
    idx = np.searchsorted(np.linspace(-1.0, 1.0, count + 1)[1:-1], x, side="right")
    out = np.zeros((count, x.size))
    out[idx, np.arange(x.size)] = 1.0
    return out


#: The weighted tables of the open `shared_tables` block, or None outside one.
_TABLES: ContextVar[dict | None] = ContextVar("projection_tables", default=None)


@contextmanager
def shared_tables():
    """Share weighted per-axis tables among the projections made in the block.

    A table is keyed by its basis, the domain, the completed rule, the axis
    and the degree or cell count, never by array identity, so projections
    of several orders on one grid at one size build each table once.  The
    tables are dropped when the block ends.  A projection made outside any
    block opens one for its own length; a block opened inside another
    shares the outer block's tables.  The block's value is the dict of
    tables."""
    tables = _TABLES.get()
    if tables is not None:
        yield tables
        return
    token = _TABLES.set({})
    try:
        # no local names the dict, so a traceback through this frame
        # does not keep the tables alive
        yield _TABLES.get()
    finally:
        _TABLES.reset(token)


# --------------------------------------------------------- order-gamma driver


def _project_traces(u: AnalyticFunction, gamma: MultiIndex, rule: QuadratureRule,
                    basis, size: MultiIndex, assemble):
    """Project every boundary trace of the order-gamma expansion and
    reassemble.  A trace's values on the grid of its active axes are
    contracted with one table per active axis i, basis(size[i], nodes)
    times the weights; `assemble(coeffs, active)` returns the projected
    trace extended to the full cube (a constant for vertex traces)."""
    if not leq(gamma, u.delta):
        raise ValueError(f"projection order {gamma} exceeds smoothness {u.delta}")
    if u.domain != HyperRect.cube(u.domain.ndim):
        raise ValueError("trace projections assume the standard hypercube")
    axes, weights = grid_quadrature(u.domain, rule)
    entries = {}
    with shared_tables() as tables:

        def table(i):
            key = (basis, u.domain, rule, i, size[i])
            if key not in tables:
                t = basis(size[i], axes[i])
                t *= weights[i]  # in place: one table alive, not two
                tables[key] = t
            return tables[key]

        for alpha in multiindex_range(gamma):
            trace = u.boundary_trace(alpha, gamma)
            act = trace.active
            weighted = [table(i).T for i in act]
            coeffs = contract_axes(trace.eval_grid([axes[i] for i in act]), weighted)
            entries[alpha] = assemble(coeffs, act)
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
    return _project_traces(u, gamma, rule_for(u, rule), legendre_values, degree,
                           lambda coeffs, act: LegendreSeries(coeffs).extend(act, nd))


def sobolev_project_step(u: AnalyticFunction, gamma, counts,
                         rule: QuadratureRule) -> PiecewisePoly:
    """Order-gamma approximant from cell-averaged boundary traces: a
    piecewise polynomial of degree at most gamma per axis on the cell grid.
    The rule gets u's splits and grading and the cell edges from `rule_for`."""
    nd = u.domain.ndim
    gamma = as_multiindex(gamma, ndim=nd)
    counts = as_multiindex(counts, ndim=nd)
    rule = rule_for(u, rule, extra_splits=cell_edges(counts, nd))

    def assemble(sums, act):
        # cell averages on the active axes, one cell along the pinned ones
        face_counts = tuple(counts[i] if i in act else 1 for i in range(nd))
        volume = math.prod(2.0 / counts[i] for i in act)
        return PiecewisePoly.from_cell_values(
            u.domain, cell_edges(face_counts, nd), (sums / volume).reshape(face_counts))

    return _project_traces(u, gamma, rule, step_values, counts, assemble)


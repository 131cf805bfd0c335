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
that sums each cell's weighted nodes.  A vertex trace has no active axis,
so both projections return its value unchanged.

``legendre_trace_bundles`` and ``step_trace_bundles`` project the traces
of several orders in one pass: a sweep makes one such call per parameter,
so each node's table column is built once for every order at that
parameter.  The pass walks each axis in blocks of nodes and keeps one
block of a table alive, never the whole table of a long axis; the
approximants are the ``reconstruct`` of each order's bundle.
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
from .quadrature import QuadratureRule, grid_quadrature, rule_for


def cell_edges(counts, ndim: int) -> tuple[tuple[float, ...], ...]:
    """Interior edges of the uniform cell grid on the standard hypercube;
    every axis needs at least one cell."""
    counts = as_multiindex(counts, ndim=ndim)
    if min(counts) < 1:
        raise ValueError(f"cell counts must be >= 1, got {counts}")
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


#: Entries of one weighted table block, 2**20 float64 values (8 MB).  A
#: projection walks the nodes of an axis in blocks of at most
#: 2**20 // (size + 1) nodes, so its memory does not grow with the node
#: count: on fig1's degree-256 rule (21,120 nodes) a whole table would be
#: 257 x 21,120 entries, 43 MB.
_BLOCK_ENTRIES = 2**20


# ------------------------------------------------------- one-pass projection


def _project_traces(u: AnalyticFunction, orders, rule: QuadratureRule,
                    basis, size: MultiIndex, assemble) -> dict:
    """Project every boundary trace of the expansion of each order in
    `orders` in one pass and return {gamma: PolyTraceBundle}.

    A trace's values on the grid of its active axes are contracted with one
    table per active axis i, basis(size[i], nodes) times the weights.  The
    traces of all orders are grouped by their first active axis i; each
    group walks axis i in blocks of at most _BLOCK_ENTRIES // (size[i] + 1)
    nodes, and each trace adds the contraction of its grid's rows in the
    block with the block's table and the whole tables of its other active
    axes to its coefficients, in block order.  A group's grids are read just
    before its walk and dropped after it, and a block is dropped before the
    next is built.  An axis that fits in one block takes its whole table,
    built once per call and shared by every trace that reads the axis.
    `assemble(coeffs, active)` returns the projected trace extended to the
    full cube (a constant for vertex traces)."""
    nd = u.domain.ndim
    orders = [as_multiindex(g, ndim=nd) for g in orders]
    if above := [g for g in orders if not leq(g, u.delta)]:
        raise ValueError(f"projection order {above[0]} exceeds smoothness {u.delta}")
    if u.domain != HyperRect.cube(nd):
        raise ValueError("trace projections assume the standard hypercube")
    axes, weights = grid_quadrature(u.domain, rule)
    traces = [(gamma, u.boundary_trace(alpha, gamma))
              for gamma in orders for alpha in multiindex_range(gamma)]
    whole = {}  # axis -> its weighted table over every node, until its group is done

    def weighted(i, blk=slice(None)):
        t = basis(size[i], axes[i][blk])
        t *= weights[i][blk]  # in place: one table alive, not two
        return t

    def table(i):
        if i not in whole:
            whole[i] = weighted(i)
        return whole[i]

    coeffs = {n: t.eval_grid([]) for n, (_, t) in enumerate(traces) if not t.active}
    for i in range(nd):
        group = {n: t for n, (_, t) in enumerate(traces) if t.active[:1] == (i,)}
        if group:
            grids = {n: t.eval_grid([axes[k] for k in t.active]) for n, t in group.items()}
            step = max(1, _BLOCK_ENTRIES // (size[i] + 1))
            for start in range(0, len(axes[i]), step):
                blk = slice(start, start + step)
                block = table(i) if step >= len(axes[i]) else weighted(i, blk)
                for n, t in group.items():
                    part = contract_axes(grids[n][blk],
                                         [block.T] + [table(k).T for k in t.active[1:]])
                    if n in coeffs:
                        coeffs[n] += part
                    else:
                        coeffs[n] = part
                del block
            del grids
        whole.pop(i, None)  # every later group's active axes come after i
    bundles = {}
    for n, (gamma, t) in enumerate(traces):
        bundles.setdefault(gamma, {})[t.alpha] = assemble(coeffs.pop(n), t.active)
    return {gamma: PolyTraceBundle(gamma, entries) for gamma, entries in bundles.items()}


def legendre_trace_bundles(u: AnalyticFunction, orders, degree,
                           rule: QuadratureRule) -> dict:
    """{gamma: PolyTraceBundle} for each order in `orders`: every boundary
    trace of the order-gamma expansion projected onto Legendre polynomials
    of (face-restricted) degree `degree`, all orders in one pass over the
    quadrature nodes.  The rule is completed with u's splits and grading
    by `rule_for(u, rule)`."""
    nd = u.domain.ndim
    degree = as_multiindex(degree, ndim=nd)
    return _project_traces(u, orders, rule_for(u, rule), legendre_values, degree,
                           lambda coeffs, act: LegendreSeries(coeffs).extend(act, nd))


def step_trace_bundles(u: AnalyticFunction, orders, counts, rule: QuadratureRule) -> dict:
    """{gamma: PolyTraceBundle} for each order in `orders`: every boundary
    trace of the order-gamma expansion averaged over the cells of the
    uniform `counts` grid on its active axes, all orders in one pass.  The
    rule gets u's splits and grading and the cell edges from `rule_for`."""
    nd = u.domain.ndim
    counts = as_multiindex(counts, ndim=nd)
    rule = rule_for(u, rule, extra_splits=cell_edges(counts, nd))

    def assemble(sums, act):
        # cell averages on the active axes, one cell along the pinned ones
        face_counts = tuple(counts[i] if i in act else 1 for i in range(nd))
        volume = math.prod(2.0 / counts[i] for i in act)
        return PiecewisePoly.from_cell_values(
            u.domain, cell_edges(face_counts, nd), (sums / volume).reshape(face_counts))

    return _project_traces(u, orders, rule, step_values, counts, assemble)


def sobolev_project_legendre(u: AnalyticFunction, gamma, degree,
                             rule: QuadratureRule) -> LegendreSeries:
    """Order-gamma approximant: project each boundary trace onto Legendre
    polynomials of (face-restricted) degree `degree`, then reassemble.

    The result is a polynomial of degree at most degree + gamma per axis.
    At order zero this is the plain L2 Legendre projection of u.  The rule
    is completed with u's splits and grading by `rule_for(u, rule)`.
    """
    (bundle,) = legendre_trace_bundles(u, [gamma], degree, rule).values()
    return reconstruct(bundle)


def sobolev_project_step(u: AnalyticFunction, gamma, counts,
                         rule: QuadratureRule) -> PiecewisePoly:
    """Order-gamma approximant from cell-averaged boundary traces: a
    piecewise polynomial of degree at most gamma per axis on the cell grid.
    The rule gets u's splits and grading and the cell edges from `rule_for`."""
    (bundle,) = step_trace_bundles(u, [gamma], counts, rule).values()
    return reconstruct(bundle)

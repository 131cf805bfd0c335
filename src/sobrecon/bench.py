"""Convergence sweeps over projection degree / cell count, with slope fits.

Reproduces the four convergence experiments: Legendre and step-function
approximation of the 1-D quintic-smoothness target and of the 2-D tensor
target, with errors recorded in the L2 norm, the mixed-smoothness norm at
the target's full order, and the isotropic Sobolev norm.  Results are
emitted as CSV (param, l2_error, s_error, w_error, runtime_s), one file per
(example, method, order) combination.

A sweep runs every order at one parameter before it moves to the next
parameter.  At a fixed parameter all orders project on the same quadrature
grid at the same degree or cell count, so one ``trace_bundles`` call
projects the traces of every order in one pass over the nodes; each
order's approximant is then reconstructed and measured on its own, and
dropped before the next order's.
"""

from __future__ import annotations

import csv
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .analytic import AnalyticFunction
from .core import as_multiindex, leq, multiindex_range
from .expansion import PolyTraceBundle, reconstruct
from .piecewise import PiecewisePoly
from .projection import legendre_trace_bundles, step_trace_bundles
from .quadrature import QuadratureRule, error_components, rule_for
from .verify import CheckResult


@dataclass
class SweepResult:
    """Errors of one sweep over a parameter list."""

    params: list[int]
    l2: list[float]
    s: list[float]
    w: list[float]
    runtime: list[float]
    failures: list[tuple[int, str]] = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["param", "l2_error", "s_error", "w_error", "runtime_s"])
            for row in zip(self.params, self.l2, self.s, self.w, self.runtime):
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])

    def column(self, norm: str) -> list[float]:
        try:
            return {"l2": self.l2, "s": self.s, "w": self.w}[norm]
        except KeyError:
            raise ValueError(f"unknown norm {norm!r}; use l2, s, or w") from None

    def ratio(self, norm: str) -> float:
        """Last error over first error (drop of the curve across the sweep);
        a first error of 0 has no ratio and raises ValueError."""
        col = self.column(norm)
        if col[0] == 0.0:
            raise ValueError("first error is 0, last/first is undefined")
        return col[-1] / col[0]


def error_norms(u: AnalyticFunction, approx, rule) -> tuple[float, float, float]:
    """(L2, mixed, isotropic) error norms at the target's order u.delta, in
    one quadrature pass."""
    comp = error_components(u, approx, multiindex_range(u.delta), u.domain, rule)
    zero = (0,) * u.domain.ndim
    cap = max(u.delta)  # the isotropic norm reads the simplex |alpha|_1 <= max(delta)
    l2 = math.sqrt(max(comp[zero], 0.0))
    s = math.sqrt(max(sum(comp.values()), 0.0))
    w = math.sqrt(max(sum(v for a, v in comp.items() if sum(a) <= cap), 0.0))
    return l2, s, w


def _exact_nodes(q: int) -> int:
    """Gauss nodes per panel exact to degree q: n reach 2n - 1, a rule takes >= 2."""
    return max(2, (q + 2) // 2)


def norm_rule(u: AnalyticFunction, approx) -> QuadratureRule:
    """Quadrature rule for the error norms of `approx` against `u`, split at
    the approximant's cell edges (`approx.breaks` of a piecewise polynomial;
    a Legendre series has none).  When `u` declares `piece_degree`,
    (D^alpha (u - approx))^2 is a polynomial of degree at most
    2 * max(deg u, deg approx) on each cell of the common refinement, so one
    panel per cell with the nodes exact to that degree integrates it exactly
    up to rounding.  Other targets get a flat 16-node rule on 32 (1-D) or 16
    (otherwise) baseline panels per axis."""
    splits = approx.breaks if isinstance(approx, PiecewisePoly) else None
    if u.piece_degree is not None:
        nodes = _exact_nodes(2 * max(max(u.piece_degree), max(approx.degree)))
        return rule_for(u, QuadratureRule(nodes=nodes, panels=1), extra_splits=splits)
    panels = 32 if u.domain.ndim == 1 else 16
    return rule_for(u, QuadratureRule(panels=panels), extra_splits=splits)


#: The least parameter of each sweep method: a Legendre degree, a step cell count.
SWEEP_METHODS = {"legendre": 0, "step": 1}


def check_sweep(method: str, params):
    """Refuse an unknown method, an empty or not strictly increasing
    parameter list, or a parameter below the method's least."""
    if not params:
        raise ValueError("need at least one parameter value")
    if any(b >= a for a, b in zip(params[1:], params[:-1])):
        raise ValueError("parameter values must increase strictly")
    if method not in SWEEP_METHODS:
        raise ValueError(f"unknown method {method!r}; use one of {sorted(SWEEP_METHODS)}")
    if below := [p for p in params if p < SWEEP_METHODS[method]]:
        raise ValueError(f"a {method} sweep needs parameters >= {SWEEP_METHODS[method]}, "
                         f"got {below}")


def trace_bundles(u: AnalyticFunction, method: str, orders, param: int) -> dict:
    """{gamma: PolyTraceBundle} of every order in `orders` at one sweep
    parameter, projected in one pass.  Legendre reads max(16, param + 8)
    Gauss nodes on 4 panels per axis.  A step projection of a target that
    declares `piece_degree` reads one panel per cell and breakpoint segment,
    exact to degree max(piece_degree), the most a trace of D^alpha u has
    there, so its cell averages are exact up to rounding; other targets'
    step projections read 16 nodes on 4 panels."""
    check_sweep(method, [param])
    size = (int(param),) * u.domain.ndim
    if method == "legendre":
        rule = QuadratureRule(nodes=max(16, param + 8), panels=4)
        return legendre_trace_bundles(u, orders, size, rule)
    rule = (QuadratureRule(nodes=16, panels=4) if u.piece_degree is None
            else QuadratureRule(nodes=_exact_nodes(max(u.piece_degree)), panels=1))
    return step_trace_bundles(u, orders, size, rule)


def approximant(u: AnalyticFunction, method: str, gamma, param: int):
    """The order-`gamma` projection of `u` at one sweep parameter, on the
    rule `trace_bundles` reads."""
    (bundle,) = trace_bundles(u, method, [gamma], param).values()
    return reconstruct(bundle)


def bundle_errors(u: AnalyticFunction, bundle: PolyTraceBundle) -> tuple[float, float, float]:
    """(L2, mixed, isotropic) error norms of the approximant that `bundle`
    reconstructs; the approximant is dropped when they are read."""
    approx = reconstruct(bundle)
    return error_norms(u, approx, norm_rule(u, approx))


def sweep_point(u: AnalyticFunction, method: str, gamma, param: int):
    """Build one approximant and return (l2, s, w, runtime_seconds)."""
    start = time.perf_counter()
    (bundle,) = trace_bundles(u, method, [gamma], param).values()
    return (*bundle_errors(u, bundle), time.perf_counter() - start)


def _check_orders(u: AnalyticFunction, orders) -> list:
    """The sweep's orders as multi-indices: refuse an empty list, an order
    that is not a sequence (a bare (0,) is one order, not the list of
    orders [0]), and an order above u's smoothness."""
    orders = list(orders)
    if not orders:
        raise ValueError("need at least one projection order")
    if bare := [g for g in orders if isinstance(g, str) or not isinstance(g, Sequence)]:
        raise ValueError(f"each projection order must be a sequence such as (0,), "
                         f"got {bare}")
    orders = [as_multiindex(g, ndim=u.domain.ndim) for g in orders]
    if above := [g for g in orders if not leq(g, u.delta)]:
        raise ValueError(f"projection order {above[0]} exceeds smoothness {u.delta}")
    return orders


def run_sweep(u: AnalyticFunction, method: str, orders, params) -> dict:
    """Sweep the approximation parameter at every order in `orders` and
    return {order: SweepResult}.

    Parameters are the outer loop.  At each parameter one `trace_bundles`
    call projects every order's traces; then each order's approximant is
    reconstructed and its error norms read, one order at a time.  The
    runtime of the first order at a parameter includes the shared
    projection.  Failures are recorded and the sweep continues with NaN
    entries: a failed projection for every order at that parameter, a
    failed reconstruction or norm for its order alone.  A method, parameter
    list or order that no point could run with is refused before any point
    runs."""
    orders = _check_orders(u, orders)
    params = [int(p) for p in params]
    check_sweep(method, params)

    results = {g: SweepResult(list(params), [], [], [], []) for g in orders}

    def record(result, row):
        for column, value in zip((result.l2, result.s, result.w, result.runtime), row):
            column.append(value)

    def fail(result, param, exc):
        result.failures.append((param, f"{type(exc).__name__}: {exc}"))
        record(result, (math.nan,) * 4)

    for param in params:
        start = time.perf_counter()
        try:
            bundles = trace_bundles(u, method, orders, param)
        except Exception as exc:  # noqa: BLE001 - failures are data here
            for result in results.values():
                fail(result, param, exc)
            continue
        for gamma, result in results.items():
            try:
                errors = bundle_errors(u, bundles.pop(gamma))
            except Exception as exc:  # noqa: BLE001
                fail(result, param, exc)
            else:
                record(result, (*errors, time.perf_counter() - start))
            start = time.perf_counter()
    return results


def fit_slope(result: SweepResult, norm: str = "l2", window=None) -> float:
    """Least-squares slope of log(error) against log(param).

    `window` restricts the fit to params in [window[0], window[1]]; at least
    three points with strictly positive errors are required."""
    errors = result.column(norm)
    pairs = [
        (p, e) for p, e in zip(result.params, errors)
        if window is None or window[0] <= p <= window[1]
    ]
    if len(pairs) < 3:
        raise ValueError(f"window {window} keeps only {len(pairs)} points; need >= 3")
    if any((not math.isfinite(e)) or e <= 0.0 for _, e in pairs):
        raise ValueError(f"window {window} contains zero/invalid errors")
    x = np.log([p for p, _ in pairs])
    y = np.log([e for _, e in pairs])
    return float(np.polyfit(x, y, 1)[0])


# ------------------------------------------------------------ figure presets

#: Each figure's sweep and its criteria, one row per printed line:
#: ("slope", gamma, norm, target, tol) fits the errors at the parameters in
#: `window` and wants |slope - target| <= tol; ("drop", gamma, norm) wants
#: last/first error < 1 and ("hold", gamma, norm) wants it >= 0.5;
#: ("exact", gamma, norm, K) wants an error <= 1e-12 at parameter K.
FIGURES = {
    "fig1": dict(example="example1-1d", method="legendre",
                 gammas=[(0,), (1,), (3,), (5,)],
                 params=[2, 4, 8, 16, 32, 64, 128, 256], window=(16, 256),
                 criteria=[("slope", (0,), "l2", -5.0, 0.5),
                           ("slope", (5,), "l2", -5.0, 0.5),
                           ("slope", (5,), "s", -0.25, 0.15),
                           ("hold", (0,), "s")]),
    "fig2": dict(example="example1-1d", method="step",
                 gammas=[(0,), (1,), (3,), (5,)],
                 params=[2, 4, 8, 16, 32, 64, 128, 256], window=(16, 256),
                 criteria=[("slope", (0,), "l2", -1.0, 0.3),
                           ("slope", (1,), "l2", -2.0, 0.4),
                           ("slope", (3,), "l2", -2.0, 0.4),
                           ("slope", (5,), "l2", -2.0, 0.4),
                           ("drop", (5,), "s"),
                           ("hold", (0,), "s"), ("hold", (1,), "s"), ("hold", (3,), "s")]),
    "fig3": dict(example="example2-2d", method="legendre",
                 gammas=[(0, 0), (1, 1), (2, 2), (3, 3)],
                 params=[2, 4, 8, 16, 32], window=(2, 32),
                 criteria=[("slope", (0, 0), "l2", -3.0, 0.6),
                           ("slope", (1, 1), "l2", -3.0, 0.6),
                           ("slope", (2, 2), "l2", -3.0, 0.6),
                           ("slope", (3, 3), "l2", -3.0, 0.6),
                           ("drop", (2, 2), "s"), ("drop", (3, 3), "s"),
                           ("hold", (0, 0), "s"), ("hold", (1, 1), "s")]),
    "fig4": dict(example="example2-2d", method="step",
                 gammas=[(0, 0), (1, 1), (2, 2), (3, 3)],
                 params=[2, 4, 8, 16, 32, 64],
                 criteria=[("exact", (3, 3), "l2", 4), ("exact", (3, 3), "s", 4)]),
}


def check_figure_params(figure: str, params):
    """Refuse a parameter list the figure's criteria cannot be read from:
    fewer than three parameters in the window of a slope row, or no point
    K of an exact row, so that the refusal comes before any point runs."""
    preset = FIGURES[figure]
    for kind, _, _, *arg in preset["criteria"]:
        if kind == "slope":
            lo, hi = preset["window"]
            inside = [p for p in params if lo <= p <= hi]
            if len(inside) < 3:
                raise ValueError(f"{figure}'s slope criteria fit the parameters in "
                                 f"[{lo}, {hi}] and need at least 3 there, got {inside}")
        if kind == "exact" and arg[0] not in params:
            raise ValueError(f"{figure}'s exact-recovery criteria read K={arg[0]}, "
                             f"which {list(params)} does not contain")


def _criterion(figure: str, row, sweeps: dict) -> CheckResult:
    """The pass/fail line of one criteria row of `figure`.  A slope row
    whose window holds a failed or zero error, and a ratio row whose first
    error is 0, fail with the reason fit_slope or ratio gives."""
    kind, gamma, norm, *arg = row
    result = sweeps[gamma]
    if kind == "exact":
        (k,) = arg
        err = result.column(norm)[result.params.index(k)]
        return CheckResult(f"{figure} exact recovery at K={k} ({norm.upper()})",
                           err <= 1e-12, f"error {err:.2e}, want <= 1e-12")
    label = {"slope": "slope", "drop": "decreasing", "hold": "non-decreasing"}[kind]
    name = f"{figure} {norm.upper()} {label} gamma={gamma[0] if len(gamma) == 1 else gamma}"
    try:
        value = (fit_slope(result, norm, FIGURES[figure]["window"]) if kind == "slope"
                 else result.ratio(norm))
    except ValueError as exc:
        return CheckResult(name, False, str(exc))
    if kind == "slope":
        target, tol = arg
        return CheckResult(name, abs(value - target) <= tol,
                           f"slope {value:+.3f}, want {target:+g} +- {tol:g}")
    if kind == "drop":
        return CheckResult(name, value < 1.0, f"last/first {value:.3g}, want < 1")
    return CheckResult(name, value >= 0.5, f"last/first {value:.3g}, want >= 0.5")


def figure_criteria(figure: str, sweeps: dict) -> list[CheckResult]:
    """Pass/fail lines for one figure's sweeps (keyed by gamma), one per row
    of its `criteria`."""
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; have {sorted(FIGURES)}")
    return [_criterion(figure, row, sweeps) for row in FIGURES[figure]["criteria"]]

"""Seeded property suites: roundtrip, identity, and optimality checks.

These are the machine-checkable consequences of the reconstruction theory:
trace extraction and reconstruction invert each other exactly on piecewise
polynomials, the one-axis integration identity holds coefficientwise, the
fundamental-theorem special case round-trips, reconstruction is linear with
an empirically bounded norm ratio, and the projections cannot be improved
by small perturbations inside their subspaces.

Each check returns a CheckResult so the CLI and the test suite share one
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import projection
from .core import HyperRect, as_multiindex, face_spec, multiindex_range
from .expansion import (
    PolyTraceBundle,
    extract_traces_poly,
    fund_int_pair,
    reconstruct,
)
from .piecewise import PiecewisePoly, coeff_distance
from .quadrature import QuadratureRule, dc_error, l2_error, rule_for, sobolev_error
from .targets import get_example

ROUNDTRIP_CONFIGS = (
    (1, (2,)),
    (1, (3,)),
    (2, (2, 1)),
    (2, (3, 3)),
    (3, (1, 2, 1)),
    (3, (2, 1, 3)),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}" + (f" ({self.detail})" if self.detail else "")


# ------------------------------------------------------------- random inputs


def random_domain(rng: np.random.Generator, ndim: int) -> HyperRect:
    lo = rng.uniform(-2.0, 0.5, size=ndim)
    hi = lo + rng.uniform(0.5, 2.5, size=ndim)
    return HyperRect(tuple(lo), tuple(hi))


def random_tensor_poly(rng: np.random.Generator, domain: HyperRect, degrees,
                       breaks_per_axis=None) -> PiecewisePoly:
    nd = domain.ndim
    degrees = as_multiindex(degrees, ndim=nd)
    breaks_per_axis = breaks_per_axis or (0,) * nd
    breaks = []
    for i, n in enumerate(breaks_per_axis):
        if n:
            pts = np.sort(rng.uniform(domain.lo[i], domain.hi[i], size=n))
        else:
            pts = np.array([])
        breaks.append(pts)
    cells = tuple(n + 1 for n in breaks_per_axis)
    coeffs = rng.standard_normal(cells + tuple(d + 1 for d in degrees))
    return PiecewisePoly(domain, tuple(breaks), coeffs)


def random_trace_bundle(rng: np.random.Generator, order, domain: HyperRect,
                        degree: int = 2, breaks_per_axis: int = 1) -> PolyTraceBundle:
    """Random bundle: each trace varies (with optional breaks) only on the
    active axes of its face."""
    order = as_multiindex(order)
    entries = {}
    for alpha in multiindex_range(order):
        face = face_spec(alpha, order)
        degs = tuple(degree if b == 0 else 0 for b in face)
        nbr = tuple(
            (int(rng.integers(0, breaks_per_axis + 1)) if b == 0 else 0) for b in face
        )
        entries[alpha] = random_tensor_poly(rng, domain, degs, nbr)
    return PolyTraceBundle(order, entries)


# ------------------------------------------------------------------- suites


def roundtrip_suite(seed: int = 42, trials: int = 100) -> list[CheckResult]:
    """Forward (function -> traces -> function) and inverse (bundle ->
    function -> bundle) roundtrips, exact to 1e-10, over all configurations."""
    results = []
    tol = 1e-10
    for ndim, delta in ROUNDTRIP_CONFIGS:
        rng = np.random.default_rng(seed + 17 * ndim + sum(delta))
        worst_fwd = worst_inv = 0.0
        for _ in range(trials):
            domain = random_domain(rng, ndim)
            degrees = tuple(d + 2 for d in delta)
            u = random_tensor_poly(rng, domain, degrees)
            again = reconstruct(extract_traces_poly(u, delta))
            worst_fwd = max(worst_fwd, coeff_distance(u, again))

            bundle = random_trace_bundle(rng, delta, domain)
            back = extract_traces_poly(reconstruct(bundle), delta)
            for alpha in multiindex_range(delta):
                worst_inv = max(
                    worst_inv,
                    coeff_distance(bundle.entries[alpha], back.entries[alpha]),
                )
        results.append(CheckResult(
            f"roundtrip-forward N={ndim} delta={delta}",
            worst_fwd <= tol, f"max coeff err {worst_fwd:.2e}"))
        results.append(CheckResult(
            f"roundtrip-inverse N={ndim} delta={delta}",
            worst_inv <= tol, f"max coeff err {worst_inv:.2e}"))
    return results


def identity_suite(seed: int = 42, trials: int = 20) -> list[CheckResult]:
    """One-axis integration identity, fundamental-theorem roundtrip,
    linearity, and the empirical norm-ratio bound of reconstruction."""
    results = []
    tol = 1e-10
    rng = np.random.default_rng(seed)

    # Inputs respect the identity's premise: below top order the trace lives
    # on the pinned face, i.e. is constant along the operator axis; only the
    # top-order trace varies (and may jump) along it.
    worst = 0.0
    for top in range(0, 5):
        for k in range(0, top + 1):
            for _ in range(trials):
                ndim = int(rng.integers(1, 3))
                domain = random_domain(rng, ndim)
                at_top = k == top and top > 0
                degs = (3 if at_top else 0,) + (2,) * (ndim - 1)
                nbr = (int(rng.integers(0, 3)) if at_top else 0,) + tuple(
                    int(rng.integers(0, 2)) for _ in range(ndim - 1))
                v = random_tensor_poly(rng, domain, degs, nbr)
                lhs, rhs = fund_int_pair(k, top, v)
                worst = max(worst, coeff_distance(lhs, rhs))
    results.append(CheckResult(
        "fund-int identity (k <= top <= 4)", worst <= tol, f"max coeff err {worst:.2e}"))

    worst = 0.0
    for ndim in (1, 2, 3):
        for axis in range(ndim):
            delta = tuple(1 if i == axis else 0 for i in range(ndim))
            for _ in range(trials):
                domain = random_domain(rng, ndim)
                nbr = tuple(0 if i == axis else int(rng.integers(0, 3)) for i in range(ndim))
                u = random_tensor_poly(rng, domain, (2,) * ndim, nbr)
                again = reconstruct(extract_traces_poly(u, delta))
                worst = max(worst, coeff_distance(u, again))
    results.append(CheckResult(
        "fundamental-theorem roundtrip (delta = e_k)", worst <= tol,
        f"max coeff err {worst:.2e}"))

    worst = 0.0
    for ndim, delta in ((1, (2,)), (2, (2, 1))):
        for _ in range(trials):
            domain = random_domain(rng, ndim)
            b1 = random_trace_bundle(rng, delta, domain)
            b2 = random_trace_bundle(rng, delta, domain)
            lam = float(rng.uniform(-2, 2))
            lhs = reconstruct(b1 + b2.scaled(lam))
            rhs = reconstruct(b1) + lam * reconstruct(b2)
            worst = max(worst, coeff_distance(lhs, rhs))
    results.append(CheckResult(
        "reconstruction linearity", worst <= tol, f"max coeff err {worst:.2e}"))

    ratios = []
    for ndim, delta in ((1, (3,)), (2, (2, 2))):
        for _ in range(trials):
            domain = random_domain(rng, ndim)
            b = random_trace_bundle(rng, delta, domain)
            u = reconstruct(b)
            bn = b.norm()
            if bn == 0.0:
                continue
            un = sobolev_error(u, None, delta, domain, QuadratureRule(nodes=8, panels=4))
            ratios.append(un / bn)
    bound = max(ratios)
    results.append(CheckResult(
        "norm ratio empirically bounded", np.isfinite(bound) and bound < 1e3,
        f"max ||recon||_S / ||b|| = {bound:.3g}"))

    worst = 0.0
    for ndim, delta in ((1, (2,)), (2, (2, 1))):
        for _ in range(trials):
            domain = random_domain(rng, ndim)
            b = random_trace_bundle(rng, delta, domain)
            u = reconstruct(b)
            exact = b.norm()
            got = extract_traces_poly(u, delta).norm()
            worst = max(worst, abs(got - exact) / max(exact, 1.0))
    results.append(CheckResult(
        "trace-norm roundtrip", worst <= tol, f"max rel err {worst:.2e}"))

    return results


def optimality_suite(seed: int = 42, trials: int = 50) -> list[CheckResult]:
    """Perturbation non-improvement of the L2 projections (Legendre and
    step) and of the trace-space projection in the discrete-continuous norm.

    First-order optimality over a finite-dimensional subspace is equivalent
    to non-improvement under perturbations within it, so each check nudges
    the projection by eps * q for random subspace directions q."""
    results = []
    slack = 1e-12
    epsilons = (-1e-1, -1e-3, 1e-3, 1e-1)
    rng = np.random.default_rng(seed)

    u1 = get_example("example1-1d")
    dom1 = u1.domain

    def perturbation_check(name, error, best, draw) -> CheckResult:
        # one draw per trial, then every eps: the order of the seeded stream
        base = error(best)
        worst = max((base - error(best + eps * q)
                     for q in (draw() for _ in range(trials)) for eps in epsilons),
                    default=-np.inf)
        return CheckResult(name, worst <= slack, f"max improvement {worst:.2e}")

    # L2 optimality of the Legendre projection, degree 8
    d = (8,)
    proj_rule = rule_for(u1, QuadratureRule(nodes=d[0] + 8, panels=4))
    results.append(perturbation_check(
        "L2 optimality of Legendre projection",
        lambda g: l2_error(u1, g, dom1, proj_rule),
        projection.sobolev_project_legendre(u1, (0,), d, proj_rule),
        lambda: projection.random_legendre_poly(rng, d)))

    # L2 optimality of the step projection, 16 cells
    cells = (16,)
    edges = projection.cell_edges(cells, 1)
    step_rule = rule_for(u1, extra_splits=edges)
    results.append(perturbation_check(
        "L2 optimality of step projection",
        lambda g: l2_error(u1, g, dom1, step_rule),
        projection.sobolev_project_step(u1, (0,), cells, step_rule),
        lambda: PiecewisePoly.from_cell_values(dom1, edges, rng.standard_normal(cells))))

    # dc-norm optimality of the order-gamma trace projection, perturbing
    # within the polynomials of degree d + gamma
    gamma, d = (5,), (6,)
    proj_rule = rule_for(u1, QuadratureRule(nodes=d[0] + 14, panels=4))
    dplus = tuple(a + b for a, b in zip(d, gamma))
    results.append(perturbation_check(
        "dc-norm optimality of trace projection",
        lambda g: dc_error(u1, g, gamma, dom1, proj_rule),
        projection.sobolev_project_legendre(u1, gamma, d, proj_rule),
        lambda: projection.random_legendre_poly(rng, dplus)))

    return results


SUITES = {
    "roundtrip": roundtrip_suite,
    "identities": identity_suite,
    "optimality": optimality_suite,
}


def run_suite(name: str, seed: int = 42, trials: int | None = None) -> list[CheckResult]:
    if trials is not None and trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    names = list(SUITES) if name == "all" else [name]
    results = []
    for n in names:
        if n not in SUITES:
            raise KeyError(f"unknown suite {n!r}; have {sorted(SUITES)} or 'all'")
        kwargs = {"seed": seed}
        if trials is not None:
            kwargs["trials"] = trials
        results.extend(SUITES[n](**kwargs))
    return results

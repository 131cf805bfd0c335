"""Built-in approximation targets used by the convergence experiments.

``example1``: a univariate quintic-smoothness function whose fifth
derivative has an inverse-fourth-root singularity at the origin (so the
sixth derivative is not square-integrable).

``example2``: the bivariate tensor square w(x, y) = v(x) v(y) of a C^2
piecewise cubic whose third derivative is a step function on cells of
width 1/2: mixed smoothness order (3, 3), with the top mixed derivative
piecewise constant on a 4 x 4 grid.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

from .analytic import AnalyticFunction
from .core import HyperRect, as_multiindex, multiindex_range
from .piecewise import PiecewisePoly

# ----------------------------------------------------------------- example 1

_P1 = Polynomial([-413 / 1140, 29 / 90, -3 / 55, 17 / 210, 1 / 36])
_C1 = 512.0 / 65835.0
_E1 = 19.0 / 4.0


def _horner(coef, x):
    """The polynomial with coefficients coef[0], coef[1], ... (lowest degree
    first) at x, with numpy ``polyval``'s operations in its order, so the
    bits are those of ``Polynomial(coef)(x)``: coef[-1] + x*0, then
    coef[j] + v*x.  Each coef[j] may be an array of x's shape."""
    v = coef[-1] + x * 0
    for j in range(len(coef) - 2, -1, -1):
        v = coef[j] + v * x
    return v


def _example1_derivative(k: int):
    coef = (_P1 if k == 0 else _P1.deriv(k)).coef
    factor = _C1 * math.prod(_E1 - j for j in range(k))
    exponent = _E1 - k
    signed = k % 2 == 0  # odd-symmetric tail: even-order derivatives keep sign(s)

    def ev(s, _coef=coef, _f=factor, _e=exponent, _signed=signed):
        s = np.asarray(s, float)
        mag = np.abs(s) ** _e
        tail = _f * (np.sign(s) * mag if _signed else mag)
        return _horner(_coef, s) + tail

    return ev


def example1() -> AnalyticFunction:
    """Quintic-smoothness target on [-1, 1]; fifth derivative 1/(2|s|^(1/4))."""
    return AnalyticFunction(
        domain=HyperRect.cube(1),
        delta=(5,),
        derivatives={(k,): _example1_derivative(k) for k in range(6)},
        breakpoints=((0.0,),),
        singular_points=((0.0,),),
        name="example1-1d",
    )


# ----------------------------------------------------------------- example 2

# The three cubic branches of v: left of -1/2, middle, right of +1/2.
# Chosen so v, v', v'' are continuous at +-1/2 while v''' jumps between
# +1 (outer branches) and -1 (middle branch).
_V_LEFT = Polynomial([-1 / 6, 5 / 6, 1 / 2, 1 / 6])
_V_MID = Polynomial([-5 / 24, 7 / 12, 0.0, -1 / 6])
_V_RIGHT = Polynomial([-1 / 4, 5 / 6, -1 / 2, 1 / 6])
# _V_COEFFS[k][j, b]: coefficient j of branch b (left, middle, right) of the
# k-th derivative of v.
_V_COEFFS = [np.stack([(b if k == 0 else b.deriv(k)).coef
                       for b in (_V_LEFT, _V_MID, _V_RIGHT)], axis=1)
             for k in range(4)]


def v_derivative(k: int, x):
    """k-th derivative of the piecewise cubic factor v (k <= 3).

    Each node reads one branch: the left one below -1/2, the middle one on
    the closed [-1/2, 1/2], the right one above 1/2."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= 3:
        raise ValueError(f"v has derivatives of order 0..3, got {k!r}")
    x = np.asarray(x, float)
    branch = np.add(x >= -0.5, x > 0.5, dtype=np.intp)
    return _horner(_V_COEFFS[k][:, branch], x)


def example2() -> AnalyticFunction:
    """Tensor-square target w(x, y) = v(x) v(y) on [-1, 1]^2, order (3, 3)."""

    def make(k1, k2):
        def ev(x, y, _k1=k1, _k2=k2):
            return v_derivative(_k1, x) * v_derivative(_k2, y)

        return ev

    return AnalyticFunction(
        domain=HyperRect.cube(2),
        delta=(3, 3),
        derivatives={(k1, k2): make(k1, k2) for k1 in range(4) for k2 in range(4)},
        breakpoints=((-0.5, 0.5), (-0.5, 0.5)),
        singular_points=((), ()),
        name="example2-2d",
        piece_degree=(3, 3),
    )


# ------------------------------------------------------------- random target


def random_poly_function(seed: int = 0, ndim: int = 1, delta=(2,),
                         degree_margin: int = 2) -> AnalyticFunction:
    """Random tensor polynomial on [-1, 1]^ndim wrapped as an analytic
    target (property tests)."""
    delta = as_multiindex(delta, ndim=ndim)
    domain = HyperRect.cube(ndim)
    rng = np.random.default_rng(seed)
    degrees = tuple(d + degree_margin for d in delta)
    coeffs = rng.standard_normal((1,) * ndim + tuple(d + 1 for d in degrees))
    pw = PiecewisePoly(domain, (np.array([]),) * ndim, coeffs)
    derivatives = {a: pw.mixed_derivative(a) for a in multiindex_range(delta)}
    return AnalyticFunction(
        domain=domain,
        delta=delta,
        derivatives=derivatives,
        name=f"poly-random(seed={seed})",
        piece_degree=degrees,
    )


EXAMPLES = {
    "example1-1d": example1,
    "example2-2d": example2,
    "poly-random": random_poly_function,
}


def available_examples() -> list[str]:
    return sorted(EXAMPLES)


def get_example(name: str, **kwargs) -> AnalyticFunction:
    """Look up a named example target ("example1-1d", "example2-2d",
    "poly-random")."""
    try:
        factory = EXAMPLES[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; have {sorted(EXAMPLES)}") from None
    return factory(**kwargs)

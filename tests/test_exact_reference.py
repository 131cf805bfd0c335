"""Reconstruction against an exact reference in rational arithmetic.

The reference below is plain Python on ``fractions.Fraction`` and shares no
code with sobrecon.  A piecewise polynomial is a dict from (cell, k) to its
coefficient, where cell and k are index tuples and the basis is the scaled
monomial prod_i (s_i - c_i)^k_i / k_i! about each cell's lower corner c.
The reference lifts every trace on its own cells (kernel product below top
order, continuous a-fold antiderivative at top order), re-anchors each term
onto the union of all breaks and adds the terms.

Inputs are dyadic (bounds, breaks and coefficients), so every input is
exact in float64 and the reference is the exact reconstruction of the very
bundle that sobrecon reads.  Every reference operator has nonnegative
entries (corner offsets, cell widths and binomials are all >= 0), so the
same reference run on |coefficients| gives Sigma|terms|, the magnitude of
the terms that meet in each coefficient.  Each float coefficient must lie
within C * n * u * Sigma|terms| of the exact one, with u = 2^-53 and n the
longest chain of operations on one coefficient: n = lattice size + N *
(degree + max delta + 2).

The way back is exact: D^alpha moves every coefficient alpha slots down and
the lower-face restriction keeps the first cell's slot 0 on each pinned
axis, so ``extract_traces_poly`` of a float reconstruction must equal the
reference extraction of the same coefficients, read as fractions.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from sobrecon.core import HyperRect
from sobrecon.expansion import PolyTraceBundle, extract_traces_poly, reconstruct
from sobrecon.piecewise import PiecewisePoly

UNIT = Fraction(1, 2**53)
C = 1  # the bound's constant; the worst error measured is below a tenth of it
MAX_DEGREE = 3


# ------------------------------------------------------------ the reference


def edges(lo, hi, breaks):
    return (lo,) + tuple(breaks) + (hi,)


def replace(t, axis, value):
    return t[:axis] + (value,) + t[axis + 1:]


def refine(coeffs, axis, old, new):
    """Re-anchor every piece onto the finer edges `new` along one axis."""
    by_parent, out = {}, {}
    for (cell, k), a in coeffs.items():
        by_parent.setdefault(cell[axis], []).append((cell, k, a))
    top = max(k[axis] for _, k in coeffs)
    for c_new, corner in enumerate(new[:-1]):
        parent = max(i for i, e in enumerate(old[:-1]) if e <= corner)
        h = corner - old[parent]
        taylor = [h**q / math.factorial(q) for q in range(top + 1)]  # h^q/q!
        for cell, k, a in by_parent.get(parent, ()):
            for p in range(k[axis] + 1):
                key = (replace(cell, axis, c_new), replace(k, axis, p))
                out[key] = out.get(key, 0) + a * taylor[k[axis] - p]
    return out


def kernel(coeffs, axis, kk, lo, axis_edges, binom):
    """Multiply by z^kk/kk!, z = s_axis - lo: about a corner c the kernel is
    sum_j h^(kk-j)/(kk-j)! t^j/j! with h = c - lo, and t^m/m! t^j/j! is
    binom(m+j, m) t^(m+j)/(m+j)!."""
    out = {}
    for (cell, k), a in coeffs.items():
        h = axis_edges[cell[axis]] - lo
        m = k[axis]
        for j in range(kk + 1):
            key = (cell, replace(k, axis, m + j))
            out[key] = out.get(key, 0) + a * h**(kk - j) / math.factorial(kk - j) * binom(m + j, m)
    return out


def antiderivative(coeffs, axis, axis_edges):
    """One continuous fold along the axis, zero at its lower end: index shift
    in each cell plus the integral over every cell below it."""
    out, ends = {}, {}
    for (cell, k), a in coeffs.items():
        key = (cell, replace(k, axis, k[axis] + 1))
        out[key] = out.get(key, 0) + a
        w = axis_edges[cell[axis] + 1] - axis_edges[cell[axis]]
        rest = (replace(cell, axis, 0), replace(k, axis, 0))
        per_cell = ends.setdefault(rest, {})
        per_cell[cell[axis]] = (per_cell.get(cell[axis], 0)
                                + a * w**(k[axis] + 1) / math.factorial(k[axis] + 1))
    for (cell0, k0), per_cell in ends.items():
        total = Fraction(0)
        for c in range(len(axis_edges) - 1):
            if c:
                key = (replace(cell0, axis, c), k0)
                out[key] = out.get(key, 0) + total
            total += per_cell.get(c, 0)
    return out


def reference(lo, hi, order, entries, binom=math.comb):
    """The exact sum of lifted traces on the union of all breaks; entries
    maps alpha to (breaks per axis, coefficient dict)."""
    nd = len(order)
    union = [sorted({b for br, _ in entries.values() for b in br[i]}) for i in range(nd)]
    total = {}
    for alpha, (breaks, coeffs) in entries.items():
        for i, (a, d) in enumerate(zip(alpha, order)):
            e = edges(lo[i], hi[i], breaks[i])
            if a < d:
                coeffs = kernel(coeffs, i, a, lo[i], e, binom)
            else:
                for _ in range(a):
                    coeffs = antiderivative(coeffs, i, e)
        for i in range(nd):
            if list(breaks[i]) != union[i]:
                coeffs = refine(coeffs, i, edges(lo[i], hi[i], breaks[i]),
                                edges(lo[i], hi[i], union[i]))
        for key, a in coeffs.items():
            total[key] = total.get(key, 0) + a
    return total


def derivative(coeffs, alpha, too_far=0):
    """D^alpha: slot k moves to k - alpha on every axis, and a slot below
    alpha drops out.  `too_far` moves each differentiated axis that many
    slots farther (a wrong reference, for the detector)."""
    shift = tuple(p + too_far if p else 0 for p in alpha)
    out = {}
    for (cell, k), a in coeffs.items():
        j = tuple(q - p for q, p in zip(k, shift))
        if min(j) >= 0:
            out[(cell, j)] = a
    return out


def restrict(coeffs, face):
    """Pin every axis whose face entry is -1 at its lower end: the value
    there is slot 0 of the first cell, and the axis keeps that one cell."""
    return {(cell, k): a for (cell, k), a in coeffs.items()
            if all(c == 0 and q == 0 for c, q, b in zip(cell, k, face) if b < 0)}


# ------------------------------------------------------------- the inputs


def dyadic_bundle(rng, order):
    """A random bundle with dyadic data: boxes 1/2 to 32 wide, up to two
    breaks per active axis at quarter points, degree <= MAX_DEGREE."""
    nd = len(order)
    lo = tuple(Fraction(int(rng.integers(-32, 9)), 2) for _ in range(nd))
    width = tuple(Fraction(2) ** int(rng.integers(-1, 6)) for _ in range(nd))
    hi = tuple(a + w for a, w in zip(lo, width))
    entries = {}
    for alpha in np.ndindex(*(d + 1 for d in order)):
        active = [a == d for a, d in zip(alpha, order)]
        breaks = tuple(
            tuple(sorted(lo[i] + width[i] * Fraction(int(q), 4)
                         for q in rng.choice([1, 2, 3], int(rng.integers(0, 3)), replace=False)))
            if active[i] else () for i in range(nd))
        degree = tuple(int(rng.integers(0, MAX_DEGREE + 1)) if active[i] else 0 for i in range(nd))
        shape = tuple(len(b) + 1 for b in breaks) + tuple(d + 1 for d in degree)
        values = rng.integers(-64, 65, size=shape)
        coeffs = {(idx[:nd], idx[nd:]): Fraction(int(values[idx]), 8)
                  for idx in np.ndindex(*shape)}
        entries[alpha] = (breaks, coeffs)
    return lo, hi, entries


def to_float(lo, hi, order, entries) -> PolyTraceBundle:
    nd = len(order)
    domain = HyperRect(tuple(map(float, lo)), tuple(map(float, hi)))
    polys = {}
    for alpha, (breaks, coeffs) in entries.items():
        shape = tuple(len(b) + 1 for b in breaks) + tuple(
            max(k[i] for _, k in coeffs) + 1 for i in range(nd))
        arr = np.zeros(shape)
        for (cell, k), a in coeffs.items():
            arr[cell + k] = float(a)
        polys[alpha] = PiecewisePoly(domain, tuple(np.array(b, float) for b in breaks), arr)
    return PolyTraceBundle(order, polys)


def worst_ratio(order, seed, binom=math.comb) -> float:
    """Largest |float - exact| / (n u Sigma|terms|) over one bundle's
    reconstruction; inf where an error meets a zero magnitude."""
    rng = np.random.default_rng(seed)
    lo, hi, entries = dyadic_bundle(rng, order)
    u = reconstruct(to_float(lo, hi, order, entries))
    exact = reference(lo, hi, order, entries, binom)
    magnitude = reference(lo, hi, order, {
        a: (br, {key: abs(v) for key, v in c.items()}) for a, (br, c) in entries.items()})
    assert set(exact) == set(magnitude)
    nd = len(order)
    n = math.prod(d + 1 for d in order) + nd * (MAX_DEGREE + max(order) + 2)
    worst = 0.0
    for idx in np.ndindex(*u.coeffs.shape):
        key = (idx[:nd], idx[nd:])
        err = abs(Fraction(float(u.coeffs[idx])) - exact.get(key, 0))
        if err:
            scale = n * UNIT * magnitude.get(key, 0)
            worst = max(worst, float(err / scale) if scale else math.inf)
    for key in set(exact) - {(idx[:nd], idx[nd:]) for idx in np.ndindex(*u.coeffs.shape)}:
        if exact[key]:
            return math.inf  # the float result lacks a nonzero coefficient
    return worst


CONFIGS = [((3,), range(12)), ((2, 1), range(8)), ((3, 3), range(4)), ((1, 2, 1), range(3)),
           ((2, 1, 3), range(1))]


@pytest.mark.parametrize("order, seeds", CONFIGS, ids=lambda v: str(v))
def test_reconstruction_within_rounding_of_exact(order, seeds):
    worst = max(worst_ratio(order, seed) for seed in seeds)
    assert worst <= C, f"{order}: worst error {worst:.3g} n u Sigma|terms|"


def test_detector_fails_on_a_wrong_binomial():
    # the same comparison against a reference whose kernel product uses a
    # wrong binomial must fail
    def wrong(n, k):
        return math.comb(n, k) + 1

    assert worst_ratio((2, 1), 0, wrong) > C


def fractions(poly: PiecewisePoly) -> dict:
    """The nonzero coefficients of a float polynomial as exact fractions,
    keyed (cell, k) like the reference."""
    nd = poly.ndim
    return {(idx[:nd], idx[nd:]): Fraction(float(v))
            for idx, v in np.ndenumerate(poly.coeffs) if v}


def extraction_mismatches(order, seed, too_far=0) -> list:
    """The lattice indices whose extracted trace differs from the reference
    extraction of the float reconstruction of one dyadic bundle."""
    lo, hi, entries = dyadic_bundle(np.random.default_rng(seed), order)
    u = reconstruct(to_float(lo, hi, order, entries))
    exact = fractions(u)
    bundle = extract_traces_poly(u, order)
    wrong = []
    for alpha, e in bundle.entries.items():
        face = tuple(0 if a == d else -1 for a, d in zip(alpha, order))
        want = restrict(derivative(exact, alpha, too_far), face)
        breaks = [np.array([]) if b < 0 else br for b, br in zip(face, u.breaks)]
        if fractions(e) != {k: v for k, v in want.items() if v} or not all(
                np.array_equal(x, y) for x, y in zip(e.breaks, breaks)):
            wrong.append(alpha)
    return wrong


@pytest.mark.parametrize("order, seeds", CONFIGS, ids=lambda v: str(v))
def test_extraction_equals_exact_reference(order, seeds):
    # extraction is pure slicing: no rounding, whatever the input
    for seed in seeds:
        assert extraction_mismatches(order, seed) == [], (order, seed)


def test_extraction_detector_fails_on_a_shift_too_far():
    # a reference that moves the differentiated slots one too far must fail
    assert extraction_mismatches((2, 1), 0, too_far=1)

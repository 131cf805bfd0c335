import math

import numpy as np
import pytest

from sobrecon.core import (
    HyperRect,
    active_axes,
    as_multiindex,
    contract_axes,
    face_spec,
    leq,
    multiindex_range,
)
from sobrecon.legseries import legendre_values


def test_range_order_matches_first_axis_fastest():
    assert multiindex_range((2, 1)) == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)
    ]


def test_range_identity_case():
    assert multiindex_range((0, 0, 0)) == [(0, 0, 0)]


def test_range_length_is_lattice_size():
    assert len(multiindex_range((3, 3))) == 16 == (3 + 1) * (3 + 1)
    assert len(multiindex_range((2, 0, 1))) == 6


def test_range_closed_under_componentwise_min():
    lattice = multiindex_range((2, 3, 1))
    members = set(lattice)
    for a in lattice[::3]:
        for b in lattice[::4]:
            assert tuple(map(min, a, b)) in members


@pytest.mark.parametrize(
    "alpha,delta,expected",
    [
        ((2, 1), (2, 1), (0, 0)),
        ((0, 0), (2, 1), (-1, -1)),
        ((2, 0), (2, 1), (0, -1)),
    ],
)
def test_face_spec_cases(alpha, delta, expected):
    assert face_spec(alpha, delta) == expected


def test_face_spec_rejects_incomparable():
    with pytest.raises(ValueError):
        face_spec((3, 0), (2, 1))


def test_face_spec_active_count():
    delta = (2, 1, 3)
    for alpha in multiindex_range(delta):
        face = face_spec(alpha, delta)
        expected = sum(1 for a, d in zip(alpha, delta) if a == d)
        assert len(active_axes(face)) == expected
    assert face_spec(delta, delta) == (0, 0, 0)


def test_multiindex_validation():
    assert as_multiindex(3) == (3,)
    with pytest.raises(ValueError):
        as_multiindex((1, -1))
    with pytest.raises(ValueError):
        as_multiindex(())
    with pytest.raises(ValueError):
        as_multiindex((1, 2), ndim=3)
    assert leq((0, 1), (1, 1))
    assert not leq((2, 0), (1, 5))


def test_hyperrect_validation():
    box = HyperRect((0.0, -1.0), (1.0, 1.0))
    assert box.ndim == 2
    box.check_inside(0, np.array([0.5]))
    box.check_inside(1, np.array([0.0]))
    with pytest.raises(ValueError, match="outside domain on axis 0"):
        box.check_inside(0, np.array([1.5]))
    with pytest.raises(ValueError):
        HyperRect((0.0,), (0.0,))
    assert HyperRect.cube(3).lo == (-1.0, -1.0, -1.0)


@pytest.mark.parametrize("lo, hi, axis", [
    ((math.nan,), (1.0,), 0),
    ((-math.inf,), (math.inf,), 0),
    ((0.0,), (math.inf,), 0),
    ((0.0, 0.0), (1.0, math.nan), 1),
])
def test_hyperrect_refuses_nonfinite_bounds(lo, hi, axis):
    # NaN fails every lo >= hi test, so only an explicit check refuses it
    with pytest.raises(ValueError, match=f"finite.*axis {axis}"):
        HyperRect(lo, hi)


@pytest.mark.parametrize("spec, shapes, broadcast", [
    ("->", [()], False),
    ("a,ab->b", [(5,), (5, 3)], False),
    ("a,a->", [(5,), (5,)], False),
    ("ab,ac,b->c", [(4, 3), (4, 2), (3,)], False),
    ("ab,a,bd->d", [(4, 3), (4,), (3, 2)], True),
    ("ab,ac,bd->cd", [(4, 3), (4, 5), (3, 2)], True),
    ("abc,ad,be,cf->def", [(3, 4, 2), (3, 5), (4, 1), (2, 3)], False),
    ("abc,a,be,c->e", [(3, 4, 2), (3,), (4, 6), (2,)], True),
    ("abc,a,b,c->", [(3, 4, 2), (3,), (4,), (2,)], False),
])
def test_contract_axes_matches_literal_einsum(spec, shapes, broadcast):
    # an (n, m) table keeps an axis of m entries in its place, an (n,)
    # weight vector sums its axis away; a read-only broadcast grid, as
    # grid_values returns for a function constant along an axis, reads alike
    rng = np.random.default_rng(len(spec))
    grid, *tables = (rng.standard_normal(s) for s in shapes)
    if broadcast:
        grid = np.broadcast_to(grid[:1], grid.shape)
        assert not grid.flags.writeable
    got = contract_axes(grid, tables)
    want = np.einsum(spec, grid, *tables)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_contract_axes_1d_is_one_product():
    # the 1-D projection and evaluation are single BLAS products, bit for
    # bit; fig1's rounding-dominated points depend on that summation order
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(-1.0, 1.0, 300))
    table = legendre_values(256, x)
    values, coeffs = rng.standard_normal(x.size), rng.standard_normal(257)
    assert np.array_equal(contract_axes(values, [table.T]), table @ values)
    assert np.array_equal(contract_axes(coeffs, [table]), table.T @ coeffs)

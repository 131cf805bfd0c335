import pytest

from sobrecon.core import (
    HyperRect,
    active_axes,
    as_multiindex,
    face_spec,
    lattice_size,
    leq,
    multiindex_range,
)


def test_range_order_matches_first_axis_fastest():
    assert multiindex_range((2, 1)) == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)
    ]


def test_range_identity_case():
    assert multiindex_range((0, 0, 0)) == [(0, 0, 0)]


def test_range_length_is_lattice_size():
    assert len(multiindex_range((3, 3))) == 16 == lattice_size((3, 3))


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
    assert box.widths == (1.0, 2.0)
    assert box.contains((0.5, 0.0))
    assert not box.contains((1.5, 0.0))
    with pytest.raises(ValueError):
        HyperRect((0.0,), (0.0,))
    assert HyperRect.cube(3).lo == (-1.0, -1.0, -1.0)

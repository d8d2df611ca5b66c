"""Macro geometry and placement orientation math."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srampuf.layout import Geometry, LayoutError, Orientation, apply_orientation

G = Geometry(depth=128, width=64, mux=4, speed_class="fast")


def orientation_matrix(o):
    """Row-major operator of an orientation, read off the images of the unit axes."""
    (a, c), (b, d) = apply_orientation(o, (1, 0)), apply_orientation(o, (0, 1))
    return (a, b), (c, d)


def test_geometry_derived_shape():
    assert G.cells == 8192


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(depth=0, width=64, mux=4),
        dict(depth=128, width=63, mux=4),
        dict(depth=128, width=0, mux=4),
        dict(depth=128, width=64, mux=3),
        dict(depth=130, width=64, mux=4),
        dict(depth=128, width=64, mux=4, speed_class="medium"),
    ],
)
def test_geometry_rejects_bad_shapes(kwargs):
    with pytest.raises(LayoutError):
        Geometry(**kwargs)


def test_orientation_matrices():
    assert orientation_matrix(Orientation.R0) == ((1, 0), (0, 1))
    assert orientation_matrix(Orientation.R90) == ((0, -1), (1, 0))
    assert orientation_matrix(Orientation.R270) == ((0, 1), (-1, 0))
    assert orientation_matrix(Orientation.MX) == ((1, 0), (0, -1))
    assert orientation_matrix(Orientation.MY90) == ((0, -1), (-1, 0))


def test_apply_orientation_unit_x():
    assert apply_orientation(Orientation.R0, (1, 0)) == (1, 0)
    assert apply_orientation(Orientation.R90, (1, 0)) == (0, 1)
    assert apply_orientation(Orientation.R270, (1, 0)) == (0, -1)
    assert apply_orientation(Orientation.MX, (1, 0)) == (1, 0)
    assert apply_orientation(Orientation.MY90, (1, 0)) == (0, -1)


def test_orientation_matrices_orthogonal_with_expected_determinant():
    """Rotations have det +1, mirrors det -1, and all are orthogonal."""
    dets = {
        Orientation.R0: 1,
        Orientation.R90: 1,
        Orientation.R270: 1,
        Orientation.MX: -1,
        Orientation.MY90: -1,
    }
    for o in Orientation:
        (a, b), (c, d) = orientation_matrix(o)
        assert a * d - b * c == dets[o]
        # O^T O = I, columns are orthonormal
        assert a * a + c * c == 1
        assert b * b + d * d == 1
        assert a * b + c * d == 0


@given(
    st.sampled_from(list(Orientation)),
    st.integers(min_value=-512, max_value=512),
    st.integers(min_value=-512, max_value=512),
)
def test_orientations_preserve_length(o, x, y):
    dx, dy = apply_orientation(o, (x, y))
    assert dx * dx + dy * dy == x * x + y * y

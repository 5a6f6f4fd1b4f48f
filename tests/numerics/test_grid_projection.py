"""Grid and projection unit tests + hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.numerics.grid import Grid3D
from repro.numerics.projection import BoxConstraint, unconstrained


class TestGrid:
    def test_mesh_size(self):
        assert Grid3D(9).h == pytest.approx(0.1)

    def test_shape_and_count(self):
        g = Grid3D(4)
        assert g.shape == (4, 4, 4)
        assert g.n_points == 64

    def test_coordinates_interior(self):
        g = Grid3D(3)
        z, y, x = g.coordinates()
        assert z.shape == (3, 3, 3)
        assert x.min() == pytest.approx(0.25)
        assert x.max() == pytest.approx(0.75)

    def test_axis(self):
        np.testing.assert_allclose(Grid3D(3).axis(), [0.25, 0.5, 0.75])

    def test_validate_field(self):
        g = Grid3D(3)
        g.validate_field(g.zeros())
        with pytest.raises(ValueError):
            g.validate_field(np.zeros((3, 3)))
        with pytest.raises(TypeError):
            g.validate_field([1, 2, 3])

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            Grid3D(0)

    def test_full(self):
        assert np.all(Grid3D(2).full(3.5) == 3.5)

    def test_iter_planes(self):
        assert list(Grid3D(3).iter_planes()) == [0, 1, 2]


small_fields = hnp.arrays(
    dtype=np.float64,
    shape=(4, 4, 4),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestBoxConstraint:
    def test_lower_only_clip(self):
        k = BoxConstraint(lower=0.0)
        v = np.array([-1.0, 0.5, 2.0])
        np.testing.assert_allclose(k.project(v), [0.0, 0.5, 2.0])

    def test_two_sided_clip(self):
        k = BoxConstraint(lower=-1.0, upper=1.0)
        v = np.array([-5.0, 0.0, 5.0])
        np.testing.assert_allclose(k.project(v), [-1.0, 0.0, 1.0])

    def test_inconsistent_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoxConstraint(lower=1.0, upper=0.0)

    def test_trivial_constraint(self):
        k = unconstrained()
        assert k.is_trivial
        v = np.array([1.0, -2.0])
        out = k.project(v)
        np.testing.assert_array_equal(out, v)
        assert out is not v  # still a copy out of place

    def test_in_place_projection(self):
        k = BoxConstraint(lower=0.0)
        v = np.array([-1.0, 1.0])
        out = k.project(v, out=v)
        assert out is v
        np.testing.assert_allclose(v, [0.0, 1.0])

    def test_project_plane_uses_plane_of_field(self):
        lower = np.zeros((3, 2, 2))
        lower[1] = 5.0
        k = BoxConstraint(lower=lower)
        v = np.ones((2, 2))
        np.testing.assert_allclose(k.project_plane(v, 0), v)
        np.testing.assert_allclose(k.project_plane(v, 1), np.full((2, 2), 5.0))

    def test_trivial_projection_into_a_given_buffer(self):
        k = unconstrained()
        v = np.array([1.0, -2.0])
        out = np.empty_like(v)
        assert k.project(v, out=out) is out
        np.testing.assert_array_equal(out, v)
        assert k.project(v, out=v) is v

    def test_trivial_plane_projection_copies_or_fills(self):
        k = unconstrained()
        v = np.arange(4.0).reshape(2, 2)
        copy = k.project_plane(v, 0)
        assert copy is not v
        np.testing.assert_array_equal(copy, v)
        out = np.zeros_like(v)
        assert k.project_plane(v, 1, out=out) is out
        np.testing.assert_array_equal(out, v)
        assert k.project_plane(v, 1, out=v) is v

    def test_scalar_bounds_apply_to_every_plane(self):
        k = BoxConstraint(lower=-1.0, upper=1.0)
        v = np.array([[-3.0, 0.5], [0.25, 3.0]])
        for plane in (0, 7):
            np.testing.assert_array_equal(k.project_plane(v, plane),
                                          [[-1.0, 0.5], [0.25, 1.0]])

    def test_contains_and_violation(self):
        k = BoxConstraint(lower=0.0, upper=1.0)
        assert k.contains(np.array([0.0, 0.5, 1.0]))
        assert not k.contains(np.array([-0.1]))
        assert k.violation(np.array([-0.25, 1.5])) == pytest.approx(0.5)
        assert k.violation(np.array([0.5])) == 0.0

    @given(small_fields)
    @settings(max_examples=50, deadline=None)
    def test_projection_idempotent(self, v):
        k = BoxConstraint(lower=-1.0, upper=2.0)
        once = k.project(v)
        twice = k.project(once)
        np.testing.assert_array_equal(once, twice)

    @given(small_fields, small_fields)
    @settings(max_examples=50, deadline=None)
    def test_projection_nonexpansive(self, a, b):
        """‖P_K(a) − P_K(b)‖ ≤ ‖a − b‖ — the property the convergence
        proof of projected Richardson rests on."""
        k = BoxConstraint(lower=-1.0, upper=2.0)
        lhs = np.linalg.norm(k.project(a) - k.project(b))
        rhs = np.linalg.norm(a - b)
        assert lhs <= rhs + 1e-9

    @given(small_fields)
    @settings(max_examples=50, deadline=None)
    def test_projection_lands_in_k(self, v):
        k = BoxConstraint(lower=-1.0, upper=2.0)
        assert k.contains(k.project(v))

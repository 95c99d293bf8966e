"""Group structure, duality pairing, and automorphism actions."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylinderstat.groups import (TWO_PI, CylinderAuto, CylinderPoint, DualPoint,
                                 compose, pair, reduce_angle)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
nonzero_rationals = rationals.filter(lambda q: q != 0)
signs = st.sampled_from([1, -1])
autos = st.builds(CylinderAuto, a=nonzero_rationals, c=rationals, p=signs)


class TestReduceAngle:
    @given(st.floats(-1e6, 1e6))
    @example(-1e-151)  # fmod leaves it; adding 2*pi rounds to 2*pi itself
    def test_lands_in_range_and_is_idempotent(self, theta):
        r = reduce_angle(theta)
        assert 0.0 <= r < TWO_PI
        assert reduce_angle(r) == r

    @pytest.mark.parametrize("theta", [-0.0, -TWO_PI, 0.0])
    def test_zero_angles_reduce_to_positive_zero(self, theta):
        assert reduce_angle(theta).hex() == "0x0.0p+0"


class TestPairing:
    def test_identity_point(self):
        for y in (DualPoint(0, 0), DualPoint(2.5, 3), DualPoint(-1, -7)):
            assert pair(CylinderPoint(0, 0), y) == pytest.approx(1.0)

    def test_trivial_character(self):
        for x in (CylinderPoint(1.3, 0.7), CylinderPoint(-4, 5.9)):
            assert pair(x, DualPoint(0, 0)) == pytest.approx(1.0)

    def test_direct_value(self):
        got = pair(CylinderPoint(1, math.pi / 2), DualPoint(2, 1))
        assert got == pytest.approx(cmath.exp(1j * (2 + math.pi / 2)), abs=1e-14)

    def test_unit_modulus(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = CylinderPoint(rng.normal(), rng.uniform(0, TWO_PI))
            y = DualPoint(rng.normal(), int(rng.integers(-5, 6)))
            assert abs(abs(pair(x, y)) - 1.0) < 1e-14


class TestDualAction:
    def test_identity(self):
        e = CylinderAuto.identity()
        y = DualPoint(3.25, -2)
        assert e.on_dual(y) == y

    def test_direct_value(self):
        e = CylinderAuto(2, 3, -1)
        assert e.on_dual(DualPoint(1, 2)) == DualPoint(8, -2)

    def test_reflection(self):
        e = CylinderAuto(1, 0, -1)
        assert e.on_dual(DualPoint(1.5, 4)) == DualPoint(1.5, -4)

    def test_homomorphism_exact(self):
        e = CylinderAuto(Fraction(3, 2), Fraction(-1, 3), -1)
        y1 = DualPoint(Fraction(1, 2), 3)
        y2 = DualPoint(Fraction(-5, 4), -1)
        assert e.on_dual(y1 + y2) == e.on_dual(y1) + e.on_dual(y2)


class TestPointAction:
    def test_identity(self):
        x = CylinderPoint(1.7, 2.2)
        out = CylinderAuto.identity().on_point(x)
        assert out.t == x.t and out.theta == pytest.approx(x.theta)

    def test_direct_value(self):
        out = CylinderAuto(2, 3, -1).on_point(CylinderPoint(1, math.pi / 2))
        assert out.t == 2
        assert out.theta == pytest.approx((3 - math.pi / 2) % TWO_PI)

    def test_adjointness(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = CylinderAuto(rng.uniform(0.2, 3) * (-1) ** int(rng.integers(2)),
                             rng.normal(), int(1 - 2 * rng.integers(2)))
            x = CylinderPoint(rng.normal(), rng.uniform(0, TWO_PI))
            y = DualPoint(rng.normal(), int(rng.integers(-4, 5)))
            lhs = pair(d.on_point(x), y)
            rhs = pair(x, d.on_dual(y))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_theta_reduced(self):
        out = CylinderAuto(1, 10, 1).on_point(CylinderPoint(3, 1))
        assert 0 <= out.theta < TWO_PI

    def test_homomorphism_mod_angle(self):
        rng = np.random.default_rng(23)
        d = CylinderAuto(1.5, -2.0, -1)
        for _ in range(30):
            x1 = CylinderPoint(rng.normal(), rng.uniform(0, TWO_PI))
            x2 = CylinderPoint(rng.normal(), rng.uniform(0, TWO_PI))
            lhs = d.on_point(x1 + x2)
            rhs = d.on_point(x1) + d.on_point(x2)
            assert lhs.t == pytest.approx(rhs.t, abs=1e-12)
            gap = (lhs.theta - rhs.theta) % TWO_PI
            assert min(gap, TWO_PI - gap) < 1e-9


class TestComposeInvert:
    def test_invert_identity(self):
        assert CylinderAuto.identity().inverse() == CylinderAuto.identity()

    def test_compose_with_inverse(self):
        e = CylinderAuto(Fraction(7, 3), Fraction(-2, 5), -1)
        assert compose(e, e.inverse()) == CylinderAuto(Fraction(1), Fraction(0), 1)

    def test_frozen_inverse(self):
        inv = CylinderAuto(2, 3, -1).inverse()
        assert inv == CylinderAuto(Fraction(1, 2), Fraction(3, 2), -1)

    def test_compose_matches_action(self):
        e1 = CylinderAuto(Fraction(2), Fraction(1, 3), -1)
        e2 = CylinderAuto(Fraction(-1, 2), Fraction(4), 1)
        y = DualPoint(Fraction(5, 7), -3)
        assert compose(e1, e2).on_dual(y) == e1.on_dual(e2.on_dual(y))

    @given(autos, autos, autos)
    @settings(max_examples=100, deadline=None)
    def test_associativity(self, e1, e2, e3):
        assert compose(compose(e1, e2), e3) == compose(e1, compose(e2, e3))

    @given(autos)
    @settings(max_examples=100, deadline=None)
    def test_group_inverse(self, e):
        ident = CylinderAuto(Fraction(1), Fraction(0), 1)
        assert compose(e, e.inverse()) == ident
        assert compose(e.inverse(), e) == ident

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CylinderAuto(0, 1, 1)
        with pytest.raises(ValueError):
            CylinderAuto(1, 0, 2)


class TestPreservesLine:
    def test_examples(self):
        assert CylinderAuto(2, 1, 1).preserves_line(1)
        assert CylinderAuto(5, 0, 1).preserves_line(0)
        assert CylinderAuto(5, 0, -1).preserves_line(0)
        assert CylinderAuto(-3, -4, -1).preserves_line(2)
        assert not CylinderAuto(2, 1, 1).preserves_line(2)

    def test_float_read_exactly(self):
        # No tolerance: a float is the dyadic rational it is.
        assert CylinderAuto(2.0, 1.0, 1).preserves_line(1.0)
        assert CylinderAuto(2.0, 0.5, 1).preserves_line(Fraction(1, 2))
        assert not CylinderAuto(2.0, 1.0 + 1e-13, 1).preserves_line(1.0)
        assert CylinderAuto(2, 0.1, 1).preserves_line(0.1)
        assert not CylinderAuto(2, Fraction(1, 10), 1).preserves_line(0.1)

    @given(autos, autos, rationals)
    @settings(max_examples=100, deadline=None)
    def test_closed_under_composition(self, e, f, omega):
        # Line-preserving automorphisms form a group for each slope.
        if e.preserves_line(omega) and f.preserves_line(omega):
            assert compose(e, f).preserves_line(omega)


class TestPoints:
    def test_theta_reduction(self):
        assert CylinderPoint(0, TWO_PI + 1).theta == pytest.approx(1.0)
        assert CylinderPoint(0, -1).theta == pytest.approx(TWO_PI - 1)

    def test_group_addition(self):
        x = CylinderPoint(1, 5.0) + CylinderPoint(2, 4.0)
        assert x.t == 3 and x.theta == pytest.approx((9.0) % TWO_PI)

    def test_dual_requires_int(self):
        with pytest.raises(TypeError):
            DualPoint(1.0, 2.5)

"""Exact a-adic arithmetic and the rational-dual pullback."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylinderstat.groups import CylinderAuto
from cylinderstat.independence import StatMatrix, independence_residual
from cylinderstat.solenoid import (AdicInteger, BaseSequence, IncompatibleAutoError,
                                   adic_add, adic_add_carries, ha_member, pullback_residual,
                                   rational_dual_grid, validate_auto)


@st.composite
def base_and_pair(draw, length=8):
    entries = tuple(draw(st.integers(min_value=2, max_value=9))
                    for _ in range(length))
    base = BaseSequence(entries)
    digits = lambda: tuple(draw(st.integers(0, a - 1)) for a in entries)
    return base, AdicInteger(digits()), AdicInteger(digits())


class TestAdicArithmetic:
    def test_carry_recurrence_example(self):
        base = BaseSequence((2, 3, 2))
        total, carries = adic_add_carries(AdicInteger((1, 2, 1)),
                                          AdicInteger((1, 0, 1)), base)
        assert total.digits == (0, 0, 1)
        assert carries == (1, 1, 1)

    def test_zero_is_neutral(self):
        base = BaseSequence((3, 5, 2, 7))
        x = AdicInteger((2, 4, 1, 6))
        assert adic_add(x, AdicInteger.zero(base), base) == x

    def test_digit_bounds_enforced(self):
        base = BaseSequence((2, 3))
        with pytest.raises(ValueError):
            adic_add(AdicInteger((2, 0)), AdicInteger((0, 0)), base)

    def test_non_integers_refused_not_truncated(self):
        with pytest.raises(TypeError, match="expected an int, got 2.9"):
            BaseSequence((2.9, 3))
        with pytest.raises(TypeError, match="expected an int, got 1.7"):
            AdicInteger((1.7, 0))

    @given(base_and_pair())
    @settings(max_examples=150, deadline=None)
    def test_matches_modular_integer_oracle(self, data):
        # Independent oracle: digit addition with carries is addition of the
        # weighted integer values modulo the full product.
        base, x, y = data
        total = adic_add(x, y, base)
        modulus = base.product(len(base) - 1)
        assert total.to_int(base) == (x.to_int(base) + y.to_int(base)) % modulus

    @given(base_and_pair())
    @settings(max_examples=100, deadline=None)
    def test_commutative(self, data):
        base, x, y = data
        assert adic_add(x, y, base) == adic_add(y, x, base)

    def test_int_roundtrip(self):
        base = BaseSequence.counting(10)
        for v in (0, 1, 17, 12345):
            assert AdicInteger.from_int(v, base).to_int(base) == v


class TestHaMembership:
    def test_counting_base_example(self):
        base = BaseSequence.counting(8)  # 2, 3, 4, ...
        assert ha_member(Fraction(5, 6), base) == 1

    def test_dyadic_excludes_thirds(self):
        base = BaseSequence.constant(2, 16)
        assert ha_member(Fraction(1, 3), base) is None
        assert ha_member(Fraction(5, 8), base) == 2

    def test_integers_at_depth_zero(self):
        base = BaseSequence.counting(4)
        for v in (0, 1, -7, 100):
            assert ha_member(v, base) == 0

    def test_monotone_in_depth_limit(self):
        base = BaseSequence.counting(10)
        q = Fraction(1, 7 * 6)  # needs depth where 7 appears: 2*3*4*5*6*7
        full = ha_member(q, base)
        assert full == 5
        assert ha_member(q, base, depth_limit=3) is None
        assert ha_member(q, base, depth_limit=5) == 5

    def test_closed_under_addition(self):
        rng = np.random.default_rng(2)
        base = BaseSequence.counting(10)
        for _ in range(30):
            qa = Fraction(int(rng.integers(-20, 21)), base.product(int(rng.integers(0, 6))))
            qb = Fraction(int(rng.integers(-20, 21)), base.product(int(rng.integers(0, 6))))
            assert ha_member(qa + qb, base) is not None

    def test_locate_witness(self):
        base = BaseSequence.counting(8)
        assert ha_member(Fraction(7, 24), base) == 2  # 24 = 2*3*4
        assert ha_member(Fraction(1, 11), base, depth_limit=3) is None


class TestSolenoidAuto:
    """Which automorphisms (a, c, p) act on the rational dual: `validate_auto`."""

    def test_integer_and_unit_fraction_multipliers(self):
        base = BaseSequence.counting(16)
        for a in (Fraction(2), Fraction(-3), Fraction(-4, 5), Fraction(-1, 5)):
            validate_auto(CylinderAuto(a, Fraction(0), 1), base, generator_depth=6)

    def test_incompatible_multiplier(self):
        base = BaseSequence.constant(2, 16)
        with pytest.raises(IncompatibleAutoError, match="1/7"):
            validate_auto(CylinderAuto(Fraction(1, 7), Fraction(0), 1), base)

    def test_translation_must_be_member(self):
        base = BaseSequence.constant(2, 16)
        with pytest.raises(IncompatibleAutoError, match="translation"):
            validate_auto(CylinderAuto(Fraction(2), Fraction(1, 3), 1), base)

    def test_sign_must_be_an_int(self):
        with pytest.raises(TypeError, match="expected an int, got True"):
            CylinderAuto(2, 0, True)

    def test_closure_under_multiplier_action(self):
        base = BaseSequence.counting(12)
        mult = Fraction(-4, 5)
        for k in range(5):
            g = Fraction(1, base.product(k))
            assert ha_member(mult * g, base) is not None


class TestPullback:
    def test_flat_family_exact_zero(self, ref_family_flat):
        base = BaseSequence.counting(16)
        r = pullback_residual(ref_family_flat.cfs, ref_family_flat.matrix,
                              base, grid_depth=6)
        assert r == 0.0

    def test_rejects_incompatible_entry(self, ref_family_flat):
        base = BaseSequence.constant(2, 16)
        rows = [list(r) for r in ref_family_flat.matrix.rows]
        rows[1][0] = CylinderAuto(Fraction(1, 7), 0, 1)
        bad = StatMatrix.from_rows(rows)
        with pytest.raises(IncompatibleAutoError, match=r"entry \(1, 0\)"):
            pullback_residual(ref_family_flat.cfs, bad, base, grid_depth=6)

    def test_rejects_float_entries(self, ref_family_flat):
        """A float entry is the dyadic rational it is: 2.0 is 2, and 0.1 needs 2^55."""
        base = BaseSequence.counting(16)
        rows = [list(r) for r in ref_family_flat.matrix.rows]
        rows[1][0] = CylinderAuto(2.0, 0.0, 1)
        assert pullback_residual(ref_family_flat.cfs, StatMatrix.from_rows(rows), base,
                                 grid_depth=6) == 0.0
        rows[1][0] = CylinderAuto(2, 0.1, 1)
        with pytest.raises(IncompatibleAutoError, match=r"entry \(1, 0\): translation part "
                                                        r"3602879701896397/36028797018963968"):
            pullback_residual(ref_family_flat.cfs, StatMatrix.from_rows(rows), base,
                              grid_depth=6)

    def test_degenerate_members(self, ref_family_flat):
        from cylinderstat.charfn import CylinderCF
        base = BaseSequence.counting(12)
        cfs = tuple(CylinderCF(0, tau=Fraction(j)) for j in range(3))
        assert pullback_residual(cfs, ref_family_flat.matrix, base, grid_depth=4) == 0.0

    def test_agrees_with_embedded_real_grid(self, ref_family_flat):
        # The embedding keeps coordinates, so re-running the generic checker
        # on the same rational tuples gives the same residual.
        base = BaseSequence.counting(12)
        grid = rational_dual_grid(base, 5, 3)
        r_solenoid = pullback_residual(ref_family_flat.cfs, ref_family_flat.matrix,
                                       base, grid_depth=5)
        r_embedded = independence_residual(ref_family_flat.cfs,
                                           ref_family_flat.matrix, grid)
        assert r_solenoid == r_embedded == 0.0

    def test_depth_exceeding_prefix(self, ref_family_flat):
        base = BaseSequence.counting(4)
        with pytest.raises(ValueError):
            pullback_residual(ref_family_flat.cfs, ref_family_flat.matrix,
                              base, grid_depth=10)

"""Certified family constructors and their advertised properties."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REF_COEFFS, random_valid_coefficients
from cylinderstat.charfn import convolve, is_gaussian, support_line
from cylinderstat.families import (ConstructionError, HADAMARD_SIGNS,
                                   four_statistic_family, line_gaussian_family,
                                   torus_triple_verdict, twisted_torus_pair,
                                   z2_signed_measure)
from cylinderstat.charfn import TorusCF
from cylinderstat.independence import (StatMatrix, default_grid,
                                       gaussian_system_check,
                                       independence_residual)
from cylinderstat.serialize import dump, family_from_fixture, family_to_fixture, load


class TestLineGaussian:
    def test_reference_values(self, ref_family):
        assert tuple(cf.sigma for cf in ref_family.cfs) == (1, 1, 1)
        assert ref_family.matrix.entry(1, 0).c == 1
        assert ref_family.matrix.entry(1, 1).c == -4
        assert ref_family.matrix.entry(2, 0).c == Fraction(-9, 5)
        assert ref_family.matrix.entry(2, 1).c == Fraction(-6, 5)

    def test_zero_slope_is_diagonal(self, ref_family_flat):
        for i in (1, 2):
            for j in (0, 1):
                assert ref_family_flat.matrix.entry(i, j).c == 0
        for cf in ref_family_flat.cfs:
            assert cf.kappa == 0 and cf.lam == 0
            assert support_line(cf) == 0

    def test_flipped_sign_changes_offdiagonal(self):
        fam = line_gaussian_family(1, *REF_COEFFS, p1=-1)
        assert fam.matrix.entry(1, 0).c == 3  # (2 - (-1)) * 1

    def test_no_positive_solution(self):
        with pytest.raises(ConstructionError, match="no positive sigma"):
            line_gaussian_family(1, 1, -2, -2, 1)

    def test_sigma_scale(self):
        fam = line_gaussian_family(1, *REF_COEFFS, sigma_scale=Fraction(3, 2))
        assert tuple(cf.sigma for cf in fam.cfs) == (Fraction(3, 2),) * 3

    def test_entries_preserve_line(self):
        fam = line_gaussian_family(Fraction(2, 3), *REF_COEFFS, p2=-1, q1=-1)
        for row in fam.matrix.rows:
            for e in row:
                assert e.preserves_line(Fraction(2, 3))

    def test_common_slope_ratios(self):
        # Every non-(+-I) entry has c/(a - p) equal to the common slope.
        omega = Fraction(3, 7)
        fam = line_gaussian_family(omega, *REF_COEFFS, q2=-1)
        ratios = {
            Fraction(e.c) / (Fraction(e.a) - e.p)
            for row in fam.matrix.rows for e in row
            if not e.is_plus_minus_identity() and e.a != e.p
        }
        assert ratios == {omega}

    def test_invariance_identity_for_entries(self):
        # 2*c1*sigma3/(a1*kappa3) + p1/a1 = 1 for the second-row first entry.
        fam = line_gaussian_family(Fraction(1), *REF_COEFFS, p1=-1)
        e = fam.matrix.entry(1, 0)
        sigma3, kappa3 = fam.cfs[2].sigma, fam.cfs[2].kappa
        assert 2 * e.c * sigma3 / (e.a * kappa3) + Fraction(e.p, 1) / e.a == 1

    def test_system_certified(self):
        fam = line_gaussian_family(2, *REF_COEFFS, p1=-1, q2=-1)
        assert max(gaussian_system_check(fam.cfs, fam.matrix).values()) == 0.0

    def test_float_omega_supported(self):
        fam = line_gaussian_family(0.5, *REF_COEFFS)
        grid = default_grid(3, "cylinder", cap=2000)
        assert independence_residual(fam.cfs, fam.matrix, grid) <= 1e-12


class TestTwistedPair:
    def test_valid_pair_is_independent(self):
        fam = twisted_torus_pair(1, 0, 0, Fraction(1, 20))
        assert fam.n == 2
        assert independence_residual(fam.cfs, fam.matrix) <= 1e-12
        assert not is_gaussian(fam.cfs[0])
        assert fam.cfs[0].twist == -fam.cfs[1].twist

    def test_twists_cancel_under_convolution(self):
        fam = twisted_torus_pair(1, 0.3, 0.7, 0.05)
        assert convolve(fam.cfs[0], fam.cfs[1]).twist == 0

    def test_degenerate_pair(self):
        fam = twisted_torus_pair(0, 1.0, 2.0, 0)
        assert all(cf.sigma == 0 and cf.twist == 0 for cf in fam.cfs)

    def test_signed_mass_rejected(self):
        with pytest.raises(ConstructionError, match="not a probability"):
            twisted_torus_pair(0, 0, 0, 0.1)

    def test_overtwisted_rejected(self):
        with pytest.raises(ConstructionError):
            twisted_torus_pair(1, 0, 0, 1.5)


class TestFourStatistic:
    def test_counterexample(self):
        fam = four_statistic_family(1, Fraction(1, 20))
        assert fam.n == 4
        assert independence_residual(fam.cfs, fam.matrix) <= 1e-12
        assert all(not is_gaussian(cf) for cf in fam.cfs)

    def test_zero_twist_rejected(self):
        with pytest.raises(ConstructionError, match="not a counterexample"):
            four_statistic_family(1, 0)

    def test_broken_orthogonality_fails(self):
        fam = four_statistic_family(1, Fraction(1, 20))
        rows = [list(r) for r in HADAMARD_SIGNS]
        rows[1][3] = 1  # destroy row orthogonality
        bad = StatMatrix.from_signs(rows)
        assert independence_residual(fam.cfs, bad) > 1e-6

    def test_swap_symmetry(self):
        fam = four_statistic_family(1, Fraction(1, 20))
        swapped = four_statistic_family(1, Fraction(-1, 20))
        assert swapped.cfs == (fam.cfs[2], fam.cfs[3], fam.cfs[0], fam.cfs[1])


class TestZ2Measure:
    def test_neutral(self):
        m = z2_signed_measure(0)
        assert (m.p1, m.pm1) == (1, 0)

    def test_signed(self):
        assert z2_signed_measure(0.25).pm1 < 0

    def test_inverse_pair(self):
        out = convolve(z2_signed_measure(0.4), z2_signed_measure(-0.4))
        assert out.p1 == pytest.approx(1) and out.pm1 == pytest.approx(0)


class TestTriadVerdict:
    def test_only_degenerate(self):
        verdict = torus_triple_verdict()
        assert verdict.sigma_solution == (0, 0, 0)
        assert verdict.only_degenerate

    def test_positive_sigma_flagged(self):
        verdict = torus_triple_verdict()
        for sigmas in ((1, 1, 1), (Fraction(1, 2), 1, 0), (0, 0, 2)):
            cfs = tuple(TorusCF(s) for s in sigmas)
            assert independence_residual(cfs, verdict.matrix) > 1e-6

    def test_degenerate_triple_passes(self):
        verdict = torus_triple_verdict()
        cfs = tuple(TorusCF(0, theta) for theta in (0, 1, 2))
        assert independence_residual(cfs, verdict.matrix) == 0.0


class TestFixtureRoundtrip:
    def test_cylinder(self, ref_family):
        fixture = family_to_fixture(ref_family)
        back = family_from_fixture(fixture)
        assert back.matrix == ref_family.matrix
        assert back.cfs == ref_family.cfs
        assert back.omega == ref_family.omega

    def test_torus(self):
        fam = four_statistic_family(1, Fraction(1, 20))
        back = family_from_fixture(family_to_fixture(fam))
        assert back.matrix == fam.matrix and back.cfs == fam.cfs

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_dump_load_returns_equal_family(self, tmp_path_factory, data):
        """family_to_fixture -> dump -> load -> family_from_fixture is the identity."""
        exact = data.draw(st.booleans(), label="exact")

        def scalar(lo, hi):
            lo, hi = Fraction(lo), Fraction(hi)
            if exact:
                return data.draw(st.fractions(lo, hi, max_denominator=100))
            return data.draw(st.floats(float(lo), float(hi)))

        kind = data.draw(st.sampled_from(["line-gaussian", "twisted-pair", "four-statistic"]))
        if kind == "line-gaussian":
            seed = data.draw(st.integers(0, 2**32 - 1))
            coeffs = random_valid_coefficients(np.random.default_rng(seed))
            signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * 4))
            fam = line_gaussian_family(scalar(-3, 3), *coeffs, *signs,
                                       sigma_scale=scalar("1/2", 4))
        elif kind == "twisted-pair":
            fam = twisted_torus_pair(scalar(1, 3), scalar(-7, 7), scalar(-7, 7),
                                     scalar("-1/20", "1/20"))
        else:
            fam = four_statistic_family(scalar(1, 3), scalar("1/100", "1/20"))
        path = tmp_path_factory.mktemp("roundtrip") / "fixture.json"
        dump(family_to_fixture(fam), path)
        assert family_from_fixture(load(path)) == fam

"""Finite differences, degree detection, profile fitting, cascade checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_fdiff
from conftest import REF_COEFFS, random_valid_coefficients
from cylinderstat.families import line_gaussian_family
from cylinderstat.fdiff import (GridFunction, OffGridError, ProfileError,
                                default_n_grid, default_s_grid, delta,
                                fit_quadratic_profile, load_grid_csv,
                                polynomial_degree, save_grid_csv,
                                verify_triple_differences)
from cylinderstat.independence import StepSubgroups, SubgroupTag


def sample(fn):
    return GridFunction.sample(fn, default_s_grid(), default_n_grid())


class TestGridFunction:
    @pytest.mark.parametrize("value", [float("inf"), -float("inf"), complex(1.0, float("inf"))])
    def test_rejects_non_finite_value(self, value):
        vals = np.ones((3, 2), dtype=complex)
        vals[2, 1] = value
        with pytest.raises(ValueError, match=r"\(s, n\) = \(0\.5, -1\) is not finite"):
            GridFunction(-0.5, 0.5, -2, vals)


class TestDelta:
    def test_annihilates_constants(self):
        f = sample(lambda s, n: 4.25)
        out = delta(f, (1.0, 0))
        assert np.abs(out.values).max() == 0.0

    def test_quadratic_forward_difference(self):
        f = sample(lambda s, n: s * s)
        out = delta(f, (1.0, 0))
        expected = 2 * out.s_values + 1  # (s+1)^2 - s^2
        assert np.allclose(out.values[:, 0], expected, atol=1e-12)

    def test_negative_steps_shift_domain(self):
        f = sample(lambda s, n: s + n)
        out = delta(f, (-0.25, -1))
        assert out.s_values[0] == pytest.approx(f.s_values[0] + 0.25)
        assert out.n_values[0] == f.n_values[0] + 1
        assert np.allclose(out.values, -1.25)

    def test_commutes(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(41, 13))
        f = GridFunction(-5.0, 0.25, -6, vals)
        a = delta(delta(f, (0.5, 1)), (0.25, -2))
        b = delta(delta(f, (0.25, -2)), (0.5, 1))
        assert a.s_values[0] == b.s_values[0] and a.n_values[0] == b.n_values[0]
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_off_grid_step(self):
        f = sample(lambda s, n: s)
        with pytest.raises(OffGridError):
            delta(f, (0.1, 0))

    def test_domain_exhaustion(self):
        f = sample(lambda s, n: s)
        with pytest.raises(OffGridError):
            delta(f, (0.0, 13))

    def test_difference_beyond_the_float_range_is_exact(self):
        # +-1e308 alternating in s: each difference is +-2e308, held exactly, not overflowed.
        f = sample(lambda s, n: 1e308 if round(4 * s) % 2 else -1e308)
        out = delta(f, (0.25, 0))
        assert {Fraction(v, out.den) for row in out.re for v in row} == {
            2 * Fraction(1e308), -2 * Fraction(1e308)}


class TestDegree:
    def test_constant_is_degree_zero(self):
        assert polynomial_degree(sample(lambda s, n: 3.0)) == 0

    def test_quadratic_form(self):
        f = sample(lambda s, n: 2 * s * s + 3 * s * n + n * n)
        assert polynomial_degree(f) == 2

    def test_quartic(self):
        assert polynomial_degree(sample(lambda s, n: s ** 4)) == 4

    def test_quartic_with_low_bound(self):
        assert polynomial_degree(sample(lambda s, n: s ** 4), max_deg=3) is None

    def test_mixed_term_counts(self):
        f = sample(lambda s, n: s * s * n * n)
        assert polynomial_degree(f) == 4

    def test_non_polynomial(self):
        f = sample(lambda s, n: np.exp(0.5 * s))
        assert polynomial_degree(f, max_deg=6) is None

    def test_sum_of_log_cfs_is_quadratic(self, ref_family):
        # The sum of the three symmetrized log-CFs is a polynomial of degree
        # <= 3 by the difference cascade; here it is exactly quadratic.
        f = sample(lambda s, n: sum(float(cf.phi(s, n)) for cf in ref_family.cfs))
        deg = polynomial_degree(f)
        assert deg is not None and deg <= 3
        assert deg == 2

    def test_grid_too_small(self):
        f = GridFunction(0.0, 1.0, 0, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            polynomial_degree(f, max_deg=6)

    def test_degree_of_sum(self):
        f = sample(lambda s, n: s * s + n * n)
        g = sample(lambda s, n: 3 * s - n)
        h = GridFunction(f.s_start, f.s_step, f.n_start, f.values + g.values)
        assert polynomial_degree(f) == 2
        assert polynomial_degree(g) == 1
        # Sum of different degrees attains the max.
        assert polynomial_degree(h) == 2


class TestProfileFit:
    def test_exact_quadratic_profile(self):
        f = sample(lambda s, n: s * s + n * s + n * n)
        fit = fit_quadratic_profile(f)
        assert fit.sigma == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(fit.kappa, fit.n_values, atol=1e-9)
        assert np.allclose(fit.lam, fit.n_values ** 2, atol=1e-9)

    def test_quartic_level_term(self):
        f = sample(lambda s, n: 2 * s * s + 3 * n * s + float(n) ** 4)
        fit = fit_quadratic_profile(f)
        assert fit.sigma == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(fit.kappa, 3 * fit.n_values, atol=1e-9)
        assert np.allclose(fit.lam, fit.n_values.astype(float) ** 4, atol=1e-9)

    def test_cubic_rejected(self):
        with pytest.raises(ProfileError):
            fit_quadratic_profile(sample(lambda s, n: s ** 4))
        with pytest.raises(ProfileError):
            fit_quadratic_profile(sample(lambda s, n: s ** 3 * n))

    def test_odd_level_term_rejected(self):
        with pytest.raises(ProfileError):
            fit_quadratic_profile(sample(lambda s, n: s * s + float(n) ** 3))

    def test_varying_leading_coefficient_rejected(self):
        with pytest.raises(ProfileError):
            fit_quadratic_profile(sample(lambda s, n: (1 + n * n) * s * s))

    @pytest.mark.parametrize("fn,s_values,message", [
        (lambda s, n: complex(s * s, 1), default_s_grid(), "not real-valued"),
        (lambda s, n: s * s, [i / 4 for i in range(-8, 12)], "not symmetric about the origin"),
        (lambda s, n: s * s + n * n, [-0.5, 0.5], "at least three s-values, got 2"),
    ])
    def test_refusals(self, fn, s_values, message):
        with pytest.raises(ProfileError, match=message):
            fit_quadratic_profile(GridFunction.sample(fn, s_values, default_n_grid()))

    def test_roundtrip_random_bundles(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x, y = rng.uniform(0.1, 2, 2)
            r = rng.uniform(-1, 1)
            sigma, kappa, lam = x * x, 2 * x * y * r, y * y
            f = sample(lambda s, n: sigma * s * s + kappa * s * n + lam * n * n)
            fit = fit_quadratic_profile(f)
            assert fit.sigma == pytest.approx(sigma, abs=1e-10)
            assert np.allclose(fit.kappa, kappa * fit.n_values, atol=1e-10)
            assert np.allclose(fit.lam, lam * fit.n_values ** 2, atol=1e-10)
            # Re-evaluation reproduces the samples.
            recon = np.array([[fit.evaluate(s, n) for n in fit.n_values]
                              for s in f.s_values])
            assert np.allclose(recon, f.values, atol=1e-9)


class TestTripleDifferences:
    def test_reference_family_vanishes(self, ref_family):
        psis = [sample(lambda s, n, cf=cf: 2 * float(cf.phi(s, n)))
                for cf in ref_family.cfs]
        res = verify_triple_differences(psis, ref_family.matrix)
        assert max(res) <= 1e-10

    def test_mixed_sign_family_vanishes(self):
        fam = line_gaussian_family(1, *REF_COEFFS, p2=-1, q1=-1)
        psis = [sample(lambda s, n, cf=cf: 2 * float(cf.phi(s, n))) for cf in fam.cfs]
        res = verify_triple_differences(psis, fam.matrix)
        assert max(res) <= 1e-10

    def test_cubic_contamination_detected(self, ref_family):
        psis = [sample(lambda s, n, cf=cf: 2 * float(cf.phi(s, n)))
                for cf in ref_family.cfs]
        psis[0] = sample(lambda s, n: 2 * float(ref_family.cfs[0].phi(s, n)) + 0.01 * s ** 3)
        res = verify_triple_differences(psis, ref_family.matrix)
        assert res[0] > 1e-6

    def test_complex_log_cf_residual_is_the_modulus(self, ref_family):
        """A complex sample's third difference counts by its modulus: i*s^3 as s^3, and
        (1 + i)*s^3 as sqrt(2) times it."""
        zero = sample(lambda s, n: 0.0)
        real = verify_triple_differences([sample(lambda s, n: s ** 3), zero, zero],
                                         ref_family.matrix)
        for factor, scale in ((1j, 1), (1 + 1j, math.sqrt(2))):
            psi = sample(lambda s, n, factor=factor: factor * s ** 3)
            res = verify_triple_differences([psi, zero, zero], ref_family.matrix)
            assert res[0] == pytest.approx(scale * real[0], rel=1e-12) and res[1:] == (0.0, 0.0)

    def test_zero_functions(self, ref_family):
        psis = [sample(lambda s, n: 0.0) for _ in range(3)]
        assert verify_triple_differences(psis, ref_family.matrix) == (0.0, 0.0, 0.0)

    def test_verdict_compares_the_exact_residuals_with_tol(self, ref_family):
        psis = [sample(lambda s, n: s ** 3)] + [sample(lambda s, n: 0.0)] * 2
        res = verify_triple_differences(psis, ref_family.matrix)
        assert res[0] > 0 and res[1:] == (0.0, 0.0)
        assert verify_triple_differences(psis, ref_family.matrix, tol=res[0]) == (res, True)
        below = math.nextafter(res[0], 0)
        assert verify_triple_differences(psis, ref_family.matrix, tol=below) == (res, False)

    def test_residual_past_the_float_range_is_none(self, ref_family):
        # +-1e308 alternating in s: every third difference is past the float range.
        huge = sample(lambda s, n: 1e308 if round(4 * s) % 2 else -1e308)
        assert (verify_triple_differences([huge] * 3, ref_family.matrix, tol=1e308)
                == ((None, None, None), False))


class TestTolerance:
    """A tolerance that is NaN, infinite or negative, or a negative degree bound, is an input error."""

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tol_raises(self, tol):
        f = sample(lambda s, n: 2 * s * s + n * s + n * n)
        with pytest.raises(ValueError, match="tol"):
            polynomial_degree(f, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            fit_quadratic_profile(f, tol=tol)

    def test_negative_degree_bound_raises(self):
        with pytest.raises(ValueError, match="max_deg"):
            polynomial_degree(sample(lambda s, n: s * s), max_deg=-1)

    def test_zero_tol_is_accepted(self):
        assert polynomial_degree(sample(lambda s, n: 0.0), max_deg=0, tol=0.0) == 0


class TestCsv:
    def test_roundtrip(self, tmp_path):
        f = sample(lambda s, n: s * s - 1j * n)
        path = tmp_path / "grid.csv"
        save_grid_csv(f, path)
        g = load_grid_csv(path)
        assert g.s_values[0] == f.s_values[0]
        assert g.n_values[0] == f.n_values[0]
        assert np.allclose(np.asarray(g.values, dtype=complex), f.values)

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,n,re,im\n0.0,0,1.0,0.0\n1.0,1,2.0,0.0\n")
        with pytest.raises(ValueError):
            load_grid_csv(path)

    def test_exact_values_roundtrip(self, tmp_path):
        # Floats are written as their shortest repr, other rationals as "p/q"; both read back exactly.
        f = GridFunction(-1, Fraction(1, 3), 0, [[Fraction(1, 3), 0.1], [2, 1e308], [-0.5, 7]])
        path = tmp_path / "grid.csv"
        save_grid_csv(f, path)
        assert path.read_text().splitlines()[1:4] == ["-1.0,0,1/3,0.0", "-1.0,1,0.1,0.0",
                                                     "-2/3,0,2.0,0.0"]
        g = load_grid_csv(path)
        assert (g.s_start, g.s_step, g.n_start) == (-1, Fraction(1, 3), 0)
        assert [[Fraction(v, g.den) for v in row] for row in g.re] == [
            [Fraction(1, 3), Fraction(0.1)], [2, Fraction(1e308)], [Fraction(-1, 2), 7]]

    def test_non_finite_s_names_its_line(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("s,n,re,im\n0.0,0,1.0,0.0\ninf,0,1.0,0.0\n")
        with pytest.raises(ValueError, match="line 3: s = inf is not finite"):
            load_grid_csv(path)


# Small dyadic samples: float arithmetic on them is exact, so the numpy oracle's
# results are the exact ones, and fdiff must equal them.
dyadics = st.integers(-16, 16).map(lambda m: m / 4)


@st.composite
def dyadic_grids(draw):
    """(the GridFunction, the oracle's) of a symmetric grid of 2**k + 1 s-values."""
    S = draw(st.sampled_from([3, 5, 9, 17]))
    N = draw(st.sampled_from([1, 3, 5, 7, 9]))
    h = draw(st.sampled_from([0.25, 0.5, 1.0]))
    xs = [(i - (S - 1) // 2) * h for i in range(S)]
    ns = range(-(N // 2), N // 2 + 1)
    kind = draw(st.sampled_from(["profile", "polynomial", "noise"]))
    if kind == "profile":  # sigma*s^2 + kappa*n*s + lambda(|n|)
        sigma, kappa = draw(dyadics), draw(dyadics)
        lam = [draw(dyadics) for _ in range(N // 2 + 1)]
        vals = [[sigma * x * x + kappa * n * x + lam[abs(n)] for n in ns] for x in xs]
    elif kind == "polynomial":  # total degree <= 3 in (s, n)
        degree = draw(st.integers(0, 3))
        terms = [(p, q, draw(dyadics)) for p in range(degree + 1) for q in range(degree + 1 - p)]
        vals = [[sum(c * x ** p * n ** q for p, q, c in terms) for n in ns] for x in xs]
    else:
        vals = [[draw(dyadics) for _ in ns] for _ in xs]
    if draw(st.booleans()):  # one sample moved
        vals[draw(st.integers(0, S - 1))][draw(st.integers(0, N - 1))] += draw(dyadics)
    return GridFunction(xs[0], h, ns[0], vals), oracle_fdiff.GridFunction(
        xs[0], h, ns[0], np.array(vals, dtype=float))


def outcome(fn, *args):
    """fn(*args), or the name and message of the exception it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


tolerances = st.sampled_from([0.0, 1e-9, 0.25])


class TestOracle:
    @settings(max_examples=200, deadline=None)
    @given(dyadic_grids(), tolerances, st.data())
    def test_degree(self, grids, tol, data):
        f, ref = grids
        S, N = f.shape  # mostly a bound the grid admits: 2*(max_deg + 1) < S, max_deg + 1 < N
        max_deg = data.draw(st.integers(0, max(0, min((S - 1) // 2 - 1, N - 2)) + 1))
        assert outcome(polynomial_degree, f, max_deg, tol) == outcome(
            oracle_fdiff.polynomial_degree, ref, max_deg, tol)

    @settings(max_examples=200, deadline=None)
    @given(dyadic_grids(), tolerances)
    def test_profile(self, grids, tol):
        f, ref = grids

        def coefficients(fit_fn, g):
            fit = fit_fn(g, tol)
            return fit.sigma, list(fit.n_values), list(fit.kappa), list(fit.lam)

        assert outcome(coefficients, fit_quadratic_profile, f) == outcome(
            coefficients, oracle_fdiff.fit_quadratic_profile, ref)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(dyadic_grids(), min_size=3, max_size=3),
           st.lists(st.sampled_from(list(SubgroupTag)), min_size=3, max_size=3))
    def test_triple_residuals(self, grids, tags):
        tags = StepSubgroups(*tags)
        psis, refs = zip(*grids)
        assert outcome(verify_triple_differences, psis, None, tags) == outcome(
            oracle_fdiff.verify_triple_differences, refs, None, tags)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_exact_log_cfs_reduce_to_their_gaussian_parameters(seed):
    """Admissible families, end to end: each member's 2*phi sampled exactly has degree
    2 and the profile (2 sigma, 2 kappa n, 2 lambda n^2), and the triple residuals are 0."""
    coeffs = random_valid_coefficients(np.random.default_rng(seed))
    fam = line_gaussian_family(Fraction(seed % 7, 3), *coeffs)
    psis = [sample(lambda s, n, cf=cf: 2 * cf.phi(Fraction(s), n)) for cf in fam.cfs]
    assert verify_triple_differences(psis, fam.matrix) == (0.0, 0.0, 0.0)
    for f, cf in zip(psis, fam.cfs):
        assert polynomial_degree(f, tol=0) == 2
        fit = fit_quadratic_profile(f, tol=0)
        assert fit.exact_sigma == 2 * cf.sigma
        assert fit.exact_kappa == tuple(2 * cf.kappa * n for n in fit.levels)
        assert fit.exact_lam == tuple(2 * cf.lam * n * n for n in fit.levels)

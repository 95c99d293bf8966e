"""Samplers and the empirical independence check (seeded, deterministic)."""

import json
import math
import tracemalloc
import warnings
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cylinderstat import cli, montecarlo
from cylinderstat.charfn import CylinderCF, TorusCF
from cylinderstat.families import four_statistic_family, twisted_torus_pair
from cylinderstat.groups import TWO_PI, CylinderAuto, CylinderPoint, DualPoint, replace
from cylinderstat.independence import StatMatrix
from cylinderstat.montecarlo import (_CYL_PROBE_BASE, _TOR_PROBE_BASE, SampleSet,
                                     empirical_cf, empirical_independence,
                                     default_probes, sample_bundle,
                                     sample_line_gaussian, sample_torus_twisted,
                                     statistic_samples, stream_bundle, tee_samples_csv)
from cylinderstat.serialize import family_to_fixture
from oracle_montecarlo import _probe_characters as oracle_probe_characters
from oracle_charfn import _wrapped_normal, spatial_threshold
from oracle_montecarlo import (oracle_empirical_independence, oracle_null_differences,
                               oracle_null_maxima, oracle_sample_line_gaussian,
                               oracle_sample_torus_twisted)


class TestLineSampler:
    def test_samples_lie_on_line(self):
        s = sample_line_gaussian(1.0, 0.75, 5000, seed=1)
        assert np.allclose(s.theta, np.mod(0.75 * s.t, TWO_PI), atol=1e-12)

    def test_single_sample_reproducible(self):
        a = sample_line_gaussian(1.0, 1.0, 1, seed=5)
        b = sample_line_gaussian(1.0, 1.0, 1, seed=5)
        assert a.t[0] == b.t[0] and a.theta[0] == b.theta[0]

    def test_empirical_cf_matches_exponent(self):
        sigma, count = 1.0, 40_000
        s = sample_line_gaussian(sigma, 1.0, count, seed=9)
        got = empirical_cf(s, DualPoint(1.0, 0))
        assert abs(got - math.exp(-sigma)) <= 3 / math.sqrt(count)

    def test_variance_calibration(self):
        # Var = 2*sigma so the empirical CF is exp(-sigma*s^2), not exp(-sigma*s^2/2).
        s = sample_line_gaussian(0.5, 0.0, 200_000, seed=4)
        assert np.var(s.t) == pytest.approx(1.0, rel=0.02)

    def test_shift_applied(self):
        shift = CylinderPoint(2.0, 1.0)
        s = sample_line_gaussian(1.0, 1.0, 100, seed=3, shift=shift)
        base = sample_line_gaussian(1.0, 1.0, 100, seed=3)
        assert np.allclose(s.t, base.t + 2.0)
        assert np.allclose(s.theta, np.mod(base.theta + 1.0, TWO_PI), atol=1e-12)

    def test_determinism_across_counts(self):
        # Chunked seeding: a longer stream extends a shorter one.
        a = sample_line_gaussian(1.0, 1.0, 10_000, seed=11)
        b = sample_line_gaussian(1.0, 1.0, 50_000, seed=11)
        assert np.array_equal(a.t, b.t[:10_000])


# The z bound of the empirical-CF checks: every z of a sampler that draws the law
# exactly is a standard normal draw, and P(|z| > 5) is 5.7e-7.
Z_BOUND = 5


def cf_z_scores(samples, bundle, points=((0, 1), (0, 2), (0, 3))) -> list:
    """z-scores of the empirical CF's real and imaginary parts at dual points (s, n).

    Each is the error against the closed form, over its standard deviation
    sqrt(Var/N): Var cos = (1 + Re phi(2y))/2 - (Re phi(y))^2 and Var sin =
    (1 - Re phi(2y))/2 - (Im phi(y))^2.  The modulus e^{Re log phi} is taken in
    40-digit decimals from the exact exponent, because for a tiny sigma these
    variances are tiny differences of numbers near 1.  A zero variance (a point
    law) contributes no z-score; its error must be below 1e-12.
    """
    out = []
    with localcontext(Context(prec=40)):
        for s, n in points:
            moments = []
            for k in (1, 2):
                re, im = bundle.cylinder.log_parts(k * s, k * n)
                re = Fraction(re)
                modulus = (Decimal(re.numerator) / Decimal(re.denominator)).exp()
                moments.append((modulus * Decimal(math.cos(float(im))),
                                modulus * Decimal(math.sin(float(im)))))
            (cos1, sin1), (cos2, _) = moments
            got = empirical_cf(samples, (s, n))
            for value, mean, var in ((got.real, cos1, (1 + cos2) / 2 - cos1 * cos1),
                                     (got.imag, sin1, (1 - cos2) / 2 - sin1 * sin1)):
                error = float(Decimal(value) - mean)
                if var <= 0:
                    assert abs(error) <= 1e-12, (s, n, error)
                else:
                    out.append(error / math.sqrt(float(var) / samples.count))
    return out


class TestTorusSampler:
    def test_wrapped_gaussian_cf(self):
        cf = TorusCF(1.0, 0.0, 0.0)
        s = sample_torus_twisted(cf, 60_000, seed=2)
        got = empirical_cf(s, 1)
        assert abs(got - cf.eval(1)) <= 4 / math.sqrt(60_000)

    def test_degenerate(self):
        s = sample_torus_twisted(TorusCF(0, 1.25, 0), 50, seed=0)
        assert np.allclose(s.theta, 1.25)

    def test_twist_parity_asymmetry(self):
        cf = TorusCF(1.0, 0.0, 0.05)
        s = sample_torus_twisted(cf, 120_000, seed=6)
        tol = 4 / math.sqrt(120_000)
        assert abs(empirical_cf(s, 1) - math.exp(-1 + 0.1)) <= tol
        assert abs(empirical_cf(s, 2) - math.exp(-4)) <= tol

    def test_empirical_cf_across_band(self):
        cf = TorusCF(0.8, 0.5, 0.03)
        s = sample_torus_twisted(cf, 100_000, seed=8)
        tol = 4 / math.sqrt(100_000)
        for n in range(-10, 11):
            assert abs(empirical_cf(s, n) - cf.eval(n)) <= tol

    def test_two_point_masses(self):
        cf = TorusCF(0, 0.0, -0.3)
        s = sample_torus_twisted(cf, 60_000, seed=1)
        at_pi = float(np.mean(np.abs(s.theta - math.pi) < 1e-9))
        expected = (1 - math.exp(-0.6)) / 2
        assert at_pi == pytest.approx(expected, abs=0.01)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            sample_torus_twisted(TorusCF(0, 0, 0.2), 10, seed=0)

    def test_deterministic(self):
        a = sample_torus_twisted(TorusCF(1, 0, 0.05), 1000, seed=42)
        b = sample_torus_twisted(TorusCF(1, 0, 0.05), 1000, seed=42)
        assert np.array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("cf,truncation", [
        (TorusCF(1, 0, 0.05), 64),
        (TorusCF(0.8, 0.5, 0.03), 64),
        (TorusCF(Fraction(1, 120), 2, Fraction(-1, 10)), 64),
        (TorusCF(1e300, 1, 0.5), 64),
        (TorusCF(0, 1.25, 0), 64),
        (TorusCF(0, 0.5, -0.3), 64),
        (TorusCF(Fraction(1, 200), 0, 0), 82),
    ])
    def test_matches_fixed_truncation_oracle(self, cf, truncation):
        """Two point masses are drawn from the same uniforms as the Fourier-table
        sampler, so bit for bit; any other law by another rule, so it must match
        its own CF at n = 1, 2, 3 within Z_BOUND."""
        got = sample_torus_twisted(cf, 20_000, seed=3)
        if cf.sigma == 0:
            want = oracle_sample_torus_twisted(cf, 20_000, seed=3, truncation=truncation)
            assert np.array_equal(got.theta, want.theta) and np.array_equal(got.t, want.t)
        else:
            assert np.all(got.t == 0)
            assert max(map(abs, cf_z_scores(got, cf))) <= Z_BOUND

    @pytest.mark.parametrize("sigma", [0.01, 0.5, 0.999, 1, 1.001, 3, 10])
    def test_keep_ratio_matches_image_sums(self, sigma):
        """f/W on both sides of the switch from images to Fourier series at sigma = 1,
        against a*W(y) + b*W(y + pi) over W(y) from the wrapped normal's image sums,
        for twists from -1 to 0.999999 of the validity threshold.  The tolerance is
        1e-12 of a + |b|*W(y + pi)/W(y), the size of the terms that cancel where f
        nears 0."""
        y = np.array([-math.pi, -3.0, -2.0, -1.0, -0.25, 0.0, 0.5, 1.5, 2.5, 3.0, 3.14159])
        threshold = spatial_threshold(sigma)
        for twist in (-1.0, -0.1, 0.0, 0.5 * threshold, 0.99 * threshold, 0.999999 * threshold):
            got = montecarlo._keep_ratio(TorusCF(sigma, 0, twist))(y)
            b = -math.expm1(2 * twist) / 2
            flipped = _wrapped_normal(sigma, y + math.pi, 12) / _wrapped_normal(sigma, y, 12)
            want = (1 - b) + b * flipped
            assert np.all(np.abs(got - want) <= 1e-12 * ((1 - b) + abs(b) * flipped)), twist

    @pytest.mark.parametrize("sigma", [1e-8, Fraction(1, 10**4), Fraction(1, 120), 1, 5, 1e300,
                                       10**400],
                             ids=["1e-8", "1e-4", "1/120", "1", "5", "1e300", "1e400"])
    def test_empirical_cf_matches_closed_form(self, sigma):
        """Twists below 0, at 0 and just under the validity threshold, seed 1.

        The threshold is atanh(W(pi)/W(0)).  Below sigma = 1 it is 2e^{-pi^2/(4*sigma)}
        to far more than 1e-6.  At sigma = 1e-4 that is below the float range and
        taken in decimals, and the twist is 0.999 of it: the validity check decides
        only twists whose log is off the threshold's by 1e-9 of its size, 24674.
        At sigma = 1e-8 it is too small to write as a fraction, so that sigma has no
        twist near it.  Past sigma = 1e3 the threshold is sigma/2 - log(2)/2, and
        1e-6 under it the law's density at pi is about 1e-6 of its mean.
        """
        if sigma >= 1000:
            near = Fraction(sigma) / 2 - Fraction(math.log(2) / 2 + 1e-6)
        elif sigma >= Fraction(1, 120):
            near = Fraction(0.999999 * spatial_threshold(float(sigma)))
        elif sigma > 1e-8:  # 1/10**4
            with localcontext(Context(prec=40)):
                pi = Decimal("3.141592653589793238462643383279502884197")
                near = Fraction(Decimal("1.998") * (-pi * pi / (4 * sigma.numerator)
                                                    * sigma.denominator).exp())
        else:
            near = None
        for twist in (Fraction(-1, 2), 0, near):
            if twist is not None:
                cf = TorusCF(sigma, 0, twist)
                assert max(map(abs, cf_z_scores(sample_torus_twisted(cf, 100_000, seed=1),
                                                cf))) <= Z_BOUND, twist

    def test_small_circle_variance_sampled(self):
        """A circle law of sigma 1e-4, and a cylinder bundle 1e-4 off its line, whose
        circle law given t has variance 1e-4."""
        for cf in (TorusCF(Fraction(1, 10**4), 0, Fraction(-1, 3)),
                   CylinderCF(1, 2, 1 + Fraction(1, 10**4))):
            s = sample_bundle(cf, 100_000, seed=4)
            points = ((0, 1), (0, 2), (0, 3), (Fraction(1, 2), 0), (1, -1), (Fraction(1, 2), 1))
            assert max(map(abs, cf_z_scores(s, cf, points))) <= Z_BOUND, cf


def _line_member(sigma, omega, tau=0, theta=0):
    """The bundle of the Gaussian exp(-sigma*(s + omega*n)^2), shifted by (tau, theta)."""
    return CylinderCF(sigma, 2 * sigma * omega, sigma * omega * omega, tau, theta)


class TestBundleSampler:
    @pytest.mark.parametrize("sigma,omega,shift", [
        (1, 1, None),
        (Fraction(1, 3), Fraction(-7, 5), None),
        (2, 0, CylinderPoint(-1.5, 5.0)),
        (Fraction(5, 2), Fraction(1, 3), CylinderPoint(3.0, 1.0)),
        (0.75, 0.5, CylinderPoint(1e-3, 7.0)),
    ])
    def test_line_members_match_oracle(self, sigma, omega, shift):
        # Two chunks of the seeded stream, on the line and off the origin.
        tau, theta = (shift.t, shift.theta) if shift else (0, 0)
        got = sample_bundle(_line_member(sigma, omega, tau, theta), 20_000, seed=3)
        want = oracle_sample_line_gaussian(float(sigma), float(omega), 20_000, seed=3,
                                           shift=shift)
        assert np.array_equal(got.t, want.t) and np.array_equal(got.theta, want.theta)

    def test_reference_members_match_oracle(self, ref_family):
        for j, cf in enumerate(ref_family.cfs):
            got = sample_bundle(cf, 5000, seed=80 + j)
            want = oracle_sample_line_gaussian(float(cf.sigma), 1.0, 5000, seed=80 + j)
            assert np.array_equal(got.t, want.t) and np.array_equal(got.theta, want.theta)

    @pytest.mark.parametrize("cf", [
        TorusCF(1, 0, 0.05),
        TorusCF(0.8, 0.5, 0.03),
        TorusCF(Fraction(1, 120), 2, Fraction(-1, 10)),
        TorusCF(1e300, 1, 0.5),
        TorusCF(0, 1.25, 0),
        TorusCF(0, 0.5, -0.3),
    ])
    def test_circle_members_match_oracle(self, cf):
        """A circle bundle draws as its cylinder embedding does; two point masses
        as the Fourier-table sampler did, and any other law matches its CF."""
        circle, embedded = (sample_bundle(member, 20_000, seed=3) for member in (cf, cf.cylinder))
        assert np.array_equal(circle.t, embedded.t) and np.array_equal(circle.theta, embedded.theta)
        if cf.sigma == 0:
            want = oracle_sample_torus_twisted(cf, 20_000, seed=3)
            assert np.array_equal(circle.t, want.t) and np.array_equal(circle.theta, want.theta)
        else:
            assert max(map(abs, cf_z_scores(circle, cf))) <= Z_BOUND

    def test_uniforms_follow_the_normals(self):
        # A twist leaves each chunk's normals, drawn first, as the line sampler's.
        member = replace(_line_member(1, 1), twist=Fraction(-1, 10))
        got = sample_bundle(member, 20_000, seed=5)
        assert np.array_equal(got.t, oracle_sample_line_gaussian(1, 1, 20_000, seed=5).t)

    @pytest.mark.parametrize("member", [
        CylinderCF(1, 2, 1, 3, 1),
        CylinderCF(1, 2, 1, 3, 1, Fraction(-1, 10)),
        CylinderCF(1, 0, 5, 3, 1),
        CylinderCF(1, 1, 1, 0, 0, Fraction(1, 20)),
    ], ids=["shifted", "shifted-twisted", "off-line", "twisted-full"])
    def test_empirical_cf_is_the_bundle(self, member):
        """The reference member 0 (sigma 1, kappa 2, lambda 1) shifted by (3, 1), the same
        with twist -1/10 and with kappa 0 and lambda 5, and a twisted full-rank bundle.

        An empirical CF is a mean of N unit-modulus terms, so its error has a
        standard deviation of at most 1/sqrt(N); the bound is 4 of those.
        """
        count = 200_000
        s = sample_bundle(member, count, seed=11)
        worst = max(abs(empirical_cf(s, (x, n)) - member.eval((x, n)))
                    for x in (0.0, 0.5, -1.0) for n in range(-2, 3))
        assert worst <= 4 / math.sqrt(count)

    def test_point_mass_draws_nothing(self):
        s = sample_bundle(CylinderCF(0, tau=2, theta=1.5), 10, seed=0)
        assert np.all(s.t == 2.0) and np.all(s.theta == 1.5)

    def test_invalid_member_refused(self):
        with pytest.raises(ValueError, match="not a probability measure"):
            sample_bundle(CylinderCF(1, 3, 1), 10, seed=0)


class TestEmpiricalIndependence:
    def test_independent_family_consistent(self, ref_family):
        samples = [sample_line_gaussian(float(cf.sigma), 1.0, 20_000, seed=20 + j)
                   for j, cf in enumerate(ref_family.cfs)]
        report = empirical_independence(samples, ref_family.matrix,
                                        bootstrap=100, seed=0)
        assert report["max_residual"] < 0.05
        lo, hi = report["null_band"]
        assert lo <= 0.0 <= hi and report["consistent_with_zero"]

    def test_dependent_family_flagged(self, ref_family):
        samples = [sample_line_gaussian(1.0, 1.0, 20_000, seed=30 + j)
                   for j in range(3)]
        samples[1] = samples[0]
        report = empirical_independence(samples, ref_family.matrix,
                                        bootstrap=100, seed=0)
        assert not report["consistent_with_zero"]
        null_high = report["max_residual"] - report["null_band"][0]
        assert report["max_residual"] > 3 * null_high

    def test_degenerate_samples_zero_residual(self, ref_family):
        zero = SampleSet(np.zeros(500), np.zeros(500))
        report = empirical_independence([zero] * 3, ref_family.matrix, bootstrap=0)
        assert report["max_residual"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("counts,message", [
        ((500, 500), "need 3 sample sets, got 2"),
        ((500, 500, 400), "sample sets must have equal counts"),
    ])
    def test_samples_that_do_not_fit_are_refused(self, ref_family, counts, message):
        samples = [SampleSet(np.zeros(c), np.zeros(c)) for c in counts]
        with pytest.raises(ValueError, match=message):
            empirical_independence(samples, ref_family.matrix, bootstrap=0)

    def test_deterministic_report(self, ref_family, monkeypatch):
        samples = [sample_line_gaussian(1.0, 1.0, 5000, seed=40 + j)
                   for j in range(3)]
        r1 = empirical_independence(samples, ref_family.matrix, bootstrap=50, seed=7)
        r2 = empirical_independence(samples, ref_family.matrix, bootstrap=50, seed=7)
        assert r1 == r2
        assert empirical_independence(samples, ref_family.matrix, bootstrap=50, seed=8) != r1
        # Null draws in blocks of 7 consume the stream as one block of 50 does.
        monkeypatch.setattr(montecarlo, "_NULL_BLOCK", 7)
        assert empirical_independence(samples, ref_family.matrix, bootstrap=50, seed=7) == r1

    def test_statistic_samples_apply_rows(self, ref_family):
        samples = [sample_line_gaussian(1.0, 1.0, 100, seed=50 + j)
                   for j in range(3)]
        stats = statistic_samples(samples, ref_family.matrix)
        expected_t = (2 * samples[0].t - 3 * samples[1].t + samples[2].t)
        assert np.allclose(stats[1].t, expected_t)

    def test_torus_family_consistent(self):
        from cylinderstat.families import four_statistic_family
        from fractions import Fraction
        fam = four_statistic_family(1, Fraction(1, 20))
        samples = [sample_torus_twisted(cf, 20_000, seed=60 + j)
                   for j, cf in enumerate(fam.cfs)]
        report = empirical_independence(samples, fam.matrix, bootstrap=100, seed=1)
        assert report["consistent_with_zero"]

    def test_broken_orthogonality_stabilizes_at_exact_residual(self):
        # With one sign flipped the statistics are genuinely dependent; the
        # empirical residual at a probe converges to the closed-form value
        # computed from the characteristic functions.
        from fractions import Fraction

        from cylinderstat.families import HADAMARD_SIGNS, four_statistic_family
        from cylinderstat.independence import StatMatrix

        fam = four_statistic_family(1, Fraction(1, 20))
        rows = [list(r) for r in HADAMARD_SIGNS]
        rows[1][3] = 1
        broken = StatMatrix.from_signs(rows)
        probe = (1, -1, 0, 0)

        def exact_residual(signs, probe):
            joint = 1.0
            for j in range(4):
                arg = sum(signs[i][j] * probe[i] for i in range(4))
                joint *= fam.cfs[j].eval(arg)
            marginal = 1.0
            for i in range(4):
                for j in range(4):
                    marginal *= fam.cfs[j].eval(signs[i][j] * probe[i])
            return abs(joint - marginal)

        target = exact_residual(rows, probe)
        assert target > 1e-2

        for count in (20_000, 80_000):
            samples = [sample_torus_twisted(cf, count, seed=70 + j)
                       for j, cf in enumerate(fam.cfs)]
            report = empirical_independence(samples, broken, probes=[probe],
                                            bootstrap=0)
            error = abs(report["max_residual"] - target)
            assert error <= 6 / math.sqrt(count)
            # Nonzero limit: the estimate sits at the exact value, not at 0.
            assert error < target / 3


@st.composite
def oracle_cases(draw, max_count=3000):
    """Random samples, matrix, probes and bootstrap for either kind.

    Probes draw their slot points from the small default bases, so slot
    points repeat across probes; `None` takes the default probe set.
    """
    kind = draw(st.sampled_from(["cylinder", "torus"]))
    n = draw(st.integers(2, 4))
    count = draw(st.integers(1, max_count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "cylinder":
        samples = [SampleSet(rng.normal(0.0, 1.5, count), rng.uniform(0.0, TWO_PI, count))
                   for _ in range(n)]
        entries = st.builds(CylinderAuto, st.sampled_from([1, -1, 2, 0.5, -3]),
                            st.sampled_from([0, 1, -2]), st.sampled_from([1, -1]))
        matrix = StatMatrix.from_rows(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                                    min_size=n, max_size=n)))
        base = _CYL_PROBE_BASE
    else:
        samples = [SampleSet(np.zeros(count), rng.uniform(0.0, TWO_PI, count)) for _ in range(n)]
        signs = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
        matrix = StatMatrix.from_signs(draw(st.lists(signs, min_size=n, max_size=n)))
        base = _TOR_PROBE_BASE
    if draw(st.booleans()):
        samples[1] = samples[0]  # dependent statistics: a residual well above the noise
    probe = st.tuples(*[st.sampled_from(base)] * n)
    probes = draw(st.none() | st.lists(probe, min_size=1, max_size=20))
    return dict(samples=samples, matrix=matrix, probes=probes,
                bootstrap=draw(st.integers(0, 20)), seed=draw(st.integers(0, 2**32 - 1)),
                kind=draw(st.sampled_from([kind, None])))


_ORACLE_KEYS = ("count", "probes", "max_residual", "worst_probe", "residuals", "bootstrap")


def _checked_report(case):
    """The library's report: residuals equal to the oracle's, a sound Gaussian band.

    The band is drawn from the delta-method null, not resampled, so it is
    checked for soundness here and against the resampled quantiles in
    `test_gaussian_quantiles_match_resampled`.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = empirical_independence(**case)
    want = oracle_empirical_independence(**case)
    assert {k: got[k] for k in _ORACLE_KEYS} == {k: want[k] for k in _ORACLE_KEYS}
    if case["bootstrap"] == 0:
        assert got == want
        return got
    lo, hi = got["null_band"]
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo <= hi <= got["max_residual"]
    assert got["consistent_with_zero"] == (lo <= 0.0)
    assert got["null"] == "gaussian"
    assert 1 / (1 + case["bootstrap"]) <= got["p_value"] <= 1
    json.dumps(got, allow_nan=False)
    return got


def _quantile_se(draws, p):
    """Monte-Carlo standard error of the p-quantile of `draws`, distribution free.

    The sample quantiles at p -+ 2*sqrt(p(1-p)/B) are the order statistics
    two binomial standard deviations either side of the p-quantile's rank,
    so they lie about two standard errors either side of it.
    """
    delta = 2 * math.sqrt(p * (1 - p) / len(draws))
    lo, hi = np.quantile(draws, [p - delta, p + delta])
    return (hi - lo) / 4


class TestOracle:
    """The Gaussian null band against the resampling loop it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(oracle_cases())
    def test_reports_match_oracle(self, case):
        _checked_report(case)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300) | st.sampled_from([-1.5, 0.0, 2.0]),
                           min_size=1, max_size=500)
           | st.builds(lambda v, n: [v] * n, st.floats(-1e300, 1e300), st.integers(1, 500)),
           qs=st.lists(st.sampled_from([0.025, 0.975]) | st.floats(0, 1), min_size=1,
                       max_size=4))
    def test_band_quantiles_equal_numpy(self, values, qs):
        """The band's quantile helper is np.quantile, equal to the last bit."""
        values = np.array(values)
        assert montecarlo._quantiles(values, qs) == list(np.quantile(values, qs))

    def test_reference_fixture_matches_oracle(self, ref_family):
        samples = [sample_line_gaussian(float(cf.sigma), 1.0, 4000, seed=80 + j)
                   for j, cf in enumerate(ref_family.cfs)]
        got = _checked_report(dict(samples=samples, matrix=ref_family.matrix,
                                   bootstrap=20, seed=3))
        assert got["consistent_with_zero"]

    def test_single_row_equal_statistics(self):
        # All four statistics are the same single value, so joint and marginal
        # differ only by rounding, and so does the null covariance from zero:
        # its eigenvalues of rounding size include negative ones to clip.
        samples = [SampleSet(np.array([t]), np.array([theta])) for t, theta in
                   ((0.18859533, 1.69511992), (0.96063398, 0.1038462),
                    (-0.80350406, 5.73501243), (1.95600007, 4.58356207))]
        case = dict(samples=samples, matrix=StatMatrix.from_signs([[1] * 4] * 4),
                    probes=[((0.25, 0),) * 4], bootstrap=1, seed=0, kind="cylinder")
        _checked_report(case)

    @pytest.mark.parametrize("block", [1, 2, 7])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=oracle_cases(max_count=40))
    def test_row_blocks_match_oracle(self, block, case, monkeypatch):
        # Rows of 1, 2 and 7 make the hypothesis counts cross block boundaries.
        monkeypatch.setattr(montecarlo, "_ROW_BLOCK", block)
        _checked_report(case)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_row_block_edges_match_oracle(self, block, ref_family, monkeypatch):
        """Counts below, at and past a block, with one probe (a single block) or several."""
        monkeypatch.setattr(montecarlo, "_ROW_BLOCK", block)
        self.test_single_row_equal_statistics()
        for count in (1, block, block + 1, 3 * block + 2, 7, 8):
            samples = [sample_line_gaussian(float(cf.sigma), 1.0, count, seed=count + j)
                       for j, cf in enumerate(ref_family.cfs)]
            # Statistic 1 takes one slot point in every probe of the last set: its
            # characters are one distinct column, padded to two.
            single = [(y0, _CYL_PROBE_BASE[2], y2) for y0, _, y2 in default_probes(3, count=5)]
            for probes in [default_probes(3, count=n) for n in (1, 2, 16)] + [single]:
                _checked_report(dict(samples=samples, matrix=ref_family.matrix,
                                     probes=probes, bootstrap=3, seed=count))

    def test_reference_fixture_at_full_count_equals_oracle(self, ref_family):
        # Count 1e5 spans many row blocks of the default size.
        samples = [sample_line_gaussian(float(cf.sigma), 1.0, 100_000, seed=80 + j)
                   for j, cf in enumerate(ref_family.cfs)]
        case = dict(samples=samples, matrix=ref_family.matrix, bootstrap=0)
        got = empirical_independence(**case)
        assert got["residuals"] == oracle_empirical_independence(**case)["residuals"]

    def test_block_sums_match_full_arrays(self, ref_family, monkeypatch):
        """Means equal the full-array means (`==`), Grams within 1e-12 relative."""
        monkeypatch.setattr(montecarlo, "_ROW_BLOCK", 7)
        count = 1000
        samples = [sample_line_gaussian(float(cf.sigma), 1.0, count, seed=90 + j)
                   for j, cf in enumerate(ref_family.cfs)]
        probes = default_probes(3)
        joint, means, grams, pseudos = montecarlo._character_moments(
            samples, ref_family.matrix, probes, "cylinder")
        chars = oracle_probe_characters(statistic_samples(samples, ref_family.matrix),
                                        probes, "cylinder")
        assert np.array_equal(joint, np.prod(chars, axis=0).mean(axis=0))
        assert np.array_equal(means, chars.mean(axis=1))
        for x, g, h in zip(chars, grams, pseudos):
            for got, want in ((g, x.T @ x.conj() / count), (h, x.T @ x / count)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_null_covariance_matches_resampled(self, ref_family):
        """The closed-form covariance of (Re D, Im D) against resampled D.

        Probes with small s put the marginal CFs near 1, where the linear
        terms and the pseudo-covariance weigh most.  An entry of the second
        moment of B centred Gaussian vectors has standard error
        sqrt((S_ii S_jj + S_ij^2) / B); each entry may differ by 5 of those.
        """
        count, replicates = 2000, 4000
        samples = [sample_line_gaussian(float(cf.sigma), 1.0, count, seed=90 + j)
                   for j, cf in enumerate(ref_family.cfs)]
        probes = [((0.1, 0),) * 3, ((0.2, 0), (-0.1, 0), (0.1, 0)),
                  ((-0.1, 0), (0.2, 0), (0.2, 0)), ((0.1, 1), (0, 0), (0.2, -1))]
        chars = oracle_probe_characters(statistic_samples(samples, ref_family.matrix),
                                        probes, "cylinder")
        cov = montecarlo._null_covariance([x.mean(axis=0) for x in chars],
                                          [x.T @ x.conj() / count for x in chars],
                                          [x.T @ x / count for x in chars], count)
        d = oracle_null_differences(chars, replicates, seed=0)
        v = np.concatenate([d.real, d.imag], axis=1).astype(float)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / replicates)
        assert np.all(np.abs(v.T @ v / replicates - cov) <= 5 * se)

    @pytest.mark.parametrize("fixture", ["reference", "four-statistic"])
    def test_gaussian_quantiles_match_resampled(self, fixture, ref_family):
        """Analytic and resampled 2.5%/97.5% null quantiles agree at count 1e4.

        Tolerance: 4 standard errors of the difference.  The resampled
        quantile from B = 400 replicates has the standard error se of
        `_quantile_se`; the analytic one, from A = 40,000 draws of a law of
        about the same shape, has about se * sqrt(B / A).  So the two may
        differ by at most 4 * se * sqrt(1 + B / A).
        """
        count, replicates, draws = 10_000, 400, 40_000
        if fixture == "reference":
            fam = ref_family
            samples = [sample_line_gaussian(float(cf.sigma), 1.0, count, seed=90 + j)
                       for j, cf in enumerate(fam.cfs)]
        else:
            fam = four_statistic_family(1, Fraction(1, 20))
            samples = [sample_torus_twisted(cf, count, seed=90 + j)
                       for j, cf in enumerate(fam.cfs)]
        report = empirical_independence(samples, fam.matrix, bootstrap=draws,
                                        seed=0, kind=fam.kind)
        stats = statistic_samples(samples, fam.matrix)
        chars = oracle_probe_characters(stats, default_probes(fam.matrix.n, fam.kind),
                                        fam.kind)
        resampled = oracle_null_maxima(chars, replicates, seed=0)
        top = report["max_residual"]
        analytic = (top - report["null_band"][1], top - report["null_band"][0])
        for p, got in zip((0.025, 0.975), analytic):
            tol = 4 * _quantile_se(resampled, p) * math.sqrt(1 + replicates / draws)
            assert abs(got - np.quantile(resampled, p)) <= tol, (p, got, tol)


class TestDefaultProbes:
    def test_every_distinct_tuple(self):
        probes = default_probes(2, "torus", count=25)
        assert len(set(probes)) == 25

    def test_count_beyond_distinct_tuples_rejected(self):
        with pytest.raises(ValueError, match="count 26 exceeds the 25 distinct"):
            default_probes(2, "torus", count=26)


def _simulate_families(ref_family):
    """The README family and the twisted pair, by name."""
    return {"readme": ref_family, "twisted-pair": twisted_torus_pair(1, kappa=Fraction(1, 20))}


def _cli_members(fam, count: int, seed: int):
    """The members' streams as `simulate` draws them."""
    cli._bind("serialize", "charfn", "independence", "montecarlo")
    return cli._sample_family(family_to_fixture(fam), fam, count, seed)


class TestStream:
    """The character pass reads the members' chunk streams as it reads sample sets."""

    @pytest.mark.parametrize("count", [1, 2, 4097, 16384, 16385, 33000, 100_000, 1_000_000])
    @pytest.mark.parametrize("name", ["readme", "twisted-pair"])
    def test_streamed_report_equals_sample_sets(self, name, count, ref_family):
        fam = _simulate_families(ref_family)[name]
        args = dict(matrix=fam.matrix, bootstrap=200, seed=count, kind=fam.kind)
        streamed = empirical_independence(_cli_members(fam, count, count), **args)
        collected = [sample_bundle(cf, count, count + j) for j, cf in enumerate(fam.cfs)]
        assert streamed == empirical_independence(collected, **args)

    @pytest.mark.parametrize("chunk,block", [(5, 7), (7, 5), (3, 3), (16, 4)])
    def test_blocks_across_chunk_edges(self, chunk, block, ref_family, monkeypatch):
        """Blocks that span chunks, end inside one, or match them, and one probe: a
        single block of every row."""
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        monkeypatch.setattr(montecarlo, "_ROW_BLOCK", block)
        for count in (1, block, chunk + 1, 3 * chunk + 2, 40):
            for probes in (default_probes(3, count=1), default_probes(3)):
                args = dict(matrix=ref_family.matrix, probes=probes, bootstrap=3, seed=count,
                            kind="cylinder")
                streams = [stream_bundle(cf, count, 9 + j) for j, cf in enumerate(ref_family.cfs)]
                collected = [sample_bundle(cf, count, 9 + j)
                             for j, cf in enumerate(ref_family.cfs)]
                assert (empirical_independence(streams, **args)
                        == empirical_independence(collected, **args))

    def test_stream_is_the_sample_set(self):
        member = CylinderCF(1, 1, 1, 0, 0, Fraction(1, 20))
        stream = stream_bundle(member, 40_000, 4)
        t, theta = (np.concatenate(cols) for cols in zip(*stream.chunks))
        collected = sample_bundle(member, 40_000, 4)
        assert stream.count == 40_000
        assert np.array_equal(t, collected.t) and np.array_equal(theta, collected.theta)

    @pytest.mark.parametrize("name", ["readme", "twisted-pair"])
    def test_streams_without_kind_refused(self, name, ref_family):
        """The kind is read off sample sets; a stream is read once, so it must be given."""
        fam = _simulate_families(ref_family)[name]
        streams = [stream_bundle(cf, 1000, j) for j, cf in enumerate(fam.cfs)]
        with pytest.raises(ValueError, match="kind"):
            empirical_independence(streams, fam.matrix)
        collected = [sample_bundle(cf, 1000, j) for j, cf in enumerate(fam.cfs)]
        assert (empirical_independence(collected, fam.matrix)
                == empirical_independence(collected, fam.matrix, kind=fam.kind))

    def test_short_stream_refused(self, ref_family):
        streams = [stream_bundle(cf, 100, j) for j, cf in enumerate(ref_family.cfs)]
        streams[1] = montecarlo.SampleStream(100, stream_bundle(ref_family.cfs[1], 90, 1).chunks)
        with pytest.raises(ValueError):
            empirical_independence(streams, ref_family.matrix, kind="cylinder")


class TestMemory:
    def test_traced_peak_does_not_grow_with_count_times_probes(self, ref_family):
        # The (n_stats, count, P) character array alone was 77 MB at count 1e5;
        # row blocks keep the whole call's allocations at about 10 MiB.
        samples = [sample_line_gaussian(float(cf.sigma), 1.0, 100_000, seed=80 + j)
                   for j, cf in enumerate(ref_family.cfs)]
        tracemalloc.start()
        try:
            empirical_independence(samples, ref_family.matrix, bootstrap=200, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_traced_peak_does_not_grow_with_count(self, ref_family):
        # Beyond the member samples the call holds one row block of statistics and
        # characters.  Statistics over all rows made 32 blocks peak 4.6 MiB above 8.
        peaks = []
        for blocks in (8, 32):
            samples = [sample_line_gaussian(float(cf.sigma), 1.0, blocks * montecarlo._ROW_BLOCK,
                                            seed=80 + j) for j, cf in enumerate(ref_family.cfs)]
            tracemalloc.start()
            try:
                empirical_independence(samples, ref_family.matrix, bootstrap=200, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 64 * 2**10, peaks

    @pytest.mark.parametrize("name", ["readme", "twisted-pair"])
    def test_cli_path_peak_does_not_grow_with_count(self, name, ref_family):
        # simulate's draws stream through the character pass: with the samples kept,
        # 32 sampler chunks peaked 13-19 MiB above 8.  A first call at count 1 makes
        # the one-time allocations.
        fam = _simulate_families(ref_family)[name]
        empirical_independence(_cli_members(fam, 1, 0), fam.matrix, bootstrap=200, seed=0,
                               kind=fam.kind)
        peaks = []
        for chunks in (8, 32):
            tracemalloc.start()
            try:
                members = _cli_members(fam, chunks * montecarlo._CHUNK, 0)
                empirical_independence(members, fam.matrix, bootstrap=200, seed=0, kind=fam.kind)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 64 * 2**10, peaks

    @pytest.mark.parametrize("name", ["readme", "twisted-pair"])
    def test_sampler_peak_is_its_output(self, name, ref_family):
        # Beyond the arrays it returns, the sampler holds one chunk's draws and work
        # arrays.  Wrapping theta after collecting it held a copy: 7.6 MiB at 1e6.
        cf = _simulate_families(ref_family)[name].cfs[0]
        tracemalloc.start()
        try:
            samples = sample_bundle(cf, 1_000_000, 0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert samples.count == 1_000_000
        assert peak <= kept + 2**20, (peak, kept)

    def test_circle_sampler_peak(self):
        # The sampler holds its two output arrays and the draws of one chunk: 2.9 MiB
        # at count 1e5.
        tracemalloc.start()
        try:
            sample_torus_twisted(TorusCF(1, 0, Fraction(1, 20)), 100_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestCsvExport:
    def test_roundtrip_columns(self, tmp_path):
        s = sample_line_gaussian(1.0, 1.0, 10, seed=0)
        path = tmp_path / "samples.csv"
        for _ in tee_samples_csv(s, path).chunks:
            pass
        header, *rows = path.read_text().strip().splitlines()
        assert header == "t,theta"
        assert len(rows) == 10

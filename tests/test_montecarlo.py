"""Samplers and the empirical independence check (seeded, deterministic)."""

import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cylinderstat import montecarlo
from cylinderstat.charfn import CylinderCF, TorusCF
from cylinderstat.families import four_statistic_family
from cylinderstat.groups import TWO_PI, CylinderAuto, CylinderPoint, DualPoint
from cylinderstat.independence import StatMatrix
from cylinderstat.montecarlo import (_CYL_PROBE_BASE, _TOR_PROBE_BASE, SampleSet,
                                     empirical_cf, empirical_independence,
                                     default_probes, fourier_density, sample_bundle,
                                     sample_line_gaussian, sample_torus_twisted,
                                     save_samples_csv, statistic_samples)
from oracle_montecarlo import _probe_characters as oracle_probe_characters
from oracle_montecarlo import (oracle_empirical_independence, oracle_fourier_density,
                               oracle_null_differences, oracle_null_maxima,
                               oracle_sample_line_gaussian, oracle_sample_torus_twisted)


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
        # Two chunks of the seeded stream; sigma >= 1/120 keeps the old 64 modes.
        got = sample_torus_twisted(cf, 20_000, seed=3)
        want = oracle_sample_torus_twisted(cf, 20_000, seed=3, truncation=truncation)
        assert np.array_equal(got.theta, want.theta) and np.array_equal(got.t, want.t)

    @pytest.mark.parametrize("cf,truncation,grid", [
        (TorusCF(1, 0, Fraction(1, 20)), 64, 4096),
        (TorusCF(Fraction(1, 200), 0, 0), 82, 4096),
        (TorusCF(0.8, 0.5, 0.03), 64, 1000),
    ])
    def test_fourier_density_matches_full_table(self, cf, truncation, grid):
        got = fourier_density(cf, truncation, grid)
        want = oracle_fourier_density(cf, truncation, grid)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_too_small_sigma_named(self):
        with pytest.raises(ValueError, match="sigma 1e-06 is too small"):
            sample_torus_twisted(TorusCF(1e-6, 0, 0), 10, seed=0)


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
        want = oracle_sample_torus_twisted(cf, 20_000, seed=3)
        for member in (cf, cf.cylinder):
            got = sample_bundle(member, 20_000, seed=3)
            assert np.array_equal(got.t, want.t) and np.array_equal(got.theta, want.theta)

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
            for n_probes in (1, 2, 16):
                _checked_report(dict(samples=samples, matrix=ref_family.matrix,
                                     probes=default_probes(3, count=n_probes),
                                     bootstrap=3, seed=count))

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
        stats = statistic_samples(samples, ref_family.matrix)
        probes = default_probes(3)
        joint, means, grams, pseudos = montecarlo._character_moments(stats, probes, "cylinder")
        chars = oracle_probe_characters(stats, probes, "cylinder")
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


    def test_circle_sampler_peak(self):
        # One 4096 x 129 phase table made the peak 17.8 MiB; blocks of 512 angles
        # keep it near 4 MiB.
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
        save_samples_csv(s, path)
        header, *rows = path.read_text().strip().splitlines()
        assert header == "t,theta"
        assert len(rows) == 10

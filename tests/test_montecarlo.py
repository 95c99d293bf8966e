"""Samplers and the empirical independence check (seeded, deterministic)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylinderstat.charfn import TorusCF
from cylinderstat.groups import TWO_PI, CylinderAuto, CylinderPoint, DualPoint
from cylinderstat.independence import StatMatrix
from cylinderstat.montecarlo import (_CYL_PROBE_BASE, _TOR_PROBE_BASE, SampleSet,
                                     empirical_cf, empirical_independence,
                                     sample_line_gaussian, sample_torus_twisted,
                                     save_samples_csv, statistic_samples)
from oracle_montecarlo import oracle_empirical_independence


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

    def test_deterministic_report(self, ref_family):
        samples = [sample_line_gaussian(1.0, 1.0, 5000, seed=40 + j)
                   for j in range(3)]
        r1 = empirical_independence(samples, ref_family.matrix, bootstrap=50, seed=7)
        r2 = empirical_independence(samples, ref_family.matrix, bootstrap=50, seed=7)
        assert r1 == r2

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
def oracle_cases(draw):
    """Random samples, matrix, probes and bootstrap for either kind.

    Probes draw their slot points from the small default bases, so slot
    points repeat across probes; `None` takes the default probe set.
    """
    kind = draw(st.sampled_from(["cylinder", "torus"]))
    n = draw(st.integers(2, 4))
    count = draw(st.integers(1, 3000))
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


class TestOracle:
    """The reused-buffer bootstrap against the per-replicate gather loop it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(oracle_cases())
    def test_reports_equal_oracle(self, case):
        assert empirical_independence(**case) == oracle_empirical_independence(**case)

    def test_reference_fixture_equal_oracle(self, ref_family):
        samples = [sample_line_gaussian(float(cf.sigma), 1.0, 4000, seed=80 + j)
                   for j, cf in enumerate(ref_family.cfs)]
        got = empirical_independence(samples, ref_family.matrix, bootstrap=20, seed=3)
        assert got == oracle_empirical_independence(samples, ref_family.matrix,
                                                     bootstrap=20, seed=3)
        assert "null_band" in got

    def test_single_row_equal_statistics(self):
        # All four statistics are the same single value, so joint and marginal
        # differ only by rounding: numpy's in-place and out-of-place complex
        # products round differently, and the band must follow the oracle's.
        samples = [SampleSet(np.array([t]), np.array([theta])) for t, theta in
                   ((0.18859533, 1.69511992), (0.96063398, 0.1038462),
                    (-0.80350406, 5.73501243), (1.95600007, 4.58356207))]
        case = dict(samples=samples, matrix=StatMatrix.from_signs([[1] * 4] * 4),
                    probes=[((0.25, 0),) * 4], bootstrap=1, seed=0, kind="cylinder")
        assert empirical_independence(**case) == oracle_empirical_independence(**case)


class TestCsvExport:
    def test_roundtrip_columns(self, tmp_path):
        s = sample_line_gaussian(1.0, 1.0, 10, seed=0)
        path = tmp_path / "samples.csv"
        save_samples_csv(s, path)
        header, *rows = path.read_text().strip().splitlines()
        assert header == "t,theta"
        assert len(rows) == 10

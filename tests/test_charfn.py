"""Characteristic-function bundles: evaluation, convolution algebra, validity."""

import cmath
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from cylinderstat.charfn import (CylinderCF, InconclusiveError, TorusCF,
                                 classify_support, convolve, is_gaussian,
                                 is_valid_probability, reflect, support_line,
                                 symmetrize)
from cylinderstat.groups import TWO_PI, DualPoint
from oracle_charfn import (GAUSS_GRID_CYL, GAUSS_GRID_TOR, fourier_conclusive,
                           oracle_convolve, oracle_eval, oracle_float_sides,
                           oracle_is_valid_probability,
                           oracle_log_parts, oracle_reflect,
                           parallelogram_gap, spatial_min_density, spatial_threshold)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def psd_cylinder_cfs():
    """Strategy for valid cylinder bundles: sigma = x^2, lam = y^2, kappa = 2xyr."""
    return st.builds(
        lambda x, y, r, tau, tw: CylinderCF(
            x * x, 2 * x * y * r, y * y, tau, 0, tw),
        x=rationals, y=rationals,
        r=st.fractions(min_value=-1, max_value=1, max_denominator=4),
        tau=rationals, tw=rationals,
    )


# Nonnegative parameters, floats (read as the dyadic rationals they are) and exact ones.
nonneg = st.one_of(st.floats(0.0, 4.0), st.fractions(min_value=0, max_value=4, max_denominator=8))


@st.composite
def accepted_bundles(draw, kind):
    """Bundles with float or exact fields, kappa^2 crowding 4*sigma*lam from both sides."""
    sigma, lam = draw(nonneg), draw(nonneg)
    theta, twist = draw(st.floats(-7, 7)), draw(st.floats(-1, 1))
    if kind == "circle":
        return TorusCF(lam, theta, twist)
    edge = 2 * math.sqrt(float(sigma) * float(lam))
    kappa = draw(st.floats(-1, 1)) * edge + draw(st.floats(-1e-6, 1e-6))
    return CylinderCF(sigma, kappa, lam, draw(st.floats(-3, 3)), theta, twist)


def _valid(cf) -> bool:
    """is_valid_probability, with draws inside its inconclusive band rejected."""
    try:
        return is_valid_probability(cf)
    except InconclusiveError:
        reject()


class TestStrictScalars:
    """A str or a bool is not read as a number; a float is read exactly."""

    @pytest.mark.parametrize("kwargs", [{"kappa": "1/2"}, {"lam": "1"}, {"tau": True}])
    def test_cylinder_cf(self, kwargs):
        with pytest.raises(TypeError, match="expected an int, a Fraction or a float"):
            CylinderCF(1, **kwargs)
        assert CylinderCF(1, kappa=0.5).kappa == Fraction(1, 2)

    def test_none_refused(self):
        with pytest.raises(TypeError, match="expected an int, a Fraction or a float, got None"):
            CylinderCF(1, kappa=None)

    @pytest.mark.parametrize("kwargs", [{"twist": "1/20"}, {"sigma": True}])
    def test_torus_cf(self, kwargs):
        kwargs = {"sigma": 1, **kwargs}
        with pytest.raises(TypeError, match="expected an int, a Fraction or a float"):
            TorusCF(**kwargs)
        assert TorusCF(1, twist=0.5).twist == Fraction(1, 2)


class TestEval:
    def test_degenerate_has_unit_modulus(self):
        cf = CylinderCF(0, 0, 0, tau=1.5, theta=0.7)
        for s, n in ((0.3, 2), (-1.7, -5), (0, 0)):
            v = cf.eval((s, n))
            assert abs(v) == pytest.approx(1.0)
            assert v == pytest.approx(cmath.exp(1j * (1.5 * s + 0.7 * n)))

    def test_line_gaussian_closed_form(self):
        omega = Fraction(3, 2)
        cf = CylinderCF(1, 2 * omega, omega * omega)
        for s in (-2, -0.5, 0, 1, 2.5):
            for n in range(-3, 4):
                expected = math.exp(-float((s + float(omega) * n)) ** 2)
                assert cf.eval((s, n)) == pytest.approx(expected, rel=1e-12)

    def test_torus_odd_even(self):
        kappa = 0.3
        cf = TorusCF(1, 0, kappa)
        for n in (1, -3, 5):
            assert cf.eval(n) == pytest.approx(math.exp(-n * n + 2 * kappa))
        for n in (0, 2, -4):
            assert cf.eval(n) == pytest.approx(math.exp(-n * n))

    def test_normalized_and_nonvanishing(self):
        cf = CylinderCF(2, 1, 1, tau=0.4, theta=1.1, twist=0.2)
        assert cf.eval(DualPoint(0, 0)) == pytest.approx(1.0)
        for s, n in ((3, 5), (-4, -7), (10, 0)):
            assert cf.eval((s, n)) != 0

    def test_conjugate_symmetry_when_shift_free(self):
        cf = CylinderCF(Fraction(2), Fraction(1), Fraction(1), twist=Fraction(1, 5))
        for s, n in ((1.2, 3), (-0.4, -2)):
            y = DualPoint(s, n)
            assert cf.eval(-y) == pytest.approx(cf.eval(y).conjugate())


class TestConvolve:
    def test_identity_element(self):
        cf = CylinderCF(1, 1, 1, tau=2, theta=1)
        assert convolve(cf, CylinderCF(0)) == cf

    def test_line_family_exponents_add(self):
        omega = Fraction(1)
        a = CylinderCF(1, 2 * omega, omega * omega)
        b = CylinderCF(2, 4 * omega, 2 * omega * omega)
        out = convolve(a, b)
        assert out == CylinderCF(3, 6 * omega, 3 * omega * omega)

    def test_twists_cancel(self):
        a = TorusCF(1, 0.3, 0.25)
        b = TorusCF(1, 0.4, -0.25)
        assert convolve(a, b).twist == 0

    def test_pointwise_product(self):
        rng = np.random.default_rng(5)
        a = CylinderCF(1.3, 0.4, 0.9, tau=0.2, theta=1.0, twist=0.1)
        b = CylinderCF(0.7, -0.5, 1.1, tau=-1.0, theta=0.3, twist=-0.05)
        c = convolve(a, b)
        for _ in range(25):
            y = (rng.normal(), int(rng.integers(-4, 5)))
            assert c.eval(y) == pytest.approx(a.eval(y) * b.eval(y), abs=1e-12)

    @given(psd_cylinder_cfs(), psd_cylinder_cfs(), psd_cylinder_cfs())
    @settings(max_examples=60, deadline=None)
    def test_commutative_associative_exact(self, a, b, c):
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            convolve(CylinderCF(1), TorusCF(1))


class TestReflectSymmetrize:
    def test_reflect_degenerate(self):
        cf = CylinderCF(0, tau=1.5, theta=0.5)
        out = reflect(cf)
        assert out.tau == -1.5 and out.theta == pytest.approx(TWO_PI - 0.5)

    def test_involution(self):
        cf = CylinderCF(1, 1, 1, tau=Fraction(3), theta=Fraction(1), twist=Fraction(2))
        assert reflect(reflect(cf)) == cf

    def test_conjugate_property(self):
        cf = CylinderCF(1, 0.5, 0.5, tau=0.7, theta=0.2, twist=0.1)
        r = reflect(cf)
        for s, n in ((0.6, 1), (-2.0, 3)):
            assert r.eval((s, n)) == pytest.approx(cf.eval((s, n)).conjugate())

    def test_symmetrize_strips_shifts_doubles_rest(self):
        cf = CylinderCF(Fraction(1), Fraction(1), Fraction(1),
                        tau=Fraction(4), theta=Fraction(2), twist=Fraction(1, 3))
        nu = symmetrize(cf)
        assert nu.tau == 0 and nu.theta == 0
        assert (nu.sigma, nu.kappa, nu.lam, nu.twist) == (2, 2, 2, Fraction(2, 3))


class TestGaussianity:
    def test_twist_free_is_gaussian(self):
        assert is_gaussian(CylinderCF(1, 1, 1, tau=3, theta=2))
        assert is_gaussian(TorusCF(2, 0.3, 0))

    def test_twisted_is_not(self):
        assert not is_gaussian(TorusCF(1, 0, 0.3))
        assert not is_gaussian(CylinderCF(1, 0, 0, twist=-0.2))

    def test_degenerate_is_gaussian(self):
        assert is_gaussian(CylinderCF(0, tau=5, theta=1))
        assert is_gaussian(TorusCF(0, 1.0, 0))


def _scalar(lo, hi):
    """An int, Fraction or float scalar in [lo, hi]; floats include -0.0."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)),
                     st.fractions(lo, hi, max_denominator=12),
                     st.floats(lo, hi))


def circle_bundles():
    """Circle bundles with exact, float or mixed fields, angles outside [0, 2*pi) too."""
    return st.builds(TorusCF, _scalar(0, 4),
                     st.one_of(st.just(0), st.just(0.0), _scalar(-10, 10)),
                     st.one_of(st.just(0), _scalar(-2, 2)))


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


def _assert_same_circle_bundle(op, oracle, *args):
    """op(*args) equals oracle(*args) field for field."""
    ref = oracle(*args)
    out = op(*args)
    assert type(out) is type(ref) is TorusCF
    assert out == ref
    fields = ("sigma", "theta", "twist")
    assert [type(getattr(out, f)) for f in fields] == [type(getattr(ref, f)) for f in fields]
    for n in range(-8, 9):
        assert _bits(out.eval(n)) == _bits(oracle_eval(ref, n)), (out, n)


class TestCircleOracle:
    """Circle bundles computed through the cylinder code against the old circle branches."""

    @given(circle_bundles(), circle_bundles())
    @settings(max_examples=300, deadline=None)
    def test_algebra_matches_circle_branches(self, a, b):
        for n in range(-8, 9):
            assert _bits(a.eval(n)) == _bits(oracle_eval(a, n))
            parts, ref = a.log_parts(n), oracle_log_parts(a, n)
            assert parts == ref and list(map(type, parts)) == list(map(type, ref))
        _assert_same_circle_bundle(convolve, oracle_convolve, a, b)
        _assert_same_circle_bundle(reflect, oracle_reflect, a)
        _assert_same_circle_bundle(symmetrize, lambda cf: oracle_convolve(cf, oracle_reflect(cf)), a)

    def test_mixed_bundle_types_rejected(self):
        for op in (convolve, oracle_convolve):
            with pytest.raises(TypeError, match="cannot convolve TorusCF with CylinderCF"):
                op(TorusCF(1), CylinderCF(1))
        with pytest.raises(TypeError, match="cannot reflect int"):
            reflect(3)


def _float_cylinder(cf):
    return CylinderCF(*(float(getattr(cf, f)) for f in
                        ("sigma", "kappa", "lam", "tau", "theta", "twist")))


def cylinder_bundles():
    """PSD cylinder bundles, twist often zero, with rational or float-rounded parameters."""
    exact = st.builds(
        lambda x, y, r, tau, theta, tw: CylinderCF(x * x, 2 * x * y * r, y * y, tau, theta, tw),
        x=rationals, y=rationals,
        r=st.fractions(min_value=-1, max_value=1, max_denominator=4),
        tau=rationals, theta=rationals, tw=st.one_of(st.just(0), rationals))
    return st.one_of(exact, exact.map(_float_cylinder))


class TestGaussianityOracle:
    """The grid evaluation of the parallelogram identity agrees with twist == 0."""

    @given(st.one_of(cylinder_bundles(), circle_bundles()))
    @settings(max_examples=300, deadline=None)
    def test_gap_is_eight_twists_exactly_when_not_gaussian(self, cf):
        if isinstance(cf, CylinderCF):
            gap, scale = parallelogram_gap(cf.phi, GAUSS_GRID_CYL)
        else:
            gap, scale = parallelogram_gap(lambda n: -cf.log_parts(n)[0], GAUSS_GRID_TOR)
        gaussian = is_gaussian(cf)
        assert gaussian == (cf.twist == 0)
        # Float arguments are read exactly, so the gap carries no rounding.
        expected = 0.0 if gaussian else 8.0 * abs(float(cf.twist))
        assert (gap, scale) == (expected, 0.0)

    def test_rejects_non_bundles(self):
        with pytest.raises(TypeError, match="is_gaussian expects a CF bundle"):
            is_gaussian(3)


class TestValidity:
    def test_wrapped_gaussian(self):
        assert is_valid_probability(TorusCF(1, 0, 0))

    def test_zero_sigma_twist_is_signed(self):
        assert not is_valid_probability(TorusCF(0, 0, 0.2))
        assert is_valid_probability(TorusCF(0, 0, -0.2))
        assert is_valid_probability(TorusCF(0, 0, 0))

    def test_small_twist_is_valid(self):
        assert is_valid_probability(TorusCF(1, 0, 0.05))

    def test_large_twist_is_invalid(self):
        # Heavily twisted: density goes negative near the antipode.
        assert not is_valid_probability(TorusCF(1, 0, 1.5))

    def test_small_sigma_twist_is_invalid(self):
        # The threshold at sigma = 0.001 is about 2*exp(-pi^2/0.004), far below 0.05.
        assert not is_valid_probability(TorusCF(0.001, 0, 0.05))

    def test_matches_spatial_domain_oracle(self):
        for sigma, twist in ((1.0, 0.05), (1.0, 1.5), (0.5, 0.3)):
            verdict = is_valid_probability(TorusCF(sigma, 0, twist))
            assert verdict == (spatial_min_density(sigma, twist) >= -1e-9)

    @settings(max_examples=300, deadline=None)
    @given(sigma=st.one_of(st.floats(math.log(0.063), math.log(10.0)).map(math.exp),
                           st.sampled_from([1e-300, 5e-324, 1e300])),
           factor=st.floats(0.5, 1.5), fallback=st.floats(1e-300, 20.0),
           exact=st.booleans())
    def test_closed_form_matches_oracles(self, sigma, factor, fallback, exact):
        """Away from the threshold the closed form agrees with both oracles.

        The spatial oracle decides every draw; the Fourier oracle only where
        it is conclusive.  Where the threshold underflows to 0 or is beyond
        the float range (the sigma extremes) the twist is drawn directly.
        """
        threshold = spatial_threshold(sigma) if sigma < 1e300 else math.inf
        twist = factor * threshold if 0 < threshold < math.inf else fallback
        if abs(twist - threshold) <= 1e-6 * threshold:
            reject()
        spatial = spatial_min_density(sigma, twist) >= 0
        assert spatial == (twist <= threshold)
        cf = TorusCF(Fraction(sigma), 0, Fraction(twist)) if exact else TorusCF(sigma, 0, twist)
        verdict = is_valid_probability(cf)
        assert verdict == spatial
        assert fourier_conclusive(TorusCF(sigma, 0, twist)) in (None, verdict)

    def test_roadmap_example_rejected(self):
        # The Fourier check accepted this law: its density dips to about -3e-11.
        assert not is_valid_probability(TorusCF(0.10790131084271248, 0, 2.655959499046878e-10))
        assert oracle_is_valid_probability(TorusCF(0.10790131084271248, 0, 2.655959499046878e-10))

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 2.0, 5.0])
    def test_inconclusive_inside_the_band(self, sigma):
        threshold = spatial_threshold(sigma)
        for twist in (threshold, threshold * (1 + 1e-12), threshold * (1 - 1e-12)):
            with pytest.raises(InconclusiveError):
                is_valid_probability(TorusCF(sigma, 0, twist))
        assert is_valid_probability(TorusCF(sigma, 0, threshold * (1 - 1e-6)))
        assert not is_valid_probability(TorusCF(sigma, 0, threshold * (1 + 1e-6)))

    @pytest.mark.parametrize("twist", [5e-324, 1e-300, 0.5, 20.0])
    def test_minus_infinite_log_threshold_is_invalid(self, twist):
        # At sigma = 5e-324 the log threshold -pi^2/(4*sigma) is -inf: decided, not inconclusive.
        assert is_valid_probability(TorusCF(5e-324, 0, twist)) is False

    @settings(max_examples=300, deadline=None)
    @given(sigma=st.floats(math.log(0.01), math.log(700.0)).map(math.exp),
           twist=st.one_of(st.floats(1e-6, 350.0),
                           st.sampled_from([-3e-9, -1e-9 / 2, 1e-9 / 2, 3e-9])))
    def test_float_sides_verdicts_kept(self, sigma, twist):
        """Where both sides are normal floats the verdict and the 1e-9 band are the float form's.

        A draw in the second list is a relative offset of the sigma side: the
        twist is placed just inside or just outside the inconclusive band.
        """
        if twist < 1e-6:  # -log tanh(t) = side  <=>  t = atanh(e^{-side}) = -log tanh(side/2) / 2
            side = oracle_float_sides(TorusCF(sigma, 0, 1.0))[2] * (1 + twist)
            twist = math.atanh(math.exp(-side)) if side > 1 else -math.log(math.tanh(side / 2)) / 2
        cf = TorusCF(sigma, 0, twist)
        verdict, twist_side, sigma_side = oracle_float_sides(cf)
        if min(twist_side, sigma_side) < sys.float_info.min:
            reject()
        if verdict is None:
            with pytest.raises(InconclusiveError):
                is_valid_probability(cf)
        else:
            assert is_valid_probability(cf) == verdict

    @pytest.mark.parametrize("sigma,twist,valid", [
        (800, 400, False),  # 2e^{-800} < 4e^{-800}: both sides underflow to 0 as floats
        (800, 399, True),
        (800.0, 400.0, False),
        (10 ** 400, Fraction(1, 20), True),
        (10 ** 400, 10 ** 400 // 2 - 1, True),  # sigma - 2t = 2 > log 2
        (10 ** 400, 10 ** 400 // 2, False),  # sigma - 2t = 0 < log 2
        (Fraction(1, 2), 10 ** 400, False),
        (10 ** 400, 1.5, True),  # a float twist, read exactly
        (2.0, 10 ** 400, False),
        (1e300, Fraction(1e300) / 2 - 1, True),  # sigma - 2t = 2, but 0 in float arithmetic
    ])
    def test_sides_outside_the_float_range(self, sigma, twist, valid):
        assert is_valid_probability(TorusCF(sigma, 0, twist)) is valid

    def test_inconclusive_where_the_sides_underflow(self):
        # sigma = 2t + log 2 puts both sides at 4e^{-sigma}, far below the float range,
        # where the float form called every law inconclusive.
        assert oracle_float_sides(TorusCF(800, 0, 400))[0] is None
        twist = (800 - math.log(2)) / 2
        with pytest.raises(InconclusiveError):
            is_valid_probability(TorusCF(800, 0, twist))
        assert is_valid_probability(TorusCF(800, 0, twist - 1e-6))
        assert not is_valid_probability(TorusCF(800, 0, twist + 1e-6))

    def test_rejects_non_bundles(self):
        with pytest.raises(TypeError, match="expects a CylinderCF or a TorusCF"):
            is_valid_probability(3)

    def test_inconclusive_message_formats_long_exact_values(self):
        # 0.999999 of the threshold at sigma 1/10000, about 2e^{-pi^2/(4/10000)}, exactly:
        # str() of its 10,000-digit denominator would raise in the message.
        with localcontext() as ctx:
            ctx.prec = 30
            twist = Fraction(Decimal("0.999999") * 2
                             * (-Decimal(math.pi) ** 2 / Decimal("4e-4")).exp())
        assert twist.denominator > 10 ** 10000
        with pytest.raises(InconclusiveError, match="agree to 1e-9 relative at sigma "
                                                    "1.000e-04, twist 3.267e-10716$"):
            is_valid_probability(TorusCF(Fraction(1, 10 ** 4), 0, twist))

    def test_exact_parameters_below_the_float_range(self):
        # float() of either parameter is 0.0; the logs come from the exact values.
        assert is_valid_probability(TorusCF(1, 0, Fraction(1, 10 ** 400)))
        assert not is_valid_probability(TorusCF(Fraction(1, 10 ** 400), 0, Fraction(1, 20)))

    def test_cylinder_needs_a_psd_form(self):
        assert is_valid_probability(CylinderCF(1, 2, 1))
        assert not is_valid_probability(CylinderCF(1, 2, 1 - Fraction(1, 100)))
        assert not is_valid_probability(CylinderCF(0, Fraction(1, 10 ** 9), 1))

    @pytest.mark.parametrize("sigma,kappa,lam", [
        (1, 2, 1), (2, 1, 3), (0, 0, Fraction(1, 3)), (Fraction(1, 7), 1, 2), (3, 0, 0)])
    @pytest.mark.parametrize("twist", [Fraction(-1, 2), Fraction(1, 50), Fraction(1, 10), 1])
    def test_cylinder_reduces_to_the_conditional_circle_law(self, sigma, kappa, lam, twist):
        """Given X the circle coordinate is wrapped normal of variance lam - kappa^2/(4*sigma)."""
        conditional = lam - Fraction(kappa ** 2, 4 * sigma) if sigma else lam
        assert (is_valid_probability(CylinderCF(sigma, kappa, lam, 1, 2, twist))
                == is_valid_probability(TorusCF(conditional, 0, twist)))


class TestSupportLine:
    def test_simple_line(self):
        assert support_line(CylinderCF(1, 2, 1)) == 1

    def test_full_support(self):
        assert support_line(CylinderCF(1, 0, 1)) is None

    def test_reference_convolution(self, ref_family):
        nu = symmetrize(ref_family.cfs[0])
        for cf in ref_family.cfs[1:]:
            nu = convolve(nu, symmetrize(cf))
        assert (nu.sigma, nu.kappa, nu.lam) == (6, 12, 6)
        assert support_line(nu) == 1

    def test_exact_fraction_slope(self):
        omega = Fraction(5, 3)
        cf = CylinderCF(Fraction(2), 4 * omega, 2 * omega * omega)
        assert support_line(cf) == omega

    def test_circle_support(self):
        assert support_line(CylinderCF(0, 0, 2)) is None
        assert classify_support(CylinderCF(0, 0, 2)) == "circle"

    def test_point_support(self):
        assert classify_support(CylinderCF(0, 0, 0)) == "point"

    def test_kinds(self):
        assert classify_support(CylinderCF(1, 2, 1)) == "line"
        assert classify_support(CylinderCF(1, 0, 1)) == "full"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            support_line(CylinderCF(1, 2, 1, twist=0.1))
        with pytest.raises(ValueError):
            support_line(CylinderCF(1, 2, 1, tau=1))

    @given(psd_cylinder_cfs(), psd_cylinder_cfs())
    @settings(max_examples=60, deadline=None)
    def test_line_closed_under_convolution(self, a, b):
        a = CylinderCF(a.sigma, a.kappa, a.lam)
        b = CylinderCF(b.sigma, b.kappa, b.lam)
        la, lb = (support_line(a) if a.sigma > 0 else None,
                  support_line(b) if b.sigma > 0 else None)
        if la is not None and lb is not None and la == lb:
            assert support_line(convolve(a, b)) == la


class TestPSD:
    def test_rejects_indefinite(self):
        # An indefinite form makes a bundle but not a probability measure.
        assert not is_valid_probability(CylinderCF(1, 3, 1))
        assert not is_valid_probability(CylinderCF(0.0, 1e-6, 0.0))
        with pytest.raises(ValueError):
            CylinderCF(-1, 0, 0)
        with pytest.raises(ValueError):
            CylinderCF(1, 0, -2)

    def test_negative_float_variance_rejected(self):
        # A float is read exactly, so there is no slack below zero.
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            CylinderCF(-1e-13, 0, 0)
        with pytest.raises(ValueError, match="lam must be >= 0"):
            CylinderCF(0, 0, -1e-12)
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            TorusCF(-1e-13)
        assert CylinderCF(0.5, 0.25, 0.125) == CylinderCF(Fraction(1, 2), Fraction(1, 4),
                                                          Fraction(1, 8))

    @given(psd_cylinder_cfs(), psd_cylinder_cfs())
    @settings(max_examples=80, deadline=None)
    def test_convolution_stays_valid(self, a, b):
        # The convolution of two probability measures is one.
        if _valid(a) and _valid(b):
            assert _valid(convolve(a, b))

    @given(st.sampled_from(["circle", "cylinder"]).flatmap(
        lambda kind: st.tuples(accepted_bundles(kind), accepted_bundles(kind))))
    @example((TorusCF(9.343470532819704e-13), TorusCF(9.343470532819704e-13)))
    @example((CylinderCF(9.343470532819704e-13, 0, 1), CylinderCF(9.343470532819704e-13, 0, 1)))
    @settings(max_examples=300, deadline=None)
    def test_closed_on_accepted_bundles(self, pair):
        out = convolve(*pair)
        assert type(out) is type(pair[0])
        if _valid(pair[0]) and _valid(pair[1]):
            assert _valid(out)

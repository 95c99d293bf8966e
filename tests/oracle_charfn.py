"""References for the circle-bundle algebra and the Gaussianity verdict of `cylinderstat.charfn`.

The `oracle_*` functions are the circle branches `TorusCF`, `convolve`,
`reflect` and `transform` had before circle bundles ran through the cylinder
code, kept verbatim with the bundle passed in as `cf`.  The library must
give equal results of the same types, and bit-equal `eval` values.

`parallelogram_gap` with the two point lists is the grid evaluation of the
parallelogram identity that `is_gaussian` used to run as a self-check on its
closed-form verdict twist == 0.

`oracle_is_valid_probability` is the Fourier-inversion validity check that
`is_valid_probability` ran before its closed form, kept verbatim.  It
tolerates densities down to -tol, so near the threshold it accepts laws
whose density is negative; `fourier_conclusive` says where its verdict
decides.  `spatial_min_density` and `spatial_threshold` are the angle-domain
references: the wrapped normal summed over its images, with no Fourier
series and no theta function.

`oracle_float_sides` is the first closed form of `is_valid_probability`,
kept verbatim as a reference: it compares the two negative-log sides as
floats, so it is right only where both are normal floats (it called
sigma 800, twist 400 inconclusive, both sides having underflowed to 0).
"""

import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from cylinderstat.charfn import InconclusiveError, TorusCF, _reduce_param_angle
from cylinderstat.groups import TWO_PI
from cylinderstat.montecarlo import fourier_density


def _all_exact(*values) -> bool:
    """True when every value is an int or a Fraction."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _parity_term(twist, n: int):
    # twist * (1 - (-1)^n): 0 at even n, 2*twist at odd n.
    return 2 * twist if n % 2 else 0


def oracle_log_parts(cf, n: int):
    re = -(cf.sigma * n * n)
    if cf.twist != 0:
        re = re + _parity_term(cf.twist, n)
    return re, cf.theta * n


def oracle_phi(cf, n: int):
    re, _ = oracle_log_parts(cf, n)
    return -re


def oracle_eval(cf, n: int) -> complex:
    re, im = oracle_log_parts(cf, n)
    return cmath.exp(complex(float(re), float(im)))


def oracle_convolve(cf1, cf2):
    if isinstance(cf1, TorusCF) and isinstance(cf2, TorusCF):
        return TorusCF(
            cf1.sigma + cf2.sigma,
            _reduce_param_angle(cf1.theta + cf2.theta),
            cf1.twist + cf2.twist,
        )
    raise TypeError(f"cannot convolve {type(cf1).__name__} with {type(cf2).__name__}")


def oracle_reflect(cf):
    if isinstance(cf, TorusCF):
        return replace(cf, theta=_reduce_param_angle(-cf.theta))
    raise TypeError(f"cannot reflect {type(cf).__name__}")


def oracle_transform(cf, e):
    if isinstance(cf, TorusCF):
        if e.a != 1 or e.c != 0:
            raise ValueError("a circle automorphism must have a = 1 and c = 0")
        return TorusCF(cf.sigma, _reduce_param_angle(cf.theta * e.p), cf.twist)
    raise TypeError(f"cannot transform {type(cf).__name__}")


GAUSS_GRID_CYL = [(0, 0), (1, 0), (0, 1), (-1, 1), (Fraction(1, 2), 2)]
GAUSS_GRID_TOR = [0, 1, -1, 2, 3]


def parallelogram_gap(phi, points):
    """(max |phi(u+v) + phi(u-v) - 2*phi(u) - 2*phi(v)|, rounding scale) over point pairs.

    The rounding scale is the largest |phi| the float gaps subtract; exact
    gaps carry no rounding and add nothing to it.
    """
    worst = scale = 0.0
    for u in points:
        for v in points:
            if isinstance(u, tuple):
                up, um = (u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1])
                values = (phi(*up), phi(*um), phi(*u), phi(*v))
            else:
                values = (phi(u + v), phi(u - v), phi(u), phi(v))
            gap = values[0] + values[1] - 2 * values[2] - 2 * values[3]
            worst = max(worst, abs(float(gap)))
            if not _all_exact(gap):
                scale = max(scale, *map(abs, values))
    return worst, scale


def oracle_is_valid_probability(cf: TorusCF, truncation: int = 64, tol: float = 1e-9,
                                grid_points: int = 1024) -> bool:
    """Whether the circle bundle is the CF of a genuine probability measure.

    Decided by Fourier inversion: the density on a uniform angle grid must be
    real and nonnegative up to `tol`.  The sigma = 0 case is decided exactly
    (point mass convolved with the two-point measure, which is a probability
    iff twist <= 0).  Raises InconclusiveError when the neglected tail of the
    Fourier series is not provably below `tol`.
    """
    if not isinstance(cf, TorusCF):
        raise TypeError("is_valid_probability expects a TorusCF")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if cf.sigma == 0:
        # exp(twist*(1-(-1)^n)) is the CF of masses ((1+e^{2t})/2, (1-e^{2t})/2);
        # the mass at -1 is negative exactly when twist > 0.
        return cf.twist <= 0

    sigma = float(cf.sigma)
    twist = float(cf.twist)
    # |CF(n)| <= exp(-sigma*n^2 + 2*max(twist, 0)); geometric tail bound past n = truncation.
    ratio = math.exp(-2.0 * sigma * (truncation + 1))
    tail = 2.0 * math.exp(2.0 * max(twist, 0.0)) * math.exp(-sigma * (truncation + 1) ** 2) / (1.0 - ratio)
    if not tail <= tol:  # NaN (inf * 0) for an infinite twist bounds nothing
        raise InconclusiveError(
            f"Fourier tail bound {tail:.3e} exceeds tol={tol:.1e} at truncation={truncation}"
        )

    _, density, imag = fourier_density(cf, truncation, grid_points)
    return float(density.min()) >= -tol and float(np.abs(imag).max()) <= tol


def oracle_float_sides(cf: TorusCF):
    """(verdict of the float closed form, -log tanh(t), -log theta4/theta3(e^{-sigma})).

    The verdict is None where the closed form raised InconclusiveError.
    """
    t, sigma = float(cf.twist), float(cf.sigma)
    twist_side = -math.log(math.tanh(t)) if t < 1 else 2 * math.atanh(math.exp(-2 * t))
    if sigma >= 1:
        q = math.exp(-sigma)
        sigma_side = 4 * sum(math.atanh(q ** k) for k in range(1, 40, 2))
    else:
        p = math.exp(-math.pi ** 2 / sigma)
        sigma_side = (math.pi ** 2 / (4 * sigma) - math.log(2)
                      - 2 * sum((-1) ** k * math.log1p(p ** k) for k in range(1, 5)))
    if math.isclose(twist_side, sigma_side, rel_tol=1e-9):
        return None, twist_side, sigma_side
    return twist_side > sigma_side, twist_side, sigma_side


def fourier_conclusive(cf: TorusCF, truncation: int = 64, tol: float = 1e-9,
                       grid_points: int = 1024):
    """The verdict of `oracle_is_valid_probability`, or None where it does not decide.

    It does not decide when its tail bound exceeds `tol` or cannot be formed
    (at a sigma so small that 1 - exp(-2*sigma*(truncation + 1)) is 0), or
    when the least density on its grid is within `tol` of zero.
    """
    try:
        verdict = oracle_is_valid_probability(cf, truncation, tol, grid_points)
    except (InconclusiveError, ZeroDivisionError):
        return None
    if cf.sigma != 0 and abs(float(fourier_density(cf, truncation, grid_points)[1].min())) <= tol:
        return None
    return verdict


def _wrapped_normal(sigma: float, x, images: int):
    """W(x) for the CF e^{-sigma*n^2}: the normal of variance 2*sigma summed over x + 2*pi*k."""
    k = np.arange(-images, images + 1)
    with np.errstate(over="ignore"):  # (x/tiny)^2 is inf, and exp(-inf) is the right 0
        terms = np.exp(-(np.asarray(x, dtype=float)[..., None] + TWO_PI * k) ** 2 / (4 * sigma))
    return terms.sum(axis=-1) / math.sqrt(4 * math.pi * sigma)


def spatial_min_density(sigma: float, twist: float, points: int = 512, images: int = 12) -> float:
    """The least value of a*W(x) + b*W(x + pi) on `points` uniform angles.

    a = (1 + e^{2t})/2 and b = -expm1(2t)/2, so a tiny twist keeps its weight.
    """
    x = np.linspace(0.0, TWO_PI, points, endpoint=False)
    b = -math.expm1(2 * twist) / 2
    density = (1 - b) * _wrapped_normal(sigma, x, images) + b * _wrapped_normal(sigma, x + math.pi, images)
    return float(density.min())


def spatial_threshold(sigma: float, images: int = 12) -> float:
    """atanh(W(pi)/W(0)): the largest twist whose law is a probability measure."""
    return math.atanh(float(_wrapped_normal(sigma, math.pi, images) / _wrapped_normal(sigma, 0.0, images)))

"""References for the circle-bundle algebra and the Gaussianity verdict of `cylinderstat.charfn`.

The `oracle_*` functions are the circle branches `TorusCF`, `convolve`,
`reflect` and `transform` had before circle bundles ran through the cylinder
code, kept verbatim with the bundle passed in as `cf`.  The library must
give equal results of the same types, and bit-equal `eval` values.

`parallelogram_gap` with the two point lists is the grid evaluation of the
parallelogram identity that `is_gaussian` used to run as a self-check on its
closed-form verdict twist == 0.
"""

import cmath
from dataclasses import replace
from fractions import Fraction

from cylinderstat.charfn import TorusCF, _reduce_param_angle
from cylinderstat.groups import is_exact


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
            if not is_exact(gap):
                scale = max(scale, *map(abs, values))
    return worst, scale

"""Reference for the empirical independence report: the resampled null.

`oracle_empirical_independence` is `montecarlo.empirical_independence` as it
was before the Gaussian null: it computes one character column per probe and
slot, and calibrates the band by resampling each statistic's rows
independently, one freshly gathered array per replicate.  The library must
give equal residuals (`==`); its band, drawn from the delta-method Gaussian,
must match the resampled quantiles within their Monte-Carlo error.

`oracle_sample_torus_twisted` is the circle sampler as it was before its
mode count followed sigma, with the Fourier validity check of
`oracle_charfn`: at the same mode count the library must draw bit-equal
samples.

`oracle_sample_line_gaussian` is the line sampler as it was before every
member was drawn from its own bundle: on a member carried by a line the
library must draw bit-equal samples.

`oracle_fourier_density` is the Fourier inversion as one phase table over
every angle; the library sums it over blocks of angles and must give equal
arrays.
"""

import math

import numpy as np

from cylinderstat.groups import TWO_PI, CylinderPoint
from cylinderstat.independence import StatMatrix
from cylinderstat.montecarlo import (SampleSet, _chunk_generators, default_probes,
                                     statistic_samples)
from oracle_charfn import oracle_is_valid_probability


def oracle_fourier_density(cf, truncation: int, grid_points: int):
    ns = np.arange(-truncation, truncation + 1)
    coeffs = np.array([cf.eval(int(n)) for n in ns])
    angles = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
    sums = (coeffs[None, :] * np.exp(-1j * np.outer(angles, ns))).sum(axis=1)
    return angles, sums.real / TWO_PI, sums.imag / TWO_PI


def oracle_sample_line_gaussian(sigma, omega, count: int, seed: int,
                                shift: CylinderPoint = None) -> SampleSet:
    """Draws from the Gaussian carried by the line {(t, omega*t)}, plus a shift.

    t is normal with mean 0 and variance 2*sigma, which makes the empirical
    CF converge to exp(-sigma*(s + omega*n)^2); theta = omega*t exactly, so
    every sample sits on the line before shifting.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    std = math.sqrt(2.0 * sigma)
    if not math.isfinite(std):
        raise ValueError(f"sigma {sigma!r} is too large to sample")
    parts = [rng.normal(0.0, std, size) for rng, size in _chunk_generators(seed, count)]
    t = np.concatenate(parts)
    with np.errstate(over="raise"):  # FloatingPointError for a huge omega
        theta = float(omega) * t
    if shift is not None:
        t = t + shift.t
        theta = theta + shift.theta
    return SampleSet(t, theta)


def _torus_inverse_cdf(cf, truncation: int, grid: int):
    angles, density, _ = oracle_fourier_density(cf, truncation, grid)
    weights = np.clip(density, 0.0, None) * (TWO_PI / grid)
    cdf = np.concatenate([[0.0], np.cumsum(weights)])
    cdf /= cdf[-1]
    edges = np.concatenate([angles, [TWO_PI]])
    return cdf, edges


def oracle_sample_torus_twisted(cf, count: int, seed: int,
                                truncation: int = 64, grid: int = 4096) -> SampleSet:
    if count < 1:
        raise ValueError("count must be >= 1")
    if not oracle_is_valid_probability(cf, truncation=truncation, tol=1e-9):
        raise ValueError(f"not a probability measure: {cf}")
    theta0 = float(cf.theta)
    if cf.sigma == 0:
        if cf.twist == 0:
            theta = np.full(count, theta0)
        else:
            # Two point masses at theta0 and theta0 + pi.
            p1 = (1.0 + math.exp(2.0 * float(cf.twist))) / 2.0
            parts = [rng.random(size) for rng, size in _chunk_generators(seed, count)]
            u = np.concatenate(parts)
            theta = np.where(u < p1, theta0, theta0 + math.pi)
        return SampleSet(np.zeros(count), theta)

    cdf, edges = _torus_inverse_cdf(cf, truncation, grid)
    parts = [rng.random(size) for rng, size in _chunk_generators(seed, count)]
    u = np.concatenate(parts)
    theta = np.interp(u, cdf, edges)
    return SampleSet(np.zeros(count), theta)


def _probe_characters(stats, probes, kind: str, dtype=complex) -> np.ndarray:
    """Array (n_stats, count, n_probes) of character values per statistic sample."""
    n_stats = len(stats)
    count = stats[0].count
    out = np.empty((n_stats, count, len(probes)), dtype=dtype)
    for pi, probe in enumerate(probes):
        for i, y in enumerate(probe):
            if kind == "cylinder":
                s, n = float(y[0]), int(y[1])
            else:
                s, n = 0.0, int(y)
            out[i, :, pi] = np.exp(1j * (s * stats[i].t + n * stats[i].theta))
    return out


def _differences_from_chars(chars: np.ndarray) -> np.ndarray:
    """Mean of products - product of means per probe, chars (n_stats, count, P)."""
    prod = chars[0].copy()
    for i in range(1, chars.shape[0]):
        prod *= chars[i]
    joint = prod.mean(axis=0)
    marginal = chars[0].mean(axis=0)
    for i in range(1, chars.shape[0]):
        marginal = marginal * chars[i].mean(axis=0)
    return joint - marginal


def _residuals_from_chars(chars: np.ndarray) -> np.ndarray:
    """|mean of products - product of means| per probe, chars (n_stats, count, P)."""
    return np.abs(_differences_from_chars(chars))


def oracle_null_differences(chars: np.ndarray, bootstrap: int, seed: int) -> np.ndarray:
    """Joint - product of marginals, (bootstrap, P), for null resamplings of chars.

    Independent row draws per statistic preserve the marginals but enforce
    independence, giving the noise distribution of the residual under the
    null hypothesis.  Single precision is plenty for ~1e-3-scale noise.
    """
    chars32 = chars.astype(np.complex64)
    count = chars.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0057]))
    out = np.empty((bootstrap, chars.shape[2]), dtype=np.complex64)
    for b in range(bootstrap):
        gathered = np.empty_like(chars32)
        for i in range(chars.shape[0]):
            gathered[i] = chars32[i, rng.integers(0, count, size=count)]
        out[b] = _differences_from_chars(gathered)
    return out


def oracle_null_maxima(chars: np.ndarray, bootstrap: int, seed: int) -> np.ndarray:
    """The max-residual statistic of each null resampling."""
    return np.abs(oracle_null_differences(chars, bootstrap, seed)).max(axis=1).astype(float)


def oracle_empirical_independence(samples, matrix: StatMatrix, probes=None,
                           bootstrap: int = 200, seed: int = 0, kind: str = None):
    """Empirical independence report for the statistics defined by the matrix.

    Returns a dict with the max residual over the probe grid, the worst
    probe, and (when bootstrap > 0) the null band described in the module
    docstring together with the verdict `consistent_with_zero`.
    """
    if kind is None:
        kind = "torus" if matrix.is_sign_matrix() and all(
            np.all(s.t == 0) for s in samples) else "cylinder"
    if probes is None:
        probes = default_probes(matrix.n, kind)
    stats = statistic_samples(samples, matrix)
    count = stats[0].count
    chars = _probe_characters(stats, probes, kind)

    residuals = _residuals_from_chars(chars)
    worst = int(residuals.argmax())
    max_residual = float(residuals[worst])

    report = {
        "count": count,
        "probes": len(probes),
        "max_residual": max_residual,
        "worst_probe": probes[worst],
        "residuals": [float(r) for r in residuals],
        "bootstrap": bootstrap,
    }
    if bootstrap > 0:
        null_stats = oracle_null_maxima(chars, bootstrap, seed)
        lo, hi = np.quantile(null_stats, [0.025, 0.975])
        band = (max_residual - float(hi), max_residual - float(lo))
        report["null_band"] = band
        report["consistent_with_zero"] = band[0] <= 0.0 <= band[1]
    return report

"""Sampling the constructed distributions and empirical independence checks.

Sampling is chunked with per-chunk seeds derived from the sample index, so a
given (seed, count) pair yields a bit-identical stream no matter how the work
is scheduled.  The empirical independence check estimates

    | E prod_i (L_i, y_i) - prod_i E (L_i, y_i) |

over a probe grid of dual tuples and calibrates "consistent with zero" by a
null bootstrap: resampling each statistic's rows independently enforces
independence while preserving marginals, and the reported band is the
observed residual shifted by the 2.5%/97.5% quantiles of that null statistic.
A band containing zero means the observed residual is explained by sampling
noise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .charfn import TorusCF, fourier_density, is_valid_probability
from .groups import TWO_PI, CylinderPoint, DualPoint
from .independence import StatMatrix

_CHUNK = 1 << 14


@dataclass(frozen=True)
class SampleSet:
    """Arrays of cylinder samples (t_k, theta_k); circle samples have t = 0."""

    t: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        theta = np.mod(np.asarray(self.theta, dtype=float), TWO_PI)
        if t.shape != theta.shape or t.ndim != 1:
            raise ValueError("t and theta must be 1-D arrays of equal length")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "theta", theta)

    @property
    def count(self) -> int:
        return len(self.t)


def _chunk_generators(seed: int, count: int):
    n_chunks = (count + _CHUNK - 1) // _CHUNK
    seqs = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [min(_CHUNK, count - i * _CHUNK) for i in range(n_chunks)]
    return [(np.random.default_rng(s), size) for s, size in zip(seqs, sizes)]


def sample_line_gaussian(sigma, omega, count: int, seed: int,
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
    parts = [rng.normal(0.0, std, size) for rng, size in _chunk_generators(seed, count)]
    t = np.concatenate(parts)
    theta = float(omega) * t
    if shift is not None:
        t = t + shift.t
        theta = theta + shift.theta
    return SampleSet(t, theta)


def _torus_inverse_cdf(cf: TorusCF, truncation: int, grid: int):
    angles, density, _ = fourier_density(cf, truncation, grid)
    weights = np.clip(density, 0.0, None) * (TWO_PI / grid)
    cdf = np.concatenate([[0.0], np.cumsum(weights)])
    cdf /= cdf[-1]
    edges = np.concatenate([angles, [TWO_PI]])
    return cdf, edges


def sample_torus_twisted(cf: TorusCF, count: int, seed: int,
                         truncation: int = 64, grid: int = 4096) -> SampleSet:
    """Inverse-CDF draws from a valid twisted circle bundle.

    The density comes from Fourier inversion on a uniform angle grid; the
    degenerate and two-point (sigma = 0) cases are sampled exactly.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not is_valid_probability(cf, truncation=truncation, tol=1e-9):
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


def empirical_cf(samples: SampleSet, y) -> complex:
    """Empirical characteristic function at a dual point (or integer for the circle)."""
    if isinstance(y, DualPoint):
        s, n = float(y.s), y.n
    elif isinstance(y, tuple):
        s, n = float(y[0]), int(y[1])
    else:
        s, n = 0.0, int(y)
    return complex(np.exp(1j * (s * samples.t + n * samples.theta)).mean())


def statistic_samples(samples, matrix: StatMatrix):
    """Apply the statistic matrix rowwise to per-variable sample sets."""
    if len(samples) != matrix.n:
        raise ValueError(f"need {matrix.n} sample sets, got {len(samples)}")
    counts = {s.count for s in samples}
    if len(counts) != 1:
        raise ValueError("sample sets must have equal counts")
    out = []
    for row in matrix.rows:
        t = np.zeros(samples[0].count)
        theta = np.zeros(samples[0].count)
        for entry, xi in zip(row, samples):
            t += float(entry.a) * xi.t
            theta += float(entry.c) * xi.t + entry.p * xi.theta
        out.append(SampleSet(t, theta))
    return out


_CYL_PROBE_BASE = ((0.25, 0), (0.5, 1), (-0.25, 1), (1.0, 0), (0.5, -1), (-1.0, 2))
_TOR_PROBE_BASE = (1, -1, 2, -2, 3)


def default_probes(n_slots: int, kind: str = "cylinder", count: int = 16,
                   seed: int = 2024):
    """A deterministic probe set of dual tuples, one (s, n) or integer per slot."""
    base = _CYL_PROBE_BASE if kind == "cylinder" else _TOR_PROBE_BASE
    rng = np.random.default_rng(seed)
    probes = []
    seen = set()
    while len(probes) < count:
        tup = tuple(base[int(rng.integers(len(base)))] for _ in range(n_slots))
        if tup not in seen:
            seen.add(tup)
            probes.append(tup)
    return probes


def _probe_characters(stats, probes, kind: str, dtype=complex) -> np.ndarray:
    """Array (n_stats, count, n_probes) of character values; one exp per distinct slot point."""
    n_stats = len(stats)
    count = stats[0].count
    out = np.empty((n_stats, count, len(probes)), dtype=dtype)
    for i in range(n_stats):
        columns = {}
        for pi, probe in enumerate(probes):
            y = probe[i]
            key = (float(y[0]), int(y[1])) if kind == "cylinder" else (0.0, int(y))
            columns.setdefault(key, []).append(pi)
        for (s, n), cols in columns.items():
            out[i][:, cols] = np.exp(1j * (s * stats[i].t + n * stats[i].theta))[:, None]
    return out


def _residuals_from_chars(chars: np.ndarray) -> np.ndarray:
    """|mean of products - product of means| per probe, chars (n_stats, count, P)."""
    prod = chars[0].copy()
    for i in range(1, chars.shape[0]):
        prod *= chars[i]
    joint = prod.mean(axis=0)
    marginal = chars[0].mean(axis=0)
    for i in range(1, chars.shape[0]):
        marginal = marginal * chars[i].mean(axis=0)
    return np.abs(joint - marginal)


def empirical_independence(samples, matrix: StatMatrix, probes=None,
                           bootstrap: int = 200, seed: int = 0, kind: str = None):
    """Empirical independence report for the statistics defined by the matrix.

    Returns a dict with the max residual over the probe grid, the worst
    probe, and (when bootstrap > 0) the null band described in the module
    docstring together with the verdict `consistent_with_zero`.  The
    replicates reuse two gather buffers; the band is bit-for-bit that of
    a fresh gather per replicate.
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
        # Null resampling: independent row draws per statistic preserve the
        # marginals but enforce independence, giving the noise distribution of
        # the max-residual statistic under the null hypothesis.  Single
        # precision is plenty for quantiles of ~1e-3-scale noise.
        chars32 = chars.astype(np.complex64)
        del chars
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0057]))
        # Two reused (count, P) buffers, same order as _residuals_from_chars;
        # mode="clip" skips the output copy of "raise" (indices are in range).
        # The marginal product stays out of place: numpy rounds in-place and
        # out-of-place complex products differently.
        prod, buf = np.empty_like(chars32[:2])
        null_stats = np.empty(bootstrap)
        for b in range(bootstrap):
            np.take(chars32[0], rng.integers(0, count, size=count), axis=0, out=prod, mode="clip")
            marginal = prod.mean(axis=0)
            for i in range(1, len(stats)):
                np.take(chars32[i], rng.integers(0, count, size=count), axis=0, out=buf, mode="clip")
                marginal = marginal * buf.mean(axis=0)
                prod *= buf
            null_stats[b] = float(np.abs(prod.mean(axis=0) - marginal).max())
        lo, hi = np.quantile(null_stats, [0.025, 0.975])
        band = (max_residual - float(hi), max_residual - float(lo))
        report["null_band"] = band
        report["consistent_with_zero"] = band[0] <= 0.0 <= band[1]
    return report


def save_samples_csv(samples: SampleSet, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "theta"])
        for t, theta in zip(samples.t, samples.theta):
            writer.writerow([repr(float(t)), repr(float(theta))])

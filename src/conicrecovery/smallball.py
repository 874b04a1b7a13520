"""Small-ball machinery: marginal tail function, mean empirical width
(over the sphere or a subspace; descent cones by duality), and assembly of
the small-ball, subgaussian, and bowling-scheme bounds.

All estimators are Monte Carlo with deterministic Philox streams; the
Rademacher signs and the measurement rows use distinct child streams of
the same seed so their independence structure is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .conic import Subspace
from .reg import Regularizer, min_dist_sq
from .rng import chunks, generator, mc_mean, spawn_generators

RowSampler = Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class TailEstimate:
    """Empirical estimate of the marginal tail function at threshold xi.

    ``q_min`` is the minimum empirical exceedance frequency over the
    sampled directions (the estimator used for the infimum, biased
    downward); ``q_mean`` averages over directions.
    """

    xi: float
    q_min: float
    q_mean: float
    n_dirs: int
    n_samples: int
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.q_min <= 1.0 and 0.0 <= self.q_mean <= 1.0):
            raise ValueError("tail estimates are probabilities")


@dataclass(frozen=True)
class EmpiricalWidthEstimate:
    m: int
    w_hat: float
    std_error: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")


@dataclass(frozen=True)
class SubgaussianParams:
    alpha: float
    sigma: float
    c5: float = 1.0  # spectral width constant, unspecified by the theory

    def __post_init__(self):
        if self.alpha <= 0 or self.sigma <= 0 or self.c5 <= 0:
            raise ValueError("parameters must be positive")

    @property
    def rho(self) -> float:
        return self.sigma / self.alpha


# ---------------------------------------------------------------------------

def estimate_marginal_tail(phi_sampler: RowSampler,
                           direction_sampler: Callable[[np.random.Generator, int], np.ndarray],
                           xi: float | Sequence[float],
                           n_dirs: int = 50,
                           n_samples: int = 2000,
                           seed: int = 0) -> TailEstimate | list[TailEstimate]:
    """Estimate Q_xi = inf over unit directions of P{|<u, phi>| >= xi}.

    A sequence of thresholds shares one sample set, which makes the
    estimates exactly nonincreasing in xi.  The samples are drawn in
    ``rng.chunks`` and only their exceedance counts are kept.
    Directions must be unit norm elements of the index set.
    """
    if n_dirs < 1 or n_samples < 1:
        raise ValueError("need n_dirs >= 1 and n_samples >= 1")
    xis = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xis < 0):
        raise ValueError("thresholds must be nonnegative")
    rng_dirs, rng_phi = spawn_generators(seed, 2)
    dirs = np.asarray(direction_sampler(rng_dirs, n_dirs), dtype=float)
    dirs = dirs.reshape(n_dirs, -1)
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("direction sampler produced a (near) zero vector")
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("directions must be unit norm")
    counts = np.zeros((len(xis), n_dirs), dtype=np.int64)
    for start, stop in chunks(n_samples, dirs.shape[1]):
        n = stop - start
        phis = np.asarray(phi_sampler(rng_phi, n), dtype=float).reshape(n, -1)
        inner = np.abs(phis @ dirs.T)  # (n, n_dirs)
        for i, x in enumerate(xis):
            counts[i] += np.count_nonzero(inner >= x, axis=0)
    out = []
    for x, count in zip(xis, counts):
        freq = count / n_samples  # per direction
        out.append(TailEstimate(float(x), float(freq.min()), float(freq.mean()),
                                n_dirs, n_samples, seed))
    return out[0] if np.isscalar(xi) else out


def _mean_empirical_sup(phi_sampler: RowSampler, m: int, trials: int,
                        seed: int, sup: Callable[[np.ndarray], np.ndarray]
                        ) -> EmpiricalWidthEstimate:
    """``rng.mc_mean`` of sup(h) over draws of h = m^{-1/2} sum_i eps_i phi_i;
    ``sup`` maps n draws, flattened to rows, to n values."""
    if m < 1:
        raise ValueError("need m >= 1")
    # the chunk bound needs the row size; probe it on a private stream
    row_size = np.asarray(phi_sampler(generator(0), 1)).size
    rng_phi, rng_signs = spawn_generators(seed, 2)

    def sample(n: int) -> np.ndarray:
        # signs scale the fresh rows in place: a product per chunk page-faults
        phis = np.asarray(phi_sampler(rng_phi, n * m), dtype=float).reshape(n, m, -1)
        phis *= rng_signs.choice([-1.0, 1.0], size=(n, m, 1))
        return sup(np.sum(phis, axis=1) / math.sqrt(m))

    w_hat, se = mc_mean(trials, m * row_size, sample)
    return EmpiricalWidthEstimate(m, w_hat, se, trials, seed)


def estimate_mean_empirical_width(phi_sampler: RowSampler,
                                  index_set,
                                  m: int,
                                  trials: int = 2000,
                                  seed: int = 0) -> EmpiricalWidthEstimate:
    """Monte Carlo estimate of the mean empirical width W_m of a set.

    ``index_set`` is one of:

    * ``"sphere"`` -- the full unit sphere; the sup is the norm of h.
    * a ``Subspace`` -- the sup is the norm of the projection of h.

    Descent cones are handled by duality in :func:`bowling_width_descent`.
    """
    if isinstance(index_set, Subspace):
        sup = lambda h: np.linalg.norm(h @ index_set.basis, axis=1)
    elif isinstance(index_set, str) and index_set == "sphere":
        sup = lambda h: np.linalg.norm(h, axis=1)
    else:
        raise TypeError(f"unsupported index set: {index_set!r}")
    return _mean_empirical_sup(phi_sampler, m, trials, seed, sup)


def bowling_width_descent(f: Regularizer, phi_sampler: RowSampler,
                          m: int, trials: int = 2000,
                          seed: int = 0) -> EmpiricalWidthEstimate:
    """Duality upper-bound estimate of W_m for a descent cone.

    Each trial forms h = m^{-1/2} sum_i eps_i phi_i and evaluates
    sqrt(inf_tau dist^2(h, tau * subdiff)); the mean upper-bounds the mean
    empirical width of the descent cone under any row ensemble.
    """
    def dist(h: np.ndarray) -> np.ndarray:
        _, dist_sq = min_dist_sq(*f.dist_terms(h.reshape(-1, *f.ambient_shape)))
        return np.sqrt(np.maximum(dist_sq, 0.0))

    return _mean_empirical_sup(phi_sampler, m, trials, seed, dist)


# ---------------------------------------------------------------------------
# bound assembly

def small_ball_lower_bound(xi: float, m: int, q: float, w: float,
                           t: float) -> float:
    """xi*sqrt(m)*q - 2w - xi*t, a lower bound holding with confidence
    1 - exp(-t^2/2)."""
    if xi < 0 or m < 0 or q < 0 or w < 0 or t < 0:
        raise ValueError("inputs must be nonnegative")
    return xi * math.sqrt(m) * q - 2.0 * w - xi * t


def paley_zygmund_tail(alpha: float, sigma: float, xi: float) -> float:
    """Analytic lower bound (alpha - 2 xi)^2 / (4 sigma^2) on Q_{2 xi}.

    Valid only for 2 xi < alpha; the output is clipped to 1 since it
    bounds a probability.
    """
    if alpha <= 0 or sigma <= 0 or xi < 0:
        raise ValueError("need positive alpha, sigma and nonnegative xi")
    if 2.0 * xi >= alpha:
        raise ValueError("bound requires 2*xi < alpha")
    return min(1.0, (alpha - 2.0 * xi) ** 2 / (4.0 * sigma ** 2))


def subgaussian_conic_bound(params: SubgaussianParams, m: int, w: float,
                            t: float) -> float:
    """(1/54)(alpha^3/sigma^2) sqrt(m) - c5 * sigma * w - (alpha/6) t."""
    if m < 0 or w < 0 or t < 0:
        raise ValueError("need nonnegative m, w, t")
    a, s = params.alpha, params.sigma
    return (a ** 3 / s ** 2) * math.sqrt(m) / 54.0 - params.c5 * s * w - a * t / 6.0


def phase_second_moment(u: np.ndarray, n_samples: int = 100_000,
                        seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of E <U, psi psi^t>^2 for unit-Frobenius
    symmetric U and standard Gaussian psi.  Returns (estimate, std error).
    """
    u = np.asarray(u, dtype=float)
    if not np.allclose(u, u.T, atol=1e-10):
        raise ValueError("U must be symmetric")
    if abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise ValueError("U must have unit Frobenius norm")
    rng_phi, = spawn_generators(seed, 1)

    def sample(n: int) -> np.ndarray:
        psi = rng_phi.standard_normal((n, u.shape[0]))
        return np.einsum("ni,ij,nj->n", psi, u, psi) ** 2

    return mc_mean(n_samples, u.shape[0], sample)

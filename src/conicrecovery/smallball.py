"""Small-ball machinery: marginal tail function, mean empirical width
(over a subspace's unit sphere; descent cones by duality), and assembly of
the small-ball and bowling-scheme bounds.

All estimators are Monte Carlo with deterministic Philox streams; the
Rademacher signs and the measurement rows use distinct child streams of
the same seed so their independence structure is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conic import Subspace
from .reg import Regularizer, min_dist_sq
from .rng import chunks, mc_mean, spawn_generators

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
    n_samples: int

    def __post_init__(self):
        if not (0.0 <= self.q_min <= 1.0 and 0.0 <= self.q_mean <= 1.0):
            raise ValueError("tail estimates are probabilities")


@dataclass(frozen=True)
class EmpiricalWidthEstimate:
    w_hat: float
    std_error: float

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")


# ---------------------------------------------------------------------------

def estimate_marginal_tail(phi_sampler: RowSampler,
                           direction_sampler: Callable[[np.random.Generator, int], np.ndarray],
                           xi: float,
                           n_dirs: int = 50,
                           n_samples: int = 2000,
                           seed: int = 0) -> TailEstimate:
    """Estimate Q_xi = inf over unit directions of P{|<u, phi>| >= xi}.

    The samples are drawn in ``rng.chunks`` and only their exceedance
    counts are kept.  Directions must be unit norm elements of the index
    set.
    """
    if n_dirs < 1:
        raise ValueError("need n_dirs >= 1")
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    if xi < 0:
        raise ValueError("threshold must be nonnegative")
    rng_dirs, rng_phi = spawn_generators(seed, 2)
    dirs = np.asarray(direction_sampler(rng_dirs, n_dirs), dtype=float)
    dirs = dirs.reshape(n_dirs, -1)
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("direction sampler produced a (near) zero vector")
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("directions must be unit norm")
    counts = np.zeros(n_dirs, dtype=np.int64)
    for start, stop in chunks(n_samples, dirs.shape[1]):
        n = stop - start
        phis = np.asarray(phi_sampler(rng_phi, n), dtype=float).reshape(n, -1)
        counts += np.count_nonzero(np.abs(phis @ dirs.T) >= xi, axis=0)
    freq = counts / n_samples  # per direction
    return TailEstimate(float(xi), float(freq.min()), float(freq.mean()),
                        n_samples)


def _mean_empirical_sup(phi_sampler: RowSampler, m: int, trials: int,
                        seed: int, row_size: int,
                        sup: Callable[[np.ndarray], np.ndarray]
                        ) -> EmpiricalWidthEstimate:
    """``rng.mc_mean`` of sup(h) over draws of h = m^{-1/2} sum_i eps_i phi_i;
    ``sup`` maps n draws, flattened to rows of row_size entries, to n values."""
    if m < 1:
        raise ValueError("need m >= 1")
    rng_phi, rng_signs = spawn_generators(seed, 2)

    def sample(n: int) -> np.ndarray:
        # signs scale the fresh rows in place: a product per chunk page-faults
        phis = np.asarray(phi_sampler(rng_phi, n * m), dtype=float).reshape(n, m, -1)
        phis *= rng_signs.choice([-1.0, 1.0], size=(n, m, 1))
        return sup(np.sum(phis, axis=1) / math.sqrt(m))

    w_hat, se = mc_mean(trials, m * row_size, sample)
    return EmpiricalWidthEstimate(w_hat, se)


def estimate_mean_empirical_width(phi_sampler: RowSampler,
                                  index_set: Subspace,
                                  m: int,
                                  trials: int = 2000,
                                  seed: int = 0) -> EmpiricalWidthEstimate:
    """Monte Carlo estimate of the mean empirical width W_m of the unit
    sphere of a subspace (the whole sphere is ``Subspace(np.eye(d))``):
    the sup is the norm of the projection of h.

    Descent cones are handled by duality in :func:`bowling_width_descent`.
    """
    if not isinstance(index_set, Subspace):
        raise TypeError(f"unsupported index set: {index_set!r}")
    sup = lambda h: np.linalg.norm(h @ index_set.basis, axis=1)
    return _mean_empirical_sup(phi_sampler, m, trials, seed,
                               index_set.basis.shape[0], sup)


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

    return _mean_empirical_sup(phi_sampler, m, trials, seed,
                               math.prod(f.ambient_shape), dist)


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

"""Conic Gaussian width bounds and Monte Carlo estimators.

Closed forms cover the sparse and low-rank descent cones and subspaces.
The Monte Carlo estimator targets E inf_tau dist^2(g, tau * subdiff),
which upper-bounds the squared width of the descent cone; it is always
labeled as such and never conflated with an estimate of the width itself.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .reg import Regularizer
from .rng import generator, mc_mean


class WidthMethod(enum.Enum):
    CLOSED_FORM_BOUND = "closed-form-bound"
    MONTE_CARLO_DESCENT = "monte-carlo-descent"
    MONTE_CARLO_SUBSPACE = "monte-carlo-subspace"


@dataclass(frozen=True)
class WidthEstimate:
    """A conic-width quantity (width-squared scale unless noted)."""

    value: float
    std_error: float
    trials: int
    method: WidthMethod

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("width estimate must be nonnegative")
        if self.method is WidthMethod.CLOSED_FORM_BOUND and self.std_error != 0:
            raise ValueError("closed-form bounds carry no standard error")


def sparse_width_bound(s: int, d: int) -> float:
    """Upper bound on w^2 of the l1 descent cone at an s-sparse point in R^d."""
    if s < 1 or s > d:
        raise ValueError("need 1 <= s <= d")
    return 2.0 * s * math.log(d / s) + 2.0 * s


def rank_width_bound(r: int, d1: int, d2: int) -> float:
    """Upper bound on w^2 of the S1 descent cone at a rank-r d1 x d2 point."""
    if r < 1 or r > min(d1, d2):
        raise ValueError("need 1 <= r <= min(d1, d2)")
    return 3.0 * r * (d1 + d2 - r)


def subspace_width_sq(k: int) -> float:
    """Statistical dimension of a k-dimensional subspace (exactly k)."""
    if k < 0:
        raise ValueError("subspace dimension must be nonnegative")
    return float(k)


def gordon_lower_bound(m: int, w: float, t: float) -> float:
    """sqrt(m-1) - w - t; may be negative (caller clips)."""
    if m < 1 or w < 0 or t < 0:
        raise ValueError("need m >= 1 and nonnegative w, t")
    return math.sqrt(m - 1) - w - t


def sample_complexity_gaussian(w: float, margin: float = 3.0) -> int:
    """ceil(w^2 + margin * w), the sufficient Gaussian measurement count."""
    if w < 0 or margin < 0:
        raise ValueError("need nonnegative w and margin")
    return int(math.ceil(w * w + margin * w))


def mc_width_sq_descent(f: Regularizer, trials: int = 2000,
                        seed: int = 0) -> WidthEstimate:
    """Monte Carlo upper-bound estimate of the descent cone's squared width.

    Averages ``f.min_subdiff_dist_sq`` over i.i.d. standard Gaussian
    points of f's reference shape, one call per ``rng.mc_mean`` chunk of
    stacked points, deterministically in (f, trials, seed).
    """
    rng, shape = generator(seed), f.ambient_shape
    mean, se = mc_mean(trials, math.prod(shape), lambda n: f.min_subdiff_dist_sq(
        rng.standard_normal((n, *shape)))[1])
    return WidthEstimate(mean, se, trials, WidthMethod.MONTE_CARLO_DESCENT)


def mc_subspace_width_sq(k: int, trials: int = 10_000,
                         seed: int = 0) -> WidthEstimate:
    """Monte Carlo estimate of (E ||g_k||)^2 for a k-dimensional subspace.

    The sup of <u, g> over the unit sphere of a k-subspace is the norm of
    the projected Gaussian, so the width is E ||g_k||.  The squared-mean
    standard error uses the delta method.
    """
    if k < 0:
        raise ValueError("subspace dimension must be nonnegative")
    rng = generator(seed)
    mean, se = mc_mean(trials, k, lambda n: np.linalg.norm(
        rng.standard_normal((n, k)), axis=1))
    return WidthEstimate(mean * mean, 2.0 * mean * se, trials,
                         WidthMethod.MONTE_CARLO_SUBSPACE)

"""Convex regularizers: values, prox maps, and subdifferential distances.

Each regularizer carries a reference point at which descent-cone
quantities are taken.  ``subdiff_dist_sq(g, tau)`` is the exact squared
distance from g to tau * (subdifferential at the reference point), in
closed form; ``min_subdiff_dist_sq(g)`` minimizes it over tau >= 0 (the
map is convex in tau, so a bracketed 1-D search is globally correct).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

ZERO_TOL = 1e-12  # entries of the reference point below this count as zero


def project_psd(z: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix to the symmetric part of z."""
    z = np.asarray(z, dtype=float)
    z = 0.5 * (z + z.T)
    lam, vecs = np.linalg.eigh(z)
    return (vecs * np.maximum(lam, 0.0)) @ vecs.T


class Regularizer:
    """Base class; subclasses implement the closed forms."""

    ambient_shape: tuple[int, ...]

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, z: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def subdiff_dist_sq(self, g: np.ndarray, tau: float) -> float:
        raise NotImplementedError

    def _min_subgrad_norm(self) -> float:
        raise NotImplementedError

    def min_subdiff_dist_sq(self, g: np.ndarray) -> tuple[float, float]:
        """Return (tau*, min over tau >= 0 of subdiff_dist_sq(g, tau))."""
        g = np.asarray(g, dtype=float)
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            return 0.0, 0.0
        tau_max = 10.0 * gnorm / self._min_subgrad_norm() + 1.0
        res = minimize_scalar(lambda t: self.subdiff_dist_sq(g, t),
                              bounds=(0.0, tau_max), method="bounded",
                              options={"xatol": 1e-9})
        tau_star, val = float(res.x), float(res.fun)
        at_zero = self.subdiff_dist_sq(g, 0.0)
        if at_zero < val:
            tau_star, val = 0.0, at_zero
        return tau_star, val


class L1Norm(Regularizer):
    """l1 norm on R^d with reference point x_ref (nonzero for cone ops)."""

    def __init__(self, x_ref: np.ndarray | None = None, d: int | None = None):
        if x_ref is not None:
            self.x_ref = np.asarray(x_ref, dtype=float)
            self.ambient_shape = self.x_ref.shape
        elif d is not None:
            self.x_ref = None
            self.ambient_shape = (d,)
        else:
            raise ValueError("need x_ref or d")

    def value(self, x):
        return float(np.sum(np.abs(x)))

    def prox(self, z, t):
        z = np.asarray(z, dtype=float)
        return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)

    def _support(self):
        if self.x_ref is None:
            raise ValueError("descent-cone operations need a reference point")
        supp = np.abs(self.x_ref) > ZERO_TOL
        if not np.any(supp):
            raise ValueError("subdifferential at 0 contains the origin; "
                             "reference point must be nonzero")
        return supp

    def subdiff_dist_sq(self, g, tau):
        supp = self._support()
        g = np.asarray(g, dtype=float)
        on = g[supp] - tau * np.sign(self.x_ref[supp])
        off = np.maximum(np.abs(g[~supp]) - tau, 0.0)
        return float(np.dot(on, on) + np.dot(off, off))

    def _min_subgrad_norm(self):
        return float(np.sqrt(np.count_nonzero(self._support())))


class Schatten1Norm(Regularizer):
    """Schatten 1-norm on d1 x d2 matrices, reference point of rank r."""

    def __init__(self, x_ref: np.ndarray | None = None,
                 shape: tuple[int, int] | None = None):
        if x_ref is not None:
            self.x_ref = np.asarray(x_ref, dtype=float)
            self.ambient_shape = self.x_ref.shape
            u, s, vt = np.linalg.svd(self.x_ref)
            self._u, self._vt = u, vt
            self._rank = int(np.count_nonzero(s > ZERO_TOL))
        elif shape is not None:
            self.x_ref = None
            self.ambient_shape = tuple(shape)
        else:
            raise ValueError("need x_ref or shape")

    def value(self, x):
        return float(np.sum(np.linalg.svd(np.asarray(x, dtype=float),
                                          compute_uv=False)))

    def prox(self, z, t):
        u, s, vt = np.linalg.svd(np.asarray(z, dtype=float), full_matrices=False)
        return (u * np.maximum(s - t, 0.0)) @ vt

    def _frame(self):
        if self.x_ref is None:
            raise ValueError("descent-cone operations need a reference point")
        if self._rank == 0:
            raise ValueError("subdifferential at 0 contains the origin; "
                             "reference point must be nonzero")
        return self._u, self._vt, self._rank

    def subdiff_dist_sq(self, g, tau):
        u, vt, r = self._frame()
        gp = u.T @ np.asarray(g, dtype=float) @ vt.T  # reference frame
        g11 = gp[:r, :r]
        g12 = gp[:r, r:]
        g21 = gp[r:, :r]
        g22 = gp[r:, r:]
        corner = np.linalg.norm(g11 - tau * np.eye(r)) ** 2
        cross = np.linalg.norm(g12) ** 2 + np.linalg.norm(g21) ** 2
        if g22.size:
            sv = np.linalg.svd(g22, compute_uv=False)
            tail = float(np.sum(np.maximum(sv - tau, 0.0) ** 2))
        else:
            tail = 0.0
        return float(corner + cross + tail)

    def _min_subgrad_norm(self):
        _, _, r = self._frame()
        return float(np.sqrt(r))


class TracePSD(Regularizer):
    """trace(X) + indicator of the PSD cone, on symmetric d x d matrices.

    The subdifferential closed form is taken at a rank-one PSD reference
    matrix (the lifted phase-retrieval signal); other references are
    rejected.
    """

    def __init__(self, x_ref: np.ndarray | None = None, d: int | None = None):
        if x_ref is not None:
            x_ref = np.asarray(x_ref, dtype=float)
            if not np.allclose(x_ref, x_ref.T, atol=1e-10):
                raise ValueError("reference matrix must be symmetric")
            lam, vecs = np.linalg.eigh(x_ref)
            if lam.min() < -1e-10:
                raise ValueError("reference matrix must be PSD")
            positive = lam > ZERO_TOL
            if np.count_nonzero(positive) != 1:
                raise ValueError("reference matrix must have rank exactly one")
            self.x_ref = x_ref
            self.ambient_shape = x_ref.shape
            # eigenframe with the signal direction first
            order = np.argsort(lam)[::-1]
            self._frame_q = vecs[:, order]
        elif d is not None:
            self.x_ref = None
            self.ambient_shape = (d, d)
        else:
            raise ValueError("need x_ref or d")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        lam = np.linalg.eigvalsh(0.5 * (x + x.T))
        if lam.min() < -1e-9:
            return float("inf")
        return float(np.trace(x))

    def prox(self, z, t):
        z = np.asarray(z, dtype=float)
        z = 0.5 * (z + z.T)
        lam, vecs = np.linalg.eigh(z)
        return (vecs * np.maximum(lam - t, 0.0)) @ vecs.T

    def subdiff_dist_sq(self, g, tau):
        if self.x_ref is None:
            raise ValueError("descent-cone operations need a reference point")
        g = np.asarray(g, dtype=float)
        if tau == 0.0:
            # the scaled set collapses to {0}; the tau > 0 closed form does
            # not limit to this because the subdifferential is unbounded
            return float(np.sum(g * g))
        q = self._frame_q
        h = q.T @ g @ q
        h11 = h[0, 0]
        h21 = h[1:, 0]
        h22 = h[1:, 1:]
        head = (h11 - tau) ** 2 + 2.0 * float(np.dot(h21, h21))
        if h22.size:
            lam = np.linalg.eigvalsh(0.5 * (h22 + h22.T))
            tail = float(np.sum(np.maximum(lam - tau, 0.0) ** 2))
        else:
            tail = 0.0
        return float(head + tail)

    def _min_subgrad_norm(self):
        return 1.0


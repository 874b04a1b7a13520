"""Convex regularizers: values, prox maps, and descent-cone distances.

Subclasses implement ``prox``, ``spectrum`` and ``dist_terms``; the
``Regularizer`` base takes ``value`` as the sum of the spectrum, and
``min_subdiff_dist_sq`` on a stack of points is the one entry for
descent-cone distances.  Each regularizer may carry a reference point x at
which descent-cone quantities are taken.  For a stack of points g,
``dist_terms`` returns the coefficients (base, r, c, a) of the squared
distance from g to tau times the subdifferential of f at x,

    dist^2(g, tau * df(x)) = base + r tau^2 - 2 c tau + sum_j (a_j - tau)_+^2,

with a_j the off-support |g_i| (l1), the singular values of the block of
g outside the reference frame (Schatten-1) or the eigenvalues of that
block (trace+PSD, where the form holds for tau > 0).  The map is convex
and piecewise quadratic in tau, so ``min_dist_sq`` minimizes it exactly
after one sort of a (the statistical dimension calculus of
Amelunxen-Lotz-McCoy-Tropp, "Living on the edge", 2014).
``level_threshold`` is the matching sort for the prox step that lands on
a level set of f (Duchi et al., "Efficient projections onto the l1-ball",
2008).

The trace+PSD prox at step t keeps only the eigenvalues above t, so it
asks LAPACK (``dsyevr``, by value range) for those eigenpairs alone: its
cost follows the kept rank, one pair near a rank-one solution.  It raises
``np.linalg.LinAlgError`` on a non-finite input.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

ZERO_TOL = 1e-12  # relative: see _zero_floor


def _zero_floor(spectrum: np.ndarray) -> float:
    """The magnitude at or below which an entry, singular value or
    eigenvalue counts as zero: ZERO_TOL times the largest in ``spectrum``."""
    return ZERO_TOL * float(np.max(np.abs(spectrum), initial=0.0))


def min_dist_sq(base: np.ndarray, r: int, c: np.ndarray,
                a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, (tau*, min over tau >= 0) of
    base + r tau^2 - 2 c tau + sum_j (a_j - tau)_+^2.

    ``base`` and ``c`` have shape (n,), ``a`` has shape (n, k) and r > 0.
    Where exactly the j largest a exceed tau, the stationary point is
    (c + their sum) / (r + j); with a sorted in decreasing order, a_(j+1)
    exceeds the minimizer iff a_(j+1) (r + j) > c + (sum of the j largest),
    a condition that holds for a prefix of j (ties included).  The
    minimizer over the real line is clamped to tau >= 0 by convexity.
    """
    a_desc = -np.sort(-a, axis=1)
    sums = np.concatenate([np.zeros((len(a), 1)), np.cumsum(a_desc, axis=1)],
                          axis=1)
    active = np.count_nonzero(
        a_desc * (r + np.arange(a.shape[1])) > c[:, None] + sums[:, :-1], axis=1)
    tau = np.maximum((c + sums[np.arange(len(a)), active]) / (r + active), 0.0)
    tail = np.sum(np.maximum(a - tau[:, None], 0.0) ** 2, axis=1)
    return tau, base + tau * (r * tau - 2.0 * c) + tail


def level_threshold(a: np.ndarray, level: float) -> float:
    """The t >= 0 with sum_j (a_j - t)_+ = level, or 0 when no t >= 0 reaches
    it; ``level`` > 0.

    As in ``min_dist_sq``, a sorted in decreasing order has a_(j+1) above
    the root iff (sum of the j largest) - j a_(j+1) < level, which holds
    for a prefix of j (at least j = 0).
    """
    a_desc = -np.sort(-np.asarray(a, dtype=float).ravel())
    sums = np.cumsum(a_desc)
    j = np.arange(a_desc.size)
    active = int(np.count_nonzero(sums - a_desc * (j + 1) < level))
    return max(float((sums[active - 1] - level) / active), 0.0)


class Regularizer:
    """Base class: subclasses implement prox, spectrum and dist_terms, and
    the base composes value and min_subdiff_dist_sq from them.  Descent
    cones are taken at the optional reference point x_ref, checked on
    construction, and ``ambient_shape`` is its shape; value and prox need
    none (a solve reads its operator's signal shape)."""

    x_ref: np.ndarray | None = None

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return self._reference().shape

    def _reference(self) -> np.ndarray:
        if self.x_ref is None:
            raise ValueError("descent-cone operations need a reference point")
        return self.x_ref

    def value(self, x: np.ndarray) -> float:
        """f(x) = sum_j a_j: the ``spectrum`` identity at t = 0."""
        return float(np.sum(self.spectrum(x)))

    def prox(self, z: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def spectrum(self, z: np.ndarray) -> np.ndarray:
        """The a_j with f(prox(z, t)) = sum_j (a_j - t)_+ for t >= 0."""
        raise NotImplementedError

    def dist_terms(self, g: np.ndarray) -> tuple[np.ndarray, int, np.ndarray,
                                                  np.ndarray]:
        """(base, r, c, a) of dist^2(g, tau * df(x_ref)) for each point of
        the stack g, of shape (n, *ambient_shape); see the module docstring."""
        raise NotImplementedError

    def min_subdiff_dist_sq(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each point of the stack g, of shape (n, *ambient_shape), the
        arrays (tau*, inf over tau >= 0 of dist^2(g, tau * df(x_ref))).

        At tau* = 0 the value is the tau -> 0+ limit of the ``dist_terms``
        form, which for TracePSD lies below the distance ||g||^2 at tau = 0.
        """
        return min_dist_sq(*self.dist_terms(np.asarray(g, dtype=float)))


def _nonzero_rank(rank: int) -> int:
    if rank == 0:
        raise ValueError("subdifferential at 0 contains the origin; "
                         "reference point must be nonzero")
    return rank


class L1Norm(Regularizer):
    """l1 norm, with an optional nonzero reference point x_ref."""

    def __init__(self, x_ref: np.ndarray | None = None):
        if x_ref is not None:
            self.x_ref = np.asarray(x_ref, dtype=float)
            self._supp = np.abs(self.x_ref) > _zero_floor(self.x_ref)
            self._rank = _nonzero_rank(int(np.count_nonzero(self._supp)))
            self._signs = np.sign(self.x_ref[self._supp])

    def prox(self, z, t):
        # z minus its clip to [-t, t]: sign(z) (|z| - t)_+ with the same
        # values in three ufuncs (an exact zero comes out as +0)
        z = np.asarray(z, dtype=float)
        return z - np.minimum(np.maximum(z, -t), t)

    def spectrum(self, z):
        return np.abs(np.asarray(z, dtype=float)).ravel()

    def dist_terms(self, g):
        self._reference()
        on = g[:, self._supp]
        return (np.sum(on * on, axis=1), self._rank, on @ self._signs,
                np.abs(g[:, ~self._supp]))


class Schatten1Norm(Regularizer):
    """Schatten 1-norm, with an optional nonzero reference point x_ref.

    ``prox`` takes the thin SVD from LAPACK ``dgesdd`` directly, skipping
    numpy's gufunc wrapper around the same routine: u, s and v^t are the
    values ``np.linalg.svd(z, full_matrices=False)`` gives, and, as there,
    a failed SVD (info != 0, a NaN input among them) raises
    ``np.linalg.LinAlgError``.
    """

    def __init__(self, x_ref: np.ndarray | None = None):
        if x_ref is not None:
            self.x_ref = np.asarray(x_ref, dtype=float)
            self._u, s, self._vt = np.linalg.svd(self.x_ref)
            self._rank = _nonzero_rank(int(np.count_nonzero(s > _zero_floor(s))))

    def prox(self, z, t):
        # dgesdd copies z, so the input stays untouched
        u, s, vt, info = lapack.dgesdd(np.asarray(z, dtype=float),
                                       full_matrices=0)
        if info != 0:
            raise np.linalg.LinAlgError("SVD did not converge")
        return (u * np.maximum(s - t, 0.0)) @ vt

    def spectrum(self, z):
        return np.linalg.svd(np.asarray(z, dtype=float), compute_uv=False)

    def dist_terms(self, g):
        self._reference()
        r = self._rank
        gp = self._u.T @ g @ self._vt.T  # reference frame
        base = (np.sum(gp[:, :r] ** 2, axis=(1, 2))
                + np.sum(gp[:, r:, :r] ** 2, axis=(1, 2)))
        c = np.trace(gp[:, :r, :r], axis1=1, axis2=2)
        return base, r, c, np.linalg.svd(gp[:, r:, r:], compute_uv=False)


class TracePSD(Regularizer):
    """trace(X) + indicator of the PSD cone, on symmetric d x d matrices.

    Descent-cone distances are taken at a rank-one PSD reference matrix
    (the lifted phase-retrieval signal); other references are rejected.

    ``prox(z, t)`` is sum_j (lam_j - t)_+ v_j v_j^t over the eigenpairs of
    the symmetric part of z.  It computes only the k pairs with lam_j > t
    (``dsyevr`` over the value range (t, inf)), so its cost follows the
    kept rank k, and k = 0 gives exact zeros.  Where ``dsyevr`` reports
    failure (info = 1 on a z within rounding of c I), the prox keeps the
    pairs above t of a full ``eigh`` of z, re-formed from the input because
    ``dsyevr`` overwrote it.  A non-finite z raises
    ``np.linalg.LinAlgError``: by value range, LAPACK returns a finite
    matrix for a NaN input.
    """

    def __init__(self, x_ref: np.ndarray | None = None):
        if x_ref is not None:
            x_ref = np.asarray(x_ref, dtype=float)
            if not np.allclose(x_ref, x_ref.T, rtol=0, atol=_zero_floor(x_ref)):
                raise ValueError("reference matrix must be symmetric")
            lam, vecs = np.linalg.eigh(x_ref)
            floor = _zero_floor(lam)
            if lam.min() < -floor:
                raise ValueError("reference matrix must be PSD")
            if np.count_nonzero(lam > floor) != 1:
                raise ValueError("reference matrix must have rank exactly one")
            self.x_ref = x_ref
            # eigenframe with the signal direction first
            order = np.argsort(lam)[::-1]
            self._frame_q = vecs[:, order]

    def value(self, x):
        lam = self.spectrum(x)
        if lam.min() < -_zero_floor(lam):
            return float("inf")
        return float(np.trace(x))

    def prox(self, z, t):
        z_in = np.asarray(z, dtype=float)
        z = 0.5 * (z_in + z_in.T)
        if not np.isfinite(z).all():  # dsyevr would return a finite matrix
            raise np.linalg.LinAlgError("PSD prox of a non-finite matrix")
        # only the k eigenpairs with lam > t; z.T is the Fortran-ordered view
        # of the fresh symmetric z, so LAPACK overwrites it without a copy
        lam, vecs, k, _, info = lapack.dsyevr(z.T, range="V", vl=t,
                                              vu=np.inf, overwrite_a=1)
        if info != 0:
            lam, vecs = np.linalg.eigh(0.5 * (z_in + z_in.T))
            keep = lam > t
            lam, vecs, k = lam[keep], vecs[:, keep], int(keep.sum())
        vecs = vecs[:, :k]
        return (vecs * (lam[:k] - t)) @ vecs.T

    def spectrum(self, z):
        z = np.asarray(z, dtype=float)
        return np.linalg.eigvalsh(0.5 * (z + z.T))

    def dist_terms(self, g):
        self._reference()
        q = self._frame_q
        h = q.T @ g @ q
        h11 = h[:, 0, 0]
        h22 = h[:, 1:, 1:]
        lam = np.linalg.eigvalsh(0.5 * (h22 + h22.transpose(0, 2, 1)))
        return h11 ** 2 + 2.0 * np.sum(h[:, 1:, 0] ** 2, axis=1), 1, h11, lam


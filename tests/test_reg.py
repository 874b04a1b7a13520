"""Regularizer values, prox maps, and subdifferential-distance evaluators.

The test's own closed form ``closed_form_dist_sq`` is cross-checked
against independent iterative oracles: projected gradient over the
explicit description of the scaled subdifferential set.  The library's
sorted minimization over the scale is checked against that closed form
by dense tau-grid search and a bounded Brent search.  The exact level-set
threshold is checked against a bisection on f(prox(z, t)), and the
trace+PSD prox against the full-spectrum formula ``eigh_prox``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.optimize import minimize_scalar

from conicrecovery.reg import (
    L1Norm,
    Schatten1Norm,
    TracePSD,
    level_threshold,
    min_dist_sq,
)
from conicrecovery.rng import generator


# ---------------------------------------------------------------------------
# oracles

def l1_dist_sq_oracle(x_ref, g, tau):
    """Distance to tau * (l1 subdifferential at x_ref) by direct projection.

    The set is a box product: on the support the coordinate is pinned at
    tau*sign(x_j); off the support it ranges over [-tau, tau].  Projection
    is coordinatewise clipping, implemented without the package's formula.
    """
    z = np.empty_like(g)
    for j in range(len(g)):
        if abs(x_ref[j]) > 1e-12:
            z[j] = tau * np.sign(x_ref[j])
        else:
            z[j] = min(max(g[j], -tau), tau)
    return float(np.sum((g - z) ** 2))


def _clip_spectral(y, limit):
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    return (u * np.minimum(s, limit)) @ vt


def _clip_eigs_above(y, limit):
    y = 0.5 * (y + y.T)
    lam, vecs = np.linalg.eigh(y)
    return (vecs * np.minimum(lam, limit)) @ vecs.T


def s1_dist_sq_oracle(x_ref, g, tau, iters=4000):
    """Projected gradient on the free block of the scaled S1 subdifferential.

    In the singular frame of x_ref the set is
    tau * { [I_r 0; 0 Y] : ||Y||_op <= 1 }; the corner blocks are fixed,
    so only min over Y of ||G22 - tau*Y||_F^2 needs iteration.
    """
    u, s, vt = np.linalg.svd(x_ref)
    r = int(np.count_nonzero(s > 1e-12))
    gp = u.T @ g @ vt.T
    fixed = (np.linalg.norm(gp[:r, :r] - tau * np.eye(r)) ** 2
             + np.linalg.norm(gp[:r, r:]) ** 2
             + np.linalg.norm(gp[r:, :r]) ** 2)
    g22 = gp[r:, r:]
    if g22.size == 0 or tau == 0.0:
        return float(fixed + np.linalg.norm(g22) ** 2)
    y = np.zeros_like(g22)
    step = 0.9 / tau ** 2
    for _ in range(iters):
        grad = tau * (tau * y - g22)
        y = _clip_spectral(y - step * grad, 1.0)
    return float(fixed + np.linalg.norm(g22 - tau * y) ** 2)


def trace_psd_dist_sq_oracle(x_ref, g, tau, iters=4000):
    """Same scheme for trace+PSD-indicator at a rank-one reference.

    Set: tau * { [1 0; 0 Y] : Y symmetric, lambda_max(Y) <= 1 } in the
    eigenframe; Y is unbounded below, so the clip is one-sided.
    """
    lam, vecs = np.linalg.eigh(x_ref)
    order = np.argsort(lam)[::-1]
    q = vecs[:, order]
    h = q.T @ g @ q
    if tau == 0.0:
        return float(np.sum(g * g))
    fixed = (h[0, 0] - tau) ** 2 + 2.0 * float(np.sum(h[1:, 0] ** 2))
    h22 = 0.5 * (h[1:, 1:] + h[1:, 1:].T)
    if h22.size == 0:
        return float(fixed)
    y = np.zeros_like(h22)
    step = 0.9 / tau ** 2
    for _ in range(iters):
        grad = tau * (tau * y - h22)
        y = _clip_eigs_above(y - step * grad, 1.0)
    return float(fixed + np.linalg.norm(h22 - tau * y) ** 2)


def closed_form_dist_sq(f, g, tau):
    """dist^2(g, tau * (subdifferential of f at f.x_ref)) in closed form, at
    a scalar tau >= 0 (a float) or at each entry of an array of them.

    The reference frame comes from f.x_ref here, not from the regularizer:
    - l1: on the support the coordinate is pinned at tau*sign(x_j), off it
      the excess (|g_j| - tau)_+ remains;
    - Schatten-1, in the singular frame of a rank-r x_ref:
      ||G11 - tau I||^2 + ||G12||^2 + ||G21||^2 + sum (sigma(G22) - tau)_+^2;
    - trace+PSD, in the eigenframe of a rank-one x_ref with the signal
      direction first: (h11 - tau)^2 + 2 ||h21||^2 + sum (lambda(H22) - tau)_+^2
      for tau > 0, and ||g||^2 at tau = 0, where the scaled set is {0}
      (the subdifferential is unbounded, so the tau > 0 form does not limit
      to it).
    """
    g = np.asarray(g, dtype=float)
    t = np.asarray(tau, dtype=float)[..., None]
    if isinstance(f, L1Norm):
        supp = np.abs(f.x_ref) > 1e-12
        on = g[supp] - t * np.sign(f.x_ref[supp])
        fixed = np.sum(on * on, axis=-1)
        a = np.abs(g[~supp])
    elif isinstance(f, Schatten1Norm):
        u, s, vt = np.linalg.svd(f.x_ref)
        r = int(np.count_nonzero(s > 1e-12))
        gp = u.T @ g @ vt.T
        corner = gp[:r, :r] - t[..., None] * np.eye(r)
        fixed = (np.sum(corner ** 2, axis=(-2, -1)) + np.sum(gp[:r, r:] ** 2)
                 + np.sum(gp[r:, :r] ** 2))
        a = np.linalg.svd(gp[r:, r:], compute_uv=False)
    else:
        lam, vecs = np.linalg.eigh(f.x_ref)
        q = vecs[:, np.argsort(lam)[::-1]]
        h = q.T @ g @ q
        fixed = (h[0, 0] - t[..., 0]) ** 2 + 2.0 * np.sum(h[1:, 0] ** 2)
        a = np.linalg.eigvalsh(0.5 * (h[1:, 1:] + h[1:, 1:].T))
    val = fixed + np.sum(np.maximum(a - t, 0.0) ** 2, axis=-1)
    if isinstance(f, TracePSD):
        val = np.where(t[..., 0] == 0.0, np.sum(g * g), val)
    return float(val) if val.ndim == 0 else val


TAU_GRID = np.arange(0.0, 10.0 + 1e-9, 1e-3)


def grid_min_dist_sq(f, g):
    return float(np.min(closed_form_dist_sq(f, g, TAU_GRID)))


def point_min_dist_sq(f, g):
    """(tau*, min dist^2) of the one point g, as floats, through the
    stack entry ``f.min_subdiff_dist_sq``."""
    tau, val = f.min_subdiff_dist_sq(np.asarray(g, dtype=float)[None])
    return float(tau[0]), float(val[0])


def rank_one(v):
    return np.outer(v, v)


def brent_min_dist_sq(f, g):
    """Bounded Brent search of closed_form_dist_sq over tau in
    (0, 2||g|| + 1], then the value at tau = 0.  The minimizer is at most
    ||g||: it is (c + sum of the active a) / (r + k) with c <= sqrt(r) ||g||
    and every a <= ||g||."""
    res = minimize_scalar(lambda t: closed_form_dist_sq(f, g, t),
                          bounds=(0.0, 2.0 * float(np.linalg.norm(g)) + 1.0),
                          method="bounded", options={"xatol": 1e-9})
    at_zero = closed_form_dist_sq(f, g, 0.0)
    return (0.0, at_zero) if at_zero < res.fun else (float(res.x), float(res.fun))


def bisection_threshold(f, z, level, scale):
    """The prox step t with f(prox(z, t)) = level by doubling, then 60
    halvings of the bracket, in units of ``scale``."""
    lo, hi = 0.0, 1.0
    while f.value(f.prox(z, hi * scale)) > level:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f.value(f.prox(z, mid * scale)) > level:
            lo = mid
        else:
            hi = mid
    return hi * scale


# ---------------------------------------------------------------------------
# values

class TestValue:
    def test_l1(self):
        assert L1Norm().value(np.array([3.0, -4.0])) == 7.0

    def test_schatten1(self):
        assert Schatten1Norm().value(np.diag([2.0, 5.0])) == pytest.approx(7.0)

    def test_trace_psd_infeasible(self):
        assert TracePSD().value(np.diag([1.0, -0.1])) == float("inf")

    def test_trace_psd_feasible(self):
        assert TracePSD().value(np.diag([1.0, 0.5])) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# prox maps

class TestProx:
    def test_l1_soft_threshold(self):
        out = L1Norm().prox(np.array([3.0, -1.0, 0.5]), 1.0)
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0])

    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_l1_prox_matches_sign_formula(self, t):
        # the same values as sign(z) (|z| - t)_+, also at |z| = t, at z = 0,
        # just either side of t and at step 0, for arrays and lists
        z = np.concatenate([3.0 * generator(25).standard_normal(200),
                            [t, -t, 0.0, -0.0, np.nextafter(t, 1.0),
                             -np.nextafter(t, 1.0), np.nextafter(t, -1.0)]])
        want = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
        f = L1Norm()
        assert np.array_equal(f.prox(z, t), want)
        assert np.array_equal(f.prox(list(z), t), want)

    def test_schatten1_singular_threshold(self):
        out = Schatten1Norm().prox(np.diag([3.0, 0.5]), 1.0)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_schatten1_prox_matches_numpy_svd_formula(self, order):
        # the prox calls dgesdd directly; it must give the very values of
        # numpy's thin SVD formula, and leave its input as it was
        rng = generator(26)
        inputs = [rng.standard_normal((8, 8)), rng.standard_normal((3, 5)),
                  rng.standard_normal((5, 3)),
                  np.outer(rng.standard_normal(8), rng.standard_normal(8)),
                  np.zeros((8, 8))]
        f = Schatten1Norm()
        for z0 in inputs:
            for scale in (1.0, 1e-8, 1e8):
                z = np.asarray(scale * z0, order=order)
                before = z.copy()
                u, s, vt = np.linalg.svd(z, full_matrices=False)
                for t in (0.0, 0.5 * (s[0] + s[1]), 2.0 * s[0] or 1.0):
                    want = (u * np.maximum(s - t, 0.0)) @ vt
                    np.testing.assert_array_equal(f.prox(z, t), want)
                np.testing.assert_array_equal(z, before)
                assert z.flags.c_contiguous == (order == "C")

    def test_schatten1_prox_nan_raises(self):
        z = generator(27).standard_normal((8, 8))
        z[3, 4] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            Schatten1Norm().prox(z, 1.0)

    def test_schatten1_prox_failed_svd_raises(self, monkeypatch):
        # dgesdd reports info > 0 when its divide and conquer does not
        # converge; the prox raises as np.linalg.svd does
        dgesdd = lapack.dgesdd

        def failing(a, **kwargs):
            return dgesdd(a, **kwargs)[:3] + (1,)

        monkeypatch.setattr(lapack, "dgesdd", failing)
        with pytest.raises(np.linalg.LinAlgError):
            Schatten1Norm().prox(generator(27).standard_normal((8, 8)), 1.0)

    def test_trace_psd_shift_clip(self):
        out = TracePSD().prox(np.diag([2.0, -3.0]), 1.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_l1_prox_optimality_random(self):
        # subgradient condition: (z - p)/t is in the l1 subdifferential at p
        f = L1Norm()
        rng = generator(21)
        for _ in range(1000):
            z = rng.standard_normal(8) * rng.uniform(0.1, 5)
            t = rng.uniform(0.05, 3.0)
            p = f.prox(z, t)
            gsub = (z - p) / t
            on = np.abs(p) > 1e-12
            assert np.all(np.abs(gsub[on] - np.sign(p[on])) <= 1e-8)
            assert np.all(np.abs(gsub[~on]) <= 1.0 + 1e-8)

    def test_schatten1_prox_optimality_random(self):
        # spectral subgradient condition via the prox's singular frame
        f = Schatten1Norm()
        rng = generator(22)
        for _ in range(200):
            z = rng.standard_normal((4, 5)) * rng.uniform(0.1, 5)
            t = rng.uniform(0.05, 3.0)
            p = f.prox(z, t)
            gsub = (z - p) / t
            u, s, vt = np.linalg.svd(p)
            r = int(np.count_nonzero(s > 1e-10))
            gp = u.T @ gsub @ vt.T
            assert np.allclose(gp[:r, :r], np.eye(r), atol=1e-8)
            assert np.allclose(gp[:r, r:], 0, atol=1e-8)
            assert np.allclose(gp[r:, :r], 0, atol=1e-8)
            tail = np.linalg.svd(gp[r:, r:], compute_uv=False)
            assert tail.size == 0 or tail.max() <= 1.0 + 1e-8

    def test_trace_psd_prox_optimality_random(self):
        # p minimizes trace(u) + iota_psd(u) + ||u - z||^2/(2t):
        # z - p - t*I must be in the normal cone of the PSD cone at p
        f = TracePSD()
        rng = generator(23)
        for _ in range(200):
            z = rng.standard_normal((4, 4)) * rng.uniform(0.1, 5)
            z = 0.5 * (z + z.T)
            t = rng.uniform(0.05, 3.0)
            p = f.prox(z, t)
            n = z - p - t * np.eye(4)
            lam_p = np.linalg.eigvalsh(p)
            lam_n = np.linalg.eigvalsh(n)
            assert lam_p.min() >= -1e-10          # p is PSD
            assert lam_n.max() <= 1e-8            # normal cone: n is NSD
            assert abs(np.sum(p * n)) <= 1e-8     # complementarity

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=4),
           st.lists(st.floats(-100, 100), min_size=4, max_size=4),
           st.floats(0.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_l1_prox_nonexpansive(self, z1, z2, t):
        f = L1Norm()
        z1, z2 = np.asarray(z1), np.asarray(z2)
        lhs = np.linalg.norm(f.prox(z1, t) - f.prox(z2, t))
        assert lhs <= np.linalg.norm(z1 - z2) + 1e-9

    def test_matrix_prox_nonexpansive(self):
        rng = generator(24)
        for f in (Schatten1Norm(), TracePSD()):
            for _ in range(200):
                z1 = rng.standard_normal((3, 3)) * rng.uniform(0.1, 5)
                z2 = rng.standard_normal((3, 3)) * rng.uniform(0.1, 5)
                if isinstance(f, TracePSD):
                    z1, z2 = 0.5 * (z1 + z1.T), 0.5 * (z2 + z2.T)
                t = rng.uniform(0.05, 3.0)
                lhs = np.linalg.norm(f.prox(z1, t) - f.prox(z2, t))
                assert lhs <= np.linalg.norm(z1 - z2) + 1e-9


def eigh_prox(z, t):
    """The trace+PSD prox from the full spectrum: every eigenpair of the
    symmetric part of z, shifted down by t and clipped at 0."""
    z = 0.5 * (z + z.T)
    lam, vecs = np.linalg.eigh(z)
    return (vecs * np.maximum(lam - t, 0.0)) @ vecs.T


def spectrum_matrix(d, seed):
    """A non-symmetric d x d matrix whose symmetric part has eigenvalues
    spread over [1, 5]."""
    rng = generator(seed)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    skew = rng.standard_normal((d, d))
    return (q * rng.uniform(1.0, 5.0, d)) @ q.T + (skew - skew.T)


class TestTracePsdProxOracle:
    """The prox computes only the eigenpairs above the step; it must agree
    with the full-spectrum formula to 1e-12 ||z||."""

    @staticmethod
    def assert_oracle(z, t):
        got = TracePSD().prox(z, t)
        want = eigh_prox(z, t)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(z)
        return got

    @pytest.mark.parametrize("d", [1, 2, 8, 48])
    @pytest.mark.parametrize("where", ["below", "above", "middle",
                                       "eigenvalue"])
    def test_step_against_spectrum(self, d, where):
        z = spectrum_matrix(d, 70 + d)
        lam = np.linalg.eigvalsh(0.5 * (z + z.T))
        t = {"below": 0.5 * lam[0], "above": 2.0 * lam[-1],
             "middle": 0.5 * (lam[0] + lam[-1]),
             "eigenvalue": lam[d // 2]}[where]
        got = self.assert_oracle(z, t)
        if where == "above":
            assert np.array_equal(got, np.zeros((d, d)))

    def test_repeated_eigenvalue_above_step(self):
        u = generator(75).standard_normal(5)
        z = 3.0 * np.eye(5) + np.outer(u, u)
        # eigenvalue 3 four times and 3 + ||u||^2, all above the step
        got = self.assert_oracle(z, 1.0)
        np.testing.assert_allclose(got, z - np.eye(5), rtol=0, atol=1e-13)

    def test_non_symmetric_input_is_symmetrized(self):
        z = generator(76).standard_normal((8, 8))
        got = self.assert_oracle(z, 0.1)
        assert np.array_equal(got, TracePSD().prox(0.5 * (z + z.T), 0.1))

    @pytest.mark.parametrize("c", [1e-8, 1e8])
    def test_scale(self, c):
        z = spectrum_matrix(8, 77)
        lam = np.linalg.eigvalsh(0.5 * (z + z.T))
        self.assert_oracle(c * z, c * 0.5 * (lam[0] + lam[-1]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_untouched(self, order):
        z = np.asarray(spectrum_matrix(8, 78), order=order)
        before = z.copy()
        TracePSD().prox(z, 2.0)
        assert np.array_equal(z, before)

    @pytest.mark.parametrize("d", [8, 48])
    def test_dsyevr_failure_takes_full_spectrum(self, monkeypatch, d):
        # dsyevr has overwritten its input when it reports failure, so the
        # fallback must decompose the input, not that buffer
        dsyevr = lapack.dsyevr

        def failing(a, **kwargs):
            return dsyevr(a, **kwargs)[:4] + (1,)

        monkeypatch.setattr(lapack, "dsyevr", failing)
        z = spectrum_matrix(d, 80 + d)
        lam = np.linalg.eigvalsh(0.5 * (z + z.T))
        before = z.copy()
        for t in (0.5 * lam[0], 0.5 * (lam[0] + lam[-1]), 2.0 * lam[-1]):
            self.assert_oracle(z, t)
        assert np.array_equal(z, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        # LAPACK's by-value solver returns a finite matrix for a NaN input
        z = spectrum_matrix(8, 79)
        z[2, 5] = bad
        with pytest.raises(np.linalg.LinAlgError):
            TracePSD().prox(z, 1.0)


def project_psd(z):
    """Nearest PSD matrix to the symmetric part of z: the trace+PSD prox at
    step 0."""
    return TracePSD().prox(z, 0.0)


class TestProjectPsd:
    def test_clips_negative_eigenvalue(self):
        np.testing.assert_allclose(project_psd(np.diag([1.0, -2.0])),
                                   np.diag([1.0, 0.0]), atol=1e-12)

    def test_idempotent_on_psd(self):
        rng = generator(31)
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            p = project_psd(a)
            np.testing.assert_allclose(project_psd(p), p, atol=1e-12)
            assert np.linalg.eigvalsh(p).min() >= -1e-12

    def test_zero(self):
        np.testing.assert_array_equal(project_psd(np.zeros((3, 3))),
                                      np.zeros((3, 3)))

    def test_is_nearest_psd_matrix(self):
        # optimality against random PSD competitors
        rng = generator(32)
        a = rng.standard_normal((4, 4))
        a = 0.5 * (a + a.T)
        p = project_psd(a)
        base = np.linalg.norm(a - p)
        for _ in range(200):
            b = rng.standard_normal((4, 4))
            comp = b @ b.T
            assert base <= np.linalg.norm(a - comp) + 1e-12


# ---------------------------------------------------------------------------
# subdifferential distances

class TestSubdiffDist:
    def test_l1_hand_value(self):
        f = L1Norm(np.array([1.0, 0.0]))
        assert closed_form_dist_sq(f, np.array([0.5, 2.0]),
                                   1.0) == pytest.approx(1.25)

    def test_l1_member_is_zero(self):
        x = np.array([2.0, 0.0, -1.0, 0.0])
        f = L1Norm(x)
        g = 0.7 * np.array([1.0, 0.0, -1.0, 0.0])  # tau*sign on support
        assert closed_form_dist_sq(f, g, 0.7) == pytest.approx(0.0, abs=1e-14)

    def test_l1_matches_projection_oracle(self):
        rng = generator(41)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            x = rng.standard_normal(d)
            x[rng.random(d) < 0.5] = 0.0
            if not np.any(np.abs(x) > 1e-12):
                x[0] = 1.0
            f = L1Norm(x)
            g = rng.standard_normal(d) * 2
            tau = float(rng.uniform(0, 3))
            assert closed_form_dist_sq(f, g, tau) == pytest.approx(
                l1_dist_sq_oracle(x, g, tau), abs=1e-6)

    def test_s1_diag_case_grid_oracle(self):
        # reference diag(sigma, 0): nearest point of the scaled set along
        # the diagonal is (tau, clip(g22)); dense grid over the free entry
        f = Schatten1Norm(np.diag([3.0, 0.0]))
        g = np.diag([1.0, 2.0])
        val = closed_form_dist_sq(f, g, 1.0)
        ys = np.linspace(-1, 1, 20001)
        grid = np.min((1.0 - 1.0) ** 2 + (2.0 - 1.0 * ys) ** 2)
        assert val == pytest.approx(float(grid), abs=1e-7)
        assert val == pytest.approx(1.0)

    def test_s1_matches_projection_oracle(self):
        rng = generator(42)
        for _ in range(20):
            d1, d2 = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            r = int(rng.integers(1, min(d1, d2) + 1))
            x = (rng.standard_normal((d1, r)) @ rng.standard_normal((r, d2)))
            f = Schatten1Norm(x)
            g = rng.standard_normal((d1, d2)) * 2
            tau = float(rng.uniform(0.05, 3))
            assert closed_form_dist_sq(f, g, tau) == pytest.approx(
                s1_dist_sq_oracle(x, g, tau), abs=1e-6)

    def test_trace_psd_matches_projection_oracle(self):
        rng = generator(43)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            v = rng.standard_normal(d)
            x = np.outer(v, v)
            f = TracePSD(x)
            g = rng.standard_normal((d, d))
            g = 0.5 * (g + g.T)
            tau = float(rng.uniform(0.05, 3))
            assert closed_form_dist_sq(f, g, tau) == pytest.approx(
                trace_psd_dist_sq_oracle(x, g, tau), abs=1e-6)

    def test_trace_psd_tau_zero_is_norm_sq(self):
        v = np.array([1.0, 2.0])
        f = TracePSD(np.outer(v, v))
        g = np.array([[1.0, 0.5], [0.5, -2.0]])
        assert closed_form_dist_sq(f, g, 0.0) == pytest.approx(np.sum(g * g))

    def test_rejects_zero_reference(self):
        # on construction, before any descent-cone operation
        with pytest.raises(ValueError, match="must be nonzero"):
            L1Norm(np.zeros(3))
        with pytest.raises(ValueError, match="must be nonzero"):
            Schatten1Norm(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="rank exactly one"):
            TracePSD(np.zeros((2, 2)))

    def test_rejects_missing_reference(self):
        for f in (L1Norm(), Schatten1Norm(), TracePSD()):
            with pytest.raises(ValueError, match="need a reference point"):
                f.dist_terms(np.ones((1, 2, 2)))
            with pytest.raises(ValueError, match="need a reference point"):
                f.ambient_shape

    def test_trace_psd_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            TracePSD(np.diag([1.0, 1.0]))     # rank two
        with pytest.raises(ValueError):
            TracePSD(np.diag([1.0, -1.0]))    # not PSD
        with pytest.raises(ValueError):
            TracePSD(np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric

    @pytest.mark.parametrize("c", [1e-13, 1.0, 1e6])
    def test_reference_scale_does_not_move_the_cone(self, c):
        # the descent cone at c x is the cone at x, so the zero test that
        # finds the reference's support, rank or PSD-ness is scale-relative
        rng = generator(44)
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        for make, x in ((L1Norm, np.eye(8)[0]), (Schatten1Norm, np.outer(u, v)),
                        (TracePSD, rank_one(u))):
            g = rng.standard_normal((5, *x.shape))
            g = 0.5 * (g + np.swapaxes(g, 1, -1))  # symmetric; no-op on vectors
            for got, want in zip(make(c * x).dist_terms(g),
                                 make(x).dist_terms(g)):
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
        assert TracePSD().value(c * rank_one(u)) == pytest.approx(c * (u @ u))
        # so is the symmetry test: eigh reads only the lower triangle, which
        # here is the rank-one PSD e_1 e_1^t at every c
        with pytest.raises(ValueError, match="must be symmetric"):
            TracePSD(c * np.array([[1.0, 1.0], [0.0, 0.0]]))


class TestMinSubdiffDist:
    def test_exact_member(self):
        f = L1Norm(np.array([1.0, 0.0]))
        tau, val = point_min_dist_sq(f, np.array([1.0, 0.0]))
        assert tau == pytest.approx(1.0, abs=1e-6)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_zero_point(self):
        f = L1Norm(np.array([1.0, 0.0]))
        tau, val = point_min_dist_sq(f, np.zeros(2))
        assert tau == 0.0 and val == 0.0

    def test_below_fixed_tau_and_grid(self):
        f = L1Norm(np.array([1.0, 0.0]))
        g = np.array([0.5, 2.0])
        _, val = point_min_dist_sq(f, g)
        assert val <= 1.25 + 1e-12
        assert val <= grid_min_dist_sq(f, g) + 1e-9

    def test_global_optimality_on_tau_grid(self):
        # the sorted minimization is exact over tau >= 0; check against a
        # dense grid for all three regularizer families
        rng = generator(44)
        fs = [
            L1Norm(np.array([1.0, -2.0, 0.0, 0.0, 0.5])),
            Schatten1Norm(np.diag([2.0, 1.0, 0.0])),
            TracePSD(np.outer([1.0, 0.5, -0.25], [1.0, 0.5, -0.25])),
        ]
        for f in fs:
            for _ in range(10):
                g = rng.standard_normal(f.ambient_shape)
                if isinstance(f, TracePSD):
                    g = 0.5 * (g + g.T)
                _, val = point_min_dist_sq(f, g)
                assert val <= grid_min_dist_sq(f, g) + 1e-9



class TestSortedKernel:
    @pytest.mark.parametrize("make", [
        lambda rng: L1Norm(np.r_[1.0, -1.0, 1.0, 1.0, np.zeros(124)]),
        lambda rng: L1Norm(np.where(rng.random(9) < 0.5, 0.0, 1.0) + np.eye(9)[0]),
        lambda rng: Schatten1Norm(rng.standard_normal((8, 1))
                                  @ rng.standard_normal((1, 8))),
        lambda rng: Schatten1Norm(rng.standard_normal((5, 2))
                                  @ rng.standard_normal((2, 7))),
        lambda rng: TracePSD(rank_one(rng.standard_normal(6))),
    ])
    def test_matches_brent_on_random_points(self, make):
        rng = generator(45)
        f = make(rng)
        for _ in range(100):
            g = rng.standard_normal(f.ambient_shape) * rng.uniform(0.1, 3.0)
            if isinstance(f, TracePSD):
                g = 0.5 * (g + g.T)
            tau_b, val_b = brent_min_dist_sq(f, g)
            tau, val = point_min_dist_sq(f, g)
            scale = 1.0 + float(np.sum(g * g))
            # exact minimizer: never worse than Brent beyond rounding
            assert val <= val_b + 1e-14 * scale
            if tau > 0.0:
                assert val == pytest.approx(val_b, abs=1e-12 * scale)
                assert tau == pytest.approx(tau_b, abs=1e-6)
                assert val == pytest.approx(closed_form_dist_sq(f, g, tau),
                                            abs=1e-12 * scale)
            else:  # Brent stops within its tolerance of the bound
                assert val == pytest.approx(val_b, abs=1e-8 * scale)

    def test_rows_are_independent(self):
        rng = generator(46)
        f = Schatten1Norm(rng.standard_normal((4, 1)) @ rng.standard_normal((1, 5)))
        gs = rng.standard_normal((7, 4, 5))
        tau, val = min_dist_sq(*f.dist_terms(gs))
        for i, g in enumerate(gs):
            assert (tau[i], val[i]) == point_min_dist_sq(f, g)

    def test_full_support_l1(self):
        # s = d: no off-support terms, tau* = <g, sign x>/d
        f = L1Norm(np.array([1.0, -2.0, 0.5]))
        g = np.array([0.3, -1.0, 2.0])
        tau, val = point_min_dist_sq(f, g)
        sgn = np.array([1.0, -1.0, 1.0])
        assert tau == pytest.approx(3.3 / 3.0, abs=1e-15)
        assert val == pytest.approx(float(np.sum((g - tau * sgn) ** 2)), abs=1e-14)

    def test_full_rank_schatten1(self):
        # empty g22: dist^2 = ||g - tau U V^t||^2, tau* = tr(U^t g V)/r
        rng = generator(47)
        x = rng.standard_normal((3, 3))
        f = Schatten1Norm(x)
        u, _, vt = np.linalg.svd(x)
        g = u @ vt + 0.1 * rng.standard_normal((3, 3))
        tau, val = point_min_dist_sq(f, g)
        assert tau == pytest.approx(np.trace(u.T @ g @ vt.T) / 3.0, abs=1e-14)
        assert val == pytest.approx(np.linalg.norm(g - tau * u @ vt) ** 2, abs=1e-13)

    def test_tied_off_support_values(self):
        # c = 0, a = (2, 2, 2, 2): all four active, tau* = 8/5
        f = L1Norm(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        g = np.array([0.0, 2.0, 2.0, -2.0, 2.0])
        tau, val = point_min_dist_sq(f, g)
        assert tau == pytest.approx(1.6, abs=1e-15)
        assert val == pytest.approx(1.6 ** 2 + 4 * 0.4 ** 2, abs=1e-14)

    def test_all_values_below_minimizer(self):
        f = L1Norm(np.array([1.0, 0.0, 0.0]))
        tau, val = point_min_dist_sq(f, np.array([3.0, 0.1, -0.2]))
        assert tau == 3.0 and val == 0.0

    def test_clamped_at_zero(self):
        f = L1Norm(np.array([1.0, 0.0, 0.0]))
        g = np.array([-3.0, 0.1, 0.2])
        tau, val = point_min_dist_sq(f, g)
        assert tau == 0.0
        assert val == pytest.approx(float(np.sum(g * g)), abs=1e-14)

    @pytest.mark.parametrize("f", [
        Schatten1Norm(np.diag([2.0, 0.0])),
        TracePSD(np.diag([1.0, 0.0, 0.0])),
    ])
    def test_zero_point_matrix(self, f):
        assert point_min_dist_sq(f, np.zeros(f.ambient_shape)) == (0.0, 0.0)

    def test_trace_psd_limit_at_zero(self):
        # h11 < 0 clamps tau* to 0; the value is the tau -> 0+ limit
        # h11^2 + sum lambda_+(h22)^2 = 1 + 0.25, below ||g||^2 = 5.25,
        # which the bounded Brent search approaches from above
        f = TracePSD(np.diag([1.0, 0.0, 0.0]))
        g = np.diag([-1.0, 0.5, -2.0])
        tau, val = point_min_dist_sq(f, g)
        assert tau == 0.0
        assert val == pytest.approx(1.25, abs=1e-15)
        assert closed_form_dist_sq(f, g, 0.0) == pytest.approx(5.25)
        assert brent_min_dist_sq(f, g)[1] == pytest.approx(1.25, abs=1e-6)


class TestLevelThreshold:
    @pytest.mark.parametrize("make", [
        lambda rng: L1Norm(np.r_[1.0, -1.0, np.zeros(14)]),
        lambda rng: Schatten1Norm(rng.standard_normal((6, 1))
                                  @ rng.standard_normal((1, 5))),
        lambda rng: TracePSD(rank_one(rng.standard_normal(5))),
    ])
    def test_matches_bisection(self, make):
        rng = generator(48)
        f = make(rng)
        level = f.value(f.x_ref) + 1e-12
        scale = 1e-3 * float(np.linalg.norm(f.x_ref))
        checked = 0
        for _ in range(30):
            u = rng.standard_normal(f.ambient_shape)
            if isinstance(f, TracePSD):
                u = 0.5 * (u + u.T)
            z = f.x_ref + scale * u
            if f.value(z) <= level:
                continue
            t = level_threshold(f.spectrum(z), level)
            # both err by the rounding of f (a few ulps of level) over the
            # slope df/dt, which is at least 1 in magnitude
            assert t == pytest.approx(bisection_threshold(f, z, level, scale),
                                      abs=1e-13 * level)
            if t > 0.0:
                assert f.value(f.prox(z, t)) == pytest.approx(level, rel=1e-13)
            else:  # the positive part of z is already inside the level set
                assert f.value(f.prox(z, t)) <= level
            checked += 1
        assert checked >= 10

    def test_ties(self):
        # sum (a - t)_+ = 3 over a = (2, 2, 2, 0.5): t = 1
        assert level_threshold(np.array([2.0, 0.5, 2.0, 2.0]), 3.0) == 1.0

    def test_zero_when_level_exceeds_positive_part(self):
        # a non-PSD point whose positive part is already inside the level
        # set: the step is 0 and the prox is the PSD projection
        assert level_threshold(np.array([0.5, -3.0, 0.2]), 1.0) == 0.0

"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (straight to the terminal, bypassing capture) in addition to the
pytest verdict.  Criteria:

 1. sparse l1 phase transition location (d=128, s=4)
 2. low-rank phase transition location (8x8, rank 1)
 3. phase retrieval success rate (d=16, m=128) + tiny-instance oracle
 4. Gordon-type lower bound empirical frequency
 5. Monte Carlo width-squared estimator consistency (sparse cone)
 6. statistical-dimension sandwich for subspaces
 7. small-ball inequality empirical frequency
 8. Paley-Zygmund tail dominance
 9. second moment of lifted rank-one measurements
10. core property suites (prox, projections, adjoints, duality)
"""

import itertools
import math

import numpy as np
import pytest

from conicrecovery import measure, solve, width
from conicrecovery.conic import Subspace, lambda_min_empirical
from conicrecovery.harness import (
    ExperimentConfig,
    LowRankS1,
    PhaseRetrieval,
    SparseL1,
    run_phase_transition,
)
from conicrecovery.measure import (
    apply,
    bounded_row_sampler,
    gaussian_ensemble,
    gaussian_row_sampler,
    lifted_phase_ensemble,
    rademacher_atom,
)
from conicrecovery.reg import L1Norm, Schatten1Norm, TracePSD
from conicrecovery.rng import generator
from conicrecovery.smallball import (
    estimate_marginal_tail,
    paley_zygmund_tail,
    phase_second_moment,
    small_ball_lower_bound,
)

import test_conic
import test_reg
import test_solve


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\nacceptance {num:02d} [{name}]: {verdict}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def sparse_sweep():
    cfg = ExperimentConfig(
        problem=SparseL1(s=4, d=128),
        m_grid=(8, 16, 24, 32, 40, 48, 54, 64, 72, 80, 88, 96),
        trials=25, eta=0.0, seed=20260826)
    return run_phase_transition(cfg)


def test_criterion_01_sparse_phase_transition(capsys, sparse_sweep):
    rates = {r.m: r.success_rate for r in sparse_sweep.rows}
    ok = rates[54] >= 0.95 and rates[16] <= 0.2
    # monotone-success sanity: total isotonic violation small at 25 trials
    seq = [r.success_rate for r in sparse_sweep.rows]
    tv = sum(max(a - b, 0.0) for a, b in zip(seq, seq[1:]))
    ok = ok and tv <= 0.15
    report(capsys, 1, "sparse phase transition", ok,
           f"rate@54={rates[54]:.2f} (need >=0.95), "
           f"rate@16={rates[16]:.2f} (need <=0.2), isotonic TV={tv:.2f}")


# (m, successes, nonconverged, mean_solve_iters, mean_rel_error) of each
# sparse_sweep row, recorded with the eta = 0 projection taken through the
# Gram eigenbasis (Phi, Q^t, Q, Phi^t per DR step); rows m <= 24 re-recorded
# with the Anderson step behind the residual guard, every row with the
# eta = 0 prox step 0.3 mean|y_i| in place of 1, and rows m <= 24 with the
# sweep's certified-failure floor, which stops 25, 23 and 2 of their cells
# early (they read 0 nonconverged, 1102.4, 1124.8 and 535.6 mean iterations
# and 1.0653664527951654, 0.8396896385773737 and 0.06276026624609204 mean
# errors without it), and every row with the Anderson step from iteration 1
# at eta = 0, not 1,000: mean iterations were 14.8 / 92.8 / 318.4 / 229.2 /
# 151.6 / 118.4 / 101.2 / 73.2 / 65.2 / 54.4 / 44.4 / 37.6, with the same
# successes and nonconverged counts, and mean errors 1.0684456491745662,
# 0.8425443612108992, 0.061922604932908326 for rows m <= 24 and 4.2e-09 to
# 1.3e-08 above
SPARSE_SWEEP_ROWS = [
    (8, 0, 25, 10.8, 1.0131875286206702),
    (16, 2, 23, 34.8, 0.8379790151770066),
    (24, 23, 2, 54.4, 0.062038107925297535),
    (32, 25, 0, 31.6, 3.387024419842338e-10),
    (40, 25, 0, 24.8, 6.827149338271713e-10),
    (48, 25, 0, 23.6, 1.2770455544460672e-10),
    (54, 25, 0, 21.2, 1.1434553439738927e-09),
    (64, 25, 0, 20.0, 3.074413307105893e-10),
    (72, 25, 0, 20.0, 8.572512038737261e-11),
    (80, 25, 0, 20.0, 1.19549586575871e-11),
    (88, 25, 0, 19.6, 9.073790407106963e-10),
    (96, 25, 0, 20.0, 1.0574111579513674e-12),
]


def test_criterion_01_rows_pinned(sparse_sweep):
    # not a criterion of its own: a change of solver arithmetic must leave
    # every verdict and iteration count of the sweep as recorded.  Without
    # the floor and with the plain step and the former eta = 0 prox step 1,
    # rows m <= 24 read (0, 5, 9318.8), (2, 5, 11136.0) and (23, 1, 1736.4)
    # in (successes, nonconverged, mean_solve_iters).  Every cell that does
    # not converge here is a certified failure
    rows = sparse_sweep.rows
    assert [(r.m, r.successes, r.nonconverged, r.mean_solve_iters)
            for r in rows] == [pin[:4] for pin in SPARSE_SWEEP_ROWS]
    assert [r.certified_fail for r in rows] == [r.nonconverged for r in rows]
    np.testing.assert_allclose([r.mean_rel_error for r in rows],
                               [pin[4] for pin in SPARSE_SWEEP_ROWS],
                               rtol=1e-6, atol=0)


def test_criterion_02_lowrank_phase_transition(capsys):
    cfg = ExperimentConfig(problem=LowRankS1(r=1, d1=8, d2=8),
                           m_grid=(20, 55), trials=25, seed=7)
    res = run_phase_transition(cfg)
    rates = {r.m: r.success_rate for r in res.rows}
    ok = rates[55] >= 0.9 and rates[20] <= 0.2
    report(capsys, 2, "low-rank phase transition", ok,
           f"rate@55={rates[55]:.2f} (need >=0.9), "
           f"rate@20={rates[20]:.2f} (need <=0.2)")


@pytest.fixture(scope="module")
def phase_sweep():
    cfg = ExperimentConfig(problem=PhaseRetrieval(d=16), m_grid=(128,),
                           trials=50, seed=11)
    return run_phase_transition(cfg)


def test_criterion_03_phase_retrieval(capsys, phase_sweep):
    rate = phase_sweep.rows[0].success_rate

    # tiny instance against the explicit linear-system oracle
    worst = 0.0
    for trial in range(5):
        rng = generator(800 + trial)
        x = rng.standard_normal(2)
        op = lifted_phase_ensemble(3, 2, seed=900 + trial)
        y = apply(op, np.outer(x, x))
        est = solve.phase_retrieval_sdp(op, y, 0.0).estimate
        oracle = test_solve.phase_linear_oracle(op, y)
        worst = max(worst, float(np.max(np.abs(est - oracle))))
    ok = rate >= 0.95 and worst <= 1e-6
    report(capsys, 3, "phase retrieval", ok,
           f"rate@m=128={rate:.2f} (need >=0.95), "
           f"d=2 oracle max dev={worst:.2e} (need <=1e-6)")


def test_criterion_03_row_pinned(phase_sweep):
    # not a criterion of its own: a change of solver arithmetic (the DR
    # step, the PSD prox, the projector) must leave the verdicts, the
    # iteration count and the mean error as recorded; with the Anderson
    # step from iteration 1,000 at eta = 0 they were (50, 0, 25.8) and
    # 2.565344e-09
    row = phase_sweep.rows[0]
    assert (row.successes, row.nonconverged, row.mean_solve_iters) == \
        (50, 0, 20.0)
    np.testing.assert_allclose(row.mean_rel_error, 3.612803e-12,
                               rtol=1e-6, atol=0)


def test_criterion_04_gordon_bound_validity(capsys):
    m, d, t, trials = 200, 50, 2.0, 100
    bound = math.sqrt(m - 1) - math.sqrt(d) - t
    hits = sum(
        lambda_min_empirical(gaussian_ensemble(m, d, seed=4000 + i),
                             Subspace(np.eye(d))).value >= bound
        for i in range(trials))
    ok = hits / trials >= 0.93
    report(capsys, 4, "Gordon bound validity", ok,
           f"held in {hits}/{trials} trials (need >=93)")


def test_criterion_05_mc_width_consistency(capsys):
    x = np.zeros(128)
    x[:4] = 1.0
    est = width.mc_width_sq_descent(L1Norm(x), trials=2000, seed=13)
    bound = width.sparse_width_bound(4, 128)
    ok = (est.value <= bound + 3 * est.std_error
          and est.value >= 0.4 * bound)
    report(capsys, 5, "MC width estimator", ok,
           f"estimate={est.value:.2f}+-{est.std_error:.2f}, "
           f"bound={bound:.2f}, floor={0.4 * bound:.2f}")


def test_criterion_06_statistical_dimension_sandwich(capsys):
    worst = ""
    ok = True
    for k in range(1, 21):
        est = width.mc_subspace_width_sq(k, trials=10_000, seed=600 + k)
        lo = k - 1 - 3 * est.std_error
        hi = k + 3 * est.std_error
        if not (lo <= est.value <= hi):
            ok = False
            worst = f"k={k}: {est.value:.3f} outside [{lo:.3f}, {hi:.3f}]"
    report(capsys, 6, "statistical dimension sandwich", ok,
           worst or "k=1..20 all inside [k-1, k] within 3 SE")


def test_criterion_07_small_ball_frequency(capsys):
    d, k, m, trials = 20, 5, 60, 500
    xi = 0.6745 / 2.0          # 2*xi at the standard normal quartile
    q = 0.5                    # exact Q_{2 xi} for Gaussian marginals
    w = math.sqrt(2) * math.gamma(3.0) / math.gamma(2.5)   # E||g_5||
    basis = np.eye(d)[:, :k]
    details = []
    ok = True
    for t in (1.0, 2.0):
        bound = small_ball_lower_bound(xi, m, q, w, t)
        hits = 0
        for trial in range(trials):
            phi = generator(5000 + trial).standard_normal((m, d))
            hits += np.linalg.svd(phi @ basis, compute_uv=False)[-1] >= bound
        need = 1.0 - math.exp(-t * t / 2.0) - 0.02
        ok = ok and hits / trials >= need
        details.append(f"t={t:g}: {hits}/{trials} (need >={need:.3f})")
    report(capsys, 7, "small-ball inequality frequency", ok, "; ".join(details))


def test_criterion_08_paley_zygmund_dominance(capsys):
    def sphere(d):
        def sample(rng, n):
            g = rng.standard_normal((n, d))
            return g / np.linalg.norm(g, axis=1, keepdims=True)
        return sample

    cases = [
        ("gaussian", gaussian_row_sampler(12), math.sqrt(2 / math.pi), 1.0),
        ("rademacher", bounded_row_sampler(12, rademacher_atom()),
         2.0 ** -0.5, 1.0),
    ]
    ok = True
    details = []
    for name, sampler, alpha, sigma in cases:
        for xi in (alpha / 6.0, alpha / 4.0):
            est = estimate_marginal_tail(sampler, sphere(12), 2 * xi,
                                         n_dirs=50, n_samples=4000, seed=21)
            se = math.sqrt(max(est.q_min * (1 - est.q_min), 1e-12) / 4000)
            pz = paley_zygmund_tail(alpha, sigma, xi)
            good = pz <= est.q_min + 3 * se
            ok = ok and good
            details.append(f"{name} xi={xi:.3f}: PZ={pz:.3f} vs "
                           f"Q={est.q_min:.3f}")
    report(capsys, 8, "Paley-Zygmund dominance", ok, "; ".join(details))


def test_criterion_09_second_moment_identity(capsys):
    rng = generator(22)
    ok = True
    worst = 0.0
    for i in range(20):
        u = rng.standard_normal((6, 6))
        u = 0.5 * (u + u.T)
        u /= np.linalg.norm(u)
        est, se = phase_second_moment(u, n_samples=100_000, seed=2200 + i)
        truth = 2.0 + float(np.trace(u)) ** 2
        rel = abs(est - truth) / truth
        worst = max(worst, rel)
        ok = ok and rel <= 0.05 and est >= 2.0 - 3 * se
    report(capsys, 9, "lifted second-moment identity", ok,
           f"max relative deviation from 2 + (tr U)^2: {worst:.3f} "
           f"(need <=0.05), all >= 2 - 3 SE")


def test_criterion_10_property_suites(capsys):
    rng = generator(23)
    ok = True
    notes = []

    # prox optimality + nonexpansiveness (l1; spectral cases covered in
    # the module suite, spot-checked here)
    f = L1Norm()
    for _ in range(1000):
        z = rng.standard_normal(6) * 2
        t = float(rng.uniform(0.05, 3))
        p = f.prox(z, t)
        gsub = (z - p) / t
        on = np.abs(p) > 1e-12
        if not (np.all(np.abs(gsub[on] - np.sign(p[on])) <= 1e-8)
                and np.all(np.abs(gsub[~on]) <= 1 + 1e-8)):
            ok = False
        z2 = rng.standard_normal(6) * 2
        if (np.linalg.norm(f.prox(z, t) - f.prox(z2, t))
                > np.linalg.norm(z - z2) + 1e-9):
            ok = False
    notes.append("prox")

    # PSD projection (the trace+PSD prox at step 0) idempotence
    psd = TracePSD()
    for _ in range(100):
        p = psd.prox(rng.standard_normal((5, 5)), 0.0)
        if not np.allclose(psd.prox(p, 0.0), p, atol=1e-10):
            ok = False
    notes.append("psd-projection")

    # adjoint identity, both operator kinds
    for op in (gaussian_ensemble(7, 5, seed=30),
               lifted_phase_ensemble(7, 5, seed=31)):
        for _ in range(100):
            x = rng.standard_normal(op.signal_shape)
            if op.kind is measure.OperatorKind.LIFTED:
                x = 0.5 * (x + x.T)
            v = rng.standard_normal(op.m)
            lhs = float(apply(op, x) @ v)
            rhs = float(np.sum(x * measure.adjoint(op, v)))
            if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
                ok = False
    notes.append("adjoint")

    # closed-form subdifferential distance vs projection oracles, d <= 6
    closed_form = test_reg.closed_form_dist_sq
    for _ in range(10):
        d = int(rng.integers(2, 7))
        xv = rng.standard_normal(d)
        xv[rng.random(d) < 0.5] = 0.0
        if not np.any(np.abs(xv) > 1e-12):
            xv[0] = 1.0
        g = rng.standard_normal(d)
        tau = float(rng.uniform(0, 2))
        if abs(closed_form(L1Norm(xv), g, tau)
               - test_reg.l1_dist_sq_oracle(xv, g, tau)) > 1e-6:
            ok = False
        v = rng.standard_normal(d)
        gm = rng.standard_normal((d, d))
        gm = 0.5 * (gm + gm.T)
        if abs(closed_form(TracePSD(np.outer(v, v)), gm, tau + 0.05)
               - test_reg.trace_psd_dist_sq_oracle(np.outer(v, v), gm,
                                                   tau + 0.05)) > 1e-6:
            ok = False
        xm = np.outer(rng.standard_normal(d), rng.standard_normal(d))
        gm2 = rng.standard_normal((d, d))
        if abs(closed_form(Schatten1Norm(xm), gm2, tau + 0.05)
               - test_reg.s1_dist_sq_oracle(xm, gm2, tau + 0.05)) > 1e-6:
            ok = False
    notes.append("subdiff-oracle")

    # weak duality on random 2-D/3-D cones: net-sup vs polar distance
    for _ in range(5):
        d = int(rng.integers(2, 4))
        gens = rng.standard_normal((int(rng.integers(1, 4)), d))
        gens /= np.linalg.norm(gens, axis=1, keepdims=True)
        wgt = rng.random((3000, gens.shape[0]))
        net = wgt @ gens
        nrm = np.linalg.norm(net, axis=1)
        net = net[nrm > 1e-9] / nrm[nrm > 1e-9, None]
        for _ in range(20):
            g = rng.standard_normal(d)
            sup = float(np.max(net @ g))
            dist = float(np.linalg.norm(test_conic.cone_projection(gens, g)))
            if sup > dist + 1e-9:
                ok = False
    notes.append("weak-duality")

    report(capsys, 10, "property suites", ok, "+".join(notes))

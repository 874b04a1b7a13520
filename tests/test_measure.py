"""Measurement-ensemble construction, action, adjoints, noise injection."""

import math

import numpy as np
import pytest

from conicrecovery import measure
from conicrecovery.measure import (
    Atom,
    MeasurementOperator,
    OperatorKind,
    adjoint,
    apply,
    bounded_row_sampler,
    bounded_symmetric_ensemble,
    gaussian_ensemble,
    gaussian_matrix_ensemble,
    gaussian_row_sampler,
    lifted_phase_ensemble,
    lifted_row_sampler,
    measure_with_noise,
    rademacher_atom,
    uniform_atom,
)
from conicrecovery.rng import generator


def lifted(vectors):
    """The lifted operator of fixed sampling vectors psi_i (the rows)."""
    return MeasurementOperator(OperatorKind.LIFTED, len(vectors),
                               (vectors.shape[1],) * 2, vectors=vectors)


def outer_products(vectors):
    """The rows psi_i psi_i^t of a lifted operator."""
    return vectors[:, :, None] * vectors[:, None, :]


# law -> seed -> (its row sampler's first 6 draws from generator(seed), the
# rows of its constructor's 6-row operator at that seed); matrix rows are
# flattened, and a lifted operator's rows are its vectors' outer products
FIRST_DRAWS = {
    "rademacher": lambda seed: (
        bounded_row_sampler(5, rademacher_atom())(generator(seed), 6),
        bounded_symmetric_ensemble(6, 5, rademacher_atom(), seed).rows),
    "uniform": lambda seed: (
        bounded_row_sampler(5, uniform_atom())(generator(seed), 6),
        bounded_symmetric_ensemble(6, 5, uniform_atom(), seed).rows),
    "gaussian": lambda seed: (
        gaussian_row_sampler(5)(generator(seed), 6),
        gaussian_ensemble(6, 5, seed).rows),
    "gaussian-matrix": lambda seed: (
        gaussian_row_sampler((3, 4))(generator(seed), 6).reshape(6, 12),
        gaussian_matrix_ensemble(6, 3, 4, seed).rows),
    "lifted": lambda seed: (
        lifted_row_sampler(5)(generator(seed), 6),
        outer_products(lifted_phase_ensemble(6, 5, seed).vectors)),
}


class TestGaussianEnsemble:
    def test_shape_and_determinism(self):
        a = gaussian_ensemble(3, 2, seed=7)
        b = gaussian_ensemble(3, 2, seed=7)
        assert a.rows.shape == (3, 2)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_different_seed_differs(self):
        a = gaussian_ensemble(3, 2, seed=7)
        b = gaussian_ensemble(3, 2, seed=8)
        assert not np.array_equal(a.rows, b.rows)

    def test_sample_mean_clt(self):
        # CLT: mean of 2000 standard normals is within 4/sqrt(2000) of 0
        # with overwhelming probability (4-sigma event)
        op = gaussian_ensemble(2000, 1, seed=11)
        assert abs(np.mean(op.rows)) <= 4.0 / math.sqrt(2000)

    def test_sample_variance(self):
        op = gaussian_ensemble(2000, 1, seed=11)
        assert 0.85 <= np.var(op.rows) <= 1.15

    @pytest.mark.parametrize("m,d", [(0, 4), (4, 0), (0, 0)])
    def test_rejects_zero_dims(self, m, d):
        with pytest.raises(ValueError):
            gaussian_ensemble(m, d, seed=0)

    @pytest.mark.parametrize("shape", [0, -3, (4, 0), ()])
    def test_row_sampler_rejects_nonpositive_dims(self, shape):
        # every law refuses empty rows when it is built, before any draw;
        # the bounded and lifted laws take a row length d
        samplers = [gaussian_row_sampler]
        if isinstance(shape, int):
            samplers += [lambda d: bounded_row_sampler(d, rademacher_atom()),
                         lifted_row_sampler]
        for sampler in samplers:
            with pytest.raises(ValueError, match="row dimensions must be at least 1"):
                sampler(shape)


class TestBoundedEnsemble:
    def test_rademacher_support(self):
        op = bounded_symmetric_ensemble(4, 4, rademacher_atom(), seed=1)
        assert set(np.unique(op.rows)) <= {-1.0, 1.0}

    def test_uniform_abs_mean_estimated(self):
        # E|Uniform[-1,1]| = 1/2 exactly; the row mean concentrates there
        op = bounded_symmetric_ensemble(5000, 1, uniform_atom(), seed=3)
        assert abs(np.mean(np.abs(op.rows)) - 0.5) <= 0.02

    @pytest.mark.parametrize("atom", [rademacher_atom(), uniform_atom()],
                             ids=["rademacher", "uniform"])
    def test_rows_are_one_sampler_draw(self, atom):
        # the rows are the atom's first (m, d) draw from the seed's stream
        op = bounded_symmetric_ensemble(6, 5, atom, seed=4)
        np.testing.assert_array_equal(op.rows,
                                      atom.sampler(generator(4), (6, 5)))

    def test_rejects_asymmetric_atom(self):
        atom = Atom(sampler=lambda rng, size: rng.uniform(0, 1, size=size),
                    bound=1.0, symmetric=False)
        with pytest.raises(ValueError, match="symmetric"):
            bounded_symmetric_ensemble(2, 2, atom, seed=0)
        with pytest.raises(ValueError, match="symmetric"):
            bounded_row_sampler(2, atom)(generator(0), 2)

    def test_rejects_atom_beyond_its_bound(self):
        # Uniform[-1, 1] declared with bound 0.5
        atom = Atom(sampler=uniform_atom().sampler, bound=0.5)
        with pytest.raises(ValueError, match="declared bound"):
            bounded_symmetric_ensemble(6, 5, atom, seed=4)
        with pytest.raises(ValueError, match="declared bound"):
            bounded_row_sampler(5, atom)(generator(4), 6)

    @pytest.mark.parametrize("law", list(FIRST_DRAWS))
    def test_row_sampler_matches_ensemble(self, law):
        # same law, same stream: a constructor's operator is its row
        # sampler's first m draws, at a seed as large as the harness draws
        for seed in (4, 2 ** 61 + 3):
            draws, rows = FIRST_DRAWS[law](seed)
            assert draws.shape == rows.shape
            assert draws.tobytes() == rows.tobytes()


class TestLiftedEnsemble:
    def test_injected_identity_signal(self):
        op = lifted(np.array([[1.0, 0.0]]))
        y = apply(op, np.eye(2))
        assert y == pytest.approx([1.0])

    def test_injected_rank_one_signal(self):
        op = lifted(np.array([[1.0, 1.0]]))
        x = np.array([1.0, 0.0])
        y = apply(op, np.outer(x, x))
        assert y == pytest.approx([1.0])

    def test_matches_squared_inner_products(self):
        op = lifted_phase_ensemble(40, 6, seed=5)
        x = generator(17).standard_normal(6)
        y = apply(op, np.outer(x, x))
        direct = (op.vectors @ x) ** 2
        np.testing.assert_allclose(y, direct, rtol=1e-13, atol=1e-13)

    def test_memory_layout_stores_vectors_only(self):
        op = lifted_phase_ensemble(3, 4, seed=0)
        assert op.vectors.shape == (3, 4)
        assert op.rows is None

    def test_injected_shape_mismatch(self):
        with pytest.raises(ValueError, match="m vectors of length d"):
            MeasurementOperator(OperatorKind.LIFTED, 2, (2, 2),
                                vectors=np.ones((3, 2)))
        with pytest.raises(ValueError, match="symmetric d x d"):
            MeasurementOperator(OperatorKind.LIFTED, 2, (2, 3),
                                vectors=np.ones((2, 2)))
        with pytest.raises(ValueError, match="rows of shape"):
            MeasurementOperator(OperatorKind.DENSE, 2, (3,),
                                rows=np.ones((2, 4)))


def assert_gram_matches_columns(op):
    """G = Phi Phi^*, column j built as Phi(Phi^*(e_j))."""
    cols = [apply(op, adjoint(op, e)) for e in np.eye(op.m)]
    np.testing.assert_allclose(measure.gram(op), np.stack(cols, axis=1),
                               rtol=1e-12, atol=1e-12)


class TestApplyAdjoint:
    def test_identity_like(self):
        op = measure.MeasurementOperator(OperatorKind.DENSE, 2, (2,),
                                         rows=np.eye(2))
        np.testing.assert_array_equal(apply(op, np.array([3.0, 4.0])), [3.0, 4.0])

    def test_adjoint_identity_dense(self):
        op = gaussian_ensemble(7, 5, seed=2)
        rng = generator(99)
        for _ in range(100):
            x = rng.standard_normal(5)
            v = rng.standard_normal(7)
            lhs = float(apply(op, x) @ v)
            rhs = float(np.sum(x * adjoint(op, v)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        assert_gram_matches_columns(op)

    def test_adjoint_identity_matrix_signals(self):
        op = gaussian_matrix_ensemble(6, 3, 4, seed=2)
        rng = generator(98)
        for _ in range(100):
            x = rng.standard_normal((3, 4))
            v = rng.standard_normal(6)
            lhs = float(apply(op, x) @ v)
            rhs = float(np.sum(x * adjoint(op, v)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        assert_gram_matches_columns(op)

    def test_adjoint_identity_lifted(self):
        op = lifted_phase_ensemble(6, 4, seed=3)
        rng = generator(97)
        for _ in range(100):
            x = rng.standard_normal((4, 4))
            x = 0.5 * (x + x.T)   # lifted signals are symmetric
            v = rng.standard_normal(6)
            lhs = float(apply(op, x) @ v)
            rhs = float(np.sum(x * adjoint(op, v)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        assert_gram_matches_columns(op)

    def test_lifted_adjoint_all_ones(self):
        op = lifted(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(adjoint(op, np.array([1.0])), np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        op = gaussian_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            apply(op, np.zeros(3))
        with pytest.raises(ValueError):
            adjoint(op, np.zeros(4))


class TestMeasureWithNoise:
    def test_zero_noise_exact(self):
        op = gaussian_ensemble(5, 3, seed=1)
        x = generator(4).standard_normal(3)
        np.testing.assert_array_equal(measure_with_noise(op, x), apply(op, x))
        np.testing.assert_array_equal(
            measure_with_noise(op, x, noise_norm=0.0, seed=9), apply(op, x))

    def test_generated_noise_respects_budget(self):
        op = gaussian_ensemble(5, 3, seed=1)
        x = generator(4).standard_normal(3)
        y = measure_with_noise(op, x, noise_norm=0.1, seed=9)
        assert np.linalg.norm(y - apply(op, x)) <= 0.1 + 1e-12

    def test_zero_signal_returns_noise(self):
        # the generated error has exactly the declared norm
        op = gaussian_ensemble(5, 3, seed=1)
        e = measure_with_noise(op, np.zeros(3), noise_norm=0.3, seed=9)
        direction = generator(9).standard_normal(5)
        np.testing.assert_array_equal(e, 0.3 * direction / np.linalg.norm(direction))

    def test_requires_seed_for_generated_noise(self):
        op = gaussian_ensemble(5, 3, seed=1)
        with pytest.raises(ValueError):
            measure_with_noise(op, np.zeros(3), noise_norm=0.5)

    @pytest.mark.parametrize("noise_norm, message", [
        (-0.5, "eta must be nonnegative"),
        (math.nan, "eta must be nonnegative"),
        (math.inf, "eta must be finite"),
    ])
    def test_refuses_budget_that_is_not_finite_nonnegative(self, noise_norm,
                                                          message):
        # the solvers' eta rule: a negative budget would draw noise of norm
        # |budget|, and NaN or inf would turn every datum NaN or inf
        op = gaussian_ensemble(5, 3, seed=1)
        with pytest.raises(ValueError, match=message):
            measure_with_noise(op, np.ones(3), noise_norm=noise_norm, seed=9)


class TestImmutability:
    def test_rows_not_writable(self):
        op = gaussian_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            op.rows[0, 0] = 99.0

    def test_vectors_not_writable(self):
        op = lifted_phase_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            op.vectors[0, 0] = 99.0

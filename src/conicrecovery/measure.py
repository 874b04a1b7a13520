"""Random measurement ensembles exposed as linear operators with adjoints.

Two operator kinds are supported:

* ``DENSE`` -- an explicit m x n matrix acting on (flattened) signals.
* ``LIFTED`` -- m sampling vectors psi_i; the operator acts on symmetric
  d x d matrices X through the trace pairing <X, psi_i psi_i^t>.  Only the
  vectors are stored (O(md) memory), never the rank-one matrices.

Each row law is one row sampler, and an operator is its law's first m draws
from ``generator(seed)``; the small-ball estimators draw the same rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import generator


class OperatorKind(enum.Enum):
    DENSE = "dense"
    LIFTED = "lifted"


@dataclass(frozen=True)
class MeasurementOperator:
    """Immutable linear map from signal space to R^m with an adjoint."""

    kind: OperatorKind
    m: int
    signal_shape: tuple[int, ...]
    rows: np.ndarray | None = None      # (m, n) for DENSE, n = prod(shape)
    vectors: np.ndarray | None = None   # (m, d) for LIFTED
    seed: int | None = None

    def __post_init__(self):
        n = int(np.prod(self.signal_shape))
        if self.kind is OperatorKind.DENSE:
            if self.rows is None or self.rows.shape != (self.m, n):
                raise ValueError("dense operator needs rows of shape (m, n)")
        else:
            d = self.signal_shape[0]
            if self.signal_shape != (d, d):
                raise ValueError("lifted operator acts on symmetric d x d matrices")
            if self.vectors is None or self.vectors.shape != (self.m, d):
                raise ValueError("lifted operator needs m vectors of length d")
        self.rows is None or self.rows.setflags(write=False)
        self.vectors is None or self.vectors.setflags(write=False)


# ---------------------------------------------------------------------------
# atoms for bounded ensembles

@dataclass(frozen=True)
class Atom:
    """Symmetric bounded scalar distribution used as an i.i.d. entry law.

    ``sampler(rng, size)`` draws variates; ``bound`` is an a.s. bound on
    |X| (doubles as the subgaussian scale sigma via Hoeffding).  The row
    sampler checks the symmetry once and the bound on every draw.
    """

    sampler: Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]
    bound: float
    symmetric: bool = True


def rademacher_atom() -> Atom:
    return Atom(
        sampler=lambda rng, size: rng.choice([-1.0, 1.0], size=size),
        bound=1.0,
    )


def uniform_atom(half_width: float = 1.0) -> Atom:
    return Atom(
        sampler=lambda rng, size: rng.uniform(-half_width, half_width, size=size),
        bound=half_width,
    )


def _atom_draw(atom: Atom, rng: np.random.Generator, size: tuple[int, ...]) -> np.ndarray:
    """The atom's variates of the given size, refused beyond its bound."""
    x = np.asarray(atom.sampler(rng, size), dtype=float)
    if np.max(np.abs(x), initial=0.0) > atom.bound + 1e-12:
        raise ValueError("atom sample exceeded its declared bound")
    return x


# ---------------------------------------------------------------------------
# constructors: the first m draws of a law's row sampler from generator(seed)

def _operator(kind: OperatorKind, sample, m: int, seed: int) -> MeasurementOperator:
    """Dense: the draws, flattened to (m, n), are the rows; lifted: the vectors."""
    if m < 1:
        raise ValueError("m must be at least 1")
    draws = sample(generator(seed), m)
    shape = draws.shape[1:]
    if kind is OperatorKind.LIFTED:
        return MeasurementOperator(kind, m, shape * 2, vectors=draws, seed=seed)
    return MeasurementOperator(kind, m, shape, rows=draws.reshape(m, -1), seed=seed)


def gaussian_ensemble(m: int, d: int, seed: int) -> MeasurementOperator:
    """m x d matrix with i.i.d. standard normal entries, deterministic in seed."""
    return _operator(OperatorKind.DENSE, gaussian_row_sampler(d), m, seed)


def gaussian_matrix_ensemble(m: int, d1: int, d2: int, seed: int) -> MeasurementOperator:
    """Dense Gaussian operator on d1 x d2 matrix signals (rows act on vec(X))."""
    return _operator(OperatorKind.DENSE, gaussian_row_sampler((d1, d2)), m, seed)


def bounded_symmetric_ensemble(m: int, d: int, atom: Atom,
                               seed: int) -> MeasurementOperator:
    """m x d matrix of i.i.d. copies of a symmetric bounded atom."""
    return _operator(OperatorKind.DENSE, bounded_row_sampler(d, atom), m, seed)


def lifted_phase_ensemble(m: int, d: int, seed: int) -> MeasurementOperator:
    """m standard Gaussian sampling vectors acting on symmetric d x d matrices."""
    return _operator(OperatorKind.LIFTED, gaussian_row_sampler(d), m, seed)


# ---------------------------------------------------------------------------
# action

def _forward(op: MeasurementOperator, x: np.ndarray) -> np.ndarray:
    """Phi(x) for a flat signal x."""
    if op.kind is OperatorKind.DENSE:
        return op.rows @ x
    psi = op.vectors  # <X, psi psi^t> = psi^t X psi: row sums of (Psi X) o Psi
    return np.einsum("ij,ij->i", psi @ x.reshape(op.signal_shape), psi)


def _adjoint(op: MeasurementOperator, v: np.ndarray) -> np.ndarray:
    """Phi^*(v) as a flat signal; lifted: Psi^t diag(v) Psi, symmetrized."""
    if op.kind is OperatorKind.DENSE:
        return op.rows.T @ v
    out = (op.vectors.T * v) @ op.vectors
    return (0.5 * (out + out.T)).ravel()


def apply(op: MeasurementOperator, x: np.ndarray) -> np.ndarray:
    """Apply the operator to a signal (vector or matrix per op.signal_shape)."""
    x = np.asarray(x, dtype=float)
    if x.shape != op.signal_shape:
        raise ValueError(f"signal shape {x.shape} != operator shape {op.signal_shape}")
    return _forward(op, x.ravel())


def adjoint(op: MeasurementOperator, v: np.ndarray) -> np.ndarray:
    """Adjoint map; output is symmetrized for lifted operators."""
    v = np.asarray(v, dtype=float)
    if v.shape != (op.m,):
        raise ValueError(f"expected vector of length {op.m}")
    return _adjoint(op, v).reshape(op.signal_shape)


def gram(op: MeasurementOperator) -> np.ndarray:
    """The m x m Gram matrix Phi Phi^*: A A^t, or (Psi Psi^t)^2 entrywise."""
    if op.kind is OperatorKind.DENSE:
        return op.rows @ op.rows.T
    return (op.vectors @ op.vectors.T) ** 2


def as_int(value, name: str) -> int:
    """``value`` as the integer field ``name``; a bool or a fraction is
    refused, not truncated (8.0 and "10" are read as integers)."""
    if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_eta(eta: float) -> None:
    """Refuse a noise level that is not a finite eta >= 0 (NaN included)."""
    if not 0 <= eta < math.inf:
        raise ValueError("eta must be finite" if math.isinf(eta)
                         else "eta must be nonnegative")


def measure_with_noise(op: MeasurementOperator, x: np.ndarray,
                       noise_norm: float | None = None,
                       seed: int | None = None) -> np.ndarray:
    """Return Phi(x) + e, where e has norm exactly ``noise_norm`` and is
    drawn from ``seed``; Phi(x) alone when the budget is None or 0.  A
    budget that ``check_eta`` refuses raises ``ValueError``."""
    if noise_norm is not None:
        check_eta(noise_norm)
    y = apply(op, x)
    if noise_norm is None or noise_norm == 0:
        return y
    if seed is None:
        raise ValueError("seed required to generate a noise vector")
    direction = generator(seed).standard_normal(op.m)
    return y + noise_norm * direction / np.linalg.norm(direction)


# ---------------------------------------------------------------------------
# row samplers: one per law; the constructors and the estimators draw rows here

def gaussian_row_sampler(shape: int | tuple[int, ...]):
    """Sampler of standard Gaussian rows in the given ambient shape.

    The sampler is marked ``signed_sum_closed``: m^{-1/2} sum_i eps_i phi_i
    of its rows is again one standard Gaussian row, so the small-ball width
    estimators draw that sum as a single row.
    """
    if isinstance(shape, (int, np.integer)):
        shape = (shape,)
    if min(shape, default=0) < 1:
        raise ValueError("row dimensions must be at least 1")

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, *shape))

    sample.signed_sum_closed = True
    return sample


def bounded_row_sampler(d: int, atom: Atom):
    """Sampler of i.i.d.-atom rows in R^d; the atom must be declared symmetric."""
    if d < 1:
        raise ValueError("row dimensions must be at least 1")
    if not atom.symmetric:
        raise ValueError("atom distribution must be symmetric about 0")

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return _atom_draw(atom, rng, (n, d))

    return sample


def lifted_row_sampler(d: int):
    """Sampler of rank-one rows psi psi^t, psi a ``gaussian_row_sampler(d)`` row."""
    vectors = gaussian_row_sampler(d)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        psi = vectors(rng, n)
        return np.einsum("id,ie->ide", psi, psi)

    return sample

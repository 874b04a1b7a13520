"""Random measurement ensembles exposed as linear operators with adjoints.

Two operator kinds are supported:

* ``DENSE`` -- an explicit m x n matrix acting on (flattened) signals.
* ``LIFTED`` -- m sampling vectors psi_i; the operator acts on symmetric
  d x d matrices X through the trace pairing <X, psi_i psi_i^t>.  Only the
  vectors are stored (O(md) memory), never the rank-one matrices.

Dense rows are Gaussian or i.i.d. copies of a symmetric bounded atom; the
row samplers draw the same laws for the small-ball estimators.
"""

from __future__ import annotations

import enum
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
    |X| (doubles as the subgaussian scale sigma via Hoeffding).  Every draw
    is checked against both declarations.
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


def _atom_draw(atom: Atom, rng: np.random.Generator,
               size: tuple[int, ...]) -> np.ndarray:
    """The atom's variates of the given size; raises unless the atom is
    declared symmetric and the draw stays within its declared bound."""
    if not atom.symmetric:
        raise ValueError("atom distribution must be symmetric about 0")
    x = np.asarray(atom.sampler(rng, size), dtype=float)
    if np.max(np.abs(x), initial=0.0) > atom.bound + 1e-12:
        raise ValueError("atom sample exceeded its declared bound")
    return x


# ---------------------------------------------------------------------------
# constructors

def gaussian_ensemble(m: int, d: int, seed: int) -> MeasurementOperator:
    """m x d matrix with i.i.d. standard normal entries, deterministic in seed."""
    if m < 1 or d < 1:
        raise ValueError("m and d must be at least 1")
    rows = generator(seed).standard_normal((m, d))
    return MeasurementOperator(OperatorKind.DENSE, m, (d,), rows=rows, seed=seed)


def gaussian_matrix_ensemble(m: int, d1: int, d2: int, seed: int) -> MeasurementOperator:
    """Dense Gaussian operator on d1 x d2 matrix signals (rows act on vec(X))."""
    if m < 1 or d1 < 1 or d2 < 1:
        raise ValueError("m, d1, d2 must be at least 1")
    rows = generator(seed).standard_normal((m, d1 * d2))
    return MeasurementOperator(OperatorKind.DENSE, m, (d1, d2), rows=rows, seed=seed)


def bounded_symmetric_ensemble(m: int, d: int, atom: Atom,
                               seed: int) -> MeasurementOperator:
    """m x d matrix of i.i.d. copies of a symmetric bounded atom."""
    if m < 1 or d < 1:
        raise ValueError("m and d must be at least 1")
    rows = _atom_draw(atom, generator(seed), (m, d))
    return MeasurementOperator(OperatorKind.DENSE, m, (d,), rows=rows, seed=seed)


def lifted_phase_ensemble(m: int, d: int, seed: int) -> MeasurementOperator:
    """m standard Gaussian sampling vectors acting on symmetric d x d matrices."""
    if m < 1 or d < 1:
        raise ValueError("m and d must be at least 1")
    vectors = generator(seed).standard_normal((m, d))
    return MeasurementOperator(OperatorKind.LIFTED, m, (d, d), vectors=vectors,
                               seed=seed)


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


def measure_with_noise(op: MeasurementOperator, x: np.ndarray,
                       noise_norm: float | None = None,
                       seed: int | None = None) -> np.ndarray:
    """Return Phi(x) + e, where e has norm exactly ``noise_norm`` and is
    drawn from ``seed``; Phi(x) alone when the budget is None or 0."""
    y = apply(op, x)
    if noise_norm is None or noise_norm == 0:
        return y
    if seed is None:
        raise ValueError("seed required to generate a noise vector")
    direction = generator(seed).standard_normal(op.m)
    return y + noise_norm * direction / np.linalg.norm(direction)


# ---------------------------------------------------------------------------
# row samplers (used by the small-ball estimators and the harness)

def gaussian_row_sampler(shape: int | tuple[int, ...]):
    """Sampler of standard Gaussian rows in the given ambient shape."""
    if isinstance(shape, int):
        shape = (shape,)
    if min(shape, default=0) < 1:
        raise ValueError("row dimensions must be at least 1")

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, *shape))

    return sample


def bounded_row_sampler(d: int, atom: Atom):
    """Sampler of i.i.d.-atom rows in R^d, checked as in
    ``bounded_symmetric_ensemble``."""
    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return _atom_draw(atom, rng, (n, d))

    return sample


def lifted_row_sampler(d: int):
    """Sampler of rank-one rows psi psi^t with standard Gaussian psi."""
    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        psi = rng.standard_normal((n, d))
        return np.einsum("id,ie->ide", psi, psi)

    return sample

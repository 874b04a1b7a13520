"""Minimum conic singular values and the deterministic recovery error bound.

Exact evaluation is available for subspaces (restricted smallest singular
value), the full space being ``Subspace(np.eye(d))``.  Descent cones use a
projected-minimization heuristic whose answer is an upper bound only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import MeasurementOperator, OperatorKind, as_int, check_eta
from .reg import Regularizer, level_threshold
from .rng import generator

MEMBERSHIP_TOL = 1e-12


# ---------------------------------------------------------------------------
# cone descriptors

@dataclass(frozen=True)
class Subspace:
    basis: np.ndarray  # d x k, orthonormalized on construction

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or not 1 <= b.shape[1] <= b.shape[0]:
            raise ValueError("basis must be a d x k matrix with 1 <= k <= d")
        q, _ = np.linalg.qr(b)
        object.__setattr__(self, "basis", q[:, : b.shape[1]])


@dataclass(frozen=True)
class DescentCone:
    f: Regularizer


ConeDescriptor = Subspace | DescentCone


@dataclass(frozen=True)
class LambdaMinResult:
    """``mode`` is ``"exact"`` or ``"upper-bound (heuristic)"``; only an
    exact value is ``certified``."""

    value: float
    mode: str

    @property
    def certified(self) -> bool:
        return self.mode == "exact"


# ---------------------------------------------------------------------------

def _dense_matrix(op: MeasurementOperator) -> np.ndarray:
    if op.kind is not OperatorKind.DENSE:
        raise ValueError("conic singular values need a dense operator")
    return op.rows


def deterministic_error_bound(eta: float, lam: float) -> float:
    """Recovery error bound 2*eta/lambda; +inf when lambda <= 0.  An eta
    that ``measure.check_eta`` refuses raises ``ValueError``."""
    check_eta(eta)
    if lam <= 0:
        return float("inf")
    return 2.0 * eta / lam


def _heuristic_descent_lambda(mat: np.ndarray, f: Regularizer,
                              restarts: int, iters: int,
                              seed: int) -> float:
    """Projected gradient on ||Phi u||^2 over the descent cone's unit sphere.

    Cone projection is approximate: a point z near x_ref is pulled back
    onto the level set {f <= f(x_ref)} by the prox step t that solves
    f(prox(z, t)) = f(x_ref), found exactly from the spectrum of z.  The
    best value found is an upper bound on lambda_min.
    """
    x = f.x_ref.ravel()
    level = f.value(f.x_ref) + MEMBERSHIP_TOL
    scale = float(np.linalg.norm(x))
    step = 1.0 / (np.linalg.norm(mat, 2) ** 2)
    tau0 = 1e-3 * (scale if scale > 0 else 1.0)

    def project(u_raw: np.ndarray) -> np.ndarray | None:
        z = f.x_ref + tau0 * u_raw.reshape(f.ambient_shape)
        if f.value(z) > level:
            z = f.prox(z, level_threshold(f.spectrum(z), level))
        u = (z.ravel() - x) / tau0
        n = np.linalg.norm(u)
        return None if n < 1e-12 else u / n

    rng = generator(seed)
    best = float("inf")
    for _ in range(restarts):
        u = project(rng.standard_normal(x.size))
        if u is None:
            continue
        for _ in range(iters):
            grad = 2.0 * mat.T @ (mat @ u)
            u_new = project(u - step * grad)
            if u_new is None:
                break
            u = u_new
        best = min(best, float(np.linalg.norm(mat @ u)))
    return best


def lambda_min_empirical(op: MeasurementOperator, cone: ConeDescriptor,
                         restarts: int = 32,
                         iters: int = 500,
                         seed: int = 0) -> LambdaMinResult:
    """Minimum conic singular value of the operator with respect to a cone;
    a descent cone's search runs ``restarts`` >= 1 starts of ``iters`` >= 0
    steps (other values are refused for every cone)."""
    restarts, iters = as_int(restarts, "restarts"), as_int(iters, "iters")
    if restarts < 1 or iters < 0:
        raise ValueError("need restarts >= 1 and iters >= 0")
    mat = _dense_matrix(op)
    if isinstance(cone, Subspace):
        dim = cone.basis.shape[0]
    elif isinstance(cone, DescentCone):
        dim = math.prod(cone.f.ambient_shape)  # needs f's reference point
    else:
        raise TypeError(f"unsupported cone descriptor: {type(cone)!r}")
    if dim != mat.shape[1]:
        raise ValueError("cone dimension mismatch")
    if isinstance(cone, DescentCone):
        val = _heuristic_descent_lambda(mat, cone.f, restarts, iters, seed)
        return LambdaMinResult(val, "upper-bound (heuristic)")
    restricted = mat @ cone.basis
    # fewer rows than columns: the restricted map has a kernel
    rows, cols = restricted.shape
    value = (0.0 if rows < cols else
             float(np.linalg.svd(restricted, compute_uv=False)[-1]))
    return LambdaMinResult(value, "exact")

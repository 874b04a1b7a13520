"""Minimum conic singular values and the deterministic recovery error bound.

Exact evaluation is available for the full space and for subspaces
(restricted smallest singular value).  Low-dimensional explicit cones use
a dense angular net with a certified Lipschitz error.  Descent cones use
a projected-minimization heuristic whose answer is an upper bound only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measure import MeasurementOperator, OperatorKind
from .reg import Regularizer, level_threshold
from .rng import generator

MEMBERSHIP_TOL = 1e-12
# geometric tau probe grid: catches both tiny and large descent steps
_TAU_GRID = 2.0 ** np.arange(-40, 11)


# ---------------------------------------------------------------------------
# cone descriptors

@dataclass(frozen=True)
class FullSpace:
    d: int


@dataclass(frozen=True)
class Subspace:
    basis: np.ndarray  # d x k, orthonormalized on construction

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[1] < 1:
            raise ValueError("basis must be a d x k matrix with k >= 1")
        q, _ = np.linalg.qr(b)
        object.__setattr__(self, "basis", q[:, : b.shape[1]])


@dataclass(frozen=True)
class DescentCone:
    f: Regularizer


@dataclass(frozen=True)
class ExplicitCone:
    """Finitely generated cone in R^2 or R^3 given by nonzero generator rays."""

    generators: np.ndarray  # k x d

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[1] not in (2, 3):
            raise ValueError("explicit cones are supported in R^2 and R^3 only")
        norms = np.linalg.norm(g, axis=1)
        if np.any(norms < 1e-14):
            raise ValueError("generators must be nonzero")
        object.__setattr__(self, "generators", g / norms[:, None])


ConeDescriptor = FullSpace | Subspace | DescentCone | ExplicitCone


@dataclass(frozen=True)
class LambdaMinResult:
    value: float
    mode: str            # "exact" | "net" | "upper-bound (heuristic)"
    certified: bool
    error_bound: float = 0.0   # additive uncertainty for net mode
    meta: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------

def _dense_matrix(op: MeasurementOperator) -> np.ndarray:
    if op.kind is not OperatorKind.DENSE:
        raise ValueError("conic singular values need a dense operator")
    return op.rows


def deterministic_error_bound(eta: float, lam: float) -> float:
    """Recovery error bound 2*eta/lambda; +inf when lambda <= 0."""
    if eta < 0:
        raise ValueError("noise level must be nonnegative")
    if lam <= 0:
        return float("inf")
    return 2.0 * eta / lam


def descent_cone_membership(f: Regularizer, u: np.ndarray) -> bool:
    """True iff f(x_ref + tau*u) <= f(x_ref) for some probed tau.

    Conservative: the probe grid is geometric over [2^-40, 2^10], so
    pathological cones requiring tau outside that range can be missed.
    """
    u = np.asarray(u, dtype=float)
    if np.linalg.norm(u) == 0:
        raise ValueError("direction must be nonzero")
    x = f.x_ref
    base = f.value(x)
    unorm = float(np.linalg.norm(u))
    for tau in _TAU_GRID:
        # tolerance scales with the step so that tiny probes cannot absorb
        # a strictly positive directional derivative
        if f.value(x + tau * u) <= base + MEMBERSHIP_TOL * tau * unorm:
            return True
    return False


def _net_directions_2d(gens: np.ndarray, resolution: float) -> np.ndarray:
    angles = np.arctan2(gens[:, 1], gens[:, 0])
    # choose the arc of span <= pi that contains all generators
    ref = angles[0]
    rel = np.mod(angles - ref + np.pi, 2 * np.pi) - np.pi
    lo, hi = float(rel.min()), float(rel.max())
    if hi - lo > np.pi:
        raise ValueError("generator arc exceeds pi; not a salient convex cone")
    thetas = ref + np.arange(lo, hi + resolution, resolution)
    return np.stack([np.cos(thetas), np.sin(thetas)], axis=1)


def _net_directions_3d(gens: np.ndarray, divisions: int) -> np.ndarray:
    # barycentric grid over convex combinations of the generator rays
    k = gens.shape[0]
    if k == 1:
        return gens.copy()
    pts = []
    grid = np.linspace(0.0, 1.0, divisions + 1)
    if k == 2:
        weights = [(a, 1 - a) for a in grid]
    else:
        weights = [(a, b, 1 - a - b) for a in grid for b in grid if a + b <= 1 + 1e-12]
        gens = gens[:3]
    for w in weights:
        v = np.tensordot(np.asarray(w), gens, axes=1)
        n = np.linalg.norm(v)
        if n > 1e-12:
            pts.append(v / n)
    return np.asarray(pts)


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
                         resolution: float = 1e-3,
                         divisions_3d: int = 50,
                         restarts: int = 32,
                         iters: int = 500,
                         seed: int = 0) -> LambdaMinResult:
    """Minimum conic singular value of the operator with respect to a cone."""
    mat = _dense_matrix(op)
    if isinstance(cone, FullSpace):
        if cone.d != mat.shape[1]:
            raise ValueError("cone dimension mismatch")
        sv = np.linalg.svd(mat, compute_uv=False)
        return LambdaMinResult(float(sv[-1]), "exact", True)
    if isinstance(cone, Subspace):
        if cone.basis.shape[0] != mat.shape[1]:
            raise ValueError("cone dimension mismatch")
        sv = np.linalg.svd(mat @ cone.basis, compute_uv=False)
        return LambdaMinResult(float(sv[-1]), "exact", True)
    if isinstance(cone, ExplicitCone):
        d = cone.generators.shape[1]
        if d != mat.shape[1]:
            raise ValueError("cone dimension mismatch")
        if d == 2:
            dirs = _net_directions_2d(cone.generators, resolution)
            res = resolution
        else:
            dirs = _net_directions_3d(cone.generators, divisions_3d)
            res = np.pi / divisions_3d  # crude chord-scale mesh spacing
        vals = np.linalg.norm(dirs @ mat.T, axis=1)
        opnorm = float(np.linalg.norm(mat, 2))
        return LambdaMinResult(float(vals.min()), "net", True,
                               error_bound=opnorm * res,
                               meta={"net_points": len(dirs)})
    if isinstance(cone, DescentCone):
        val = _heuristic_descent_lambda(mat, cone.f, restarts, iters, seed)
        return LambdaMinResult(val, "upper-bound (heuristic)", False)
    raise TypeError(f"unsupported cone descriptor: {type(cone)!r}")

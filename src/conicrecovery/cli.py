"""Command-line entry point.

Subcommands: width, smallball, lambda-min, recover, phaselift, sweep,
error-curve.  A JSON config file may supply any option; explicit flags
override config values.  All subcommands honor --seed and produce
byte-identical output for identical invocations.

Exit codes: 0 success, 1 invalid config or usage, 2 solver
non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__, harness, measure, smallball, solve, width
from .conic import FullSpace, Subspace, lambda_min_empirical
from .rng import generator

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGED = 2


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read config {path!r}: {exc}")
    if not isinstance(cfg, dict):
        raise SystemExit(f"error: config {path!r} must be a JSON object")
    return cfg


def _merged(args: argparse.Namespace, cfg: dict, key: str, default=None):
    """Flag value if given, else config value, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None:
        val = cfg.get(key)
    return default if val is None else val


def _emit(records: list[dict], args, fieldnames: list[str]) -> None:
    harness.write_records(records, fieldnames, args.out or sys.stdout,
                          args.format)


def _exit_code(args, nonconverged: bool) -> int:
    """Exit status of a solving command: 2 on non-convergence under --strict."""
    return EXIT_NONCONVERGED if args.strict and nonconverged else EXIT_OK


# ---------------------------------------------------------------------------

_PROBLEMS = {"sparse": harness.SparseL1, "lowrank": harness.LowRankS1,
             "phase": harness.PhaseRetrieval}
_WIDTH_PROBLEMS = {"sparse": harness.SparseL1, "lowrank": harness.LowRankS1}


def _build(cls, field_value):
    """``cls`` from its integer dataclass fields, read by field_value(name)."""
    return cls(*(int(field_value(f.name)) for f in dataclasses.fields(cls)))


def _cmd_width(args) -> int:
    cfg = _load_config(args.config)
    kind = _merged(args, cfg, "problem", "sparse")
    seed = int(_merged(args, cfg, "seed", 0))
    trials = _merged(args, cfg, "trials")
    if kind == "subspace":
        k = int(_merged(args, cfg, "k", 0))
        bound = width.subspace_width_sq(k)
        estimate = functools.partial(width.mc_subspace_width_sq, k)
    elif str(kind) in _WIDTH_PROBLEMS:
        problem = _build(_WIDTH_PROBLEMS[str(kind)],
                         lambda name: _merged(args, cfg, name, 1))
        bound, estimate = problem.width_sq(), problem.mc_width_sq
    else:
        print(f"error: unknown width problem {kind!r}", file=sys.stderr)
        return EXIT_CONFIG
    recs = [{"value": f"{bound:.6f}", "std_error": 0.0, "trials": 0,
             "method": "closed-form-bound"}]
    if trials is not None:
        est = estimate(int(trials), seed)
        recs.append({"value": f"{est.value:.6f}",
                     "std_error": f"{est.std_error:.6f}",
                     "trials": est.trials, "method": est.method.value})
    _emit(recs, args, ["value", "std_error", "trials", "method"])
    return EXIT_OK


def _cmd_smallball(args) -> int:
    cfg = _load_config(args.config)
    d = int(_merged(args, cfg, "d", 20))
    k = int(_merged(args, cfg, "subspace-dim", d))
    m = int(_merged(args, cfg, "m", 50))
    xi = float(_merged(args, cfg, "xi", 0.25))
    t = float(_merged(args, cfg, "t", 1.0))
    trials = int(_merged(args, cfg, "trials", 500))
    seed = int(_merged(args, cfg, "seed", 0))

    basis = np.eye(d, k)
    sub = Subspace(basis)
    phi = measure.gaussian_row_sampler(d)

    def dir_sampler(rng, n):
        g = rng.standard_normal((n, k))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return g @ basis.T

    tail = smallball.estimate_marginal_tail(phi, dir_sampler, 2 * xi,
                                            n_dirs=50, n_samples=trials,
                                            seed=seed)
    wm = smallball.estimate_mean_empirical_width(phi, sub, m, trials, seed)
    bound = smallball.small_ball_lower_bound(xi, m, tail.q_min, wm.w_hat, t)
    rec = {"xi": xi, "m": m, "q_hat_min": f"{tail.q_min:.6f}",
           "q_hat_mean": f"{tail.q_mean:.6f}", "w_hat": f"{wm.w_hat:.6f}",
           "bound": f"{bound:.6f}", "t": t,
           "confidence": f"{1.0 - math.exp(-t * t / 2.0):.6f}"}
    _emit([rec], args, ["xi", "m", "q_hat_min", "q_hat_mean", "w_hat",
                        "bound", "t", "confidence"])
    return EXIT_OK


def _cmd_lambda_min(args) -> int:
    cfg = _load_config(args.config)
    d = int(_merged(args, cfg, "d", 10))
    m = int(_merged(args, cfg, "m", 20))
    seed = int(_merged(args, cfg, "seed", 0))
    kind = _merged(args, cfg, "cone", "full")
    op = measure.gaussian_ensemble(m, d, seed)
    if kind == "full":
        cone = FullSpace(d)
    elif kind == "subspace":
        k = int(_merged(args, cfg, "k", 1))
        cone = Subspace(np.eye(d, k))
    else:
        print(f"error: unknown cone kind {kind!r}", file=sys.stderr)
        return EXIT_CONFIG
    res = lambda_min_empirical(op, cone)
    _emit([{"value": f"{res.value:.6f}", "mode": res.mode,
            "certified": res.certified}], args, ["value", "mode", "certified"])
    return EXIT_OK


def _solve_one(args, cfg: dict, problem: harness.Problem, m: int,
               eta: float) -> int:
    """Draw one signal from --seed, measure it with seed + 1 (noise from
    seed + 2) and recover it."""
    seed = int(_merged(args, cfg, "seed", 0))
    x = problem.draw(generator(seed))
    res, rel = harness.solve_instance(problem, m, x, seed + 1, eta, seed + 2,
                                      solve.SolverOptions())
    rec = {"objective": f"{res.objective:.6e}",
           "residual": f"{res.residual_norm:.3e}",
           "iterations": res.iterations, "converged": res.converged,
           "rel_error": f"{rel:.3e}"}
    _emit([rec], args, list(rec))
    return _exit_code(args, not res.converged)


def _cmd_recover(args) -> int:
    cfg = _load_config(args.config)
    problem = harness.SparseL1(int(_merged(args, cfg, "s", 4)),
                               int(_merged(args, cfg, "d", 32)))
    return _solve_one(args, cfg, problem, int(_merged(args, cfg, "m", 20)),
                      float(_merged(args, cfg, "eta", 0.0)))


def _cmd_phaselift(args) -> int:
    cfg = _load_config(args.config)
    problem = harness.PhaseRetrieval(int(_merged(args, cfg, "d", 2)))
    return _solve_one(args, cfg, problem, int(_merged(args, cfg, "m", 3)), 0.0)


def _parse_problem(cfg: dict) -> harness.Problem:
    prob = cfg.get("problem")
    if not isinstance(prob, dict) or "kind" not in prob:
        raise SystemExit("error: config needs problem.kind "
                         "(sparse | lowrank | phase)")
    cls = _PROBLEMS.get(str(prob["kind"]))
    if cls is None:
        raise SystemExit(f"error: unknown problem kind {prob['kind']!r}")
    try:
        return _build(cls, prob.__getitem__)
    except KeyError as exc:
        raise SystemExit(f"error: problem spec missing field {exc}")


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        print("error: sweep requires --config", file=sys.stderr)
        return EXIT_CONFIG
    problem = _parse_problem(cfg)
    config = harness.ExperimentConfig(
        problem=problem,
        m_grid=tuple(cfg.get("m_grid", [])),
        trials=int(_merged(args, cfg, "trials", 25)),
        eta=float(cfg.get("eta", 0.0)),
        success_threshold=float(cfg.get("success_threshold", 1e-4)),
        seed=int(_merged(args, cfg, "seed", 0)),
    )
    result = harness.run_phase_transition(config)
    harness.emit_csv(result, args.out or sys.stdout, args.format)
    return _exit_code(args, any(r.nonconverged for r in result.rows))


def _cmd_error_curve(args) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        print("error: error-curve requires --config", file=sys.stderr)
        return EXIT_CONFIG
    problem = _parse_problem(cfg)
    eta_grid = cfg.get("eta_grid")
    m = cfg.get("m")
    if not eta_grid or m is None:
        print("error: error-curve config needs eta_grid and m",
              file=sys.stderr)
        return EXIT_CONFIG
    config = harness.ExperimentConfig(
        problem=problem, m_grid=(int(m),),
        trials=int(_merged(args, cfg, "trials", 10)),
        seed=int(_merged(args, cfg, "seed", 0)),
    )
    rows = harness.run_error_curve(config, [float(e) for e in eta_grid],
                                   int(m))
    recs = [{"eta": f"{r.eta:.6g}", "mean_error": f"{r.mean_error:.6e}",
             "bound": f"{r.bound:.6e}", "violations": r.violations,
             "nonconverged": r.nonconverged} for r in rows]
    _emit(recs, args, ["eta", "mean_error", "bound", "violations",
                       "nonconverged"])
    return _exit_code(args, any(r.nonconverged for r in rows))


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicrecovery",
        description="Convex recovery solvers, conic width estimators, and "
                    "phase-transition experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="64-bit RNG seed override")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--trials", type=int)
        p.add_argument("--strict", action="store_true",
                       help="exit 2 on solver non-convergence")
        p.add_argument("--format", choices=["csv", "json-lines"],
                       default="csv")

    p = sub.add_parser("width", help="closed-form and MC width bounds")
    p.add_argument("--problem", choices=["sparse", "lowrank", "subspace"])
    for flag in ("--s", "--d", "--r", "--d1", "--d2", "--k"):
        p.add_argument(flag, type=int)
    common(p)
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser("smallball", help="marginal tail / empirical width")
    for flag in ("--d", "--m", "--subspace-dim"):
        p.add_argument(flag, type=int)
    p.add_argument("--xi", type=float)
    p.add_argument("--t", type=float)
    common(p)
    p.set_defaults(func=_cmd_smallball)

    p = sub.add_parser("lambda-min", help="minimum conic singular value")
    for flag in ("--d", "--m", "--k"):
        p.add_argument(flag, type=int)
    p.add_argument("--cone", choices=["full", "subspace"])
    common(p)
    p.set_defaults(func=_cmd_lambda_min)

    p = sub.add_parser("recover", help="solve one sparse recovery instance")
    for flag in ("--s", "--d", "--m"):
        p.add_argument(flag, type=int)
    p.add_argument("--eta", type=float)
    common(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("phaselift", help="solve one phase retrieval instance")
    for flag in ("--d", "--m"):
        p.add_argument(flag, type=int)
    common(p)
    p.set_defaults(func=_cmd_phaselift)

    p = sub.add_parser("sweep", help="phase-transition sweep over m")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("error-curve", help="error vs noise level")
    common(p)
    p.set_defaults(func=_cmd_error_curve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; the contract is 1
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_CONFIG
        return exc.code if exc.code is not None else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

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
import json
import math
import sys

import numpy as np

from . import __version__, harness, measure, smallball, solve, width
from .conic import FullSpace, Subspace, lambda_min_empirical
from .reg import L1Norm, Schatten1Norm
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
    if val is not None:
        return val
    return cfg.get(key, default)


def _emit(lines: list[dict], args, fieldnames: list[str]) -> None:
    out = sys.stdout
    close = False
    if getattr(args, "out", None):
        out = open(args.out, "w")
        close = True
    try:
        if args.format == "json-lines":
            for rec in lines:
                out.write(json.dumps(rec, sort_keys=True) + "\n")
        else:
            out.write(",".join(fieldnames) + "\n")
            for rec in lines:
                out.write(",".join(str(rec[k]) for k in fieldnames) + "\n")
    finally:
        if close:
            out.close()


def _exit_code(args, nonconverged: bool) -> int:
    """Exit status of a solving command: 2 on non-convergence under --strict."""
    return EXIT_NONCONVERGED if args.strict and nonconverged else EXIT_OK


# ---------------------------------------------------------------------------

def _cmd_width(args) -> int:
    cfg = _load_config(args.config)
    problem = _merged(args, cfg, "problem", "sparse")
    seed = int(_merged(args, cfg, "seed", 0))
    trials = _merged(args, cfg, "trials")
    recs = []
    if problem == "sparse":
        s, d = int(_merged(args, cfg, "s", 1)), int(_merged(args, cfg, "d", 1))
        bound = width.sparse_width_bound(s, d)
        recs.append({"value": f"{bound:.6f}", "std_error": 0.0, "trials": 0,
                     "method": "closed-form-bound"})
        if trials:
            x = np.zeros(d)
            x[:s] = 1.0
            est = width.mc_width_sq_descent(L1Norm(x), int(trials), seed)
            recs.append({"value": f"{est.value:.6f}",
                         "std_error": f"{est.std_error:.6f}",
                         "trials": est.trials, "method": est.method.value})
    elif problem == "lowrank":
        r = int(_merged(args, cfg, "r", 1))
        d1 = int(_merged(args, cfg, "d1", 1))
        d2 = int(_merged(args, cfg, "d2", 1))
        bound = width.rank_width_bound(r, d1, d2)
        recs.append({"value": f"{bound:.6f}", "std_error": 0.0, "trials": 0,
                     "method": "closed-form-bound"})
        if trials:
            x = np.zeros((d1, d2))
            np.fill_diagonal(x[:r, :r], 1.0)
            est = width.mc_width_sq_descent(Schatten1Norm(x), int(trials), seed)
            recs.append({"value": f"{est.value:.6f}",
                         "std_error": f"{est.std_error:.6f}",
                         "trials": est.trials, "method": est.method.value})
    elif problem == "subspace":
        k = int(_merged(args, cfg, "k", 0))
        recs.append({"value": f"{width.subspace_width_sq(k):.6f}",
                     "std_error": 0.0, "trials": 0,
                     "method": "closed-form-bound"})
        if trials:
            est = width.mc_subspace_width_sq(k, int(trials), seed)
            recs.append({"value": f"{est.value:.6f}",
                         "std_error": f"{est.std_error:.6f}",
                         "trials": est.trials, "method": est.method.value})
    else:
        print(f"error: unknown width problem {problem!r}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(recs, args, ["value", "std_error", "trials", "method"])
    return EXIT_OK


def _cmd_smallball(args) -> int:
    cfg = _load_config(args.config)
    d = int(_merged(args, cfg, "d", 20))
    k = int(_merged(args, cfg, "subspace-dim", d))
    m = int(_merged(args, cfg, "m", 50))
    xi = float(_merged(args, cfg, "xi", 0.25))
    t = float(_merged(args, cfg, "t", 1.0))
    trials = int(_merged(args, cfg, "trials", 500) or 500)
    seed = int(_merged(args, cfg, "seed", 0))

    basis = np.eye(d)[:, :k]
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
        cone = Subspace(np.eye(d)[:, :k])
    else:
        print(f"error: unknown cone kind {kind!r}", file=sys.stderr)
        return EXIT_CONFIG
    res = lambda_min_empirical(op, cone)
    _emit([{"value": f"{res.value:.6f}", "mode": res.mode,
            "certified": res.certified}], args, ["value", "mode", "certified"])
    return EXIT_OK


def _emit_result(args, res: solve.RecoveryResult, rel: float) -> int:
    rec = {"objective": f"{res.objective:.6e}",
           "residual": f"{res.residual_norm:.3e}",
           "iterations": res.iterations, "converged": res.converged,
           "rel_error": f"{rel:.3e}"}
    _emit([rec], args, list(rec))
    return _exit_code(args, not res.converged)


def _cmd_recover(args) -> int:
    cfg = _load_config(args.config)
    s = int(_merged(args, cfg, "s", 4))
    d = int(_merged(args, cfg, "d", 32))
    m = int(_merged(args, cfg, "m", 20))
    eta = float(_merged(args, cfg, "eta", 0.0))
    seed = int(_merged(args, cfg, "seed", 0))
    rng = generator(seed)
    x = np.zeros(d)
    x[rng.choice(d, size=s, replace=False)] = rng.choice([-1.0, 1.0], size=s)
    op = measure.gaussian_ensemble(m, d, seed=seed + 1)
    y = measure.measure_with_noise(op, x, noise_norm=eta, seed=seed + 2)
    res = solve.recover_constrained(L1Norm(d=d), op, y, eta)
    rel = float(np.linalg.norm(res.estimate - x) / np.linalg.norm(x))
    return _emit_result(args, res, rel)


def _cmd_phaselift(args) -> int:
    cfg = _load_config(args.config)
    d = int(_merged(args, cfg, "d", 2))
    m = int(_merged(args, cfg, "m", 3))
    seed = int(_merged(args, cfg, "seed", 0))
    rng = generator(seed)
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    op = measure.lifted_phase_ensemble(m, d, seed=seed + 1)
    y = measure.apply(op, np.outer(x, x))
    res = solve.phase_retrieval_sdp(op, y)
    rel = float(np.linalg.norm(res.estimate - np.outer(x, x)))
    return _emit_result(args, res, rel)


def _parse_problem(cfg: dict) -> harness.Problem:
    prob = cfg.get("problem")
    if not isinstance(prob, dict) or "kind" not in prob:
        raise SystemExit("error: config needs problem.kind "
                         "(sparse | lowrank | phase)")
    kind = prob["kind"]
    try:
        if kind == "sparse":
            return harness.SparseL1(int(prob["s"]), int(prob["d"]))
        if kind == "lowrank":
            return harness.LowRankS1(int(prob["r"]), int(prob["d1"]),
                                     int(prob["d2"]))
        if kind == "phase":
            return harness.PhaseRetrieval(int(prob["d"]))
    except KeyError as exc:
        raise SystemExit(f"error: problem spec missing field {exc}")
    raise SystemExit(f"error: unknown problem kind {kind!r}")


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        print("error: sweep requires --config", file=sys.stderr)
        return EXIT_CONFIG
    problem = _parse_problem(cfg)
    config = harness.ExperimentConfig(
        problem=problem,
        m_grid=tuple(cfg.get("m_grid", [])),
        trials=int(_merged(args, cfg, "trials", 25) or 25),
        eta=float(cfg.get("eta", 0.0)),
        success_threshold=float(cfg.get("success_threshold", 1e-4)),
        seed=int(_merged(args, cfg, "seed", 0)),
    )
    result = harness.run_phase_transition(config)
    harness.emit_csv(result, args.out or sys.stdout)
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
        trials=int(_merged(args, cfg, "trials", 10) or 10),
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

"""Command-line entry point.

Subcommands: width, smallball, lambda-min, recover, phaselift, sweep,
error-curve; ``_COMMANDS`` holds each one's flags.  A JSON config file may
set those flags and --seed by name; explicit flags override config values.
All subcommands honor --seed: identical invocations give identical bytes.
Each subcommand formats its own records, and ``write_records`` writes them
as CSV or JSON lines.

Exit codes: 0 success, 1 invalid config or usage, 2 under --strict when a
solve stopped without a verdict (at max_iters, or on infeasible data).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, harness, measure, smallball, solve, width
from .conic import Subspace, lambda_min_empirical

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
        raise ValueError(f"cannot read config {path!r}: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path!r} must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# Each command reads its parsed flags and ``args.config``, the loaded config;
# it returns (records, meta, nonconverged) for ``main`` or raises ValueError.

# stop reasons that settle a cell's verdict; --strict exits 2 on any other
_VERDICTS = ("converged", "certified_fail")

_PROBLEMS = {"sparse": harness.SparseL1, "lowrank": harness.LowRankS1,
             "phase": harness.PhaseRetrieval}


def _build(cls, field_value):
    """``cls`` from its integer dataclass fields, read by field_value(name)."""
    return cls(*(measure.as_int(field_value(f.name), f.name)
                 for f in dataclasses.fields(cls)))


def _axes(d: int, k: int) -> np.ndarray:
    """The first k coordinate axes of R^d as columns; a k outside 1..d
    gives a basis that ``Subspace`` rejects with its range message."""
    return np.eye(d, max(k, 0))


def _cmd_width(args):
    if args.problem == "subspace":
        bound = width.subspace_width_sq(args.k)
        estimate = functools.partial(width.mc_subspace_width_sq, args.k)
    else:
        problem = _build(_PROBLEMS[args.problem],
                         functools.partial(getattr, args))
        bound, estimate = problem.width_sq(), problem.mc_width_sq
    recs = [{"value": f"{bound:.6f}", "std_error": 0.0, "trials": 0,
             "method": width.WidthMethod.CLOSED_FORM_BOUND.value}]
    if args.trials is not None:
        est = estimate(args.trials, args.seed)
        recs.append({"value": f"{est.value:.6f}",
                     "std_error": f"{est.std_error:.6f}",
                     "trials": est.trials, "method": est.method.value})
    return recs, None, False


def _cmd_smallball(args):
    d, m, xi, t = args.d, args.m, args.xi, args.t
    smallball.small_ball_lower_bound(xi, m, 0.0, 0.0, t)  # before any draw
    k = d if args.subspace_dim is None else args.subspace_dim
    phi = measure.gaussian_row_sampler(d)
    basis = _axes(d, k)
    sub = Subspace(basis)

    def dir_sampler(rng, n):
        g = rng.standard_normal((n, k))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return g @ basis.T

    tail = smallball.estimate_marginal_tail(phi, dir_sampler, 2 * xi,
                                            n_dirs=50, n_samples=args.trials,
                                            seed=args.seed)
    wm = smallball.estimate_mean_empirical_width(phi, sub, m, args.trials,
                                                 args.seed)
    bound = smallball.small_ball_lower_bound(xi, m, tail.q_min, wm.w_hat, t)
    rec = {"xi": xi, "m": m, "q_hat_min": f"{tail.q_min:.6f}",
           "q_hat_mean": f"{tail.q_mean:.6f}", "w_hat": f"{wm.w_hat:.6f}",
           "bound": f"{bound:.6f}", "t": t,
           "confidence": f"{1.0 - math.exp(-t * t / 2.0):.6f}"}
    return [rec], None, False


def _cmd_lambda_min(args):
    op = measure.gaussian_ensemble(args.m, args.d, args.seed)
    k = args.d if args.cone == "full" else args.k
    res = lambda_min_empirical(op, Subspace(_axes(args.d, k)))
    return ([{"value": f"{res.value:.6f}", "mode": res.mode,
              "certified": res.certified}], None, False)


def _cmd_solve(args):
    """recover or phaselift: solve the instance that a sweep cell seeded
    with --seed solves, at the sweeps' default success threshold."""
    if args.command == "recover":
        problem, eta = harness.SparseL1(args.s, args.d), args.eta
    else:
        problem, eta = harness.PhaseRetrieval(args.d), 0.0
    res, rel = harness.solve_instance(
        problem, args.m, args.seed, eta, solve.SolverOptions(),
        harness.ExperimentConfig.success_threshold)
    rec = {"objective": f"{res.objective:.6e}",
           "residual": f"{res.residual_norm:.3e}",
           "iterations": res.iterations, "converged": res.converged,
           "rel_error": f"{rel:.3e}", "stop_reason": res.stop_reason}
    return [rec], None, res.stop_reason not in _VERDICTS


def _parse_problem(cfg: dict) -> harness.Problem:
    prob = cfg.get("problem")
    if not isinstance(prob, dict) or "kind" not in prob:
        raise ValueError("config needs problem.kind "
                         "(sparse | lowrank | phase)")
    cls = _PROBLEMS.get(str(prob["kind"]))
    if cls is None:
        raise ValueError(f"unknown problem kind {prob['kind']!r}")
    try:
        return _build(cls, prob.__getitem__)
    except KeyError as exc:
        raise ValueError(f"problem spec missing field {exc}")


def _experiment(args):
    """An ``ExperimentConfig`` constructor bound to the problem of the
    --config file (required), --trials and --seed."""
    if not args.config:
        raise ValueError(f"{args.command} requires --config")
    return functools.partial(
        harness.ExperimentConfig, problem=_parse_problem(args.config),
        trials=args.trials, seed=args.seed)


def _grid(cfg: dict, key: str) -> list:
    """The JSON list at ``cfg[key]`` (empty when absent or null); a string
    or any other non-list is rejected, not read element by element."""
    grid = cfg.get(key) or []
    if not isinstance(grid, list):
        raise ValueError(f"{key} must be a JSON list, got {grid!r}")
    return grid


def _cmd_sweep(args):
    cfg = args.config
    result = harness.run_phase_transition(_experiment(args)(
        m_grid=tuple(_grid(cfg, "m_grid")),
        **{k: cfg[k] for k in ("eta", "success_threshold") if k in cfg}))
    meta = {"config_digest": result.config_digest, "seed": result.seed,
            "predicted_width_sq": f"{result.predicted_width_sq:.6f}",
            "predicted_m": result.predicted_m}
    recs = [{"m": r.m, "successes": r.successes, "trials": r.trials,
             "success_rate": f"{r.success_rate:.6f}",
             "mean_rel_error": f"{r.mean_rel_error:.6e}",
             "mean_solve_iters": f"{r.mean_solve_iters:.1f}",
             "nonconverged": r.nonconverged,
             "certified_fail": r.certified_fail} for r in result.rows]
    return recs, meta, any(r.nonconverged > r.certified_fail
                           for r in result.rows)


def _cmd_error_curve(args):
    experiment = _experiment(args)
    eta_grid, m = _grid(args.config, "eta_grid"), args.config.get("m")
    if not eta_grid or m is None:
        raise ValueError("error-curve config needs eta_grid and m")
    m = measure.as_int(m, "m")
    rows = harness.run_error_curve(experiment(m_grid=(m,)), eta_grid, m)
    recs = [{"eta": f"{r.eta:.6g}", "mean_error": f"{r.mean_error:.6e}",
             "bound": f"{r.bound:.6e}", "nonconverged": r.nonconverged}
            for r in rows]
    return recs, None, any(r.nonconverged for r in rows)


# ---------------------------------------------------------------------------

def write_records(records, out, fmt: str = "csv",
                  meta: dict | None = None) -> None:
    """Write a non-empty list of dict records to a path or an open text file.

    ``fmt="csv"``: an optional ``# k=v ...`` line from ``meta``, a header of
    the first record's keys, then one RFC-4180 row per record in that order.
    ``fmt="json-lines"``: ``meta`` as the first object, then one object per
    record, keys sorted.  Output is deterministic: no timestamps, records in
    the order given.
    """
    if fmt not in ("csv", "json-lines"):
        raise ValueError(f"unknown record format {fmt!r}")
    try:
        with (open(out, "w", newline="") if isinstance(out, str)
              else contextlib.nullcontext(out)) as fh:
            if fmt == "json-lines":
                for rec in ([meta] if meta else []) + records:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
                return
            if meta:
                fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items())
                         + "\n")
            writer = csv.DictWriter(fh, list(records[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(records)
    except OSError as exc:
        raise OSError(f"failed writing records to {out!r}: {exc}") from exc


class _Command(NamedTuple):
    run: Callable
    help: str
    flags: dict  # own flags in usage order: name -> (type, default[, choices])
    strict: bool = False  # takes --strict


_COMMANDS = {
    "width": _Command(_cmd_width, "closed-form and MC width bounds", {
        "problem": (str, "sparse", ("sparse", "lowrank", "subspace")),
        "s": (int, 1), "d": (int, 1), "r": (int, 1), "d1": (int, 1),
        "d2": (int, 1), "k": (int, 0),
        "trials": (int, None)}),  # None: no Monte Carlo row
    "smallball": _Command(_cmd_smallball, "marginal tail / empirical width", {
        "d": (int, 20), "m": (int, 50),
        "subspace-dim": (int, None),  # None: d
        "xi": (float, 0.25), "t": (float, 1.0), "trials": (int, 500)}),
    "lambda-min": _Command(_cmd_lambda_min, "minimum conic singular value", {
        "d": (int, 10), "m": (int, 20), "k": (int, 1),
        "cone": (str, "full", ("full", "subspace"))}),
    "recover": _Command(_cmd_solve, "solve one sparse recovery instance", {
        "s": (int, 4), "d": (int, 32), "m": (int, 20), "eta": (float, 0.0)},
        strict=True),
    "phaselift": _Command(_cmd_solve, "solve one phase retrieval instance",
                          {"d": (int, 2), "m": (int, 3)}, strict=True),
    "sweep": _Command(_cmd_sweep, "phase-transition sweep over m",
                      {"trials": (int, 25)}, strict=True),
    "error-curve": _Command(_cmd_error_curve, "error vs noise level",
                            {"trials": (int, 10)}, strict=True),
}
# the flags every subcommand takes; of these a config may set only seed
_SHARED = {"config": (str, None), "seed": (int, 0), "out": (str, None)}
_HELP = {"config": "JSON config file", "seed": "64-bit RNG seed override",
         "out": "output path (default stdout)"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicrecovery",
        description="Convex recovery solvers, conic width estimators, and "
                    "phase-transition experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        # usage order: own flags, the shared ones, --trials, --strict, --format
        own = dict(command.flags)
        trials = {"trials": own.pop("trials")} if "trials" in own else {}
        for flag, (typ, _, *choices) in {**own, **_SHARED, **trials}.items():
            p.add_argument(f"--{flag}", type=typ, help=_HELP.get(flag),
                           choices=choices[0] if choices else None)
        if command.strict:
            p.add_argument("--strict", action="store_true",
                           help="exit 2 when a solve stops without a verdict")
        p.add_argument("--format", choices=["csv", "json-lines"],
                       default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; the contract is 1
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    command = _COMMANDS[args.command]
    try:
        # flag if given, else config value (null: absent), else default
        args.config = _load_config(args.config)
        for flag, (typ, default, *choices) in {**command.flags,
                                               "seed": _SHARED["seed"]}.items():
            dest = flag.replace("-", "_")
            if getattr(args, dest) is None:
                value = args.config.get(flag)
                value = default if value is None else (
                    measure.as_int(value, flag) if typ is int else typ(value))
                if choices and value not in choices[0]:  # as argparse checks
                    raise ValueError(f"{flag} {value!r} is not one of {choices[0]}")
                setattr(args, dest, value)
        records, meta, nonconverged = command.run(args)
        write_records(records, args.out or sys.stdout, args.format, meta)
    except (ValueError, TypeError, OSError) as exc:
        # TypeError: a config value of the wrong JSON type, such as null or
        # a list where a number belongs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    strict = command.strict and args.strict
    return EXIT_NONCONVERGED if strict and nonconverged else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

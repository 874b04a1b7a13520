"""Wrappers installed around the package's public functions.

Two kinds, both patched onto the module (or class) attribute that the
package itself looks up at call time, and both removed on exit:

* ``capture`` records every recovery cell's truth, inputs and result so the
  checks can run after the timed region.  It is on in every round.
* ``Spans`` times each layer.  It is on only in the traced round, so the
  end-to-end figures are measured without it.

``checkpoints`` calls a hook on entry to a few coarse calls; the run uses
it to time a reference kernel now and then while a workload runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from conicrecovery import conic, harness, measure, reg, smallball, solve, width

# layer name -> the attributes it wraps; order is install order
LAYERS = {
    "harness": [(harness, "run_phase_transition"), (harness, "run_error_curve")],
    "measure.ensemble": [(measure, "gaussian_ensemble"),
                         (measure, "gaussian_matrix_ensemble"),
                         (measure, "lifted_phase_ensemble"),
                         (measure, "bounded_symmetric_ensemble")],
    "measure.observe": [(measure, "apply"), (measure, "measure_with_noise")],
    "solve": [(solve, "recover_constrained"), (solve, "phase_retrieval_sdp")],
    "solve.rootfind": [(solve, "brentq")],
    "reg.prox": [(reg.L1Norm, "prox"), (reg.Schatten1Norm, "prox"),
                 (reg.TracePSD, "prox")],
    "reg.min_subdiff_dist_sq": [(reg.Regularizer, "min_subdiff_dist_sq")],
    "width.mc_descent": [(width, "mc_width_sq_descent")],
    "smallball.bowling": [(smallball, "bowling_width_descent")],
    "smallball.empirical_width": [(smallball, "estimate_mean_empirical_width")],
    "smallball.marginal_tail": [(smallball, "estimate_marginal_tail")],
    "conic.lambda_min": [(conic, "lambda_min_empirical")],
}


@contextmanager
def patched(replacements):
    """Set ``owner.attr = make(original)`` for each (owner, attr, make);
    restore the originals on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclass
class Cell:
    """One recovery solve as the harness ran it."""

    truth: object       # signal handed to measure (the lifted xx^t for PhaseLift)
    op_key: tuple       # (kind, m, signal shape, seed) of the operator
    y: object
    eta: float
    result: object      # solve.RecoveryResult

    def operator(self):
        """Redraw the cell's operator from its seed with the constructor the
        harness used.  Keeping every cell's matrix instead would add tens of
        MB to the peak RSS being measured."""
        kind, m, shape, seed = self.op_key
        if kind is measure.OperatorKind.LIFTED:
            return measure.lifted_phase_ensemble(m, shape[0], seed=seed)
        if len(shape) == 2:
            return measure.gaussian_matrix_ensemble(m, *shape, seed=seed)
        return measure.gaussian_ensemble(m, shape[0], seed=seed)


def _key(op):
    return op.kind, op.m, op.signal_shape, op.seed


@contextmanager
def capture(cells: list):
    """Append a ``Cell`` to ``cells`` for every solve the harness makes."""
    last_truth = [None]

    def observe(fn):
        def wrapped(op, x, *args, **kwargs):
            last_truth[0] = x
            return fn(op, x, *args, **kwargs)
        return wrapped

    def constrained(fn):
        def wrapped(f, op, y, eta, *args, **kwargs):
            res = fn(f, op, y, eta, *args, **kwargs)
            cells.append(Cell(last_truth[0], _key(op), y, eta, res))
            return res
        return wrapped

    def sdp(fn):
        def wrapped(op, y, *args, **kwargs):
            res = fn(op, y, *args, **kwargs)
            cells.append(Cell(last_truth[0], _key(op), y, 0.0, res))
            return res
        return wrapped

    with patched([(measure, "apply", observe),
                  (measure, "measure_with_noise", observe),
                  (solve, "recover_constrained", constrained),
                  (solve, "phase_retrieval_sdp", sdp)]):
        yield


@contextmanager
def checkpoints(targets, hook):
    """Call ``hook()`` on entry to every call of the (owner, attr) pairs in
    ``targets``."""
    def checkpoint(fn):
        def wrapped(*args, **kwargs):
            hook()
            return fn(*args, **kwargs)
        return wrapped

    with patched([(owner, attr, checkpoint) for owner, attr in targets]):
        yield


class Spans:
    """Per-layer busy seconds, self seconds and call counts.

    A call nested in a call of the same layer (``measure_with_noise``
    calling ``apply``) counts once, as the outer call.  Self time is a
    span's duration minus the spans of other layers it encloses.
    """

    def __init__(self):
        # name -> [seconds, self seconds, calls]
        self.acc = {name: [0.0, 0.0, 0] for name in LAYERS}
        self.solve_setup_s = 0.0
        self.dr_iters = 0
        self.capped_iters = 0
        self.nonconverged = 0
        self.mc_trials = 0
        self._stack = []  # open spans: [name, start, child seconds, first prox]

    def _wrap(self, name, fn):
        stack, clock, acc = self._stack, time.perf_counter, self.acc[name]
        is_prox, is_solve = name == "reg.prox", name == "solve"
        count = self._count if name in ("solve", "width.mc_descent") else None

        def wrapped(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            start = clock()
            if is_prox and stack and stack[-1][0] == "solve" and stack[-1][3] is None:
                stack[-1][3] = start
            frame = [name, start, 0.0, None]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                acc[0] += dt
                acc[1] += dt - frame[2]
                acc[2] += 1
                if stack:
                    stack[-1][2] += dt
                if is_solve:
                    self.solve_setup_s += (frame[3] or end) - start
            if count:
                count(name, args, out)
            return out
        return wrapped

    def _count(self, name, args, out):
        if name == "solve":
            self.dr_iters += out.iterations
            self.nonconverged += not out.converged
            cap = next((a.max_iters for a in args
                        if isinstance(a, solve.SolverOptions)),
                       solve.SolverOptions().max_iters)
            if not out.converged and out.iterations >= cap:
                self.capped_iters += out.iterations
        else:
            self.mc_trials += out.trials

    @contextmanager
    def installed(self):
        with patched([(owner, attr, lambda fn, n=name: self._wrap(n, fn))
                      for name, targets in LAYERS.items()
                      for owner, attr in targets]):
            yield

    def metrics(self, cells: int, overhead_s: float) -> dict:
        """Per-layer figures for one traced round, as (value, unit) pairs."""
        s = {name: a[0] for name, a in self.acc.items()}
        calls = {name: a[2] for name, a in self.acc.items()}
        iterate_s = s["solve"] - self.solve_setup_s
        iters = self.dr_iters
        mc_s = s["width.mc_descent"]
        return {
            "harness.s": (s["harness"], "s"),
            "harness.self_s": (self.acc["harness"][1], "s"),
            "harness.cells": (cells, "count"),
            "measure.ensemble.calls": (calls["measure.ensemble"], "count"),
            "measure.ensemble.s": (s["measure.ensemble"], "s"),
            "measure.observe.s": (s["measure.observe"], "s"),
            "solve.calls": (calls["solve"], "count"),
            "solve.s": (s["solve"], "s"),
            "solve.setup_s": (self.solve_setup_s, "s"),
            "solve.iterate_s": (iterate_s, "s"),
            "solve.dr_iters": (iters, "count"),
            "solve.us_per_iter": (1e6 * iterate_s / iters if iters else 0.0, "us"),
            "solve.self_s": (self.acc["solve"][1], "s"),
            "solve.nonconverged": (self.nonconverged, "count"),
            "solve.capped_iter_share": (self.capped_iters / iters if iters else 0.0,
                                        "ratio"),
            "solve.rootfind.calls": (calls["solve.rootfind"], "count"),
            "solve.rootfind.s": (s["solve.rootfind"], "s"),
            "reg.prox.calls": (calls["reg.prox"], "count"),
            "reg.prox.s": (s["reg.prox"], "s"),
            "reg.min_subdiff_dist_sq.calls": (calls["reg.min_subdiff_dist_sq"], "count"),
            "reg.min_subdiff_dist_sq.s": (s["reg.min_subdiff_dist_sq"], "s"),
            "width.mc_descent.s": (mc_s, "s"),
            "width.mc_descent.trials_per_s": (self.mc_trials / mc_s if mc_s else 0.0,
                                              "1/s"),
            "smallball.bowling.s": (s["smallball.bowling"], "s"),
            "smallball.empirical_width.s": (s["smallball.empirical_width"], "s"),
            "smallball.marginal_tail.s": (s["smallball.marginal_tail"], "s"),
            "conic.lambda_min.s": (s["conic.lambda_min"], "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }

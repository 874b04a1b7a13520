"""Every package attribute the benchmark wraps still exists.

``bench/`` patches named functions of the package at run time: the layer
timers of a traced round, the cell capture of every round, and each
workload's checkpoints.  ``bench/test_bench.py`` exercises the layers and
the capture on small runs; this file alone covers the checkpoint targets
of every workload, and checks that the descent-cone estimators reach the
distance layer and that the harness draws every operator through the
constructors that the ensemble layer and ``Cell.operator`` name.  Entering
each wrapper context looks every target up, and leaving it must restore
the originals.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from conicrecovery import harness, measure, reg, smallball, solve, width

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
import workloads  # noqa: E402


def missing(targets):
    return [f"{owner.__name__}.{attr}"
            for owner, attr in targets if not hasattr(owner, attr)]


def assert_installs_and_restores(context, targets):
    before = [getattr(owner, attr) for owner, attr in targets]
    with context:
        pass
    assert [getattr(owner, attr) for owner, attr in targets] == before


def test_layer_targets_resolve():
    targets = [t for ts in layers.LAYERS.values() for t in ts]
    assert not missing(targets)
    assert_installs_and_restores(layers.Spans().installed(), targets)


def test_capture_targets_resolve():
    # capture keeps its four targets inside the function; entering it
    # looks each one up and raises AttributeError for a missing name
    with layers.capture([]):
        pass


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checkpoint_targets_resolve(name):
    targets = list(workloads.WORKLOADS[name].checkpoints)
    assert targets and not missing(targets)
    assert_installs_and_restores(layers.checkpoints(targets, lambda: None),
                                 targets)


@pytest.mark.parametrize("estimate", [
    lambda f: width.mc_width_sq_descent(f, trials=10, seed=1),
    lambda f: smallball.bowling_width_descent(
        f, measure.gaussian_row_sampler(4), 8, trials=10, seed=2),
], ids=["width.mc_width_sq_descent", "smallball.bowling_width_descent"])
def test_descent_estimators_reach_distance_layer(estimate):
    # both take every descent-cone distance through
    # Regularizer.min_subdiff_dist_sq, the method this layer times
    spans = layers.Spans()
    with spans.installed():
        estimate(reg.L1Norm(np.array([1.0, 0.0, -1.0, 0.0])))
    calls, _ = spans.metrics(0, 0.0)["reg.min_subdiff_dist_sq.calls"]
    assert calls > 0


@pytest.mark.parametrize("problem, m", [
    (harness.SparseL1(2, 16), 12),
    (harness.LowRankS1(1, 4, 4), 14),
    (harness.PhaseRetrieval(3), 12),
], ids=["SparseL1", "LowRankS1", "PhaseRetrieval"])
def test_harness_draws_operators_through_ensemble_layer(problem, m):
    # a layer that the harness bypasses reads 0 and times nothing; the
    # captured cell must redraw the very operator that the harness measured
    spans, cells = layers.Spans(), []
    with layers.capture(cells), spans.installed():
        harness.solve_instance(problem, m, seed=5, eta=0.0,
                               opts=solve.SolverOptions(max_iters=200))
    calls, _ = spans.metrics(0, 0.0)["measure.ensemble.calls"]
    assert calls == 1
    (cell,) = cells
    kind, _, shape, seed = cell.op_key
    drawn, redrawn = problem.operator(m, seed), cell.operator()
    assert (redrawn.kind, redrawn.m, redrawn.signal_shape) == (kind, m, shape)
    field = "vectors" if kind is measure.OperatorKind.LIFTED else "rows"
    assert getattr(redrawn, field).tobytes() == getattr(drawn, field).tobytes()

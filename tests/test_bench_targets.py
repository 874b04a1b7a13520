"""Every package attribute the benchmark wraps still exists.

``bench/`` patches named functions of the package at run time: the layer
timers of a traced round, the cell capture of every round, and each
workload's checkpoints.  ``bench/test_bench.py`` exercises the layers and
the capture on small runs; this file alone covers the checkpoint targets
of every workload, and checks that the descent-cone estimators reach the
distance layer.  Entering each wrapper context looks every target up,
and leaving it must restore the originals.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from conicrecovery import measure, reg, smallball, width

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

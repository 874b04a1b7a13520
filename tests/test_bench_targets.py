"""Every package attribute the benchmark wraps still exists.

``bench/`` patches named functions of the package at run time: the layer
timers of a traced round, the cell capture of every round, and each
workload's checkpoints.  ``bench/test_bench.py`` exercises the layers and
the capture on small runs; this file alone covers the checkpoint targets
of every workload.  Entering each wrapper context looks every target up,
and leaving it must restore the originals.
"""

import sys
from pathlib import Path

import pytest

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

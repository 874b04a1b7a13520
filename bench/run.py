"""Benchmark entry point for conicrecovery.

    python3 bench/run.py --workload l1-sweep --seed 1 --seconds 12 --trace 0

Runs one workload as a single-process closed loop: whole rounds of the
same operations, as many as best fill ``--seconds`` (at least one).  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` one
untraced and one traced round and the per-layer metrics.  Every round's
output is checked after the timed region; the last stdout line is one
JSON object.  Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_PROBES = 5
KERNELS_PER_PROBE = 4  # host-speed samples before each set-up probe

# One BLAS thread: the workloads' matrices are small (at most 384 x 2304),
# and on a 2-core host identical rounds varied more with two OpenBLAS
# threads (17.0-25.3 s) than with one (20.7-22.9 s).  Set before numpy is
# first imported; inherited by the set-up probes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import hostspeed  # noqa: E402  (after the BLAS setting: it imports numpy)

# a fresh interpreter: import the package, build the inputs, report the time
_PROBE = ("import sys, time\n"
          "sys.path[:0] = {paths!r}\n"
          "import workloads\n"
          "workloads.WORKLOADS[{name!r}].build({seed})\n"
          "print(repr(time.time()))\n")


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of the time from launch to first cell,
    scaled to the reference host speed by kernel samples taken between
    the processes."""
    code = _PROBE.format(paths=[str(BENCH), str(SRC)], name=name, seed=seed)
    speed = hostspeed.Sampler()
    samples = []
    for _ in range(SETUP_PROBES):
        for _ in range(KERNELS_PER_PROBE):
            speed.sample()
        start = time.time()
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        samples.append(float(out.split()[-1]) - start)
    for _ in range(KERNELS_PER_PROBE):
        speed.sample()
    print(f"set-up: median {statistics.median(samples):.3f} s over {SETUP_PROBES} "
          f"processes, host speed {speed.scale():.3f} of reference", file=sys.stderr)
    return statistics.median(samples) * speed.scale()


@dataclass
class Round:
    seconds: float      # raw, less the time spent sampling the host's speed
    out: object         # the body's output, None if it raised
    cells: list


def run_round(wl, inputs, layers, speed=None, spans=None):
    """One timed round of the workload's body.  With ``speed`` (a
    ``hostspeed.Sampler``), the reference kernel is timed at the workload's
    checkpoints; with ``spans``, the layers are traced."""
    cells = []
    tracing = spans.installed() if spans else contextlib.nullcontext()
    sampling = (layers.checkpoints(wl.checkpoints, speed.maybe_sample)
                if speed else contextlib.nullcontext())
    spent = speed.spent if speed else 0.0
    with layers.capture(cells), sampling, tracing:
        start = time.perf_counter()
        try:
            out = wl.body(inputs)
        except Exception:
            traceback.print_exc()
            out = None
        seconds = time.perf_counter() - start
    if speed:
        seconds -= speed.spent - spent
    return Round(seconds, out, cells)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    inputs = wl.build(args.seed)

    speed = hostspeed.Sampler()
    rounds = [run_round(wl, inputs, layers, speed)]
    if not args.trace:
        target = max(1, round(args.seconds / rounds[0].seconds))
        rounds += [run_round(wl, inputs, layers, speed) for _ in range(target - 1)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = speed.scale()
    raw_s = statistics.fmean(r.seconds for r in rounds)
    wall_s = raw_s * scale
    print(f"rounds {len(rounds)}, raw round {raw_s:.3f} s, host speed "
          f"{scale:.3f} of reference over {len(speed.samples)} kernel samples",
          file=sys.stderr)
    if args.trace:
        spans = layers.Spans()
        traced = run_round(wl, inputs, layers, spans=spans)
        rounds.append(traced)

    ops = wl.ops(inputs)
    failed, correct = 0, True
    for r in rounds:
        if r.out is None:
            failed += ops
            continue
        bad, agg_ok = wl.check(inputs, r.out, r.cells)
        failed += bad
        correct = correct and agg_ok

    if args.trace:
        metrics = spans.metrics(len(traced.cells), traced.seconds * scale - wall_s)
    else:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    print(json.dumps({
        "correct": correct,
        "attempted": ops * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

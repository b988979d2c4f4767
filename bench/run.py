"""alodsim render benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload tail|early|verify --seed N --seconds S --trace 0|1

Run from the root of a source checkout; alodsim is imported from ``src/``.
Items run one after another in this process (a closed loop with a single
caller). Whole rounds of the workload's items repeat until ``--seconds``
have passed, and at least one round runs. With ``--trace 0`` the last line
of standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one traced round (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

# Set-ups per run: this process plus fresh interpreters. setup_s is their median.
SETUP_SAMPLES = 3


def _import_path():
    if not os.path.isfile(os.path.join(SRC, "alodsim", "__init__.py")):
        sys.exit(f"error: no alodsim sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)


def timed_setup(workload: str):
    """Import alodsim and build what the workload uses; (seconds, objects)."""
    start = time.perf_counter()
    import workloads

    built = workloads.setup(workload)
    return time.perf_counter() - start, built


def setup_probes(workload: str, count: int) -> list:
    """Set-up times measured in fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def settle_allocator():
    """Free one block just under 32 MiB before the first round.

    glibc raises its mmap threshold to the size of the largest mapped block
    freed so far, up to 32 MiB, and which block that is depends on the order
    in which earlier arrays were freed. Without this, runs of the same code
    fell into two states: the early round peaked at 249 MiB with 0.94 M page
    faults in some processes and at 350 MiB with 0.36 M in others. After
    this free every run starts from the second state, which a process that
    has freed one large array is in anyway.
    """
    import numpy as np

    np.empty((32 << 20) - (64 << 10), dtype=np.uint8)


def checked(check, *args) -> list:
    """Failures a check reports; a check that raises is one failure."""
    try:
        return check(*args)
    except Exception:
        traceback.print_exc()
        return [f"{check.__qualname__} raised; see the traceback above"]


class Tally:
    """Item calls, failed items and failed checks over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def round(self, workload) -> tuple:
        """Run every item once, then check; (seconds, seconds per item)."""
        outputs, op_seconds = {}, {}
        start = time.perf_counter()
        for label, op in workload.ops():
            op_start = time.perf_counter()
            try:
                outputs[label] = op()
            except Exception:
                self.failed += 1
                print(f"failed: {label}", file=sys.stderr)
                traceback.print_exc()
            op_seconds[label] = time.perf_counter() - op_start
        seconds = time.perf_counter() - start
        self.attempted += len(op_seconds)
        self.failures += checked(workload.check, outputs)
        return seconds, op_seconds


def traced_pass(workload_name: str, seed: int, workdir: str, tally: Tally) -> tuple:
    """Set up and run one round with every layer wrapped; (seconds, tracer)."""
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    built = workloads.setup(workload_name)
    seconds, _ = tally.round(workloads.make(workload_name, built, seed, workdir))
    silent = [layer for layer in workloads.ACTIVE_LAYERS[workload_name]
              if tracer.calls[layer] == 0]
    if silent:
        tally.failures.append(f"trace: no call recorded in {', '.join(silent)}")
    return seconds, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tail", "early", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time one set-up and print the seconds")
    args = parser.parse_args(argv)
    _import_path()

    setup_s, built = timed_setup(args.workload)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import numpy as np

    import decay
    import workloads

    workdir = os.path.join(BENCH, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        workload = workloads.make(args.workload, built, args.seed, workdir)
        tally.failures += [f"benchmark self-check: {f}" for f in decay.self_check()]
        settle_allocator()
        rounds, op_times = [], []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            seconds, op_seconds = tally.round(workload)
            rounds.append(seconds)
            op_times.append(op_seconds)
        tally.failures += checked(workload.check_repeat)
        wall_s = statistics.median(rounds)
        detail = {"rounds_s": rounds, "op_s": op_times}
        if args.trace:
            traced_s, tracer = traced_pass(args.workload, args.seed, workdir, tally)
            values = dict(tracer.metrics(), **{"trace.overhead_s": traced_s - wall_s})
            metrics = {name: {"value": value, "unit": "count" if isinstance(value, int) else "s"}
                       for name, value in values.items()}
            detail.update(traced_round_s=traced_s, layer_calls=tracer.calls)
            _write(f"trace-{args.workload}-seed{args.seed}.json",
                   {"fields": ["name", "parent", "start_s", "end_s"], "spans": tracer.spans})
        else:
            setup_times = [setup_s] + setup_probes(args.workload, SETUP_SAMPLES - 1)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            }
            detail["setup_s"] = setup_times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in tally.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    _write(f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
           dict(result, failures=tally.failures, detail=detail,
                numpy=np.__version__, cpus=os.cpu_count()))
    print(json.dumps(result))
    return 0


def _write(name: str, doc: dict):
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())

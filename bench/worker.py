"""One benchmark process: set up one workload, run timed instances, report JSON.

``run.py`` starts this script in a fresh single-threaded interpreter.  It
imports the package and builds the workload inputs (the set-up), then runs
instances until ``--seconds`` of instance time have passed (at least one).
With ``--trace`` it spends half the time untraced, installs the tracer and
spends the other half traced.  The last line of standard output is one JSON
object for ``run.py``.

``--setup-only`` stops after the set-up: ``run.py`` uses it to sample the
set-up time several times.  ``--inject-delay-us`` busy-waits that long in
every ``NoiseStream.standard_normals`` call: the negative control of
``selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _inject_delay(delay_s: float) -> None:
    from phi4lattice.noise import NoiseStream

    original = NoiseStream.standard_normals
    clock = time.perf_counter

    def delayed(self, shape=None):
        until = clock() + delay_s
        while clock() < until:
            pass
        return original(self, shape)

    NoiseStream.standard_normals = delayed


def _run_instances(workload, seeds, budget_s: float, on_start=None, on_end=None) -> list[dict]:
    """Run instances from ``seeds`` until ``budget_s`` of instance time is spent."""
    results = []
    spent = 0.0
    for seed in seeds:
        if results and spent >= budget_s:
            break
        if on_start is not None:
            on_start()
        t0 = time.perf_counter()
        outcome = workload.instance(seed)
        wall = time.perf_counter() - t0
        row = {"seed": seed, "wall_s": wall, "ops": outcome.ops, "failed": outcome.failed,
               "ess": outcome.ess, "site_steps": outcome.site_steps,
               "problems": outcome.problems, "values": outcome.values}
        if on_end is not None:
            row["trace"] = on_end(wall)
        results.append(row)
        spent += wall
        if hasattr(workload, "cleanup"):
            workload.cleanup(seed)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--inject-delay-us", type=float, default=0.0)
    args = ap.parse_args(argv)

    import workloads  # imports phi4lattice: part of the set-up

    workload = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(workdir)
        setup_s = time.monotonic() - args.t_spawn
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.inject_delay_us:
            _inject_delay(args.inject_delay_us * 1e-6)

        # instance seeds derive from the run seed; instance k of seed s is s*1000+k
        seeds = iter(range(args.seed * 1000, args.seed * 1000 + 1000))
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = _run_instances(workload, seeds, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced: list[dict] = []
        bindings: dict = {}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            bindings = tracer.bindings

            def on_end(wall):
                m = tracer.metrics()
                m["trace.wall_s"] = wall
                m["fn_calls"] = dict(tracer.fn_calls)
                return m

            traced = _run_instances(workload, seeds, budget, on_start=tracer.reset, on_end=on_end)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    import numpy

    print(json.dumps({
        "setup_s": setup_s,
        "untraced": untraced,
        "traced": traced,
        "peak_rss_mb": peak_rss_mb,
        "bindings": bindings,
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

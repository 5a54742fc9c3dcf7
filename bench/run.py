#!/usr/bin/env python3
"""phi4lattice benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh single-threaded Python
processes (``PHI4_THREADS`` unset, BLAS pinned to one thread) that import
``src/phi4lattice`` and run the workload (see ``workloads.py`` and
``README.md``).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of ``tracer.py``.  Human-readable lines, including
``fail_frac`` and a machine stamp, come first; the last line of standard
output is the JSON result.  The exit code is 0 only when every output check
and, at the default seed, every pinned reference value holds.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, metric_names  # noqa: E402  (stdlib only; no numpy in this process)

WORKLOADS = ("stats_d2_batch", "cli_run_d1", "apriori_d3", "volume_pair_d2")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5  # set-up is measured in this many fresh processes per run
DEADLINE_S = 175.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "site_steps_per_s": "1/s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Counters the workload is known to drive; reading zero means the tracer
# lost a binding, so the traced run fails instead of reporting it.
PREDICTED_NONZERO = {
    "stats_d2_batch": ("noise.values", "dynamics.steps", "dynamics.fft_calls", "potential.calls",
                       "stats.calls", "stats.bootstrap_reps"),
    "cli_run_d1": ("potential.calls", "trees.holder_calls", "noise.values", "dynamics.steps",
                   "lattice.field_allocs", "cli.calls", "cli.bytes_written", "cli.bytes_read",
                   "cli.files_written"),
    "apriori_d3": ("renorm.c2_calls", "trees.convolve_calls", "trees.holder_calls",
                   "noise.values", "dynamics.steps", "verify.calls"),
    "volume_pair_d2": ("renorm.c2_calls", "trees.convolve_calls", "trees.holder_calls",
                       "noise.values", "verify.calls"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.startswith("cli.bytes"):
        return "B"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    """The run cannot produce a result (missing program, crash, lost binding)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PHI4_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def spawn_worker(workload: str, seed: int, seconds: float, extra: list[str], deadline: float) -> dict:
    """Run ``worker.py`` to completion and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--t-spawn", repr(t_spawn)] + extra
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(pkg: str) -> str:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def machine_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "scipy": _version("scipy"),
        "git_commit": git_commit(),
    }


REFERENCE = HERE / "reference.json"


def reference_mismatches(workload: str, seed: int, untraced: list[dict], update: bool) -> list[str]:
    """Compare the first instance of the default seed with ``reference.json``.

    With ``update`` the instance's values replace the pinned ones instead.
    """
    if seed != DEFAULT_SEED:
        return []
    ref = json.loads(REFERENCE.read_text())
    got = untraced[0]["values"]
    if update:
        ref["workloads"][workload] = {"instance_seed": untraced[0]["seed"], "values": got}
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        return []
    pinned = ref["workloads"].get(workload)
    if pinned is None:
        return [f"no pinned reference for {workload}"]
    if untraced[0]["seed"] != pinned["instance_seed"]:
        return [f"first instance seed {untraced[0]['seed']} != pinned {pinned['instance_seed']}"]
    out = []
    if set(got) != set(pinned["values"]):
        out.append(f"reference keys differ: {sorted(set(got) ^ set(pinned['values']))}")
    for key, want in pinned["values"].items():
        have = got.get(key)
        if have is None or not abs(have - want) <= ref["atol"] + ref["rtol"] * abs(want):
            out.append(f"reference {key}: got {have!r}, pinned {want!r}")
    return out


def end_to_end(report: dict, setups: list[float]) -> dict:
    rows = report["untraced"]
    wall = sum(r["wall_s"] for r in rows)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rows),
        "site_steps_per_s": sum(r["site_steps"] for r in rows) / wall,
        "ess_per_s": sum(r["ess"] for r in rows) / wall,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(workload: str, report: dict) -> dict:
    """Per-instance means over the traced instances, checked for lost spans."""
    traced = [r["trace"] for r in report["traced"]]
    names = metric_names()
    out = {n: statistics.fmean(t[n] for t in traced)
           for n in names if n != "trace.overhead_frac"}
    untraced_wall = statistics.fmean(r["wall_s"] for r in report["untraced"])
    out["trace.overhead_frac"] = out["trace.wall_s"] / untraced_wall - 1.0
    lost = [n for n in PREDICTED_NONZERO[workload] if out[n] == 0]
    if lost:
        raise BenchError(f"counters predicted nonzero read zero on {workload}: {lost}")
    self_sum = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    if self_sum > out["trace.wall_s"]:
        raise BenchError(f"layer self times {self_sum:.4f} s exceed traced wall "
                         f"{out['trace.wall_s']:.4f} s")
    return {n: out[n] for n in names}


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "phi4lattice" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'phi4lattice'} is missing")
    stamp = machine_stamp()
    stamp.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                 loadavg_start=list(os.getloadavg()))

    setups = []
    extra = ["--trace"] if args.trace else []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = spawn_worker(args.workload, args.seed, 0, ["--setup-only"], deadline)
            setups.append(probe["setup_s"])
    report = spawn_worker(args.workload, args.seed, args.seconds, extra, deadline)
    setups.append(report["setup_s"])
    stamp["numpy"] = report["numpy"]

    rows = report["untraced"] + report["traced"]
    attempted = sum(r["ops"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    problems = [f"seed {r['seed']}: {p}" for r in rows for p in r["problems"]]
    problems += reference_mismatches(args.workload, args.seed, report["untraced"],
                                     args.update_reference)

    if args.trace:
        metrics = per_layer(args.workload, report)
        units = {n: layer_unit(n) for n in metrics}
        stamp["bindings"] = report["bindings"]
    else:
        metrics = end_to_end(report, setups)
        units = E2E_UNITS
    stamp["loadavg_end"] = list(os.getloadavg())

    print(f"{args.workload}: seed {args.seed}, {len(report['untraced'])} untraced + "
          f"{len(report['traced'])} traced instances, {attempted} operations, {failed} failed "
          f"(fail_frac {failed / max(attempted, 1):.4g})")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    for p in problems:
        print(f"  CHECK FAILED: {p}", file=sys.stderr)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="pin this run's default-seed outputs in reference.json "
                         "(only when a change of results is intended)")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

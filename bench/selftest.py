#!/usr/bin/env python3
"""Self-test of the benchmark: it must be able to go red, and its counts repeat.

    python3 bench/selftest.py

1. ``BENCHMARK.json`` names exactly the metrics and units ``run.py`` reports.
2. Without the program (only ``BENCHMARK.json`` and ``bench/``) a run exits
   non-zero and prints no result.
3. Each workload runs traced twice with one seed; the exact counters repeat
   exactly, and the predicted-nonzero counters are nonzero.
4. Negative control: a fixed busy-wait added to every
   ``NoiseStream.standard_normals`` call inside the workload process must
   raise ``noise.self_s`` by about calls x delay, raise ``wall_s`` on
   ``cli_run_d1``, and leave the layer split of ``volume_pair_d2`` within
   its run-to-run variation (its noise draws are a small share of the work).

Takes about three minutes; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
from tracer import LAYERS, metric_names

SEED = 7
DELAY_US = 200.0
EXACT = [f"{layer}.fft_calls" for layer in LAYERS] + [
    "renorm.c2_calls", "trees.convolve_calls", "noise.values", "dynamics.steps"]
# the busy-wait must show in noise.self_s within this share of calls x delay,
# plus this share of the undelayed noise.self_s (host speed varies by ~20%)
ATTRIBUTION_TOL = 0.2
HOST_TOL = 0.25
# On volume_pair_d2 no layer's share of traced time may move by more than
# two undelayed runs already differ, plus the delay's own share, plus this.
SPLIT_TOL = 0.02


def traced(workload: str, delay_us: float = 0.0) -> tuple[dict, dict]:
    extra = ["--trace"] + (["--inject-delay-us", str(delay_us)] if delay_us else [])
    report = run.spawn_worker(workload, SEED, 1, extra, time.monotonic() + run.DEADLINE_S)
    return report, run.per_layer(workload, report)


def layer_split(metrics: dict) -> dict:
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    return {layer: metrics[f"{layer}.self_s"] / total for layer in LAYERS}


def check_manifest(failures: list) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != run.E2E_UNITS:
        failures.append(f"BENCHMARK.json end_to_end {e2e} != run.py {run.E2E_UNITS}")
    reported = {n: run.layer_unit(n) for n in metric_names()}
    if layers != reported:
        failures.append(f"BENCHMARK.json per_layer differs from the tracer: "
                        f"{sorted(set(layers.items()) ^ set(reported.items()))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py")


def check_without_program(failures: list) -> None:
    bare = run.ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                               "cli_run_d1", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("a run without src/ did not fail")


def main() -> int:
    failures: list[str] = []
    check_manifest(failures)
    check_without_program(failures)

    baseline = {}
    for workload in run.WORKLOADS:
        report, first = traced(workload)
        _, second = traced(workload)
        differ = {n: (first[n], second[n]) for n in EXACT if first[n] != second[n]}
        if differ:
            failures.append(f"{workload}: counts did not repeat: {differ}")
        baseline[workload] = (report, first, second)
        print(f"{workload}: exact counts repeat" if not differ else f"{workload}: {differ}")

    for workload in ("cli_run_d1", "volume_pair_d2"):
        base_report, base, again = baseline[workload]
        report, slow = traced(workload, DELAY_US)
        calls = sum(r["trace"]["fn_calls"]["NoiseStream.standard_normals"]
                    for r in report["traced"]) / len(report["traced"])
        expected = calls * DELAY_US * 1e-6
        rise = slow["noise.self_s"] - base["noise.self_s"]
        print(f"{workload}: noise.self_s rose {rise:.4f} s, calls x delay = {expected:.4f} s")
        if abs(rise - expected) > ATTRIBUTION_TOL * expected + HOST_TOL * base["noise.self_s"]:
            failures.append(f"{workload}: noise.self_s rose {rise:.4f} s, expected {expected:.4f} s")
        if workload == "cli_run_d1":
            before = min(r["wall_s"] for r in base_report["untraced"])
            after = min(r["wall_s"] for r in report["untraced"])
            print(f"cli_run_d1: untraced wall_s {before:.3f} s -> {after:.3f} s")
            if after - before < 0.5 * expected:
                failures.append(f"cli_run_d1: wall_s did not rise ({before:.3f} -> {after:.3f} s)")
        else:
            a, b, c = layer_split(base), layer_split(slow), layer_split(again)
            moved = max(abs(a[layer] - b[layer]) for layer in LAYERS)
            natural = max(abs(a[layer] - c[layer]) for layer in LAYERS)
            allowed = natural + expected / slow["trace.wall_s"] + SPLIT_TOL
            print(f"volume_pair_d2: largest layer-share change {moved:.4f}, allowed "
                  f"{allowed:.4f} (two undelayed runs differ by {natural:.4f})")
            if moved > allowed:
                failures.append(f"volume_pair_d2: layer split moved by {moved:.4f}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    print("selftest passed" if not failures else "selftest FAILED")
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""Alternating before/after rows of ``bench/run.py``, written as one perf record.

    python3 scripts/bench_pairs.py --before DIR --after DIR --out BENCH_<n>.json \\
        [--pairs 3] [--workloads NAME ...] [--traced NAME ...]

``--before`` and ``--after`` are two checkouts of the repository (for example
``git clone`` copies of the parent commit and of the change).  For every
workload each pair runs ``bench/run.py --trace 0`` once in each checkout, the
before side first in even pairs and second in odd ones, so a drift of the
host's speed does not favour one side.  Every ``--traced`` workload then adds
one ``--trace 1`` row per side.  Each row keeps the exit code, the machine
stamp and the JSON result that ``bench/run.py`` prints; the summary gives the
per-side medians and interquartile ranges of the end-to-end metrics, the median
over pairs of the after/before ratio (``ratio_median``; on a host whose speed
drifts it can differ from the ratio of the two medians) and how many pairs the
after side won, so a median gap can be read against each side's own spread.
Each metric also gets a ``verdict``: ``better`` when the after side won at least
9 of 10 pairs and its median gap exceeds ``before_iqr``; ``worse`` when the after
median is worse than the before median by more than the metric's ``bound`` from
``BENCHMARK.json`` (relative to the before median); ``unresolved`` when either
side's IQR, relative to its median, is wider than that bound; else
``unchanged``.  Only pairs whose two results read ``correct`` enter these;
``incorrect_rows`` counts the untraced rows left out.  Its ``src_lines`` entry gives the line
count of the ``src/`` Python files in each checkout and their difference.  Rows
already in ``--out`` are kept, so a second call adds pairs.  ``bench/run.py``
runs unchanged, from the root of each checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("stats_d2_batch", "cli_run_d1", "apriori_d3", "volume_pair_d2")


def bench_row(checkout: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--trace", str(trace)], cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    stamps = [json.loads(line[len("stamp "):]) for line in lines if line.startswith("stamp ")]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "trace": trace, "exit_code": proc.returncode,
            "stamp": stamps[-1] if stamps else None, "result": result}


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under ``src/``, counted as ``wc -l`` does."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def iqr(values: list[float]) -> float:
    """Distance between the quartiles (linear interpolation; 0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def relative(x: float, scale: float) -> float:
    return x / abs(scale) if scale else (0.0 if x == 0 else math.inf)


def verdict(before: list[float], after: list[float], sign: float, bound: float) -> str:
    """``better``/``worse``/``unresolved``/``unchanged``; ``sign`` is +1 when lower is better."""
    b_med, a_med = statistics.median(before), statistics.median(after)
    wins = sum(sign * (a - b) < 0 for a, b in zip(after, before))
    if wins >= 0.9 * len(before) and sign * (b_med - a_med) > iqr(before):
        return "better"
    if relative(sign * (a_med - b_med), b_med) > bound:
        return "worse"
    if max(relative(iqr(before), b_med), relative(iqr(after), a_med)) > bound:
        return "unresolved"
    return "unchanged"


def summary(rows: list[dict], metrics: dict[str, dict]) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in rows}):
        pairs: dict[int, dict[str, dict]] = {}
        incorrect = 0
        for r in rows:
            if r["workload"] != workload or r["trace"] != 0:
                continue
            if r["result"] and r["result"]["correct"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
            else:
                incorrect += 1
        both = [p for p in pairs.values() if len(p) == 2]
        if not both:
            continue
        table: dict = {"incorrect_rows": incorrect}
        for name, spec in metrics.items():
            sign = 1.0 if spec["better"] == "lower" else -1.0
            before = [p["before"][name]["value"] for p in both]
            after = [p["after"][name]["value"] for p in both]
            table[name] = {
                "before_median": statistics.median(before),
                "after_median": statistics.median(after),
                "ratio_median": statistics.median(a / b if b else math.nan
                                                  for a, b in zip(after, before)),
                "before_iqr": iqr(before),
                "after_iqr": iqr(after),
                "after_better_pairs": sum(sign * (a - b) < 0 for a, b in zip(after, before)),
                "pairs": len(both),
                "verdict": verdict(before, after, sign, spec["bound"]),
            }
        out[workload] = table
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--after", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--traced", nargs="*", choices=WORKLOADS, default=["stats_d2_batch"])
    args = ap.parse_args(argv)
    metrics = {m["name"]: m
               for m in json.loads((args.after / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    rows: list[dict] = json.loads(args.out.read_text())["rows"] if args.out.exists() else []
    lines = {side: src_lines(path) for side, path in sides.items()}
    lines["delta"] = lines["after"] - lines["before"]

    def record(side: str, pair: int | None, workload: str, trace: int) -> None:
        row = {"side": side, "pair": pair, **bench_row(sides[side], workload, trace)}
        rows.append(row)
        ok = row["result"] is not None and row["result"]["correct"]
        print(f"{workload} trace={trace} pair={pair} {side}: exit {row['exit_code']}, "
              f"correct {ok}", flush=True)
        report = {"rows": rows, "summary": {**summary(rows, metrics), "src_lines": lines}}
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    for workload in args.workloads:
        first = 1 + max((r["pair"] for r in rows if r["workload"] == workload and r["trace"] == 0),
                        default=-1)
        for pair in range(first, first + args.pairs):
            for side in ("before", "after") if pair % 2 == 0 else ("after", "before"):
                record(side, pair, workload, 0)
        if workload in args.traced:
            for side in ("before", "after"):
                record(side, None, workload, 1)
    return 0 if all(r["exit_code"] == 0 for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())

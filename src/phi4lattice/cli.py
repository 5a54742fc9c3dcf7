"""Configuration parsing, orchestration, persistence and the ``phi4`` command.

Config files are flat ``key = value`` text, keys namespaced by module
prefix; unknown keys are hard errors with a nearest-key suggestion.  All
randomness flows from the single ``seed`` via documented sub-stream ids
(chain index, suite index), so a config plus its seed reproduces every
output byte-for-byte on one platform.  Every command writes its output
directory through :class:`OutputDir`: each file is written to a temporary
name and renamed into place, and ``manifest.json`` (config hash, seed,
parameters, sha256 of every file) is written last and audited; a failed
audit exits 2.  ``phi4 run --resume`` continues the run in its directory
from the latest snapshot: the config must match the run's apart from
``t_end``, and the records and snapshots up to that step are carried forward.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import BatchChain, ChainState, SimConfig, run_chain
from .lattice import build_grid, read_snapshot, write_snapshot
from .noise import NoiseStream
from .potential import TruncatedPotential
from .stats import (
    DegenerateSampleError,
    SampleSet,
    density_cross_check,
    estimate_partition,
    integrated_autocorr_time,
    tail_exponent,
    uniform_Z_plateau,
)
from .trees import DyadicKernelFamily, evolve_trees, seminorm_report
from .verify import (
    check_apriori,
    check_apriori_localised,
    convergence_study,
    init_discretisation_rate,
    LacunaryFunction,
    max_principle_battery,
)

__all__ = ["parse_config", "orchestrate", "main", "ConfigError"]


class ConfigError(ValueError):
    """Invalid, unknown or missing configuration keys."""


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_n(s: str) -> float:
    return math.inf if s.lower() in ("inf", "infinity") else float(int(s))


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in s.replace(",", " ").split())


# chain key -> (parser, the SimConfig field it feeds); its default is that field's
SIM_KEYS: dict[str, tuple] = {
    "seed": (int, "seed"),
    "grid.d": (int, "d"),
    "grid.L": (float, "L"),
    "grid.N": (int, "N"),
    "dt": (float, "dt"),
    "t_end": (float, "t_end"),
    "integrator": (str, "integrator"),
    "burn_in": (int, "burn_in"),
    "thinning": (int, "thinning"),
    "snapshot_every": (int, "snapshot_every"),
    "quadratic": (_parse_bool, "quadratic"),
    "renorm.m2": (float, "m2"),
    "renorm.c1_offset": (float, "c1_offset"),
    "renorm.c2_offset": (float, "c2_offset"),
    "potential.n": (_parse_n, "potential_n"),
    "dynamics.beta": (float, "beta"),
    "observable.alpha": (float, "alpha"),
    "psi.radius": (float, "psi_radius"),
    "norm.kappa": (float, "norm_kappa"),
}

# key -> (parser, default) for every key: the chain keys above, then the rest
CONFIG_KEYS: dict[str, tuple] = {
    **{key: (parser, getattr(SimConfig, name)) for key, (parser, name) in SIM_KEYS.items()},
    "observable.beta": (float, 0.1),
    "stats.n_chains": (int, 32),
    "stats.n_records": (int, 2000),
    "stats.record_stride": (int, 10),
    "stats.burn_steps": (int, 2000),
    "stats.n_list": (_parse_int_list, (1, 2, 4, 8, 16)),
    "verify.suite_seeds": (int, 3),
    "verify.R": (float, 0.5),
    "verify.kappa": (float, 0.2),
    "verify.kappa_bar": (float, 0.05),
    "verify.n_box": (float, 0.45),
    "verify.levels": (_parse_int_list, (4, 5, 6)),
    "verify.n_ref": (int, 8),
    "verify.c_max": (float, 10.0),
    "trees.n_steps": (int, 1000),
    "trees.store_every": (int, 4),
    "trees.mode": (str, "imex"),
}


def parse_config(path) -> dict:
    """Read and fully validate a flat key/value config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            hint = difflib.get_close_matches(key, CONFIG_KEYS.keys(), n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}{suffix}")
        parser, _ = CONFIG_KEYS[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    _validate(values)
    return values


def _validate(values: dict) -> None:
    try:
        sim_config(values)
    except Exception as exc:  # any value SimConfig rejects is a config error
        raise ConfigError(str(exc)) from exc


def sim_config(values: dict, stream_id: int = 0) -> SimConfig:
    return SimConfig(stream_id=stream_id,
                     **{name: values[key] for key, (_, name) in SIM_KEYS.items()})


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parameters(values: dict) -> dict:
    return {k: (str(v) if v == math.inf else v) for k, v in sorted(values.items())}


def config_hash(values: dict) -> str:
    canonical = json.dumps(_parameters(values), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


class OutputDir:
    """One output directory: each file renamed into place from ``.<name>.tmp``, so a
    file under its final name is complete, then an audited ``manifest.json``."""

    def __init__(self, out, values: dict):
        self.out = Path(out)
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "manifest.json").unlink(missing_ok=True)  # a failed rerun leaves no old one
        self.values = values
        self.parameters = _parameters(values)
        self.files: dict[str, str] = {}

    def _place(self, name: str, write, *args, **kwargs) -> Path:
        path, tmp = self.out / name, self.out / f".{name}.tmp"
        try:
            write(tmp, *args, **kwargs)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def write(self, name: str, write, *args, **kwargs) -> None:
        """Write ``name`` by ``write(path, *args, **kwargs)`` and record its checksum."""
        self.files[name] = _sha256(self._place(name, write, *args, **kwargs))

    def close(self) -> int:
        """Write ``manifest.json``, re-check every listed file; 0, or 2 on a mismatch."""
        manifest = {
            "config_hash": config_hash(self.values),
            "seed": self.values["seed"],
            "version": __version__,
            "parameters": self.parameters,
            "files": self.files,
        }
        self._place("manifest.json", Path.write_text,
                    json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        if all(_sha256(self.out / name) == digest for name, digest in self.files.items()):
            return 0
        print("manifest self-audit failed", file=sys.stderr)
        return 2


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _resume_point(out: Path, values: dict, cfg: SimConfig):
    """Chain state at the latest snapshot listed in ``out/manifest.json``, the
    ``samples.csv`` rows up to its step and the checksums of the run's
    snapshots; ``None`` when there is no snapshot to continue from."""
    manifest = out / "manifest.json"
    old = json.loads(manifest.read_text()) if manifest.exists() else {}
    snaps = sorted(name for name in old.get("files", {}) if name.startswith("snapshot_"))
    if not snaps:
        return None
    new = json.loads(json.dumps(_parameters(values)))
    for key in sorted(set(old["parameters"]) | set(new)):
        was, now = old["parameters"].get(key), new.get(key)
        if key != "t_end" and not key.startswith("audit.") and was != now:
            raise ConfigError(f"{out / snaps[-1]} was written with {key} = {was}; "
                              f"the config has {key} = {now}")
    step = int(snaps[-1][len("snapshot_"):-len(".snap")])
    if step > cfg.n_steps():
        raise ConfigError(f"{out / snaps[-1]} lies beyond t_end = {values['t_end']}")
    for name, digest in old["files"].items():
        if _sha256(out / name) != digest:
            raise ConfigError(f"{out / name} does not match its checksum in manifest.json")
    fld, _ = read_snapshot(out / snaps[-1])
    stream = NoiseStream(values["seed"], fld.grid)
    stream.counter = step
    with open(out / "samples.csv", newline="") as fh:
        rows = [row for row in list(csv.reader(fh))[1:] if int(row[0]) <= step]
    kept = {name: old["files"][name] for name in snaps}
    return ChainState(field=fld, step=step, stream=stream), rows, kept


def cmd_run(args) -> int:
    values = parse_config(args.config)
    cfg = sim_config(values)
    resume_state, rows, kept = None, [], {}
    if args.resume and (point := _resume_point(Path(args.out), values, cfg)):
        resume_state, rows, kept = point
    result = run_chain(cfg, resume_state=resume_state)
    out_dir = OutputDir(args.out, values)
    pairing = np.concatenate([[float(row[2]) for row in rows], result.pairing])
    if len(pairing) >= 8:
        # burn-in is operator-chosen; the autocorrelation time is logged for audit
        out_dir.parameters["audit.pairing_autocorr_time"] = integrated_autocorr_time(pairing)
    new_rows = ([row[0]] + [f"{v:.17g}" for v in row[1:]] for row in result.rows())
    out_dir.write("samples.csv", _write_csv, ["step", "time", "pairing", "V", "W", "c_alpha_norm"],
                  itertools.chain(rows, new_rows))
    out_dir.files.update(kept)
    for step_idx, fld in result.snapshots:
        out_dir.write(f"snapshot_{step_idx:08d}.snap", write_snapshot, fld, seed=values["seed"])
    for stale in out_dir.out.glob("snapshot_*.snap"):  # an earlier run's, unlisted now
        if stale.name not in out_dir.files:
            stale.unlink()
    if rc := out_dir.close():
        return rc
    print(f"run complete: {len(pairing)} records -> {out_dir.out}")
    return 0


def _collect_pairings(values: dict, beta: float, stream_id: int) -> SampleSet:
    values = {**values, "dynamics.beta": beta}
    _validate(values)
    cfg = sim_config(values, stream_id=stream_id)
    batch = BatchChain(cfg, n_chains=values["stats.n_chains"])
    batch.advance(values["stats.burn_steps"])
    records = batch.sample_pairings(values["stats.n_records"], values["stats.record_stride"])
    return SampleSet(records, seed=values["seed"], dt=cfg.dt,
                     burn_in=values["stats.burn_steps"], thinning=values["stats.record_stride"])


def _partition_suite(values: dict, p: TruncatedPotential, out_dir: OutputDir) -> tuple[dict, bool]:
    samples = _collect_pairings(values, beta=0.0, stream_id=1)
    est = estimate_partition(samples, p, values["observable.beta"])
    return {"estimate": est.__dict__}, est.reliable


def _tail_suite(values: dict, p: TruncatedPotential, out_dir: OutputDir) -> tuple[dict, bool]:
    samples = _collect_pairings(values, beta=0.0, stream_id=1)
    try:
        fit = tail_exponent(np.abs(samples.pooled()))
    except DegenerateSampleError as exc:
        return {"tail": {"error": str(exc)}}, False
    out_dir.write("survival.csv", _write_csv, ["K", "survival", "neg_log_survival"],
                  ([f"{k_val:.17g}", f"{math.exp(logp):.17g}", f"{-logp:.17g}"]
                   for k_val, logp in zip(fit.k_values, fit.log_survival)))
    return {"tail": {"slope": fit.slope, "stderr": fit.stderr,
                     "k_window": list(fit.k_window), "n_points": fit.n_points}}, True


def _density_suite(values: dict, p: TruncatedPotential, out_dir: OutputDir) -> tuple[dict, bool]:
    beta = values["observable.beta"]
    psi_samples = _collect_pairings(values, beta=beta, stream_id=2)  # validates the tilt first
    phi_samples = _collect_pairings(values, beta=0.0, stream_id=1)
    cross = density_cross_check(phi_samples, psi_samples, np.tanh, p, beta)
    return {"density": {
        "a": cross.a, "se_a": cross.se_a, "b": cross.b, "se_b": cross.se_b,
        "diff": cross.diff, "sigma": cross.sigma, "z": cross.z,
        "ess_a": cross.ess_a, "ess_b": cross.ess_b,
    }}, cross.z < 3.0


def _plateau_suite(values: dict, p: TruncatedPotential, out_dir: OutputDir) -> tuple[dict, bool]:
    samples = _collect_pairings(values, beta=0.0, stream_id=1)
    plateau = uniform_Z_plateau(samples, values["observable.beta"], values["stats.n_list"])
    return {"plateau": {
        "n_list": plateau.n_list,
        "z_hat": [e.z_hat for e in plateau.estimates],
        "ci": [[e.ci_lo, e.ci_hi] for e in plateau.estimates],
        "monotone_within_ci": plateau.monotone_within_ci,
        "plateau_ratio": plateau.plateau_ratio,
        "plateau_ok": plateau.plateau_ok,
    }}, plateau.plateau_ok and plateau.monotone_within_ci


# phi4 stats --suite: name -> function returning the report entries and whether they pass
STATS_SUITES = {
    "partition": _partition_suite,
    "tail": _tail_suite,
    "density": _density_suite,
    "plateau": _plateau_suite,
}


def cmd_stats(args) -> int:
    values = parse_config(args.config)
    out_dir = OutputDir(args.out, values)
    n = values["potential.n"]
    if n == math.inf:
        n = max(values["stats.n_list"])
    entries, ok = STATS_SUITES[args.suite](values, TruncatedPotential(n), out_dir)
    report = {"suite": args.suite, **entries}
    out_dir.write("stats.json", Path.write_text,
                  json.dumps(report, indent=2, default=float) + "\n")
    if rc := out_dir.close():
        return rc
    print(json.dumps(report, indent=2, default=float))
    return 0 if ok else 1


def _maxprinciple_suite(values: dict) -> tuple[dict, bool]:
    battery = max_principle_battery(
        d=values["grid.d"], L=values["grid.L"], N=values["grid.N"],
        seed=values["seed"], c_max=values["verify.c_max"], dt=values["dt"],
    )
    return battery.as_dict(), battery.passed


def _apriori_suite(values: dict) -> tuple[dict, bool]:
    battery = check_apriori(
        d=values["grid.d"], L=values["grid.L"], N=values["grid.N"],
        dt=values["dt"], R=values["verify.R"], kappa=values["verify.kappa"],
        seeds=tuple(range(values["verify.suite_seeds"])), c_max=values["verify.c_max"],
    )
    return battery.as_dict(), battery.passed


def _apriori_local_suite(values: dict) -> tuple[dict, bool]:
    battery = check_apriori_localised(
        d=values["grid.d"], L=values["grid.L"], N=values["grid.N"],
        dt=values["dt"], R=values["verify.R"], kappa=values["verify.kappa"],
        N_box=values["verify.n_box"], psi_radius=values["psi.radius"],
        seeds=tuple(range(values["verify.suite_seeds"])), c_max=values["verify.c_max"],
    )
    return battery.as_dict(), battery.passed


def _convergence_suite(values: dict) -> tuple[dict, bool]:
    conv = convergence_study(
        levels=values["verify.levels"], n_ref=values["verify.n_ref"],
        d=values["grid.d"], L=values["grid.L"], dt=values["dt"],
        t_end=values["t_end"], seed=values["seed"], kappa=values["verify.kappa"],
        quadratic=values["quadratic"],
    )
    return {
        "levels": list(conv.levels),
        "n_ref": conv.n_ref,
        "sup_proxy_distance": {str(k): v for k, v in conv.sup_proxy_distance.items()},
        "rms_observable_distance": {str(k): v for k, v in conv.rms_observable_distance.items()},
        "blown_up": list(conv.blown_up),
        "decreasing": conv.distances_decreasing(strict=False),
    }, conv.distances_decreasing(strict=False) and not conv.blown_up


def _initrate_suite(values: dict) -> tuple[dict, bool]:
    kappa = values["verify.kappa"]
    zeta = LacunaryFunction(alpha_prime=-0.5 - kappa / 2.0, seed=values["seed"])
    fit = init_discretisation_rate(zeta, kappa, values["verify.kappa_bar"],
                                   levels=values["verify.levels"])
    return {
        "levels": list(fit["levels"]),
        "norms": [float(v) for v in fit["norms"]],
        "slope": fit["slope"],
        "reference_slope": fit["reference_slope"],
    }, fit["slope"] >= fit["reference_slope"] - 0.1


# phi4 verify --suite: name -> function returning the report entry and whether it passes
VERIFY_SUITES = {
    "maxprinciple": _maxprinciple_suite,
    "apriori": _apriori_suite,
    "apriori-local": _apriori_local_suite,
    "convergence": _convergence_suite,
    "initrate": _initrate_suite,
}


def cmd_verify(args) -> int:
    values = parse_config(args.config)
    out_dir = OutputDir(args.out, values)
    entry, ok = VERIFY_SUITES[args.suite](values)
    report = {"suite": args.suite, "report": entry, "passed": ok}
    out_dir.write("verify.json", Path.write_text,
                  json.dumps(report, indent=2, default=float) + "\n")
    if rc := out_dir.close():
        return rc
    print(json.dumps({"suite": args.suite, "passed": ok}, indent=2))
    return 0 if ok else 1


def cmd_trees(args) -> int:
    values = parse_config(args.config)
    out_dir = OutputDir(args.out, values)
    grid = build_grid(values["grid.d"], values["grid.L"], values["grid.N"])
    ens = evolve_trees(
        grid,
        dt=values["dt"],
        n_steps=values["trees.n_steps"],
        m2=values["renorm.m2"],
        seed=values["seed"],
        mode=values["trees.mode"],
        store_every=values["trees.store_every"],
    )
    kernels = DyadicKernelFamily(grid, store_dt=values["dt"] * values["trees.store_every"])
    kappa = values["norm.kappa"]
    report = seminorm_report(ens, kernels, kappa)
    out_dir.write("trees.csv", _write_csv, ["tau", "kappa", "domain", "seminorm", "seed"],
                  ([tau, kappa, report.domain, f"{val:.17g}", values["seed"]]
                   for tau, val in report.values.items()))
    out_dir.write("kernels.json", Path.write_text, json.dumps(kernels.table(), indent=2) + "\n")
    if rc := out_dir.close():
        return rc
    print(f"tree seminorms written to {out_dir.out / 'trees.csv'}")
    return 0


def cmd_snapshot(args) -> int:
    fld, seed = read_snapshot(args.file)
    if args.action == "info":
        print(json.dumps({
            "d": fld.grid.d, "L": fld.grid.L, "N": fld.grid.N,
            "sites": fld.grid.n_sites, "time": fld.time, "seed": seed,
            "min": float(fld.values.min()), "max": float(fld.values.max()),
        }, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["index", "value"])
        for i, v in enumerate(fld.values.reshape(-1)):
            writer.writerow([i, f"{v:.17g}"])
    return 0


def orchestrate(args) -> int:
    """Dispatch a parsed command line; non-zero exit on any failed acceptance."""
    handlers = {
        "run": cmd_run,
        "stats": cmd_stats,
        "verify": cmd_verify,
        "trees": cmd_trees,
        "snapshot": cmd_snapshot,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - reported with context for the operator
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phi4", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one Langevin chain")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--resume", action="store_true")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=list(VERIFY_SUITES))
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", required=True)

    p_stats = sub.add_parser("stats", help="run a statistics suite")
    p_stats.add_argument("--suite", required=True, choices=list(STATS_SUITES))
    p_stats.add_argument("--config", required=True)
    p_stats.add_argument("--out", required=True)

    p_trees = sub.add_parser("trees", help="evolve the tree ensemble and report seminorms")
    p_trees.add_argument("--config", required=True)
    p_trees.add_argument("--out", required=True)

    p_snap = sub.add_parser("snapshot", help="inspect field snapshots")
    p_snap.add_argument("action", choices=["dump", "info"])
    p_snap.add_argument("--file", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

Each workload builds its fixed inputs in ``setup`` (untimed apart from
``setup_s``) and then runs *instances*: one instance is one complete,
self-checked execution of the workload from one instance seed.  Every call
into the program goes through a ``phi4lattice`` module attribute at call
time, so the tracer's rebinding reaches it.

An instance returns an :class:`Outcome`:

* ``ops`` / ``failed``: the workload's checked operations and how many of
  them failed (estimator verdicts, ``phi4`` invocations, battery entries,
  seed pairs);
* ``problems``: correctness checks that did not hold; these hold at any seed;
* ``values``: outputs pinned in ``reference.json`` for the default seed;
* ``ess`` and ``site_steps``: the numerators of ``ess_per_s`` and
  ``site_steps_per_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from phi4lattice import cli, dynamics, lattice, potential, stats, trees, verify


@dataclass
class Outcome:
    ops: int = 0
    failed: int = 0
    ess: float = 0.0
    site_steps: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def verdict(self, ok: bool) -> None:
        self.ops += 1
        self.failed += 0 if ok else 1


def _finite_nonneg(values) -> bool:
    arr = np.asarray(list(values), dtype=float)
    return bool(np.all(np.isfinite(arr)) and np.all(arr >= 0.0))


class StatsD2Batch:
    """Criterion 4/5 fixture pattern at benchmark length: two 48-chain d=2 ensembles."""

    name = "stats_d2_batch"
    N_CHAINS, BURN, N_RECORDS, STRIDE = 48, 300, 200, 2
    BETA, N_TRUNC, PLATEAU_BETA, N_LIST = 0.1, 3, 0.05, (1, 2, 4, 8, 16)
    # The standard errors come from 48 chain means, so z is roughly t with 47
    # degrees of freedom: a correct sampler exceeds 5 in about 1 of 100000
    # verdicts, but 3 (the acceptance threshold) in about 1 of 230, which the
    # hundreds of verdicts of one round of benchmark runs would hit by chance.
    Z_MAX = 5.0
    OBSERVABLES = {
        "tanh_sq": lambda x: np.tanh(x) ** 2,
        "cos2x": lambda x: np.cos(2.0 * x),
        "cauchy": lambda x: 1.0 / (1.0 + x**2),
    }

    def setup(self, workdir: Path) -> None:
        self.chain = dict(d=2, L=1.0, N=5, dt=0.02, integrator="split", psi_radius=0.3, t_end=1.0)
        self.grid = lattice.build_grid(2, 1.0, 5)
        self.p = potential.TruncatedPotential(self.N_TRUNC)

    def _ensemble(self, seed: int, stream_id: int, beta: float, out: Outcome):
        cfg = dynamics.SimConfig(seed=seed, stream_id=stream_id, beta=beta,
                                 potential_n=self.N_TRUNC if beta else math.inf, **self.chain)
        batch = dynamics.BatchChain(cfg, n_chains=self.N_CHAINS)
        batch.advance(self.BURN)
        recs = batch.sample_pairings(self.N_RECORDS, self.STRIDE)
        out.check(recs.shape == (self.N_CHAINS, self.N_RECORDS), f"records shape {recs.shape}")
        out.check(bool(np.all(np.isfinite(recs))), "non-finite pairing")
        out.check(float(recs.var()) > 0.0, "constant pairings")
        return stats.SampleSet(recs, seed=seed, dt=cfg.dt, burn_in=self.BURN, thinning=self.STRIDE)

    def instance(self, seed: int) -> Outcome:
        out = Outcome()
        base = self._ensemble(seed, 1, 0.0, out)
        tilted = self._ensemble(seed, 2, self.BETA, out)
        for name, g in self.OBSERVABLES.items():
            cross = stats.density_cross_check(base, tilted, g, self.p, self.BETA)
            out.check(all(math.isfinite(v) for v in (cross.a, cross.b, cross.z)),
                      f"{name}: non-finite cross-check")
            out.check(cross.se_a > 0 and cross.se_b > 0, f"{name}: zero standard error")
            out.verdict(cross.z < self.Z_MAX)
            out.values.update({f"{name}.a": cross.a, f"{name}.b": cross.b,
                               f"{name}.se_a": cross.se_a, f"{name}.se_b": cross.se_b})
        plateau = stats.uniform_Z_plateau(base, self.PLATEAU_BETA, self.N_LIST)
        z_hats = [e.z_hat for e in plateau.estimates]
        out.check(all(math.isfinite(z) and z >= 1.0 for z in z_hats), "Z_hat not finite or < 1")
        out.check(all(math.isfinite(e.ci_hi) and e.ci_lo <= e.ci_hi for e in plateau.estimates),
                  "bootstrap interval not finite or inverted")
        out.verdict(plateau.plateau_ok and plateau.monotone_within_ci)
        out.values.update({f"z_hat.{n}": z for n, z in zip(self.N_LIST, z_hats)})
        for tag, s in (("base", base), ("tilted", tilted)):
            out.values[f"{tag}.mean"] = float(s.values.mean())
            out.values[f"{tag}.var"] = float(s.values.var())
        out.ess = base.ess() + tilted.ess()
        out.check(math.isfinite(out.ess) and out.ess > 0, "ESS not positive")
        steps = self.BURN + self.N_RECORDS * self.STRIDE
        out.site_steps = 2 * self.N_CHAINS * self.grid.n_sites * steps
        return out


class CliRunD1:
    """``phi4 run`` on a d=1 chain with dense records, then ``phi4 snapshot info``."""

    name = "cli_run_d1"
    DT, T_END, BURN, THIN, SNAP = 0.005, 50.0, 1000, 2, 1000
    CONFIG = ("seed = {seed}\ngrid.d = 1\ngrid.N = 5\ndt = {dt}\nt_end = {t_end}\n"
              "burn_in = {burn}\nthinning = {thin}\nsnapshot_every = {snap}\n"
              "observable.beta = 0.1\n")

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.n_steps = int(round(self.T_END / self.DT))
        self.n_records = (self.n_steps - self.BURN) // self.THIN
        self.n_snaps = self.n_steps // self.SNAP
        self.grid = lattice.build_grid(1, 1.0, 5)

    @staticmethod
    def _phi4(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def instance(self, seed: int) -> Outcome:
        out = Outcome()
        run_dir = self.workdir / f"run-{seed}"
        shutil.rmtree(run_dir, ignore_errors=True)
        cfg_path = self.workdir / f"run-{seed}.cfg"
        cfg_path.write_text(self.CONFIG.format(seed=seed, dt=self.DT, t_end=self.T_END,
                                               burn=self.BURN, thin=self.THIN, snap=self.SNAP))
        rc, _ = self._phi4(["run", "--config", str(cfg_path), "--out", str(run_dir)])
        out.verdict(rc == 0)
        if rc != 0:
            out.problems.append(f"phi4 run exited {rc}")
            return out

        manifest = json.loads((run_dir / "manifest.json").read_text())
        snaps = sorted(run_dir.glob("snapshot_*.snap"))
        expected = {"samples.csv"} | {f"snapshot_{k * self.SNAP:08d}.snap"
                                      for k in range(1, self.n_snaps + 1)}
        out.check(set(manifest["files"]) == expected, "manifest lists the wrong files")
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            out.check(actual == digest, f"manifest checksum mismatch for {name}")
        out.check(manifest["seed"] == seed, "manifest seed")

        rows = np.loadtxt(run_dir / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
        out.check(rows.shape == (self.n_records, 6), f"samples.csv shape {rows.shape}")
        steps = self.BURN + self.THIN * np.arange(1, self.n_records + 1)
        out.check(rows.shape[0] == self.n_records and np.array_equal(rows[:, 0], steps),
                  "record steps")
        out.check(bool(np.all(np.isfinite(rows))), "non-finite record")
        out.check(_finite_nonneg(rows[:, 3:].reshape(-1)), "negative V, W or norm")

        info = {"min": math.nan, "max": math.nan}
        for path in snaps:
            rc, text = self._phi4(["snapshot", "info", "--file", str(path)])
            out.verdict(rc == 0)
            if rc != 0:
                out.problems.append(f"phi4 snapshot info exited {rc} on {path.name}")
                continue
            info = json.loads(text)
            step = int(path.stem.split("_")[1])
            fld, snap_seed = lattice.read_snapshot(path)
            out.check((info["d"], info["N"], info["sites"], info["seed"])
                      == (1, 5, self.grid.n_sites, seed), f"{path.name}: header")
            out.check(abs(info["time"] - step * self.DT) < 1e-9, f"{path.name}: time")
            out.check((info["min"], info["max"]) == (float(fld.values.min()), float(fld.values.max())),
                      f"{path.name}: info disagrees with the stored values")
            copy = self.workdir / "roundtrip.snap"
            lattice.write_snapshot(copy, fld, seed=snap_seed)
            out.check(copy.read_bytes() == path.read_bytes(), f"{path.name}: round trip")

        pairing = rows[:, 2]
        out.values = {
            "records": float(rows.shape[0]),
            "pairing.mean": float(pairing.mean()),
            "pairing.std": float(pairing.std()),
            "pairing.last": float(pairing[-1]),
            "W.mean": float(rows[:, 4].mean()),
            "c_alpha_norm.mean": float(rows[:, 5].mean()),
            "snapshot.last.min": info["min"],
            "snapshot.last.max": info["max"],
        }
        # The pairing tunnels between the wells on the scale of the whole run
        # (tau ~ 150 of 4500 records), so SampleSet.ess() of one run scatters by
        # tens of percent between seeds; each run's independent chain counts as
        # one sample instead.
        out.ess = 1.0
        out.site_steps = self.grid.n_sites * self.n_steps
        return out

    def cleanup(self, seed: int) -> None:
        shutil.rmtree(self.workdir / f"run-{seed}", ignore_errors=True)


class AprioriD3:
    """Global a priori bound battery, d=3 N=4, one seed and three magnitudes."""

    name = "apriori_d3"
    D, N, DT, R, KAPPA, MAGNITUDES = 3, 4, 1e-3, 0.5, 0.2, (1.0, 1e3, 1e6)

    def setup(self, workdir: Path) -> None:
        self.grid = lattice.build_grid(self.D, 1.0, self.N)

    def instance(self, seed: int) -> Outcome:
        out = Outcome()
        report = verify.check_apriori(d=self.D, N=self.N, dt=self.DT, R=self.R, kappa=self.KAPPA,
                                      magnitudes=self.MAGNITUDES, seeds=(seed,))
        out.check(len(report.entries) == len(self.MAGNITUDES), "one entry per magnitude")
        for e in report.entries:
            out.verdict(e["ratio"] <= report.c_max)
            out.check(_finite_nonneg([e["lhs"]]), f"lhs {e['lhs']}")
            out.check(math.isfinite(e["rhs"]) and e["rhs"] >= 1.0 / self.R, f"rhs {e['rhs']}")
            out.check(len(e["seminorms"]) == 8 and _finite_nonneg(e["seminorms"].values()),
                      "seminorms not finite and nonnegative")
            tag = f"m{e['magnitude']:g}"
            out.values[f"{tag}.lhs"] = e["lhs"]
            out.values[f"{tag}.rhs"] = e["rhs"]
            out.values.update({f"{tag}.[{tau}]": v for tau, v in e["seminorms"].items()})
        # one seed is one independent noise realisation of the battery
        out.ess = 1.0
        steps = int(round(1.0 / self.DT))  # check_apriori runs to t_end = 1
        # chain and tree ensemble each advance every site at every step
        out.site_steps = 2 * self.grid.n_sites * steps * len(self.MAGNITUDES)
        return out


class VolumePairD2:
    """Localised tree seminorms on a noise-coupled 64^2 / 128^2 torus pair."""

    name = "volume_pair_d2"
    D, N, L, DT, KAPPA, N_BOX = 2, 5, 2.0, 2e-3, 0.2, 0.45

    def setup(self, workdir: Path) -> None:
        self.grids = (lattice.build_grid(self.D, self.L, self.N),
                      lattice.build_grid(self.D, 2.0 * self.L, self.N))

    def instance(self, seed: int) -> Outcome:
        out = Outcome()
        res = verify.volume_pair_seminorms(seed, d=self.D, N=self.N, L=self.L, dt=self.DT,
                                           kappa=self.KAPPA, N_box=self.N_BOX)
        for tag in ("small", "large"):
            rep = res[tag]
            out.check(rep.domain == "localised", f"{tag}: domain {rep.domain}")
            out.check(set(rep.values) == set(trees.N_LEAVES) and _finite_nonneg(rep.values.values()),
                      f"{tag}: seminorms not finite and nonnegative")
            out.values.update({f"{tag}.[{t}]": v for t, v in rep.values.items()})
        # Criterion 11's per-seed ratio test is not a verdict that holds at any
        # seed (instance seed 101001 gives a tree-part ratio of 2.22 > 2), so
        # the seed pair counts as failed only when its outputs are invalid.
        out.verdict(not out.problems)
        out.ess = 1.0  # one seed pair is one independent sample
        steps = int(round(1.0 / self.DT))
        out.site_steps = sum(g.n_sites for g in self.grids) * steps
        return out


WORKLOADS = {w.name: w for w in (StatsD2Batch, CliRunD1, AprioriD3, VolumePairD2)}

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phi4lattice import cli
from phi4lattice.cli import (
    CONFIG_KEYS,
    ConfigError,
    config_hash,
    main,
    parse_config,
    sim_config,
)
from phi4lattice.dynamics import SimConfig


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


MINIMAL = """
# minimal d=1 configuration
seed = 7
grid.d = 1
grid.N = 4
dt = 0.01
t_end = 0.2
"""


class TestParseConfig:
    def test_minimal_defaults_filled(self, tmp_path):
        values = parse_config(write_config(tmp_path, MINIMAL))
        assert values["seed"] == 7
        assert values["grid.L"] == 1.0  # default
        assert values["potential.n"] == math.inf
        cfg = sim_config(values)
        assert cfg.dt == 0.01 and cfg.N == 4

    def test_chain_defaults_are_simconfig_defaults(self, tmp_path):
        assert sim_config(parse_config(write_config(tmp_path, ""))) == SimConfig()

    def test_unknown_key_suggestion(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "potental.n = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "potental.n" in str(err.value)
        assert "potential.n" in str(err.value)

    @pytest.mark.parametrize("key", ["renorm.c2_method = sum", "observable.kind = V",
                                     "noise.kind = counter_rng"])
    def test_removed_keys_are_unknown(self, tmp_path, key):
        path = write_config(tmp_path, MINIMAL + key + "\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_cfl_violation_named(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "integrator = explicit\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "CFL" in str(err.value)

    def test_bad_value(self, tmp_path):
        path = write_config(tmp_path, "seed = notanint\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_hash_stable_under_comments(self, tmp_path):
        a = parse_config(write_config(tmp_path, MINIMAL))
        b = parse_config(write_config(tmp_path, "# a comment\n" + MINIMAL))
        assert config_hash(a) == config_hash(b)


class TestRunCommand:
    def test_run_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "snapshot_every = 10\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert "samples.csv" in manifest["files"]
        assert manifest["seed"] == 7

    def test_manifest_checksums_match(self, tmp_path):
        import hashlib

        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    @settings(max_examples=8, deadline=None)
    @example(first_steps=10)
    @given(first_steps=st.integers(min_value=1, max_value=20))
    def test_resume_reproduces_full_run(self, tmp_path_factory, first_steps):
        # run to an earlier horizon, then resume to the full one: every file,
        # manifest.json included, must match an uninterrupted run
        tmp = tmp_path_factory.mktemp("resume")
        full_cfg = write_config(tmp, MINIMAL + "snapshot_every = 10\n")
        out_full, out_res = tmp / "full", tmp / "resumed"
        assert main(["run", "--config", str(full_cfg), "--out", str(out_full)]) == 0
        first = tmp / "first.cfg"
        first.write_text(MINIMAL.replace("t_end = 0.2", f"t_end = {first_steps / 100}")
                         + "snapshot_every = 10\n")
        assert main(["run", "--config", str(first), "--out", str(out_res)]) == 0
        assert main(["run", "--config", str(full_cfg), "--out", str(out_res), "--resume"]) == 0
        assert ({p.name: p.read_bytes() for p in out_res.iterdir()}
                == {p.name: p.read_bytes() for p in out_full.iterdir()})

    @pytest.mark.parametrize("change", ["seed = 8", "grid.N = 5", "dt = 0.005", "t_end = 0.1"])
    def test_resume_refuses_mismatched_snapshot(self, tmp_path, capsys, change):
        cfg = write_config(tmp_path, MINIMAL + "snapshot_every = 10\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        other = tmp_path / "other.cfg"
        other.write_text(MINIMAL + "snapshot_every = 10\n" + change + "\n")
        assert main(["run", "--config", str(other), "--out", str(out), "--resume"]) == 2
        assert "snapshot_00000020.snap" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_refuses_altered_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL + "snapshot_every = 10\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "snapshot_00000010.snap").write_bytes(b"PHI4")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["run", "--config", str(cfg), "--out", str(out), "--resume"]) == 2
        assert "snapshot_00000010.snap" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        def broken_write(path, fld, seed):
            Path(path).write_bytes(b"PHI4")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_snapshot", broken_write)
        cfg = write_config(tmp_path, MINIMAL + "snapshot_every = 10\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["samples.csv"]

    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, MINIMAL + "snapshot_every = 10\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()

        def broken_write(path, fld, seed):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_snapshot", broken_write)
        cfg.write_text(MINIMAL.replace("t_end = 0.2", "t_end = 0.3") + "snapshot_every = 10\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not (out / "manifest.json").exists()

    def test_rerun_removes_unlisted_snapshots(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, MINIMAL + "snapshot_every = 5\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        cfg.write_text(MINIMAL + "snapshot_every = 10\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["files"],
                                                                "manifest.json"])
        assert "snapshot_00000005.snap" not in manifest["files"]

    def test_audit_detects_altered_file(self, tmp_path, monkeypatch, capsys):
        close = cli.OutputDir.close

        def altering_close(self):
            (self.out / "samples.csv").write_text("altered\n")
            return close(self)

        monkeypatch.setattr(cli.OutputDir, "close", altering_close)
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_config(tmp_path, MINIMAL)),
                     "--out", str(out)]) == 2
        assert "manifest self-audit failed" in capsys.readouterr().err

    def test_d3_fine_grid_runs(self, tmp_path):
        # 32^3 sites: the sunset constant of this grid is built on every d=3 run
        cfg = write_config(tmp_path, "seed = 3\ngrid.d = 3\ngrid.N = 5\nintegrator = split\n"
                           "dt = 0.0005\nt_end = 0.001\n")
        out = tmp_path / "d3"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["grid.N"] == 5

    def test_blow_up_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "seed = 1\ngrid.d = 1\ngrid.N = 4\ndt = 0.9\nt_end = 45.0\ndynamics.beta = 0.0\n",
        )
        out = tmp_path / "boom"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1


class TestSnapshotCommand:
    def test_info_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL + "snapshot_every = 10\n")
        out = tmp_path / "o"
        main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        snap = sorted(out.glob("snapshot_*.snap"))[0]
        assert main(["snapshot", "info", "--file", str(snap)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["d"] == 1 and info["N"] == 4 and info["seed"] == 7

    def test_dump(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL + "snapshot_every = 20\n")
        out = tmp_path / "o"
        main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        snap = sorted(out.glob("snapshot_*.snap"))[0]
        assert main(["snapshot", "dump", "--file", str(snap)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("index") and len(lines) == 17


class TestSuites:
    def test_verify_initrate_suite(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "verify.levels = 3,4,5\n")
        out = tmp_path / "v"
        rc = main(["verify", "--suite", "initrate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True

    def test_verify_maxprinciple_suite(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "verify.c_max = 2.0\ndt = 0.002\n")
        out = tmp_path / "v"
        rc = main(["verify", "--suite", "maxprinciple", "--config", str(cfg), "--out", str(out)])
        assert rc == 0

    def test_stats_plateau_suite(self, tmp_path):
        cfg = write_config(
            tmp_path,
            MINIMAL
            + "observable.beta = 0.02\nstats.n_chains = 16\nstats.n_records = 200\n"
            + "stats.record_stride = 5\nstats.burn_steps = 200\nstats.n_list = 1,2,4\n",
        )
        out = tmp_path / "s"
        rc = main(["stats", "--suite", "plateau", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "stats.json").read_text())
        assert report["plateau"]["plateau_ok"] is True

    def test_stats_tail_too_small_sample(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "stats.n_chains = 2\nstats.n_records = 20\n"
                           "stats.burn_steps = 20\n")
        out = tmp_path / "s"
        assert main(["stats", "--suite", "tail", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error" in json.loads((out / "stats.json").read_text())["tail"]
        assert (out / "manifest.json").exists()

    def test_stats_tail_coding_error_is_no_verdict(self, tmp_path, monkeypatch, capsys):
        def broken_fit(samples):
            raise TypeError("broken fit")

        monkeypatch.setattr(cli, "tail_exponent", broken_fit)
        cfg = write_config(tmp_path, MINIMAL + "stats.n_chains = 2\nstats.n_records = 20\n"
                           "stats.burn_steps = 20\n")
        out = tmp_path / "s"
        assert main(["stats", "--suite", "tail", "--config", str(cfg), "--out", str(out)]) == 1
        assert "stats failed" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_trees_suite(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "trees.n_steps = 100\n")
        out = tmp_path / "t"
        rc = main(["trees", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = (out / "trees.csv").read_text().strip().splitlines()
        assert rows[0] == "tau,kappa,domain,seminorm,seed"
        assert len(rows) == 9
        kernels = json.loads((out / "kernels.json").read_text())
        assert all(abs(k["spatial_sum"] - 1.0) < 1e-12 for k in kernels)

    def test_quadratic_tilt_rejected(self, tmp_path):
        # the quadratic test mode has no tilt drift, while V and W would still scale by beta
        cfg = write_config(tmp_path, MINIMAL + "quadratic = true\ndynamics.beta = 0.5\n")
        with pytest.raises(ConfigError, match="beta"):
            parse_config(cfg)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "q")]) == 2
        # phi4 stats applies observable.beta as the tilt of its second ensemble
        cfg = write_config(tmp_path, MINIMAL + "quadratic = true\nstats.n_chains = 2\n"
                           "stats.n_records = 10\nstats.record_stride = 1\nstats.burn_steps = 10\n")
        assert main(["stats", "--suite", "density", "--config", str(cfg),
                     "--out", str(tmp_path / "s")]) == 2

    def test_trees_store_every_below_one_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL + "trees.n_steps = 10\ntrees.store_every = 0\n")
        assert main(["trees", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 1
        assert "store_every must be >= 1" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "bogus.key = 1\n")
        out = tmp_path / "x"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2

    def test_coding_error_in_validation_is_no_config_error(self, tmp_path, monkeypatch, capsys):
        def broken(self):
            raise TypeError("broken validation")

        bad = write_config(tmp_path, MINIMAL + "dt = -0.01\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "b")]) == 2
        assert "config error" in capsys.readouterr().err
        monkeypatch.setattr(SimConfig, "validate", broken)
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "config error" not in err and "broken validation" in err

    def test_apriori_suite_two_seeds(self, tmp_path):
        cfg = write_config(
            tmp_path,
            MINIMAL + "verify.suite_seeds = 2\nverify.R = 0.5\nverify.c_max = 20.0\n",
        )
        out = tmp_path / "v"
        rc = main(["verify", "--suite", "apriori", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "verify.json").read_text())
        entries = report["report"]["entries"]
        assert [(e["seed"], e["magnitude"]) for e in entries] == [
            (s, m) for s in (0, 1) for m in (1.0, 1e3, 1e6)]

    def test_run_logs_autocorr_audit(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL.replace("t_end = 0.2", "t_end = 2.0")
                           + "thinning = 2\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["audit.pairing_autocorr_time"] >= 0.5

#!/usr/bin/env python3
"""Small end-to-end demo: run a d=1 chain, print summary statistics.

Writes samples.csv, snapshots and a manifest into ./demo_out (ignored by
git when run from the repository root), then re-estimates the partition
function from the recorded pairings.
"""

import math
from pathlib import Path

import numpy as np

from phi4lattice.cli import main
from phi4lattice.potential import TruncatedPotential
from phi4lattice.stats import SampleSet, estimate_partition

CONFIG = """\
seed = 12
grid.d = 1
grid.N = 5
dt = 0.005
t_end = 50.0
burn_in = 2000
thinning = 10
snapshot_every = 5000
observable.beta = 0.1
"""

if __name__ == "__main__":
    out = Path("demo_out")
    out.mkdir(exist_ok=True)
    cfg_path = out / "demo.cfg"
    cfg_path.write_text(CONFIG)
    rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
    if rc != 0:
        raise SystemExit(rc)
    rows = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
    pairings = SampleSet(rows[:, 2], seed=12)
    est = estimate_partition(pairings, TruncatedPotential(4), beta=0.1)
    print(f"records: {len(rows)}  ESS: {pairings.ess():.0f}")
    print(f"pairing mean {rows[:, 2].mean():+.4f}, std {rows[:, 2].std():.4f}")
    print(f"Z_hat(n=4, beta=0.1) = {est.z_hat:.6f}  CI [{est.ci_lo:.6f}, {est.ci_hi:.6f}]")

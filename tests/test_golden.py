"""Golden trajectories: short seeded runs compared with pinned outputs.

The determinism tests elsewhere compare two runs of the same code, so a
refactor that drifts semantics passes them.  These cases compare against
values stored in ``golden.json`` instead, at relative tolerance 1e-12 (with
an absolute floor of 1e-12 times the largest pinned magnitude of the same
output, for entries that are round-off zeros).  Every integrator, both tree
modes, chain co-evolution, the a priori batteries, the volume pair and the
linear batteries are covered; the whole file runs in well under a second.

``--update`` pins the cases that ``golden.json`` does not hold yet and
leaves every pinned case as it is.  Re-pin a case (delete its entry, then
update) only when a change of results is intended, and say why in the
change log::

    PYTHONPATH=src python tests/test_golden.py --update
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from phi4lattice.dynamics import BatchChain, SimConfig, run_chain
from phi4lattice.lattice import BoxRegion, Field, build_grid
from phi4lattice.noise import NoiseStream, coarsen
from phi4lattice.trees import DyadicKernelFamily, evolve_trees, evolve_with_chain, seminorm_report
from phi4lattice.verify import (
    check_apriori,
    check_apriori_localised,
    coming_down_check,
    convergence_study,
    gaussian_covariance_battery,
    volume_pair_seminorms,
)

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-12


def _profile(grid, magnitude):
    coords = grid.site_coords()
    return Field(grid, magnitude * np.cos(2.0 * np.pi * np.sum(coords, axis=-1) / grid.L))


def _run_chain(integrator, d):
    cfg = SimConfig(d=d, N=3, dt=0.002, t_end=0.02, integrator=integrator, seed=11,
                    beta=0.5, potential_n=3, burn_in=2, thinning=2)
    res = run_chain(cfg, initial=_profile(cfg.grid(), 2.0))
    return {
        "final": res.final_state.field.values,
        "pairing": res.pairing,
        "V": res.v_obs,
        "W": res.w_obs,
        "c_alpha_norm": res.c_alpha_norm,
    }


def _run_chain_records(integrator, d, N, dt, n_steps):
    # long enough that the records fill whole blocks of the recorder and a partial last one
    cfg = SimConfig(d=d, N=N, dt=dt, t_end=n_steps * dt, integrator=integrator, seed=13,
                    beta=0.5, potential_n=3, burn_in=4, thinning=2)
    res = run_chain(cfg, initial=_profile(cfg.grid(), 2.0))
    return {
        "steps": res.steps,
        "pairing": res.pairing,
        "V": res.v_obs,
        "W": res.w_obs,
        "c_alpha_norm": res.c_alpha_norm,
    }


def _batch_exact_gaussian():
    cfg = SimConfig(d=2, N=2, dt=0.1, t_end=1.0, integrator="exact_gaussian",
                    quadratic=True, seed=3)
    batch = BatchChain(cfg, 3, stationary_start=True)
    start = batch.values.copy()
    batch.advance(4)
    return {"start": start, "final": batch.values, "pairings": batch.pairings()}


def _batch_tilted(integrator, d, N, n_chains, dt, psi_radius, beta, start=None):
    cfg = SimConfig(d=d, N=N, dt=dt, t_end=1.0, integrator=integrator, seed=8, stream_id=2,
                    beta=beta, potential_n=3, psi_radius=psi_radius)
    batch = BatchChain(cfg, n_chains)
    if start is not None:
        batch.values = np.multiply.outer(start, np.ones(cfg.grid().shape))
    pairings = batch.sample_pairings(4, 10)
    spatial = tuple(range(1, d + 1))
    subsample = (slice(None),) + (slice(None, None, 4 if N > 3 else 2),) * d
    return {"pairings": pairings, "sites": batch.values[subsample],
            "sum": batch.values.sum(axis=spatial), "sum_sq": (batch.values**2).sum(axis=spatial)}


def _ensemble(ens):
    out = {f"tree{k}": v for k, v in ens.stored.items()}
    out["times"] = ens.times
    return out


def _trees_imex():
    ens = evolve_trees(build_grid(1, 1.0, 3), dt=0.05, n_steps=6, seed=5, store_every=2,
                       noise_amplitude=0.7)
    return _ensemble(ens)


def _trees_exact():
    ens = evolve_trees(build_grid(2, 1.0, 2), dt=0.05, n_steps=6, seed=6, mode="exact",
                       store_every=3, noise_amplitude=0.7)
    return _ensemble(ens)


def _trees_initial():
    g = build_grid(1, 1.0, 3)
    ens = evolve_trees(g, dt=0.05, n_steps=4, seed=7, store_every=1,
                       initial_tree1=_profile(g, 1.5).values)
    return _ensemble(ens)


def _with_chain():
    cfg = SimConfig(d=1, N=3, dt=0.01, t_end=0.06, integrator="split", seed=2,
                    beta=0.5, potential_n=3)
    ens, u_stored = evolve_with_chain(cfg, _profile(cfg.grid(), 10.0), store_every=2,
                                      noise_amplitude=0.8)
    out = _ensemble(ens)
    out["u"] = u_stored
    return out


def _volume_pair():
    res = volume_pair_seminorms(4, d=2, N=3, dt=0.02)
    return {f"{tag}[{tau}]": v for tag, rep in res.items() for tau, v in rep.values.items()}


def _seminorms_wide_time():
    # storage step 3e-4: the time kernels of the two coarsest scales have 17 and 5 taps,
    # none of them zero, so every tap and the time padding reach the pinned values
    grid = build_grid(2, 1.0, 3)
    ens = evolve_trees(grid, dt=3e-4, n_steps=120, seed=4, store_every=1)
    kernels = DyadicKernelFamily(grid, store_dt=3e-4)
    out = {"time_points": [entry["time_points"] for entry in kernels.table()]}
    for tag, box in (("full", None), ("box", BoxRegion((-0.3, -0.2), (0.25, 0.4)))):
        rep = seminorm_report(ens, kernels, 0.2, domain=box)
        out.update({f"{tag}[{tau}]": v for tau, v in rep.values.items()})
    return out


def _bound_entries(report):
    out = {}
    for e in report.entries:
        tag = f"s{e['seed']}m{e['magnitude']:g}"
        out[f"{tag}.lhs"] = e["lhs"]
        out[f"{tag}.rhs"] = e["rhs"]
        out.update({f"{tag}[{tau}]": v for tau, v in e["seminorms"].items()})
    return out


def _apriori(d, N):
    return _bound_entries(check_apriori(d=d, N=N, dt=0.01, R=0.5, magnitudes=(1.0, 1e3, 1e6),
                                        seeds=(0, 1), store_every=2))


def _apriori_localised():
    return _bound_entries(check_apriori_localised(d=2, N=3, dt=0.01, magnitudes=(1.0, 1e3, 1e6),
                                                  seeds=(0, 1), store_every=2))


def _coming_down():
    res = coming_down_check(d=1, L=1.0, N=3, dt=0.01, t_snapshot=0.1,
                            magnitudes=(1.0, 1e3, 1e6), seed=6)
    return {f"norm[{m:g}]": v for m, v in res["norms"].items()}


def _convergence():
    rep = convergence_study(levels=(2, 3), n_ref=4, dt=0.002, t_end=0.04, seed=1,
                            record_every=4)
    out = {f"sup[{n}]": v for n, v in rep.sup_proxy_distance.items()}
    out.update({f"rms[{n}]": v for n, v in rep.rms_observable_distance.items()})
    return out


def _covariance():
    res = gaussian_covariance_battery(d=2, N=2, n_chains=4, n_records=5, dt=0.5, seed=9)
    return {k: res[k] for k in ("z", "orbit_mean", "orbit_target", "ess")}


def _coarsen():
    inc = NoiseStream(3, build_grid(2, 1.0, 4)).draw(0.01)
    return {f"levels{k}": coarsen(inc, levels=k) for k in (1, 2)}


CASES = {
    **{f"run_chain_{i}_d{d}": (lambda i=i, d=d: _run_chain(i, d))
       for i in ("imex", "split", "explicit") for d in (1, 2)},
    # 550 records of 32 sites, 150 records of 64 sites
    "run_chain_records_d1": lambda: _run_chain_records("split", 1, 5, 0.001, 1104),
    "run_chain_records_d2": lambda: _run_chain_records("imex", 2, 3, 0.002, 304),
    "batch_exact_gaussian": _batch_exact_gaussian,
    # the stats_d2_batch tilted ensemble, shortened: 8 chains, 40 steps
    "batch_split_tilted_d2": lambda: _batch_tilted("split", 2, 5, 8, 0.02, 0.3, 0.1),
    "batch_imex_tilted_d3": lambda: _batch_tilted("imex", 3, 3, 4, 0.002, 0.35, 0.5,
                                                  start=np.array([0.0, 1.0, -2.0, 3.0])),
    "trees_imex": _trees_imex,
    "trees_exact": _trees_exact,
    "trees_initial": _trees_initial,
    "evolve_with_chain": _with_chain,
    "volume_pair": _volume_pair,
    "seminorms_wide_time": _seminorms_wide_time,
    "apriori_d1": lambda: _apriori(1, 3),
    "apriori_d3": lambda: _apriori(3, 2),
    "apriori_localised": _apriori_localised,
    "coming_down": _coming_down,
    "convergence": _convergence,
    "covariance": _covariance,
    "coarsen": _coarsen,
}


def _as_lists(outputs: dict) -> dict:
    return {k: np.asarray(v, dtype=float).tolist() for k, v in outputs.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, golden):
    got = CASES[case]()
    want = golden[case]
    assert sorted(got) == sorted(want)
    for key, pinned in want.items():
        pinned = np.asarray(pinned, dtype=float)
        have = np.asarray(got[key], dtype=float)
        assert have.shape == pinned.shape, f"{case}.{key}: shape {have.shape} != {pinned.shape}"
        scale = float(np.max(np.abs(pinned), initial=0.0))
        np.testing.assert_allclose(have, pinned, rtol=RTOL, atol=RTOL * scale,
                                   err_msg=f"{case}.{key}")


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert all(math.isfinite(x) for case in golden.values() for v in case.values()
               for x in np.ravel(v))


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {name: _as_lists(fn()) for name, fn in sorted(CASES.items()) if name not in pinned}
    GOLDEN.write_text(json.dumps({**pinned, **new}, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(new)} new cases in {GOLDEN}: {', '.join(new) or 'none'}")

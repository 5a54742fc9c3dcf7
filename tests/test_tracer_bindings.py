"""The traced benchmark run must keep reaching the code it measures.

``bench/tracer.py`` wraps named functions and the ``numpy.fft`` transforms
and refuses to run when a span target no longer binds.  A refactor that
renames a target, or caches a transform where the hook cannot see it,
would make the traced run fail; this test catches that in the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
from tracer import Tracer
from phi4lattice import dynamics, noise, lattice, potential, renorm, trees

# built before install, as a propagator kept across traced and untraced runs would be
batch = dynamics.BatchChain(dynamics.SimConfig(d=2, N=2, dt=0.01, integrator="imex"), 2)
# 16 chains of 32x32 sites: each draw is above the noise prefetch size
big = dynamics.BatchChain(dynamics.SimConfig(d=2, N=5, dt=0.01, integrator="imex"), 16)
assert big.values.size >= noise._PREFETCH_MIN
tracer = Tracer()
tracer.install()
batch.advance(3)
big.advance(4)
stepped = tracer.metrics()
inc = noise.NoiseStream(0, lattice.build_grid(2, 1.0, 3)).draw(0.01)
noise.coarsen(inc)
renorm.compute_c2(lattice.build_grid(3, 1.0, 2))
grid = lattice.build_grid(2, 1.0, 3)
values = batch.values[0].repeat(2, 0).repeat(2, 1)
trees.holder_norm_neg(values, grid, -0.7)
potential.sobolev_norm_sq(values, grid, 0.6)
trees.DyadicKernelFamily(grid, store_dt=0.01).convolve(values[None])
print(json.dumps({"bindings": tracer.bindings, "metrics": tracer.metrics(), "stepped": stepped}))
"""


def test_every_span_target_binds():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    bindings = report["bindings"]
    assert all(n > 0 for n in bindings.values()), bindings
    for target in ("dynamics._Stepper.advance", "trees.evolve_trees", "trees.evolve_with_chain",
                   "verify.volume_pair_seminorms", "noise.coarsen"):
        assert bindings[target] > 0, target
    # one noise span and one step count per batch draw, also when the draw was prefetched
    stepped = report["stepped"]
    assert stepped["noise.calls"] == 3 + 4
    assert stepped["noise.values"] == 3 * 2 * 4**2 + 4 * 16 * 32**2
    assert stepped["dynamics.steps"] == 2 * 3 + 16 * 4
    metrics = report["metrics"]
    # _Stepper.advance reads stepper.grid; the propagator's transforms reach the FFT hook
    assert metrics["dynamics.steps"] == 2 * 3 + 16 * 4
    assert metrics["dynamics.fft_calls"] > 0
    assert metrics["noise.calls"] > 0
    # the sunset sums are FFT convolutions; their transforms must reach the hook too
    assert metrics["renorm.c2_calls"] >= 1
    assert metrics["renorm.fft_calls"] > 0
    # the observables' shared transforms are charged to the layers that call them
    assert metrics["trees.holder_calls"] == 1 and metrics["trees.convolve_calls"] == 1
    assert metrics["trees.fft_calls"] > 0
    assert metrics["potential.fft_calls"] > 0

"""Layer spans and counters for the traced benchmark run.

A layer is one ``phi4lattice`` module.  :meth:`Tracer.install` wraps the
public functions listed in :data:`SPANS` and replaces *every* binding of each
wrapped function object: the module attribute, each ``from .x import f``
copy in another module's namespace, and class attributes (including
classmethods and aliases such as ``TruncatedPotential.__call__``).  Imports
that run at call time (``dynamics._holder_proxy``,
``verify.volume_pair_seminorms``) read the patched module attribute, so they
are covered too.  Nothing in ``src/`` changes.

Self time: a span's duration minus the time covered by child spans of other
layers.  A span opened while the innermost open span belongs to the same
layer merges into it, so the layer self times of one top-level call add up
to its duration and never exceed the wall time around it.

FFT accounting hooks the eight ``numpy.fft`` / ``scipy.fft`` transforms and
charges the call and its computed input+output bytes to the innermost open
layer span ("none" outside every span).
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import importlib
import inspect
import io
import sys
import time

LAYERS = ("lattice", "noise", "renorm", "potential", "dynamics", "trees", "stats", "verify", "cli")

# Wrapped callables per layer, by qualified name inside the layer's module.
# dynamics also spans ``_Stepper.advance``: it is the step kernel that
# ``trees.evolve_with_chain`` drives directly, so without it the chain steps
# of apriori_d3 would be charged to trees.
SPANS = {
    "noise": ("NoiseStream.standard_normals", "NoiseStream.draw", "draw_increment", "coarsen"),
    "dynamics": ("step", "run_chain", "BatchChain.__init__", "BatchChain.advance",
                 "BatchChain.pairings", "BatchChain.sample_pairings", "_Stepper.advance"),
    "lattice": ("build_grid", "mu_symbol", "laplacian", "weighted_pairing",
                "sample_test_function", "project", "iota_refine", "BoxRegion.mask",
                "write_snapshot", "read_snapshot"),
    "potential": ("TruncatedPotential.value", "TruncatedPotential.deriv", "sobolev_norm_sq"),
    "renorm": ("compute_c1", "compute_c2", "c2_discrete_time", "RenormConstants.for_grid"),
    "trees": ("evolve_trees", "evolve_with_chain", "seminorm_report", "seminorm",
              "holder_norm_neg", "holder_seminorm_one", "DyadicKernelFamily.__init__",
              "DyadicKernelFamily.convolve"),
    "stats": ("integrated_autocorr_time", "SampleSet.ess", "SampleSet.mean_and_se",
              "moving_block_bootstrap", "estimate_partition", "density_cross_check",
              "uniform_Z_plateau"),
    "verify": ("check_apriori", "volume_pair_seminorms"),
    "cli": ("main",),
}

FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")

# Extra counters, each reported per instance beside the four per-layer ones.
COUNTERS = (
    "noise.values",
    "dynamics.steps",
    "lattice.field_allocs",
    "renorm.c2_calls",
    "trees.convolve_calls",
    "trees.holder_calls",
    "stats.bootstrap_reps",
    "cli.bytes_written",
    "cli.bytes_read",
    "cli.files_written",
)


def metric_names() -> list[str]:
    """Every per-layer metric name a traced run reports, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s", f"{layer}.fft_calls", f"{layer}.fft_bytes"]
    names += list(COUNTERS)
    names += ["renorm.c2_unique_ratio", "trees.convolve_unique_ratio",
              "trace.wall_s", "trace.overhead_frac"]
    return names


def _fingerprint(arr) -> tuple:
    """Content key of an array from its shape and ~4k evenly spaced entries."""
    import numpy as np

    arr = np.asarray(arr)
    flat = arr.reshape(-1)
    sample = np.ascontiguousarray(flat[:: max(1, flat.size // 4096)])
    return arr.shape, hashlib.blake2b(sample.tobytes(), digest_size=16).digest()


class _CountingFile:
    """File proxy that adds the bytes it reads and writes to the cli counters."""

    def __init__(self, fh, counts: dict):
        self._fh = fh
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __iter__(self):
        for line in self._fh:
            self._counts["cli.bytes_read"] += len(line)
            yield line

    def read(self, *args):
        data = self._fh.read(*args)
        self._counts["cli.bytes_read"] += len(data)
        return data

    def readline(self, *args):
        data = self._fh.readline(*args)
        self._counts["cli.bytes_read"] += len(data)
        return data

    def write(self, data):
        self._counts["cli.bytes_written"] += len(data)
        return self._fh.write(data)


class Tracer:
    """Span and counter state of one traced worker process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open frames: [layer, seconds covered by child frames]
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.fft_calls = dict.fromkeys(LAYERS + ("none",), 0)
        self.fft_bytes = dict.fromkeys(LAYERS + ("none",), 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.fn_calls: dict[str, int] = {}
        self.bindings: dict[str, int] = {}
        self._c2_keys: set = set()
        self._convolve_keys: set = set()
        self._cli_depth = 0

    # -- state -------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter in place (the wrappers hold these dicts)."""
        for table in (self.calls, self.fft_calls, self.fft_bytes, self.counts, self.fn_calls):
            for key in table:
                table[key] = 0
        for key in self.self_s:
            self.self_s[key] = 0.0
        self._c2_keys.clear()
        self._convolve_keys.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last :meth:`reset`."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.fft_calls"] = self.fft_calls[layer]
            out[f"{layer}.fft_bytes"] = self.fft_bytes[layer]
        fn = self.fn_calls
        self.counts["renorm.c2_calls"] = c2 = fn["compute_c2"] + fn["c2_discrete_time"]
        self.counts["trees.convolve_calls"] = conv = fn["DyadicKernelFamily.convolve"]
        self.counts["trees.holder_calls"] = fn["holder_norm_neg"]
        out.update(self.counts)
        out["renorm.c2_unique_ratio"] = len(self._c2_keys) / c2 if c2 else 0.0
        out["trees.convolve_unique_ratio"] = len(self._convolve_keys) / conv if conv else 0.0
        return out

    # -- wrapping ----------------------------------------------------------

    def _span(self, layer: str, name: str, fn, pre=None, post=None):
        calls, fn_calls, self_s, stack = self.calls, self.fn_calls, self.self_s, self.stack
        fn_calls[name] = 0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            fn_calls[name] += 1
            if pre is not None:
                pre(args, kwargs)
            if stack and stack[-1][0] == layer:
                out = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    self_s[layer] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if post is not None:
                post(out, args, kwargs)
            return out

        return functools.update_wrapper(wrapper, fn)

    def _hooks(self, layer: str, name: str):
        """Counter hooks (pre, post) for the functions that feed extra metrics."""
        counts = self.counts
        if name == "NoiseStream.standard_normals":
            def post(out, args, kwargs):
                counts["noise.values"] += out.size
            return None, post
        if name == "_Stepper.advance":
            def pre(args, kwargs):
                stepper, values = args[0], args[1]
                counts["dynamics.steps"] += values.size // stepper.grid.n_sites
            return pre, None
        if name in ("compute_c2", "c2_discrete_time"):
            keys = self._c2_keys
            signature = inspect.signature(getattr(importlib.import_module("phi4lattice.renorm"), name))

            def pre(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.add((name,) + tuple(bound.arguments.items()))
            return pre, None
        if name == "DyadicKernelFamily.convolve":
            keys = self._convolve_keys

            def pre(args, kwargs):
                keys.add(_fingerprint(args[1] if len(args) > 1 else kwargs["arr"]))
            return pre, None
        if name == "moving_block_bootstrap":
            def post(out, args, kwargs):
                counts["stats.bootstrap_reps"] += len(out)
            return None, post
        if layer == "cli":
            tracer = self

            def pre(args, kwargs):
                tracer._cli_depth += 1

            def post(out, args, kwargs):
                tracer._cli_depth -= 1
            return pre, post
        return None, None

    def _replace_everywhere(self, original, replacement) -> int:
        """Rebind ``original`` to ``replacement`` in every phi4lattice namespace."""
        n = 0
        seen: set[int] = set()
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "phi4lattice" or modname.startswith("phi4lattice.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)
                    n += 1
                elif isinstance(val, type) and id(val) not in seen and \
                        getattr(val, "__module__", "").startswith("phi4lattice"):
                    seen.add(id(val))
                    n += self._replace_in_class(val, original, replacement)
        return n

    @staticmethod
    def _replace_in_class(cls, original, replacement) -> int:
        n = 0
        for key, val in list(vars(cls).items()):
            if val is original:
                setattr(cls, key, replacement)
                n += 1
            elif isinstance(val, classmethod) and val.__func__ is original:
                setattr(cls, key, classmethod(replacement))
                n += 1
            elif isinstance(val, staticmethod) and val.__func__ is original:
                setattr(cls, key, staticmethod(replacement))
                n += 1
        return n

    def install(self) -> None:
        """Wrap every span target, the Field allocation counter and the FFTs."""
        for layer, names in SPANS.items():
            mod = importlib.import_module(f"phi4lattice.{layer}")
            for name in names:
                owner, _, attr = name.rpartition(".")
                raw = vars(getattr(mod, owner) if owner else mod)[attr]
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                pre, post = self._hooks(layer, name)
                wrapper = self._span(layer, name, fn, pre, post)
                self.bindings[f"{layer}.{name}"] = self._replace_everywhere(fn, wrapper)
        self._install_field_counter()
        self._install_fft_hooks()
        self._install_io_hooks()
        missing = [k for k, v in self.bindings.items() if v == 0]
        if missing:
            raise RuntimeError(f"tracer found no binding for {missing}")

    def _install_field_counter(self) -> None:
        from phi4lattice.lattice import Field

        original = Field.__post_init__
        counts = self.counts

        def post_init(field_self):
            counts["lattice.field_allocs"] += 1
            original(field_self)

        self.bindings["lattice.Field.__post_init__"] = self._replace_in_class(
            Field, original, post_init)

    def _install_fft_hooks(self) -> None:
        import numpy as np
        import numpy.fft
        import scipy.fft

        stack, fft_calls, fft_bytes = self.stack, self.fft_calls, self.fft_bytes

        def hook(fn):
            def fft_wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                layer = stack[-1][0] if stack else "none"
                fft_calls[layer] += 1
                a = args[0] if args else kwargs.get("a", kwargs.get("x"))
                fft_bytes[layer] += np.asarray(a).nbytes + out.nbytes
                return out

            return functools.update_wrapper(fft_wrapper, fn)

        for mod in (numpy.fft, scipy.fft):
            for name in FFT_NAMES:
                original = getattr(mod, name)
                wrapper = hook(original)
                setattr(mod, name, wrapper)
                self._replace_everywhere(original, wrapper)

    def _install_io_hooks(self) -> None:
        """Count file bytes and files written while a ``cli.main`` call is open."""
        original = io.open
        counts = self.counts
        tracer = self

        def counting_open(file, mode="r", *args, **kwargs):
            fh = original(file, mode, *args, **kwargs)
            if tracer._cli_depth == 0:
                return fh
            if any(c in mode for c in "wax+"):
                counts["cli.files_written"] += 1
            return _CountingFile(fh, counts)

        io.open = counting_open
        builtins.open = counting_open

"""Spans around satstab's public functions, installed from outside the package.

Inside `Tracer.installed()` each traced function is replaced at every module
attribute that binds it (for example both `satstab.simulate.run`, which
`estimate_basin` calls, and `satstab.cli.run`); the originals are put back
when the block exits.  A span holds
its name, start, end, parent and the id of the CLI call it ran under; spans
stay in memory in flat arrays and are reduced to per-layer metrics, or saved,
when the run ends.
"""

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Traced functions per module, and the statistics reported for each.
LAYERS = {
    "spectral": {
        "eigen_closed_form": ("calls", "s"),
        "eigen_clamped": ("calls", "s", "failed"),
        "eigen_residual": ("calls", "s"),
    },
    "modal": {
        "actuator_coefficients": ("s",),
        "assemble_internal": ("s",),
        "assemble_boundary": ("s",),
    },
    "synthesis": {
        "diagnose_pair": ("calls", "s"),
        "design_gain": ("s",),
        "build_certificate": ("s",),
        "check_certificate": ("calls", "s"),
        "select_h2_constants": ("s",),
        "sample_ellipsoid": ("s",),
    },
    "saturation": {
        "sat": ("calls", "s"),
        "sector_holds": ("calls", "s"),
    },
    "simulate": {
        "run": ("calls", "s", "self_s", "steps", "us_per_step"),
        "step_linear_closed_loop": ("calls", "s"),
        "step_nonlinear_closed_loop": ("calls", "s"),
        "step_boundary_closed_loop": ("calls", "s"),
        "nonlinear_forcing": ("calls", "s", "us_p50", "us_p99"),
        "fit_decay_rate": ("calls", "s"),
        "estimate_basin": ("s", "runs"),
    },
    "config": {
        "load_config": ("s",),
        "build_eigen": ("s",),
        "build_modal": ("s",),
    },
    "cli": {
        "main": ("calls", "s"),
        "cmd_spectrum": ("s", "self_s"),
        "cmd_synth": ("s",),
        "cmd_simulate": ("s", "self_s"),
        "cmd_verify": ("s", "self_s"),
        "load_certificate": ("s",),
    },
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
_STEPS = ("simulate.step_linear_closed_loop", "simulate.step_nonlinear_closed_loop",
          "simulate.step_boundary_closed_loop")


class Tracer:
    """Span recorder; a span that `cli.main` opens at top level starts a new call id."""

    def __init__(self):
        self.name = array("q")
        self.parent = array("q")
        self.call = array("q")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("q")
        self._stack = []
        self._call_id = -1

    def _wrap(self, name_id, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns
        names, parents, calls = self.name.append, self.parent.append, self.call.append
        starts, ends, failed = self.start.append, self.end.append, self.failed.append

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not stack:
                tracer._call_id += 1
            index = len(tracer.start)
            names(name_id)
            parents(stack[-1] if stack else -1)
            calls(tracer._call_id)
            ends(0)
            failed(0)
            stack.append(index)
            starts(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[index] = 1
                raise
            finally:
                tracer.end[index] = clock()
                stack.pop()

        return span

    @contextmanager
    def installed(self):
        """Wrap every traced function at each satstab module attribute bound to it.

        The originals are put back when the block exits.
        """
        bound = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "satstab" or n.startswith("satstab.")]
        for name_id, name in enumerate(SPAN_NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"satstab.{mod_name}"], fn_name)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        bound.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(bound):
                setattr(module, attr, original)

    def arrays(self):
        cols = ("name", "parent", "call", "start", "end", "failed")
        return {col: np.frombuffer(getattr(self, col), dtype=np.int64) for col in cols}

    def save(self, path):
        """Write the spans and the name table to an .npz file."""
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())

    def layer_metrics(self, calls_per_iteration):
        """Per-layer metrics: the median over iterations of each per-iteration value.

        `s` is busy time, `self_s` busy time minus the time of child spans;
        `steps` counts step spans under `run`, `runs` counts `run` spans
        under `estimate_basin`; `us_p50`/`us_p99` pool every call.
        """
        a = self.arrays()
        count = len(SPAN_NAMES)
        ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        dur = (a["end"] - a["start"]) / 1e9
        parent = a["parent"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        iteration = a["call"] // calls_per_iteration
        iterations = int(iteration.max()) + 1 if iteration.size else 1
        key = iteration * count + a["name"]

        def per_iteration(weights=None):
            table = np.bincount(key, weights=weights, minlength=iterations * count)
            return table.reshape(iterations, count)

        parent_name = np.where(child, a["name"][np.maximum(parent, 0)], -1)
        run_id = ids["simulate.run"]
        is_step = np.isin(a["name"], [ids[n] for n in _STEPS]) & (parent_name == run_id)
        is_basin_run = (a["name"] == run_id) & (parent_name == ids["simulate.estimate_basin"])
        steps = np.bincount(iteration[is_step], minlength=iterations)
        tables = {
            "calls": per_iteration(),
            "s": per_iteration(dur),
            "self_s": per_iteration(dur - covered),
            "failed": per_iteration(a["failed"].astype(float)),
        }
        counts = {
            "steps": steps,
            "runs": np.bincount(iteration[is_basin_run], minlength=iterations),
            "us_per_step": 1e6 * tables["s"][:, run_id] / np.maximum(steps, 1),
        }
        out = {}
        for mod, fns in LAYERS.items():
            for fn, stats in fns.items():
                i = ids[f"{mod}.{fn}"]
                for stat in stats:
                    if stat in counts:
                        value = np.median(counts[stat])
                    elif stat in ("us_p50", "us_p99"):
                        span_us = 1e6 * dur[a["name"] == i]
                        q = 50 if stat == "us_p50" else 99
                        value = np.percentile(span_us, q) if span_us.size else 0.0
                    else:
                        value = np.median(tables[stat][:, i])
                    out[f"{mod}.{fn}.{stat}"] = float(value)
        return out

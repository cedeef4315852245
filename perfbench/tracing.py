"""Per-layer spans taken from outside gho, by wrapping module attributes.

Every gho module that holds a reference to a traced function gets the
wrapper, so calls through `from .x import f` bindings are seen too; methods
are wrapped on their class. Spans are aggregated in memory by (phase, name):
calls, total seconds of outermost calls, self seconds (duration minus the
time covered by traced children) and counts computed from the arguments.
The phase is the root span the worker opens: "setup" or "ops". Outside a
root span the wrappers pass straight through, so the benchmark's own checks
are not counted.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.phase = None  # the root span: "setup", "ops" or None (not traced)
        self.scale = 1.0  # pace factor applied to durations as they are recorded
        self._stack = []  # [name, child seconds] per open span
        self._depth = defaultdict(int)
        self.totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})

    def wrap(self, name, fn, **counters):
        """fn wrapped in a span; counters map a count name to f(args, kwargs)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                tracer._stack.pop()
                tracer._depth[name] -= 1
                record = tracer.totals[(tracer.phase, name)]
                record["calls"] += 1
                record["self_s"] += (duration - frame[1]) * tracer.scale
                if tracer._depth[name] == 0:  # recursion counts once in the total
                    record["s"] += duration * tracer.scale
                for key, count in counters.items():
                    record[key] = record.get(key, 0) + count(args, kwargs)
                if tracer._stack:
                    tracer._stack[-1][1] += duration

        return traced

    def metrics(self):
        """Flat {"<name>.<field>": value}; the setup phase gets a "setup." prefix."""
        out = {}
        for (phase, name), record in self.totals.items():
            prefix = "setup." if phase == "setup" else ""
            for key, value in record.items():
                out[f"{prefix}{name}.{key}"] = value
        return out


def _patch_function(modules, fn, wrapped):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)


def _arg(index, key, default=None):
    """Reads one argument of a call, given by position or by keyword."""
    return lambda args, kwargs: args[index] if len(args) > index else kwargs.get(key, default)


def install(tracer: Tracer):
    """Wrap the layer boundaries of an imported gho in tracer's spans."""
    from scipy.integrate import OdeSolution

    from gho import classical, cli, coefficients, oracle, packets, propagator, states

    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "gho" or key.startswith("gho."))]

    def function(layer, module, attr, **counters):
        fn = getattr(module, attr)
        _patch_function(modules, fn, tracer.wrap(f"{layer}.{attr}", fn, **counters))

    function("coefficients", coefficients, "load_scenario")
    function("coefficients", coefficients, "integrate_coefficient")
    for kind in (coefficients.Constant, coefficients.Polynomial, coefficients.Sinusoidal,
                 coefficients.PiecewiseConstant, coefficients.Exponential):
        kind.eval = tracer.wrap("coefficients.eval", kind.eval)

    function("classical", classical, "solve_homogeneous_basis")
    function("classical", classical, "solve_particular")
    times = _arg(1, "t")
    OdeSolution.__call__ = tracer.wrap(
        "classical.dense_eval", OdeSolution.__call__,
        points=lambda args, kwargs: int(np.size(times(args, kwargs))))

    function("propagator", propagator, "kernel")
    function("propagator", propagator, "kernel_coefficients")
    depth = _arg(5, "_depth", 0)
    function("propagator", propagator, "propagate",
             splits=lambda args, kwargs: int(depth(args, kwargs) > 0))
    function("propagator", propagator, "czt", points=lambda args, kwargs: len(args[0]))
    function("propagator", propagator, "kernel_delta_check")

    function("packets", packets, "upsample_periodic", points=_arg(1, "m"))
    packet, points = _arg(0, "p"), _arg(1, "points")
    function("packets", packets, "evaluate_trig_interpolant",
             pairs=lambda args, kwargs: (packet(args, kwargs).grid.n_points
                                         * int(np.size(points(args, kwargs)))))

    for attr in ("eigenmode_packet", "build_generalized_coherent_state", "apply_U_F",
                 "apply_U_S", "invariant_expectation"):
        function("states", states, attr)

    start, t_end, cfg = _arg(1, "packet"), _arg(2, "t_end"), _arg(3, "cfg")
    function("oracle", oracle, "evolve_tdse",
             steps=lambda args, kwargs: max(1, round(abs(t_end(args, kwargs)
                                                         - start(args, kwargs).t)
                                                     / cfg(args, kwargs).dt)))
    function("oracle", oracle, "solve_banded")
    n_slices, grid = _arg(2, "n_slices"), _arg(3, "grid")
    function("oracle", oracle, "path_integral_oracle",
             pairs=lambda args, kwargs: (max(n_slices(args, kwargs) - 2, 0)
                                         * grid(args, kwargs).n_points ** 2))
    function("oracle", oracle, "compose_kernels")
    function("oracle", oracle, "schrodinger_residual")

    checks = cli._verify_checks

    def traced_checks(ctx):
        for name, tol, fn in checks(ctx):
            yield name, tol, tracer.wrap(f"cli.verify.{name}", fn)

    cli._verify_checks = traced_checks

"""Batch front-end: scenario files in, CSV tables and verification reports out.

One experiment per invocation, fully deterministic: seeded query sampling,
repr-formatted floats, no timestamps. Exit status is 0 when everything
passed, 1 when any verification check failed, 2 on input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import classical, oracle, propagator, states
from .coefficients import Constant, Scenario, load_scenario, serialize_scenario
from .errors import CausticEncountered, GhoError, GridTooNarrow, ParseError, ValidationError
from .packets import GridSpec, WavePacket, inner_product, l2_distance, mean_x, packet_norm, var_x

_SEED = 20240801


def _fmt(x) -> str:
    return repr(float(x))


def _parse_grid(text: str) -> GridSpec:
    try:
        x_min, x_max, n = text.split(",")
        return GridSpec(float(x_min), float(x_max), int(n))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad --grid '{text}': expected xmin,xmax,n") from exc


def _parse_times(text: str):
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ParseError(f"bad --times '{text}'") from exc
    if not values:
        raise ParseError("--times must contain at least one value")
    return values


def _parse_modes(text: str):
    try:
        if ".." in text:
            lo, hi = text.split("..")
            modes = list(range(int(lo), int(hi) + 1))
        else:
            modes = [int(text)]
    except ValueError as exc:
        raise ParseError(f"bad --modes '{text}': expected n0..n1") from exc
    if not modes or any(m < 0 for m in modes):
        raise ParseError("--modes must be a non-empty range of non-negative integers")
    return modes


def _parse_basis(text: str, s: Scenario):
    if text == "default":
        return None
    if text.startswith("custom:"):
        try:
            u0, udot0, v0, vdot0 = (float(v) for v in text[len("custom:"):].split(","))
        except ValueError as exc:
            raise ParseError(f"bad --basis '{text}'") from exc
        return ((u0, udot0), (v0, vdot0))
    raise ParseError(f"bad --basis '{text}': expected default|custom:u0,udot0,v0,vdot0")


def _parse_xp(text: str):
    try:
        x0, xdot0 = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad --xp '{text}': expected x0,xdot0") from exc
    return (x0, xdot0)


def _parse_tols(items):
    tols = {}
    for item in items or []:
        if "=" not in item:
            raise ParseError(f"bad --tol '{item}': expected name=value")
        name, value = item.split("=", 1)
        try:
            tols[name] = float(value)
        except ValueError as exc:
            raise ParseError(f"bad --tol value in '{item}'") from exc
    return tols


def _scenario_hash(s: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(s).encode()).hexdigest()[:16]


def _write_packet_csv(path: Path, packet: WavePacket, s: Scenario):
    g = packet.grid
    lines = [f"# t={_fmt(packet.t)}",
             f"# grid={_fmt(g.x_min)},{_fmt(g.x_max)},{g.n_points}",
             f"# scenario_sha256={_scenario_hash(s)}",
             "x,re,im,modulus2"]
    for x, val in zip(g.points, packet.samples):
        lines.append(f"{_fmt(x)},{_fmt(val.real)},{_fmt(val.imag)},{_fmt(abs(val) ** 2)}")
    path.write_text("\n".join(lines) + "\n")


def _write_table_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


class _Context:
    """Scenario, grid and solved classical data shared by the subcommands."""

    def __init__(self, args):
        self.scenario = load_scenario(Path(args.scenario).read_text())
        self.grid = _parse_grid(args.grid)
        ics = _parse_basis(args.basis, self.scenario)
        self.basis = classical.solve_homogeneous_basis(self.scenario, ics)
        # modes and squeezes need Omega > 0; the swapped pair (v, u) has it and
        # builds the same physical states, so verify takes them from that pair
        self.mode_basis = self.basis if self.basis.omega > 0 else \
            classical.solve_homogeneous_basis(self.scenario, ics[::-1])
        self.part = classical.solve_particular(self.scenario, _parse_xp(args.xp))
        self.out = Path(args.out) if args.out else None
        if self.out is not None:
            self.out.mkdir(parents=True, exist_ok=True)

    def outfile(self, name) -> Path:
        base = self.out if self.out is not None else Path(".")
        return base / name


def _interior_times(s: Scenario, fractions):
    span = s.t1 - s.t0
    return [s.t0 + f * span for f in fractions]


def _find_composition_triple(ctx):
    """A caustic-free (t_a, t_b, t_c) inside the interval, if one exists."""
    s = ctx.scenario
    span = s.t1 - s.t0
    for fa, fb, fc in ((0.05, 0.25, 0.45), (0.1, 0.2, 0.3), (0.02, 0.1, 0.18),
                       (0.05, 0.5, 0.9)):
        t_a, t_b, t_c = (s.t0 + f * span for f in (fa, fb, fc))
        try:
            propagator.kernel_coefficients(s, ctx.basis, ctx.part, t_a, t_b)
            propagator.kernel_coefficients(s, ctx.basis, ctx.part, t_b, t_c)
            propagator.kernel_coefficients(s, ctx.basis, ctx.part, t_a, t_c)
            return t_a, t_b, t_c
        except CausticEncountered:
            continue
    return None


def _is_unit_sho(s: Scenario) -> bool:
    wanted = {"mass": 1.0, "frequency": 1.0, "force": 0.0, "a": 0.0, "b": 0.0, "f": 0.0}
    return all(isinstance(getattr(s, k), Constant) and getattr(s, k).value == v
               for k, v in wanted.items())


def _is_free_particle(s: Scenario) -> bool:
    rest = {"force": 0.0, "a": 0.0, "b": 0.0, "f": 0.0}
    return (isinstance(s.frequency, Constant) and s.frequency.value == 0.0
            and isinstance(s.mass, Constant) and s.mass.value > 0.0
            and all(isinstance(getattr(s, k), Constant) and getattr(s, k).value == v
                    for k, v in rest.items()))


def _verify_checks(ctx):
    """Yield (name, default_tol, callable) triples; callables return the value."""
    s = ctx.scenario
    basis, part, grid = ctx.basis, ctx.part, ctx.grid
    modes = ctx.mode_basis  # basis with Omega > 0 for modes, squeezes and I
    hbar = s.hbar
    rng = np.random.default_rng(_SEED)
    span = s.t1 - s.t0

    def grid_for(*times):
        """Base grid widened for packet spreading (rho growth) at the times used."""
        factor = 1.0
        for t_val in times:
            factor = max(factor, modes.at(t_val).rho * math.sqrt(hbar / modes.omega))
        if factor <= 1.0:
            return grid
        n = int(math.ceil(grid.n_points * factor / 256.0)) * 256
        return GridSpec(grid.x_min * factor, grid.x_max * factor, n)

    def wronskian_constancy():
        ts = np.linspace(s.t0, s.t1, 201)
        return float(np.max(np.abs(basis.wronskian_at(ts) - basis.omega))
                     / abs(basis.omega))

    def basis_residual():
        ts = rng.uniform(s.t0 + 0.01 * span, s.t1 - 0.01 * span, 200)
        h = 1e-6 * max(1.0, span)
        ahead, behind, now = basis.at(ts + h), basis.at(ts - h), basis.at(ts)
        dmu = (ahead.mass * ahead.u_dot - behind.mass * behind.u_dot) / (2 * h)
        w, _ = s.frequency.eval(ts)
        drive = now.mass * w * w * now.u
        scale = max(float(np.max(np.abs(drive))), 1e-12)
        return float(np.max(np.abs(dmu + drive)) / scale)

    def xi_consistency():
        ts = rng.uniform(s.t0 + 0.01 * span, s.t1 - 0.01 * span, 100)
        h = 1e-5 * max(1.0, span)
        fd = (part.at(ts + h).xi - part.at(ts - h).xi) / (2 * h)
        m, _ = s.mass.eval(ts)
        w, _ = s.frequency.eval(ts)
        now = part.at(ts)
        x_dot = now.momentum / m
        analytic = 0.5 * (m * w * w * now.x ** 2 - m * x_dot ** 2)
        scale = max(float(np.max(np.abs(analytic))), 1.0)
        return float(np.max(np.abs(fd - analytic)) / scale)

    def tau_monotone():
        ts = np.linspace(s.t0, s.t1, 401)
        steps = np.diff(basis.at(ts).tau) * np.sign(basis.omega)
        return float(np.min(steps))

    def kernel_conjugation():
        worst = 0.0
        for _ in range(100):
            t_a, t_b = sorted(rng.uniform(s.t0, s.t1, 2))
            if t_b - t_a < 0.01 * span:
                continue
            x_a, x_b = rng.uniform(-2.0, 2.0, 2)
            try:
                kf = propagator.kernel(s, basis, part, propagator.KernelQuery(t_a, t_b, x_a, x_b))
                kb = propagator.kernel(s, basis, part, propagator.KernelQuery(t_b, t_a, x_b, x_a))
            except CausticEncountered:
                continue
            worst = max(worst, abs(np.conj(kf) - kb) / abs(kf))
        return worst

    def kernel_closed_form():
        if _is_unit_sho(s):
            def reference(t_a, t_b, x_a, x_b):
                big_t = t_b - t_a
                return ((2j * np.pi * hbar * np.sin(big_t)) ** -0.5
                        * np.exp(1j * ((x_a ** 2 + x_b ** 2) * np.cos(big_t)
                                       - 2 * x_a * x_b) / (2 * hbar * np.sin(big_t))))

            def draw():
                t_a = rng.uniform(s.t0, s.t1 - 0.5)
                big_t = rng.uniform(0.2, min(np.pi - 0.2, s.t1 - t_a))
                return t_a, t_a + big_t
        elif _is_free_particle(s):
            m0 = s.mass.value

            def reference(t_a, t_b, x_a, x_b):
                big_t = t_b - t_a
                return ((m0 / (2j * np.pi * hbar * big_t)) ** 0.5
                        * np.exp(1j * m0 * (x_b - x_a) ** 2 / (2 * hbar * big_t)))

            def draw():
                t_a = rng.uniform(s.t0, s.t0 + 0.5 * span)
                return t_a, t_a + rng.uniform(0.1 * span, 0.45 * span)
        else:
            return None
        worst = 0.0
        for _ in range(100):
            t_a, t_b = draw()
            x_a, x_b = rng.uniform(-3.0, 3.0, 2)
            # both references are undriven, so part=None is the exact x_p = 0
            val = propagator.kernel(s, basis, None, propagator.KernelQuery(t_a, t_b, x_a, x_b))
            ref = reference(t_a, t_b, x_a, x_b)
            worst = max(worst, abs(val - ref) / abs(ref))
        return worst

    def kernel_composition():
        triple = _find_composition_triple(ctx)
        if triple is None:
            raise CausticEncountered("no caustic-free composition triple found")
        t_a, t_b, t_c = triple
        x_a, x_c = 0.3, -0.4
        direct = propagator.kernel(s, basis, part, propagator.KernelQuery(t_a, t_c, x_a, x_c))
        composed = oracle.compose_kernels(s, basis, part, t_a, t_b, t_c, x_a, x_c)
        return abs(composed - direct) / abs(direct)

    def residual_kernel_slice():
        # keep the slice time away from t_a: short-time kernels oscillate
        # faster than the stencil resolves
        t_a = s.t0 + 0.02 * span
        t_val = t_a + min(0.7, 0.6 * span)

        def field(t, x):
            co = propagator.kernel_coefficients(s, basis, part, t_a, t)
            return co.value_1d(0.3, x)

        return oracle.schrodinger_residual(field, s, t_val, grid)

    def residual_modes():
        t_val = s.t0 + 0.4 * span
        wide = grid_for(t_val)
        worst = 0.0
        for n in range(4):
            def field(t, x, n=n):
                g = GridSpec(x[0], x[-1], len(x))
                return states.eigenmode_packet(s, modes, part, n, t, g).samples

            worst = max(worst, oracle.schrodinger_residual(field, s, t_val, wide))
        return worst

    def mode_orthonormality():
        t_val = s.t0 + 0.3 * span
        wide = grid_for(t_val)
        packets = [states.eigenmode_packet(s, modes, part, n, t_val, wide)
                   for n in range(8)]
        gram = np.array([[inner_product(pm, pn) for pn in packets] for pm in packets])
        return float(np.max(np.abs(gram - np.eye(8))))

    def unitary_norms():
        g0 = states.sho_eigenstate(0, grid, hbar)
        t_val = s.t0 + 0.25 * span
        dev = abs(packet_norm(states.apply_U_F(g0, part, s, t_val)) - 1.0)
        dev = max(dev, abs(packet_norm(states.apply_U_S(g0, modes, s, t_val)) - 1.0))
        return dev

    def coherent_tracking():
        worst = 0.0
        for t_val in _interior_times(s, (0.1, 0.3, 0.5)):
            packet = states.build_generalized_coherent_state(s, modes, part, 0, t_val,
                                                             grid_for(t_val))
            worst = max(worst, abs(mean_x(packet) - part.at(t_val).x))
        return worst

    def squeezed_variance():
        worst = 0.0
        for t_val in _interior_times(s, (0.1, 0.3, 0.5)):
            packet = states.build_generalized_coherent_state(s, modes, part, 0, t_val,
                                                             grid_for(t_val))
            expected = hbar * modes.at(t_val).rho ** 2 / (2.0 * modes.omega)
            worst = max(worst, abs(var_x(packet) - expected) / expected)
        return worst

    def invariant_eigenmode():
        t_val = s.t0 + 0.2 * span
        wide = grid_for(t_val)
        worst = 0.0
        for n in range(3):
            packet = states.eigenmode_packet(s, modes, part, n, t_val, wide)
            val = states.invariant_expectation(packet, modes, part, s)
            worst = max(worst, abs(val - hbar * (n + 0.5)))
        return worst

    def invariant_drift_tdse():
        horizon = s.t0 + min(2.0, 0.8 * span)
        wide = grid_for(*np.linspace(s.t0, horizon, 5))
        packet = states.eigenmode_packet(s, modes, part, 0, s.t0, wide)
        cfg = oracle.EvolverConfig(dt=1e-3)
        values = [states.invariant_expectation(packet, modes, part, s)]
        state = packet
        for t_end in np.linspace(s.t0 + 0.25 * (horizon - s.t0), horizon, 4):
            state = oracle.evolve_tdse(s, state, float(t_end), cfg)
            values.append(states.invariant_expectation(state, modes, part, s))
        values = np.asarray(values)
        return float((values.max() - values.min()) / abs(values.mean()))

    def evolver_vs_kernel():
        t_end = s.t0 + min(1.0, 0.8 * span)
        wide = grid_for(*np.linspace(s.t0, t_end, 3))
        packet = states.eigenmode_packet(s, modes, part, 0, s.t0, wide)
        evolved = oracle.evolve_tdse(s, packet, t_end, oracle.EvolverConfig(dt=1e-3))
        direct = propagator.propagate(packet, s, basis, part, t_end)
        return l2_distance(evolved, direct)

    def path_integral():
        t_end = s.t0 + min(1.0, 0.5 * span)
        q = propagator.KernelQuery(s.t0, t_end, 0.3, -0.4)
        reference = propagator.kernel(s, basis, part, q)
        wide = GridSpec(1.2 * grid.x_min, 1.2 * grid.x_max, 4096)
        value = oracle.path_integral_oracle(s, q, 4, wide, basis=basis, part=part)
        return abs(value - reference) / abs(reference)

    def delta_limit():
        packet = states.eigenmode_packet(s, modes, part, 0, s.t0, grid)
        return propagator.kernel_delta_check(s, basis, part, s.t0, 1e-3, packet)

    yield "wronskian_constancy", 1e-6, wronskian_constancy
    yield "basis_residual", 1e-6, basis_residual
    yield "xi_consistency", 1e-5, xi_consistency
    yield "tau_monotone", 0.0, tau_monotone
    yield "kernel_conjugation", 1e-12, kernel_conjugation
    yield "kernel_closed_form", 1e-10, kernel_closed_form
    yield "kernel_composition", 1e-6, kernel_composition
    yield "schrodinger_residual_kernel", 1e-4, residual_kernel_slice
    yield "schrodinger_residual_modes", 1e-4, residual_modes
    yield "mode_orthonormality", 1e-8, mode_orthonormality
    yield "unitary_norms", 1e-12, unitary_norms
    yield "coherent_tracking", 1e-8, coherent_tracking
    yield "squeezed_variance", 1e-6, squeezed_variance
    yield "invariant_eigenmode", 1e-6, invariant_eigenmode
    yield "invariant_drift_tdse", 1e-5, invariant_drift_tdse
    yield "evolver_vs_kernel", 1e-4, evolver_vs_kernel
    yield "path_integral", 1e-5, path_integral
    yield "delta_limit", 1e-2, delta_limit


def run_verify(args) -> int:
    ctx = _Context(args)
    tols = _parse_tols(args.tol)
    unknown = set(tols) - {name for name, _, _ in _verify_checks(ctx)}
    if unknown:
        raise ParseError(f"--tol for unknown checks: {sorted(unknown)}")
    lines = []
    any_fail = False
    for name, default_tol, fn in _verify_checks(ctx):
        tol = tols.get(name, default_tol)
        try:
            value = fn()
        except (CausticEncountered, GridTooNarrow) as exc:
            lines.append(f"CHECK {name} value=nan tol={_fmt(tol)} "
                         f"SKIP({type(exc).__name__})")
            continue
        if value is None:
            lines.append(f"CHECK {name} value=nan tol={_fmt(tol)} SKIP(not applicable)")
            continue
        if name == "tau_monotone":
            ok = value > tol
        else:
            ok = value <= tol
        any_fail = any_fail or not ok
        lines.append(f"CHECK {name} value={_fmt(value)} tol={_fmt(tol)} "
                     f"{'PASS' if ok else 'FAIL'}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if ctx.out is not None:
        ctx.outfile("verify_report.txt").write_text(report)
    return 1 if any_fail else 0


def run_kernel_scan(args) -> int:
    ctx = _Context(args)
    s = ctx.scenario
    times = _parse_times(args.times) if args.times else list(
        _interior_times(s, (0.0, 0.5)))
    if len(times) < 2:
        raise ParseError("kernel-scan needs two --times values")
    t_a, t_b = times[0], times[1]
    if s.dimension != 1:
        raise ValidationError("kernel-scan is implemented for dimension 1")
    positions = ctx.grid.points if ctx.grid.n_points <= 64 else np.linspace(
        ctx.grid.x_min, ctx.grid.x_max, 21)
    co = propagator.kernel_coefficients(s, ctx.basis, ctx.part, t_a, t_b)
    x_a, x_b = (mesh.ravel() for mesh in np.meshgrid(positions, positions, indexing="ij"))
    vals = co.value_1d(x_a, x_b)
    rows = zip(np.full_like(x_a, t_a), x_a, np.full_like(x_a, t_b), x_b, vals.real,
               vals.imag, np.abs(vals), np.arctan2(vals.imag, vals.real))
    _write_table_csv(ctx.outfile("kernel_scan.csv"),
                     ("t_a", "x_a", "t_b", "x_b", "re", "im", "modulus", "phase"), rows)
    return 0


def run_evolve(args) -> int:
    ctx = _Context(args)
    s = ctx.scenario
    times = _parse_times(args.times) if args.times else _interior_times(s, (0.0, 0.5, 1.0))
    packet = states.build_generalized_coherent_state(s, ctx.basis, ctx.part, 0,
                                                     times[0], ctx.grid)
    _write_packet_csv(ctx.outfile("packet_0000.csv"), packet, s)
    cfg = oracle.EvolverConfig(dt=args.dt)
    state = packet
    for k, t_end in enumerate(times[1:], start=1):
        state = oracle.evolve_tdse(s, state, t_end, cfg)
        _write_packet_csv(ctx.outfile(f"packet_{k:04d}.csv"), state, s)
    dense = np.linspace(s.t0, s.t1, 401)
    table = classical.trajectory_table(ctx.basis, ctx.part, dense)
    _write_table_csv(ctx.outfile("classical.csv"), classical.trajectory_columns, table)
    return 0


def run_modes(args) -> int:
    ctx = _Context(args)
    s = ctx.scenario
    modes = _parse_modes(args.modes)
    times = _parse_times(args.times) if args.times else [s.t0]
    for n in modes:
        for k, t in enumerate(times):
            packet = states.eigenmode_packet(s, ctx.basis, ctx.part, n, t, ctx.grid)
            _write_packet_csv(ctx.outfile(f"mode_n{n}_t{k}.csv"), packet, s)
    return 0


def run_invariant(args) -> int:
    ctx = _Context(args)
    s = ctx.scenario
    times = _parse_times(args.times) if args.times else list(
        np.linspace(s.t0, s.t0 + min(5.0, s.t1 - s.t0), 11))
    packet = states.eigenmode_packet(s, ctx.basis, ctx.part, 0, times[0], ctx.grid)
    cfg = oracle.EvolverConfig(dt=args.dt)
    rows = []
    re, im = states.invariant_expectation(packet, ctx.basis, ctx.part, s,
                                          with_diagnostic=True)
    rows.append((times[0], re, im))
    state = packet
    for t_end in times[1:]:
        state = oracle.evolve_tdse(s, state, t_end, cfg)
        re, im = states.invariant_expectation(state, ctx.basis, ctx.part, s,
                                              with_diagnostic=True)
        rows.append((t_end, re, im))
    _write_table_csv(ctx.outfile("invariant.csv"), ("t", "invariant", "imag_diagnostic"),
                     rows)
    return 0


def run_coherent(args) -> int:
    ctx = _Context(args)
    s = ctx.scenario
    times = _parse_times(args.times) if args.times else _interior_times(
        s, (0.0, 0.25, 0.5, 0.75, 1.0))
    modes = _parse_modes(args.modes) if args.modes else [0]
    n = modes[0]
    rows = []
    for k, t in enumerate(times):
        packet = states.build_generalized_coherent_state(s, ctx.basis, ctx.part, n,
                                                         t, ctx.grid)
        _write_packet_csv(ctx.outfile(f"coherent_t{k}.csv"), packet, s)
        rows.append((t, mean_x(packet), ctx.part.at(t).x, var_x(packet),
                     s.hbar * ctx.basis.at(t).rho ** 2 / (2.0 * ctx.basis.omega)))
    _write_table_csv(ctx.outfile("coherent_moments.csv"),
                     ("t", "mean_x", "x_p", "var_x", "expected_var"), rows)
    return 0


_COMMANDS = {
    "verify": run_verify,
    "kernel-scan": run_kernel_scan,
    "evolve": run_evolve,
    "modes": run_modes,
    "invariant": run_invariant,
    "coherent": run_coherent,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gho",
        description="Generalized-harmonic-oscillator propagators, states and checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--out", default=None, help="output directory for CSV files")
        p.add_argument("--grid", default="-10.0,10.0,2048", help="xmin,xmax,n")
        p.add_argument("--times", default=None, help="comma-separated times")
        p.add_argument("--modes", default="0..3", help="mode range n0..n1")
        p.add_argument("--basis", default="default",
                       help="default|custom:u0,udot0,v0,vdot0")
        p.add_argument("--xp", default="0.0,0.0",
                       help="particular-solution initial data x0,xdot0")
        p.add_argument("--dt", type=float, default=1e-3, help="evolver time step")
        p.add_argument("--tol", action="append", default=None, metavar="name=value",
                       help="override a verification tolerance (repeatable)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValidationError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GhoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Batch front-end: scenario files in, CSV tables and verification reports out.

One experiment per invocation, fully deterministic: seeded query sampling,
repr-formatted floats, no timestamps. Exit status is 0 when everything
passed, 1 when any verification check failed, 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import classical, oracle, propagator, states
from .coefficients import Constant, Scenario, load_scenario, serialize_scenario
from .errors import CausticEncountered, GhoError, GridTooNarrow, ParseError, ValidationError
from .packets import (MAX_POINTS, GridSpec, WavePacket, inner_product, l2_distance, mean_x,
                      packet_norm, var_x)

_SEED = 20240801
_BASE_GRID = GridSpec(-10.0, 10.0, 2048)  # --grid's default, fitted to the modes
# verify's evolver checks take a sixth of _fit_grid's points, about r^2 times
# the base grid's in the modes' momentum spread r, and the fine step 1.8e-2,
# whose time error grows with r. On sho with squeezed bases, on a 2-core
# machine, evolver_vs_kernel reads 3.1e-10 at spread 3.3 (custom:0.14,0,0,1.5,
# 0.09 s for both checks), 1.9e-9 at 4.5 (custom:0.1,0,0,2, 0.15 s), 4.4e-7
# at 11.2 (custom:0.04,0,0,5, 0.6-1.1 s) and 2.2e-4, over its tolerance, at
# 31.6 (custom:0.01,0,0,10, 4.4 s). They run up to round(r) = 10 (sho at
# hbar = 0.01)
_EVOLVER_MAX_SPREAD = 10
# evolver_vs_kernel's tolerance, which `invariant` also asks of its start mode
_EVOLVER_TOL = 1e-4


def _fmt(x) -> str:
    return repr(float(x))


def _parse_grid(text: str) -> GridSpec:
    try:
        x_min, x_max, n = text.split(",")
        grid = GridSpec(float(x_min), float(x_max), int(n))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad --grid '{text}': expected xmin,xmax,n") from exc
    if grid.n_points > MAX_POINTS:
        raise ParseError(f"--grid has {grid.n_points} points, more than MAX_POINTS = {MAX_POINTS}")
    return grid


def _parse_times(text: str):
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ParseError(f"bad --times '{text}'") from exc
    if not values:
        raise ParseError("--times must contain at least one value")
    return values


def _times(args, default):
    """--times, or default when the option is not given."""
    return default if args.times is None else _parse_times(args.times)


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


def _parse_basis(text: str):
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


def _mode_scales(s: Scenario, basis, times):
    """(widen, refine) of the modes at the times: the mode width
    rho sqrt(hbar/|Omega|) and the momentum spread M |(u', v')| / sqrt(hbar |Omega|),
    each the largest over the times and relative to the oscillator's own
    modes at hbar = 1."""
    bs = basis.at(np.asarray(times, dtype=float))
    omega = abs(basis.omega)
    return (float(np.max(bs.rho)) * math.sqrt(s.hbar / omega),
            float(np.max(bs.mass * np.hypot(bs.u_dot, bs.v_dot))) / math.sqrt(s.hbar * omega))


def _scaled_grid(base: GridSpec, widen, refine, what: str) -> GridSpec:
    """base over widen times its extent on widen x refine times its points,
    rounded up to a multiple of 256. A factor below 1 or within one spacing
    of 1 (solver noise) reads 1, and base itself comes back when both do;
    GridTooNarrow, opening with what asked, past MAX_POINTS (a multiple of
    256, so the rounding never crosses it)."""
    widen, refine = (f if (f - 1.0) * base.n_points >= 1.0 else 1.0 for f in (widen, refine))
    if widen == refine == 1.0:
        return base
    n = base.n_points * widen * refine
    if not n <= MAX_POINTS:  # nan included
        raise GridTooNarrow(f"{what} {n:.3g} points, more than MAX_POINTS = {MAX_POINTS}")
    return GridSpec(base.x_min * widen, base.x_max * widen, int(math.ceil(n / 256.0)) * 256)


def _fit_grid(s: Scenario, basis, base: GridSpec, times) -> GridSpec:
    """base scaled by the modes' width and momentum spread at the times."""
    return _scaled_grid(base, *_mode_scales(s, basis, times), "the modes ask for")


class _Context:
    """Scenario, grid and solved classical data shared by the subcommands."""

    def __init__(self, args):
        self.scenario = load_scenario(Path(args.scenario).read_text())
        self.fitted = args.grid is None
        self.grid = _BASE_GRID if self.fitted else _parse_grid(args.grid)
        self.basis = classical.solve_homogeneous_basis(self.scenario, _parse_basis(args.basis))
        self.part = classical.solve_particular(self.scenario, _parse_xp(args.xp))
        self.out = Path(args.out) if args.out else None
        if self.out is not None:
            self.out.mkdir(parents=True, exist_ok=True)

    def outfile(self, name) -> Path:
        base = self.out if self.out is not None else Path(".")
        return base / name

    def packet_grid(self, times) -> GridSpec:
        """--grid as given, or else the default grid fitted over the times
        clipped to the interval (a time outside is the command's to reject)."""
        if not self.fitted:
            return self.grid
        s = self.scenario
        return _fit_grid(s, self.basis, self.grid, np.clip(times, s.t0, s.t1))


def _interior_times(s: Scenario, fractions):
    span = s.t1 - s.t0
    return [s.t0 + f * span for f in fractions]


def _find_composition_triple(ctx):
    """The first caustic-free (t_a, t_b, t_c) of four candidates inside the
    interval, if one exists; one array call tests every candidate's pairs."""
    s = ctx.scenario
    triples = s.t0 + (s.t1 - s.t0) * np.array([(0.05, 0.25, 0.45), (0.1, 0.2, 0.3),
                                               (0.02, 0.1, 0.18), (0.05, 0.5, 0.9)])
    t_a, t_b, t_c = triples.T
    co = propagator.kernel_coefficients(s, ctx.basis, ctx.part, np.concatenate([t_a, t_b, t_a]),
                                        np.concatenate([t_b, t_c, t_c]))
    clear = ~co.caustic.reshape(3, -1).any(axis=0)
    if not clear.any():
        return None
    return tuple(float(t) for t in triples[np.argmax(clear)])


def _is_constant(s: Scenario, **wanted) -> bool:
    """Each named coefficient is a Constant of the given value."""
    return all(isinstance(getattr(s, k), Constant) and getattr(s, k).value == v
               for k, v in wanted.items())


def _verify_checks(ctx):
    """Yield (name, tol, callable) triples; callables return the value."""
    s = ctx.scenario
    basis, part, grid = ctx.basis, ctx.part, ctx.grid
    hbar = s.hbar
    rng = np.random.default_rng(_SEED)
    span = s.t1 - s.t0

    def wronskian_constancy():
        ts = np.linspace(s.t0, s.t1, 201)
        return float(np.max(basis.wronskian_drift_at(ts)))

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
        pairs = []
        for _ in range(100):
            t_a, t_b = sorted(rng.uniform(s.t0, s.t1, 2))
            if t_b - t_a < 0.01 * span:
                continue
            pairs.append((t_a, t_b, *rng.uniform(-2.0, 2.0, 2)))
        t_a, t_b, x_a, x_b = np.array(pairs).reshape(-1, 4).T
        # each pair forward, then each pair backward, in one call
        co = propagator.kernel_coefficients(s, basis, part, np.concatenate([t_a, t_b]),
                                            np.concatenate([t_b, t_a]))
        both = co.value(np.concatenate([x_a, x_b]), np.concatenate([x_b, x_a]))
        kept = ~co.caustic[:len(t_a)]
        kf, kb = both[:len(t_a)][kept], both[len(t_a):][kept]
        return float(np.max(np.abs(np.conj(kf) - kb) / np.abs(kf), initial=0.0))

    def kernel_closed_form():
        # Mehler's kernel covers any constant M and w with no force, a, b or
        # f; sin(w T) / w is T sinc(w T / pi), the free kernel's T at w = 0
        if not (isinstance(s.mass, Constant)  # mass > 0 once loaded
                and isinstance(s.frequency, Constant)
                and _is_constant(s, force=0.0, a=0.0, b=0.0, f=0.0)):
            return None
        m0, w0 = s.mass.value, abs(s.frequency.value)

        def draw():
            if w0 == 0.0:
                t_a = rng.uniform(s.t0, s.t0 + 0.5 * span)
                return t_a, t_a + rng.uniform(0.1 * span, 0.45 * span)
            # w T in [0.2, pi - 0.2], clear of the focal times, with the time
            # unit 1/w clamped to twice a short interval
            unit = min(1.0 / w0, 2.0 * span)
            t_a = rng.uniform(s.t0, s.t1 - 0.5 * unit)
            return t_a, t_a + rng.uniform(0.2 * unit, min((np.pi - 0.2) * unit, s.t1 - t_a))

        t_a, t_b, x_a, x_b = np.array([(*draw(), *rng.uniform(-3.0, 3.0, 2))
                                       for _ in range(100)]).T
        # the reference is undriven, so part=None is the exact x_p = 0
        co = propagator.kernel_coefficients(s, basis, None, t_a, t_b)
        if co.caustic.any():
            raise CausticEncountered("closed-form pair on a focal time")
        big_t = t_b - t_a
        sin_over_w = big_t * np.sinc(w0 * big_t / np.pi)
        ref = ((m0 / (2j * np.pi * hbar * sin_over_w)) ** 0.5
               * np.exp(1j * m0 * ((x_a ** 2 + x_b ** 2) * np.cos(w0 * big_t) - 2 * x_a * x_b)
                        / (2 * hbar * sin_over_w)))
        return float(np.max(np.abs(co.value(x_a, x_b) - ref) / np.abs(ref)))

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
            return co.value(0.3, x)

        # the stencils' error grows as (k dx)^6 with the slice's largest
        # wavenumber k, which grows as 1 / hbar and with the chirp: past
        # k dx = 0.15 the slice takes more points over the same extent
        co = propagator.kernel_coefficients(s, basis, part, t_a, t_val)
        k_dx = (2.0 * abs(co.q_bb) * max(abs(grid.x_min), abs(grid.x_max))
                + 0.3 * abs(co.q_ab) + abs(co.l_b)) * grid.dx
        fine = _scaled_grid(grid, 1.0, k_dx / 0.15, "the kernel slice's wavenumbers ask for")
        return oracle.schrodinger_residual(field, s, t_val, fine)

    def residual_modes():
        t_val = s.t0 + 0.4 * span
        wide = _fit_grid(s, basis, grid, [t_val])

        @functools.cache
        def modes(t, g):  # the four modes at each time the residual reads
            return states.eigenmode_packets(s, basis, part, 3, t, g)

        worst = 0.0
        for n in range(4):
            def field(t, x, n=n):
                return modes(t, GridSpec(x[0], x[-1], len(x)))[n].samples

            worst = max(worst, oracle.schrodinger_residual(field, s, t_val, wide))
        return worst

    def mode_orthonormality():
        t_val = s.t0 + 0.3 * span
        wide = _fit_grid(s, basis, grid, [t_val])
        packets = states.eigenmode_packets(s, basis, part, 7, t_val, wide)
        gram = np.array([[inner_product(pm, pn) for pn in packets] for pm in packets])
        return float(np.max(np.abs(gram - np.eye(8))))

    def unitary_norms():
        t_val = s.t0 + 0.25 * span
        g0 = states.sho_eigenstate(0, _fit_grid(s, basis, grid, [t_val]), hbar)
        dev = abs(packet_norm(states.apply_U_F(g0, part, s, t_val)) - 1.0)
        dev = max(dev, abs(packet_norm(states.apply_U_S(g0, basis, s, t_val)) - 1.0))
        return dev

    @functools.cache
    def coherent_states():
        """(t, the n = 0 coherent state at t on the grid fitted at t) at 0.1,
        0.3 and 0.5 of the interval: coherent_tracking and squeezed_variance
        read these three packets."""
        return [(t_val, states.build_generalized_coherent_state(
                    s, basis, part, 0, t_val, _fit_grid(s, basis, grid, [t_val])))
                for t_val in _interior_times(s, (0.1, 0.3, 0.5))]

    def coherent_tracking():
        worst = 0.0
        for t_val, packet in coherent_states():
            worst = max(worst, abs(mean_x(packet) - part.at(t_val).x))
        return worst

    def squeezed_variance():
        worst = 0.0
        for t_val, packet in coherent_states():
            expected = hbar * basis.at(t_val).rho ** 2 / (2.0 * abs(basis.omega))
            worst = max(worst, abs(var_x(packet) - expected) / expected)
        return worst

    def invariant_eigenmode():
        t_val = s.t0 + 0.2 * span
        wide = _fit_grid(s, basis, grid, [t_val])
        worst = 0.0
        for n, packet in enumerate(states.eigenmode_packets(s, basis, part, 2, t_val, wide)):
            val = states.invariant_expectation(packet, basis, part, s)
            worst = max(worst, abs(val - hbar * (n + 0.5)))
        return worst

    @functools.cache
    def mode_zero_evolution():
        """The n = 0 mode at t0 on the evolver's grid, and that mode evolved
        by one evolve_tdse_stops call to each of its four legs, the last four
        of the five times t0 + k (horizon - t0) / 4 with horizon
        t0 + min(2, 0.8 span): both evolver checks read this one evolution.
        The evolver's grid has the extent of _fit_grid's over the five times
        and a sixth of its points, which still hold the mode's band: the
        evolver's spatial error is spectral."""
        times = np.linspace(s.t0, s.t0 + min(2.0, 0.8 * span), 5)
        # the mode's phase rates grow with its momentum spread, and the
        # evolver's time error at its one fine step with them: see
        # _EVOLVER_MAX_SPREAD
        widen, refine = _mode_scales(s, basis, times)
        spread = round(max(1.0, refine))
        if spread > _EVOLVER_MAX_SPREAD:
            raise GridTooNarrow(f"momentum spread rounds to {spread}, beyond the "
                                f"evolver's resolved {_EVOLVER_MAX_SPREAD}")
        wide = _scaled_grid(grid, widen, refine, "the modes ask for")
        if wide.n_points // 6 < 16:  # GridSpec's least
            raise GridTooNarrow(f"the evolver's sixth of {wide.n_points} points is under 16")
        coarse = GridSpec(wide.x_min, wide.x_max, wide.n_points // 6)
        packet = states.eigenmode_packet(s, basis, part, 0, s.t0, coarse)
        cfg = oracle.EvolverConfig(dt=1.8e-2)
        legs = [float(t) for t in times[1:]]
        return packet, list(oracle.evolve_tdse_stops(s, packet, legs, cfg))

    def invariant_drift_tdse():
        # each state is read on the grid it was evolved on
        packet, evolved = mode_zero_evolution()
        values = np.asarray([states.invariant_expectation(p, basis, part, s)
                             for p in (packet, *evolved)])
        return float((values.max() - values.min()) / abs(values.mean()))

    def evolver_vs_kernel():
        # the leg nearest t0 + min(1, 0.8 span): the second on spans from 2.5
        packet, evolved = mode_zero_evolution()
        near = min(evolved, key=lambda p: abs(p.t - (s.t0 + min(1.0, 0.8 * span))))
        return l2_distance(near, propagator.propagate(packet, s, basis, part, near.t))

    def path_integral():
        t_end = s.t0 + min(1.0, 0.5 * span)
        q = propagator.KernelQuery(s.t0, t_end, 0.3, -0.4)
        reference = propagator.kernel(s, basis, part, q)
        # the slices' chirps and the paths' spread grow with hbar: so do the
        # slice grid's extent and its point count
        wide = _scaled_grid(GridSpec(1.2 * grid.x_min, 1.2 * grid.x_max, 4096), s.hbar, 1.0,
                            "the path-integral slices ask for")
        value = oracle.path_integral_oracle(s, q, 4, wide, basis=basis, part=part)
        return abs(value - reference) / abs(reference)

    def delta_limit():
        wide = _fit_grid(s, basis, grid, [s.t0])
        packet = states.eigenmode_packet(s, basis, part, 0, s.t0, wide)
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
    yield "evolver_vs_kernel", _EVOLVER_TOL, evolver_vs_kernel
    yield "path_integral", 1e-5, path_integral
    yield "delta_limit", 1e-2, delta_limit


def run_verify(args) -> int:
    ctx = _Context(args)
    lines = []
    any_fail = False
    for name, tol, fn in _verify_checks(ctx):
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
    times = _times(args, _interior_times(s, (0.0, 0.5)))
    if len(times) < 2:
        raise ParseError("kernel-scan needs two --times values")
    t_a, t_b = times[0], times[1]
    positions = ctx.grid.points if ctx.grid.n_points <= 64 else np.linspace(
        ctx.grid.x_min, ctx.grid.x_max, 21)
    co = propagator.kernel_coefficients(s, ctx.basis, ctx.part, t_a, t_b)
    x_a, x_b = (mesh.ravel() for mesh in np.meshgrid(positions, positions, indexing="ij"))
    with np.errstate(all="ignore"):  # an overflow is rejected below, not warned of
        vals = co.value(x_a, x_b)
    if not np.all(np.isfinite(vals)):
        what = (f"phase at |x| up to {np.max(np.abs(positions)):g}"
                if np.isfinite(co.prefactor) else "constant phase")
        raise ValidationError(f"kernel from t_a={t_a} to t_b={t_b} overflows: "
                              f"its {what} is not finite")
    # from 2^52 rad on a double keeps no digit of the phase after the point
    reach = float(np.max(np.abs(positions)))
    term = max(max(abs(co.q_aa), abs(co.q_bb), abs(co.q_ab)) * reach * reach,
               max(abs(co.l_a), abs(co.l_b)) * reach)
    if term >= 2.0 ** 52:
        raise ValidationError(f"kernel from t_a={t_a} to t_b={t_b} keeps no digit of its "
                              f"phase: a term of its exponent at |x| up to {reach:g} is "
                              f"{term:.3g} rad, at least 2^52")
    rows = zip(np.full_like(x_a, t_a), x_a, np.full_like(x_a, t_b), x_b, vals.real,
               vals.imag, np.abs(vals), np.arctan2(vals.imag, vals.real))
    _write_table_csv(ctx.outfile("kernel_scan.csv"),
                     ("t_a", "x_a", "t_b", "x_b", "re", "im", "modulus", "phase"), rows)
    return 0


def run_evolve(args) -> int:
    ctx = _Context(args)
    s = ctx.scenario
    times = _times(args, _interior_times(s, (0.0, 0.5, 1.0)))
    cfg = oracle.EvolverConfig(dt=args.dt)
    # the evolver reads the edges only at the ends of its legs: fit over the whole span crossed
    grid = ctx.packet_grid(np.linspace(min(times), max(times), 201))
    start = states.build_generalized_coherent_state(s, ctx.basis, ctx.part, 0, times[0], grid)
    evolved = [start, *oracle.evolve_tdse_stops(s, start, times[1:], cfg)]
    # written once every stop has evolved, so a rejected stop writes no file
    for k, state in enumerate(evolved):
        _write_packet_csv(ctx.outfile(f"packet_{k:04d}.csv"), state, s)
    dense = np.linspace(s.t0, s.t1, 401)
    table = classical.trajectory_table(ctx.basis, ctx.part, dense)
    _write_table_csv(ctx.outfile("classical.csv"), classical.trajectory_columns, table)
    return 0


def run_modes(args) -> int:
    ctx = _Context(args)
    s = ctx.scenario
    modes = _parse_modes(args.modes)
    times = _times(args, [s.t0])
    grid = ctx.packet_grid(times)
    packets = {(n, k): states.build_generalized_coherent_state(s, ctx.basis, ctx.part, n, t, grid)
               for n in modes for k, t in enumerate(times)}
    # written once every packet is built, so a rejected one writes no file
    for (n, k), packet in packets.items():
        _write_packet_csv(ctx.outfile(f"mode_n{n}_t{k}.csv"), packet, s)
    return 0


def run_invariant(args) -> int:
    ctx = _Context(args)
    s = ctx.scenario
    times = _times(args, list(np.linspace(s.t0, s.t0 + min(5.0, s.t1 - s.t0), 11)))
    cfg = oracle.EvolverConfig(dt=args.dt)
    grid = ctx.packet_grid(np.linspace(min(times), max(times), 201))  # as in run_evolve
    start = states.eigenmode_packet(s, ctx.basis, ctx.part, 0, times[0], grid)
    first = states.invariant_expectation(start, ctx.basis, ctx.part, s, with_diagnostic=True)
    # the start is the exact mode n = 0, so its <I> misses hbar/2 by the
    # stencils' error alone, which no later step undoes
    error = abs(first[0] - 0.5 * s.hbar) / (0.5 * s.hbar)
    if not error <= _EVOLVER_TOL:
        raise GridTooNarrow(f"<I> of the start mode misses hbar/2 by {error:.2e} of it "
                            f"(limit {_EVOLVER_TOL:.0e}) on {grid.n_points} points")
    # each state is read before the leg from it runs
    rows = [(times[0], *first)] + [
        (t, *states.invariant_expectation(state, ctx.basis, ctx.part, s, with_diagnostic=True))
        for t, state in zip(times[1:], oracle.evolve_tdse_stops(s, start, times[1:], cfg))]
    _write_table_csv(ctx.outfile("invariant.csv"), ("t", "invariant", "imag_diagnostic"),
                     rows)
    return 0


def run_coherent(args) -> int:
    modes = _parse_modes(args.modes)
    if len(modes) != 1:
        raise ParseError(f"coherent takes one mode, not --modes '{args.modes}'")
    (n,) = modes
    ctx = _Context(args)
    s = ctx.scenario
    times = _times(args, _interior_times(s, (0.0, 0.25, 0.5, 0.75, 1.0)))
    grid = ctx.packet_grid(times)
    packets = [states.build_generalized_coherent_state(s, ctx.basis, ctx.part, n, t, grid)
               for t in times]
    # written once every packet is built, so a rejected one writes no file
    rows = []
    for k, (t, packet) in enumerate(zip(times, packets)):
        _write_packet_csv(ctx.outfile(f"coherent_t{k}.csv"), packet, s)
        rows.append((t, mean_x(packet), ctx.part.at(t).x, var_x(packet),
                     s.hbar * ctx.basis.at(t).rho ** 2 / (2.0 * abs(ctx.basis.omega))))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse sizes its
    help formatter against the terminal for every argument it adds. Each
    command takes only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="gho",
        description="Generalized-harmonic-oscillator propagators, states and checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--out", default=None, help="output directory for CSV files")
        p.add_argument("--grid", default=None, help="xmin,xmax,n (default -10,10,2048, "
                       "fitted to the modes by verify and the packet commands; verify "
                       "fits an explicit grid too)")
        p.add_argument("--basis", default="default",
                       help="default|custom:u0,udot0,v0,vdot0")
        p.add_argument("--xp", default="0.0,0.0",
                       help="particular-solution initial data x0,xdot0")
        if name != "verify":
            p.add_argument("--times", default=None, help="comma-separated times")
        if name in ("evolve", "invariant"):
            p.add_argument("--dt", type=float, default=1.4e-2,
                           help="evolver's fine time step (paired with twice and four "
                           "times it)")
        if name == "modes":
            p.add_argument("--modes", default="0..3", help="mode range n0..n1")
        if name == "coherent":
            p.add_argument("--modes", default="0", help="the one mode n (or n..n)")
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

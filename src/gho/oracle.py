"""Independent numerical references used to validate the analytic modules.

Nothing here shares mutable state with the code it checks. The evolver takes
Strang split steps (Feit, Fleck & Steiger 1982; Strang 1968) in H's own
coupling gauge, which takes the mixed a (xp + px) and drift (b / M) p terms
out of H: with chi = a M x^2 + b x and psi = exp(i chi / hbar) phi,

    i hbar dphi/dt = [p^2 / (2M) + W] phi,
    W = (v2 - 2 a^2 M + d(aM)/dt) x^2 + (v1 - 2 a b + db/dt) x + v0 - b^2 / (2M),

with M, a, b, v2, v1 and v0 from coefficients.hamiltonian_coefficients and
the derivatives from each coefficient kind's eval. A step of length dt at
the midpoint coefficients multiplies the samples by exp(-i W dt / (2 hbar)),
their FFT spectrum by exp(-i hbar k^2 dt / (2M)) and the samples by
exp(-i W dt / (2 hbar)) again: every factor has modulus one, so each run is
unitary to rounding, and the kinetic step is exact on the grid's band (the
grid taken as one period, which the packet's dark edges make harmless).
Strang's step is symmetric, so its time error is even in dt: each evolution
is three runs, at dt, 2 dt and 4 dt, combined by Romberg extrapolation into
a sixth-order result (the combination is not exactly unitary; each run is).
The step is the evolver's own: each leg tries dt = START_DT and halves it
until the Romberg error estimate meets ERROR_TARGET (Hairer, Norsett &
Wanner 1993, II.4), so no caller chooses it. Each run of a leg makes its own
factors, and nothing is kept from one leg to the next. The spatial error is
spectral, so the grid need only hold the packet's band: gho.cli evolves on
a sixth of the points it fits to the modes.
`Scenario` rejects jumps in a, b and (dM/dt / M) a, whose deltas no midpoint
step could apply, so W holds none and chi is continuous. The Schrodinger
residual applies H by gho.packets' spectral derivatives to a sampled field
that need not be periodic (a kernel slice is not), smoothly windowed to 0
before the grid's ends, and reads it where the window is 1.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

from .classical import ClassicalBasis, _check_time, particular_or_zero
from .coefficients import Scenario, _jumps, hamiltonian_coefficients
from .errors import CausticEncountered, GridTooNarrow, LinearSolveFailure, ValidationError
from .packets import MAX_POINTS, GridSpec, WavePacket, _derivatives, _scipy_fft, derivative
from .propagator import KernelQuery, _lct_apply, kernel, kernel_coefficients

_log = logging.getLogger(__name__)

# Strang steps of one leg over its three runs and all its tries. A try's
# table of midpoint coefficients peaks at about 0.15 kB a step, and on a
# 2-core machine a step takes 21 us on 341 points of sho and 90 us on 2,048
# of parametric: at the cap, about 155 MB and 20 s to 90 s
MAX_STEPS = 1_000_000
# the fine step a leg tries first, and the Romberg error estimate it must
# meet, else it halves the step and tries again: 1e-2 of invariant_drift_tdse's
# 1e-5, the tightest tolerance that reads the evolver. At the start step the
# bundled scenarios' legs read 2e-16 to 8e-9, so none tries twice
START_DT = 1.8e-2
ERROR_TARGET = 1e-7

__all__ = [
    "MAX_STEPS",
    "START_DT",
    "ERROR_TARGET",
    "evolve_tdse",
    "evolve_tdse_stops",
    "schrodinger_residual",
    "schrodinger_residual_map",
    "path_integral_oracle",
    "compose_kernels",
]


def solve_banded(factors, rhs):
    """A^-1 rhs from the zgbtrf factors (lu, ipiv) of a heptadiagonal A,
    written over rhs when it is a contiguous complex array (use the result)."""
    # no gho code calls it: perfbench's tracer still wraps it by name
    from scipy.linalg.lapack import zgbtrs

    lu, ipiv = factors
    out, info = zgbtrs(lu, 3, 3, rhs, ipiv, overwrite_b=1)
    if info != 0:
        raise LinearSolveFailure(f"banded solve failed (zgbtrs info {info})")
    return out


def _cis(phase, what: str) -> np.ndarray:
    """exp(i phase) for one of the evolver's factors; LinearSolveFailure
    where a phase is not finite."""
    if not np.all(np.isfinite(phase)):
        raise LinearSolveFailure(f"non-finite {what} factor")
    return np.exp(1j * phase)


def _strang_run(hbar: float, grid: GridSpec, samples, table):
    """One Strang run of a leg: the samples stepped once per row of table,
    each the (M, w2, w1, w0, dt) of a step at its midpoint. Returns the final
    samples, the step count, the number of potential and of kinetic factors
    made, and the norm drift, which must stay within 1e-10 per step. The
    potential's half step exp(-i W dt / (2 hbar)), W = w2 x^2 + w1 x + w0, is
    made again only at a row whose W or dt differ from the row before it,
    and the kinetic step exp(-i hbar k^2 dt / (2M)) at the FFT's angular
    frequencies k only where M or dt do. Where two steps share a row, the
    closing half step of the first and the opening one of the second are one
    product, the square; the run ends with its own half step."""
    x = grid.points
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, grid.dx)
    k2 = k * k
    moved = np.ones(table.shape, dtype=bool)  # the first row makes both factors
    moved[1:] = table[1:] != table[:-1]
    potential = np.any(moved[:, 1:], axis=1).tolist()
    kinetic = (moved[:, 0] | moved[:, 4]).tolist()
    fft = _scipy_fft()
    n_steps = len(table)
    psi = np.array(samples, dtype=np.complex128)
    norm0 = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
    for step in range(n_steps):
        if potential[step] or kinetic[step]:
            m, w2, w1, w0, dt = table[step].tolist()
        if potential[step]:  # else the last step's closing product holds it
            half = _cis(((w2 * x + w1) * x + w0) * (-0.5 * dt / hbar), "potential")
            whole = None
            psi *= half
        if kinetic[step]:
            kinetic_step = _cis(k2 * (-0.5 * hbar * dt / m), "kinetic")
        spectrum = fft.fft(psi, overwrite_x=True)
        spectrum *= kinetic_step
        psi = fft.ifft(spectrum, overwrite_x=True)
        if step + 1 < n_steps and not potential[step + 1]:
            if whole is None:
                whole = half * half
            psi *= whole
        else:
            psi *= half
        # the sum is finite unless a sample is not; numpy's pairwise sum,
        # not a BLAS dot, whose threads wake slowly between transforms
        if not np.isfinite(psi.sum()):
            raise LinearSolveFailure(f"non-finite state after step {step + 1}")
    drift = abs(math.sqrt(float(np.sum(np.abs(psi) ** 2))) / norm0 - 1.0)
    if drift > 1e-10 * n_steps:
        raise LinearSolveFailure(f"norm drifted by {drift:.2e} over {n_steps} steps")
    return psi, n_steps, sum(potential), sum(kinetic), drift


def _smooth_pieces(s: Scenario, t_a: float, t_b: float):
    """t_a, the breakpoints strictly between t_a and t_b where a piecewise
    coefficient jumps, and t_b, in the order the evolution meets them."""
    lo, hi = min(t_a, t_b), max(t_a, t_b)
    jumps = sorted({t for name in ("mass", "frequency", "force", "a", "b", "f")
                    for t in _jumps(getattr(s, name), lo, hi)}, reverse=bool(t_b < t_a))
    return np.array([t_a, *jumps, t_b], dtype=float)


def evolve_tdse(s: Scenario, packet: WavePacket, t_end: float) -> WavePacket:
    """Sixth-order evolution of a packet to t_end: three Strang runs, at a
    fine step dt, at 2 dt and at 4 dt, extrapolated as
    (64 psi_dt - 20 psi_2dt + psi_4dt) / 45 (see the module docstring);
    evolve_tdse_stops with the one stop t_end.

    The interval is first cut at every breakpoint inside it where a piecewise
    coefficient jumps, so that no step of any run straddles a jump (a step
    across one is only first order). On each smooth piece the coarse run
    first takes round(|piece| / (4 START_DT)) steps, at least one, and the
    middle and fine runs twice and four times as many, so all three divide
    the piece evenly and runs are deterministic. While the Romberg error
    estimate |R_dt - R_2dt| / (15 |psi|) of the fourth-order extrapolations
    R_h = (4 psi_h - psi_2h) / 3, which the sixth-order result improves on,
    is above ERROR_TARGET, every piece's step counts double and the three
    runs start again from the packet. chi is taken at the packet's time and
    at t_end. The packet must be dark at both edges when the leg starts and
    when it ends (GridTooNarrow otherwise): the FFT would wrap a bright edge
    round. Logs, at DEBUG level on the "gho.oracle" logger, the grid's point
    count and spacing, the number of tries, and the last try's step count,
    potential and kinetic factors made and norm drift of each run, and its
    error estimate. The packet's time and t_end must lie in the working
    interval (ValidationError otherwise, nan included), and the runs of every
    try may take at most MAX_STEPS steps together (GridTooNarrow otherwise,
    raised before the try's steps are allocated).
    """
    return next(evolve_tdse_stops(s, packet, [t_end]))


def evolve_tdse_stops(s: Scenario, packet: WavePacket, stops):
    """Yield the packet evolved to each of the stops in turn: the state at a
    stop is evolve_tdse's from the state at the stop before it (the packet,
    for the first), to the bit, and each leg is checked and logged as
    evolve_tdse's call. A leg runs only when its state is asked for, so a
    stop that fails raises after the states before it are yielded.

    Every leg first tries START_DT, however fine the leg before it ended,
    and makes its own factors.
    """
    for t_end in stops:
        packet = _evolve_leg(s, packet, t_end)
        yield packet


def _step_tables(s: Scenario, packet: WavePacket, t_end, edges, coarse_counts):
    """chi / hbar on the grid at the packet's time and at t_end, and the
    fine, middle and coarse runs' tables of (M, w2, w1, w0, dt), one row a
    step at its midpoint, for coarse_counts steps on the pieces between
    edges: every coefficient from one call."""
    dts, mids = [], []
    for scale in (4, 2, 1):
        counts = scale * coarse_counts
        piece_dts = np.diff(edges) / counts
        dts.append(np.repeat(piece_dts, counts))
        mids.extend(lo + (np.arange(n) + 0.5) * dt
                    for lo, n, dt in zip(edges[:-1], counts, piece_dts))
    times = np.concatenate([*mids, [packet.t, t_end]])
    m, a_c, b_c, v2, v1, v0 = hamiltonian_coefficients(s, times)
    # the last two times are the leg's ends: into the gauge frame and out of it
    x = packet.grid.points
    start, end = ((a_c[k] * m[k] * x + b_c[k]) * x / s.hbar for k in (-2, -1))
    mids, m, a_c, b_c = times[:-2], m[:-2], a_c[:-2], b_c[:-2]
    m_dot, a_dot, b_dot = (coefficient.eval(mids)[1] for coefficient in (s.mass, s.a, s.b))
    table = np.empty((mids.size, 5))
    table[:, 0] = m
    table[:, 1] = v2[:-2] - 2.0 * a_c * a_c * m + a_dot * m + a_c * m_dot
    table[:, 2] = v1[:-2] - 2.0 * a_c * b_c + b_dot
    table[:, 3] = v0[:-2] - b_c * b_c / (2.0 * m)
    table[:, 4] = np.concatenate(dts)
    return start, end, np.split(table, np.cumsum([d.size for d in dts[:-1]]))


def _evolve_leg(s: Scenario, packet: WavePacket, t_end):
    """The packet evolved to t_end, checked and logged as evolve_tdse
    describes."""
    _check_time(s, packet.t, "packet.t")
    _check_time(s, t_end, "t_end")
    packet.require_dark_edges(1e-8, "evolve_tdse")
    if t_end == packet.t:
        return packet.with_samples(packet.samples)
    edges = _smooth_pieces(s, packet.t, t_end)
    with np.errstate(over="ignore"):  # counted as floats: a long piece's passes int64
        coarse_counts = np.maximum(1.0, np.round(np.abs(np.diff(edges)) / (4.0 * START_DT)))
    spent = 0.0
    for tries in itertools.count(1):
        spent += 7.0 * float(np.sum(coarse_counts))
        if spent > MAX_STEPS:
            raise GridTooNarrow(f"evolve_tdse from t={packet.t:g} to t_end={t_end:g} reaches "
                                f"{spent:.3g} steps at try {tries}, more than "
                                f"MAX_STEPS = {MAX_STEPS}")
        start, end, tables = _step_tables(s, packet, t_end, edges, coarse_counts.astype(int))
        phi = packet.samples * _cis(-start, "gauge")
        results = [_strang_run(s.hbar, packet.grid, phi, rows) for rows in tables]
        fine, middle, coarse = (result[0] for result in results)
        # R_dt - R_2dt = (4 psi_dt - 5 psi_2dt + psi_4dt) / 3
        estimate = float(np.linalg.norm(4.0 * fine - 5.0 * middle + coarse)
                         / (45.0 * np.linalg.norm(packet.samples)))
        if not estimate > ERROR_TARGET:
            break
        coarse_counts = 2.0 * coarse_counts
    _log.debug("evolve_tdse: grid %d points, dx %.6g; try %d: "
               "fine run %d steps, %d potential and %d kinetic factors, norm drift %.3e; "
               "middle run %d steps, %d potential and %d kinetic factors, norm drift %.3e; "
               "coarse run %d steps, %d potential and %d kinetic factors, norm drift %.3e; "
               "Romberg error estimate %.3e", packet.grid.n_points, packet.grid.dx, tries,
               *(value for result in results for value in result[1:]), estimate)
    out = WavePacket(packet.grid, (64.0 * fine - 20.0 * middle + coarse) / 45.0
                     * _cis(end, "gauge"), t=t_end)
    out.require_dark_edges(1e-8, f"evolve_tdse's state at t={t_end:g}")
    return out


def _hamiltonian_terms(s: Scenario, t: float, grid: GridSpec, samples):
    """The summands of H(t) samples: kinetic, mixed a(xp + px), drift b p,
    potential, with gho.packets' spectral D and D^2 (one transform) and the
    mixed term as i hbar a (X D + D X): their sum is a Hermitian discrete H
    times samples."""
    x = grid.points
    dx = grid.dx
    hbar = s.hbar
    m, a_c, b_c, v2, v1, v0 = hamiltonian_coefficients(s, t)
    psi = np.asarray(samples, dtype=np.complex128)
    d1, d2 = _derivatives(psi, dx, 1, 2)
    return (-hbar ** 2 / (2.0 * m) * d2,
            1j * hbar * a_c * (x * d1 + derivative(x * psi, dx)),
            1j * hbar * (b_c / m) * d1,
            (v2 * x * x + v1 * x + v0) * psi)


def schrodinger_residual_map(field, s: Scenario, t: float, grid: GridSpec):
    """Pointwise |(-i hbar d/dt + H) field| where the window is 1, normalized.

    The field and its time difference are multiplied by _smooth_window
    centred on the grid, 1 over 0.8 of its half-span and 0 from 0.97, so the
    spectral derivatives see a smooth field, 0 at both ends. The scale is
    the largest single term of (-i hbar d/dt + H) field where the window is
    1, which stays finite when H field itself vanishes (a zero-energy mode).
    Returns (x, residual) arrays there, suitable for CSV export; the scalar
    check below takes the max of this map.
    """
    x = grid.points
    half_span = 0.5 * (grid.x_max - grid.x_min)
    window = _smooth_window(x, 0.5 * (grid.x_max + grid.x_min), 0.8 * half_span,
                            0.97 * half_span)
    psi = window * np.asarray(field(t, x), dtype=np.complex128)
    # the centred difference's step in t: the field's phase turns as E t / hbar,
    # so its truncation error at a fixed step would grow as 1 / hbar^2; and
    # t +- dt stays inside a short interval
    dt = 1e-5 * min(1.0, s.hbar, s.t1 - s.t0)
    dpsi_dt = (np.asarray(field(t + dt, x)) - np.asarray(field(t - dt, x))) * (window / (2.0 * dt))
    terms = (-1j * s.hbar * dpsi_dt,) + _hamiltonian_terms(s, t, grid, psi)
    res = sum(terms)
    flat = window == 1.0
    scale = max(float(np.max(np.abs(term[flat]))) for term in terms)
    if scale == 0.0:
        raise ValidationError("the field vanishes on the interior; cannot normalize")
    return x[flat], np.abs(res[flat]) / scale


def schrodinger_residual(field, s: Scenario, t: float, grid: GridSpec) -> float:
    """Normalized residual of (-i hbar d/dt + H) applied to a field.

    `field(t, x_array)` must be evaluable in a neighborhood of t. The time
    derivative uses centered differences with step 1e-5 min(1, hbar, span), H is
    applied by spectral derivatives to the windowed field, and the max-norm
    where the window is flat is divided by the largest single term of the
    operator applied to the field (schrodinger_residual_map).
    """
    _, res = schrodinger_residual_map(field, s, t, grid)
    return float(np.max(res))


def _smooth_window(points, center, r_flat, r_zero):
    """C-infinity taper: 1 inside |u| <= r_flat, 0 outside |u| >= r_zero,
    and e(s) / (e(s) + e(1 - s)) between, e(s) = exp(-1/s) and
    s = (r_zero - |u|) / (r_zero - r_flat) clipped to [0, 1]."""
    u = np.abs(np.asarray(points, dtype=float) - center)
    sigma = np.clip((r_zero - u) / (r_zero - r_flat), 0.0, 1.0)
    with np.errstate(divide="ignore"):  # exp(-1/0) = 0 at either end
        up, down = np.exp(-1.0 / sigma), np.exp(-1.0 / (1.0 - sigma))
    return up / (up + down)


def compose_kernels(s: Scenario, basis: ClassicalBasis, part, t_a: float,
                    t_b: float, t_c: float, x_a: float, x_c: float) -> complex:
    """Quadrature check of the semigroup property: integral over the
    intermediate position of K(c, b) K(b, a).

    The integrand is a pure chirp, so the real-line trapezoid is stabilized by
    a smooth window that is flat across the stationary-phase region; the
    windowed tails are non-stationary and contribute below the test
    tolerances. Kernel values come from the propagator module itself; only the
    integration is independent. A composite (t_a, t_c) inside the kernel's
    caustic band raises CausticEncountered, and a chirp so slow that the
    window asks for more than packets.MAX_POINTS points raises GridTooNarrow.
    """
    kernel_coefficients(s, basis, part, t_a, t_c)  # raises where a_tot = 0, on a focal composite
    co1 = kernel_coefficients(s, basis, part, t_a, t_b)
    co2 = kernel_coefficients(s, basis, part, t_b, t_c)
    a_tot = co1.q_bb + co2.q_aa
    b_tot = co1.q_ab * x_a + co1.l_b + co2.q_ab * x_c + co2.l_a
    y_star = -0.5 * b_tot / a_tot
    zone = math.sqrt(math.pi / abs(a_tot))
    r_flat = max(12.0 * zone, 8.0)
    r_zero = 2.0 * r_flat
    rate = 2.0 * abs(a_tot) * r_zero + abs(b_tot + 2.0 * a_tot * y_star)
    dy = math.pi / (2.0 * max(rate, 1.0))
    n = int(math.ceil(2.0 * r_zero / dy)) + 1
    if n > MAX_POINTS:
        raise GridTooNarrow(f"the composition's window asks for {n} points, "
                            f"more than MAX_POINTS = {MAX_POINTS}")
    ys = np.linspace(y_star - r_zero, y_star + r_zero, n)
    vals = co1.value(x_a, ys) * co2.value(ys, x_c)
    vals = vals * _smooth_window(ys, y_star, r_flat, r_zero)
    return complex(np.trapezoid(vals, dx=ys[1] - ys[0]))


def _classical_path(basis, part, t_a, x_a, t_b, x_b, times):
    """Classical trajectory through the two endpoints, evaluated at times."""
    at_a, at_b, at_t = basis.at(t_a), basis.at(t_b), basis.at(times)
    y_a = x_a - part.at(t_a).x
    y_b = x_b - part.at(t_b).x
    det = at_a.u * at_b.v - at_a.v * at_b.u
    alpha = (y_a * at_b.v - y_b * at_a.v) / det
    beta = (y_b * at_a.u - y_a * at_b.u) / det
    return alpha * at_t.u + beta * at_t.v + part.at(times).x


def path_integral_oracle(s: Scenario, q: KernelQuery, n_slices: int,
                         grid: GridSpec, basis: ClassicalBasis, part=None) -> complex:
    """Discretized time-slicing evaluation of the kernel.

    Composes n_slices exact short-time kernels by iterated quadrature on the
    given grid (the grid fixes the quadrature resolution, so refinement
    studies are meaningful); each slice's trapezoid sum is one chirp-z, and
    one array call gives every slice's kernel coefficients.
    Intermediate fields are smoothly windowed to tame the non-decaying chirp
    tails; the window must stay flat around the classical path, otherwise
    GridTooNarrow is raised.
    """
    if n_slices < 1:
        raise ValidationError("n_slices must be >= 1")
    part = particular_or_zero(s, part)
    if n_slices == 1:
        return kernel(s, basis, part, q)
    x_a, x_b = float(q.r_a), float(q.r_b)
    times = np.linspace(q.t_a, q.t_b, n_slices + 1)
    x = grid.points
    dx = grid.dx
    half_span = 0.5 * (grid.x_max - grid.x_min)
    center = 0.5 * (grid.x_max + grid.x_min)
    r_flat = 0.55 * half_span
    r_zero = 0.90 * half_span
    sigma = math.sqrt(s.hbar * abs(q.t_b - q.t_a))
    for x_cl in _classical_path(basis, part, q.t_a, x_a, q.t_b, x_b, times[1:-1]):
        if abs(x_cl - center) + 3.0 * sigma > r_flat:
            raise GridTooNarrow(
                f"classical path at {x_cl:.3g} leaves the window's flat region")
    window = _smooth_window(x, center, r_flat, r_zero)

    slices = kernel_coefficients(s, basis, part, times[:-1], times[1:])
    if slices.caustic.any():
        raise CausticEncountered("a time slice ends on a focal time")
    field = slices.pair(0).value(x_a, x)
    for k in range(1, n_slices - 1):
        field = _lct_apply(slices.pair(k), x, field * window, dx, x)
    vals = slices.pair(-1).value(x, x_b) * field * window
    return complex(np.sum(vals) * dx)

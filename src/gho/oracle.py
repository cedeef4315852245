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
`Scenario` rejects jumps in a, b and (dM/dt / M) a, whose deltas no midpoint
step could apply, so W holds none and chi is continuous. The Schrodinger
residual applies H by gho.packets' spectral derivatives to a sampled field
that need not be periodic (a kernel slice is not), smoothly windowed to 0
before the grid's ends, and reads it where the window is 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalBasis, _check_time, particular_or_zero
from .coefficients import Scenario, _jumps, hamiltonian_coefficients
from .errors import (CausticEncountered, GridTooNarrow, LinearSolveFailure,
                     ValidationError)
from .packets import MAX_POINTS, GridSpec, WavePacket, _derivatives, _scipy_fft, derivative
from .propagator import KernelQuery, _lct_apply, kernel, kernel_coefficients

_log = logging.getLogger(__name__)

# Strang steps of one evolve_tdse call over its three runs. Its table of
# midpoint coefficients peaks at about 0.15 kB a step, and on a 2-core
# machine a step takes 21 us on 341 points of sho and 90 us on 2,048 of
# parametric: at the cap, about 155 MB and 20 s to 90 s
MAX_STEPS = 1_000_000

__all__ = [
    "MAX_STEPS",
    "EvolverConfig",
    "evolve_tdse",
    "evolve_tdse_stops",
    "schrodinger_residual",
    "schrodinger_residual_map",
    "path_integral_oracle",
    "compose_kernels",
]


@dataclass(frozen=True)
class EvolverConfig:
    dt: float

    def __post_init__(self):
        if not (0 < self.dt < math.inf):
            raise ValidationError(f"dt must be positive and finite, not {self.dt}")


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


class _StrangRun:
    """One Strang run of an evolution on one grid, kept from leg to leg: the
    row (M, w2, w1, w0, dt) of its last step and the factors made for it,
    the potential's half step exp(-i W dt / (2 hbar)) with
    W = w2 x^2 + w1 x + w0, its square and the kinetic step
    exp(-i hbar k^2 dt / (2M)) at the FFT's angular frequencies k. Where two
    steps of a leg share a row, the closing half step of the first and the
    opening one of the second are one product, the square; every leg ends
    with its own half step."""

    def __init__(self, hbar: float, grid: GridSpec):
        self.hbar, self.x = hbar, grid.points
        k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, grid.dx)
        self.k2 = k * k
        self.row = np.full(5, math.nan)  # equal to no row: the first step makes both
        self.half = self.whole = self.kinetic = None

    def leg(self, samples, table):
        """Steps the samples once per row of table, each the (M, w2, w1, w0,
        dt) of a step at its midpoint: the final samples, the step count, the
        number of potential and of kinetic factors made, and the norm drift,
        which must stay within 1e-10 per step. A factor is made again only
        at a row where a coefficient it reads differs from the row before
        it, the previous leg's last row included."""
        moved = table != np.vstack([self.row, table[:-1]])
        potential = np.any(moved[:, 1:], axis=1).tolist()
        kinetic = (moved[:, 0] | moved[:, 4]).tolist()
        fft = _scipy_fft()
        n_steps = len(table)
        psi = np.array(samples, dtype=np.complex128)
        norm0 = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
        x = self.x
        for k in range(n_steps):
            if potential[k] or kinetic[k]:
                m, w2, w1, w0, dt = table[k].tolist()
            if potential[k]:
                self.half = _cis(((w2 * x + w1) * x + w0) * (-0.5 * dt / self.hbar),
                                 "potential")
                self.whole = None
            if potential[k] or k == 0:  # else the last step's closing product holds it
                psi *= self.half
            if kinetic[k]:
                self.kinetic = _cis(self.k2 * (-0.5 * self.hbar * dt / m), "kinetic")
            spectrum = fft.fft(psi, overwrite_x=True)
            spectrum *= self.kinetic
            psi = fft.ifft(spectrum, overwrite_x=True)
            if k + 1 < n_steps and not potential[k + 1]:
                if self.whole is None:
                    self.whole = self.half * self.half
                psi *= self.whole
            else:
                psi *= self.half
            # the sum is finite unless a sample is not; numpy's pairwise sum,
            # not a BLAS dot, whose threads wake slowly between transforms
            if not np.isfinite(psi.sum()):
                raise LinearSolveFailure(f"non-finite state after step {k + 1}")
        self.row = table[-1].copy()
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


def evolve_tdse(s: Scenario, packet: WavePacket, t_end: float,
                cfg: EvolverConfig) -> WavePacket:
    """Sixth-order evolution of a packet to t_end: three Strang runs, at a
    fine step dt of about cfg.dt, at 2 dt and at 4 dt, extrapolated as
    (64 psi_dt - 20 psi_2dt + psi_4dt) / 45 (see the module docstring);
    evolve_tdse_stops with the one stop t_end.

    The interval is first cut at every breakpoint inside it where a piecewise
    coefficient jumps, so that no step of any run straddles a jump (a step
    across one is only first order). On each smooth piece the coarse run
    takes round(|piece| / (4 cfg.dt)) steps, at least one, and the middle and
    fine runs twice and four times as many, so all three divide the piece
    evenly and runs are deterministic. chi is taken at the packet's time and
    at t_end. The packet must be dark at both edges when the leg starts and
    when it ends (GridTooNarrow otherwise): the FFT would wrap a bright edge
    round. Logs, at DEBUG level on the "gho.oracle" logger, the grid's
    point count and spacing, each run's step count, potential and kinetic
    factors made and norm drift, and the Romberg error estimate
    |R_dt - R_2dt| / (15 |psi|) of the fourth-order extrapolations
    R_h = (4 psi_h - psi_2h) / 3, which the sixth-order result improves on.
    The packet's time and t_end must lie in the working interval, and the
    three runs may take at most MAX_STEPS steps together (ValidationError
    otherwise, nan included).
    """
    return next(evolve_tdse_stops(s, packet, [t_end], cfg))


def evolve_tdse_stops(s: Scenario, packet: WavePacket, stops, cfg: EvolverConfig):
    """Yield the packet evolved to each of the stops in turn: the state at a
    stop is evolve_tdse's from the state at the stop before it (the packet,
    for the first), to the bit, and each leg is checked and logged as
    evolve_tdse's call. A leg runs only when its state is asked for, so a
    stop that fails raises after the states before it are yielded.

    Each of the three runs keeps its factors from leg to leg, so a leg whose
    first step has the coefficients of the previous leg's last step (a
    constant scenario, or a plateau across the stop) makes none, and its
    DEBUG record reports 0 potential and 0 kinetic factors for that run.
    """
    runs = [_StrangRun(s.hbar, packet.grid) for _ in range(3)]  # fine, middle, coarse
    for t_end in stops:
        packet = _evolve_leg(s, packet, t_end, cfg, runs)
        yield packet


def _evolve_leg(s: Scenario, packet: WavePacket, t_end, cfg: EvolverConfig, runs):
    """The packet evolved to t_end on the three runs, checked and logged as
    evolve_tdse describes."""
    _check_time(s, packet.t, "packet.t")
    _check_time(s, t_end, "t_end")
    packet.require_dark_edges(1e-8, "evolve_tdse")
    if t_end == packet.t:
        return packet.with_samples(packet.samples)
    edges = _smooth_pieces(s, packet.t, t_end)
    with np.errstate(over="ignore"):  # checked as floats: a tiny dt's count is inf
        coarse_counts = np.maximum(1.0, np.round(np.abs(np.diff(edges)) / (4.0 * cfg.dt)))
    total = 7.0 * float(np.sum(coarse_counts))
    if total > MAX_STEPS:
        raise ValidationError(f"dt={cfg.dt:g} from t={packet.t:g} to t_end={t_end:g} takes "
                              f"{total:.3g} steps, more than MAX_STEPS = {MAX_STEPS}")
    # every run's steps: each piece's step and midpoints; the three runs'
    # coefficients, and chi's at the leg's two ends, from one call
    dts, mids = [], []
    for scale in (4, 2, 1):
        counts = scale * coarse_counts.astype(int)
        piece_dts = np.diff(edges) / counts
        dts.append(np.repeat(piece_dts, counts))
        mids.extend(lo + (np.arange(n) + 0.5) * dt
                    for lo, n, dt in zip(edges[:-1], counts, piece_dts))
    times = np.concatenate([*mids, [packet.t, t_end]])
    m, a_c, b_c, v2, v1, v0 = hamiltonian_coefficients(s, times)
    # chi / hbar at the leg's two ends, the last two times: into the gauge
    # frame and out of it
    x = packet.grid.points
    start, end = ((a_c[k] * m[k] * x + b_c[k]) * x / s.hbar for k in (-2, -1))
    mids, m, a_c, b_c = times[:-2], m[:-2], a_c[:-2], b_c[:-2]
    m_dot, a_dot, b_dot = (coefficient.eval(mids)[1] for coefficient in (s.mass, s.a, s.b))
    table = np.empty((mids.size, 5))  # a step's M, w2, w1, w0 and dt
    table[:, 0] = m
    table[:, 1] = v2[:-2] - 2.0 * a_c * a_c * m + a_dot * m + a_c * m_dot
    table[:, 2] = v1[:-2] - 2.0 * a_c * b_c + b_dot
    table[:, 3] = v0[:-2] - b_c * b_c / (2.0 * m)
    table[:, 4] = np.concatenate(dts)
    tables = np.split(table, np.cumsum([d.size for d in dts[:-1]]))
    phi = packet.samples * _cis(-start, "gauge")
    results = [run.leg(phi, rows) for run, rows in zip(runs, tables)]
    fine, middle, coarse = (result[0] for result in results)
    # R_dt - R_2dt = (4 psi_dt - 5 psi_2dt + psi_4dt) / 3
    estimate = float(np.linalg.norm(4.0 * fine - 5.0 * middle + coarse)
                     / (45.0 * np.linalg.norm(packet.samples)))
    _log.debug("evolve_tdse: grid %d points, dx %.6g; "
               "fine run %d steps, %d potential and %d kinetic factors, norm drift %.3e; "
               "middle run %d steps, %d potential and %d kinetic factors, norm drift %.3e; "
               "coarse run %d steps, %d potential and %d kinetic factors, norm drift %.3e; "
               "Romberg error estimate %.3e", packet.grid.n_points, packet.grid.dx,
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
    # so its truncation error at a fixed step would grow as 1 / hbar^2
    dt = 1e-5 * min(1.0, s.hbar)
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
    derivative uses centered differences with step 1e-5 min(1, hbar), H is
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

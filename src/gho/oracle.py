"""Independent numerical references used to validate the analytic modules.

Nothing here shares mutable state with the code it checks. The evolver is an
implicit-midpoint (Crank-Nicolson) scheme on a heptadiagonal Hermitian
discretization of the Hamiltonian, chosen over split-step because the mixed
a(t) (xp + px) coupling does not factor into kinetic/potential pieces. The
derivatives take the 7-point sixth-order stencils of gho.packets (samples
zero beyond the ends), and the mixed term is discretized antisymmetrically,
(x_j + x_k) D_jk, so the matrix stays exactly Hermitian and each Cayley step
preserves the discrete norm to solver roundoff. The Schrodinger residual
applies the same discrete H, with the same stencils, to a sampled field; both
take H's coefficients from coefficients.hamiltonian_coefficients.
With A = 1 + i dt H(t_mid) / (2 hbar) the step A psi' = (2 - A) psi is taken
as psi' = 2 A^-1 psi - psi: one banded solve and no matrix-vector product,
computed in place on two buffers that swap roles each step. A is factored
(LAPACK zgbtrf, three sub- and three superdiagonals) only when the midpoint
coefficients differ from the previous step's. Each run keeps A and its
factors from leg to leg of an evolution through several stops
(evolve_tdse_stops), so a run factors again only when A changes: a
constant scenario once over every leg, and each plateau of a piecewise one
once. A's off-diagonal rows (the kinetic, drift and mixed terms) are built
only when M, a, b or dt change; a step where only the potential moves
rewrites the diagonal alone before it factors. The midpoint rule is
symmetric, so its time error is even in dt: each evolution is three runs, at
dt, 2 dt and 4 dt, combined by Romberg extrapolation into a sixth-order result
(the combination is not exactly unitary; each run is). The evolver sees
coefficients only at step midpoints, so it cannot apply the delta a jump puts
into da/dt, db/dt or (dM/dt / M) a; `Scenario` rejects such jumps at load
time. Every run steps to and from every other jump, so each step sees smooth
coefficients and the Romberg combination keeps its order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .classical import ClassicalBasis, _check_time, particular_or_zero
from .coefficients import Scenario, _jumps, hamiltonian_coefficients
from .errors import (CausticEncountered, GridTooNarrow, LinearSolveFailure,
                     ValidationError)
from .packets import _D1, _D2, MAX_POINTS, GridSpec, WavePacket, derivative, second_derivative
from .propagator import KernelQuery, _lct_apply, kernel, kernel_coefficients

_log = logging.getLogger(__name__)

_BAND = len(_D1) - 1  # sub- and superdiagonals of the step matrix
# Crank-Nicolson steps of one evolve_tdse call over its three runs. The fine
# run's table of midpoint coefficients peaks at about 0.15 kB a step, and on
# a 2-core machine a step takes 27 us on 341 points of sho and 0.38 ms on
# 2,048 points of parametric (one factorization a step): at the cap, about
# 85 MB and half a minute to six minutes
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
    """A^-1 rhs from the zgbtrf factors (lu, ipiv) of a banded A,
    written over rhs when it is a contiguous complex array (use the result)."""
    lu, ipiv = factors
    out, info = zgbtrs(lu, _BAND, _BAND, rhs, ipiv, overwrite_b=1)
    if info != 0:
        raise LinearSolveFailure(f"banded solve failed (zgbtrs info {info})")
    return out


# the columns of a step's coefficient row (M, a, b, v2, v1, v0, dt) that
# reach the step matrix's off-diagonal rows; v2, v1 and v0 reach its diagonal
# alone
_OFF_DIAGONAL = [0, 1, 2, 6]


class _Run:
    """One Crank-Nicolson run of an evolution on one grid, kept from leg to
    leg: the band of its step matrix A = 1 + i dt H / (2 hbar), A's zgbtrf
    factors and the coefficient row (M, a, b, v2, v1, v0, dt) they were made
    for. M, a, b and dt set A's off-diagonal rows (the kinetic, drift and
    mixed terms), which a template holds; it is built and checked for
    finiteness only when one of them moves. A step where only v2, v1 or v0
    move copies the template, writes and checks the diagonal and factors."""

    def __init__(self, hbar: float, grid: GridSpec):
        self.hbar, self.dx, self.x = hbar, grid.dx, grid.points
        # pairs[k] holds x_j + x_(j+k)
        self.pairs = {k: self.x[:-k] + self.x[k:] for k in range(1, _BAND + 1)}
        # LAPACK band storage: A[i, j] sits in row 2 _BAND + i - j, column j;
        # the top _BAND rows are zgbtrf's room for the pivoting fill-in
        self.template = np.zeros((3 * _BAND + 1, grid.n_points), dtype=np.complex128,
                                 order="F")
        self.band = np.empty_like(self.template, order="F")
        self.row = np.full(7, math.nan)  # equal to no row: the first step factors
        self.kin = math.nan
        self.factors = None

    def _write_off_diagonal(self, m, a_c, b_c, i_half):
        self.kin = -0.5 * self.hbar ** 2 / (m * self.dx * self.dx)
        # -a (xp + px) -> i hbar a (D X + X D); -(b/M) p -> i hbar (b/M) D
        drift = 1j * self.hbar * b_c / (m * self.dx)
        mixed = 1j * self.hbar * a_c / self.dx
        for k in range(1, _BAND + 1):
            h = self.kin * _D2[k] + _D1[k] * (drift + mixed * self.pairs[k])  # H[j, j + k]
            self.template[2 * _BAND - k, k:] = i_half * h
            self.template[2 * _BAND + k, :-k] = i_half * np.conj(h)
        if not np.all(np.isfinite(self.template)):
            raise LinearSolveFailure("non-finite step matrix")

    def _factor(self, row, off_diagonal_moved):
        m, a_c, b_c, v2, v1, v0, dt = row
        i_half = 0.5j * dt / self.hbar
        if off_diagonal_moved:
            self._write_off_diagonal(m, a_c, b_c, i_half)
        x = self.x
        diagonal = 1.0 + i_half * (self.kin * _D2[0] + v0 + (v2 * x + v1) * x)
        if not np.all(np.isfinite(diagonal)):
            raise LinearSolveFailure("non-finite step matrix")
        np.copyto(self.band, self.template)
        self.band[2 * _BAND] = diagonal
        lu, ipiv, info = zgbtrf(self.band, _BAND, _BAND, overwrite_ab=1)
        if info != 0:
            raise LinearSolveFailure(f"singular step matrix (zgbtrf info {info})")
        self.factors = lu, ipiv

    def leg(self, samples, table):
        """Steps the samples once per row of table, each the (M, a, b, v2, v1,
        v0, dt) of a step at its midpoint: the final samples, the step count,
        the number of factorizations and the norm drift, which must stay
        within 1e-10 per step. A is factored again only at a row that
        differs from the one before it, the previous leg's last row included."""
        moved = table != np.vstack([self.row, table[:-1]])
        fresh = np.any(moved, axis=1)
        off_diagonal = np.any(moved[:, _OFF_DIAGONAL], axis=1)
        n_steps = len(table)
        psi = np.array(samples, dtype=np.complex128)
        work = np.empty_like(psi)
        norm0 = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
        for k in range(n_steps):
            if fresh[k]:
                self._factor(table[k], off_diagonal[k])
            # A^-1 (2 psi) is 2 A^-1 psi to the bit: scaling by 2 is exact
            np.multiply(psi, 2.0, out=work)
            y = solve_banded(self.factors, work)
            np.subtract(y, psi, out=y)
            psi, work = y, psi
            # one BLAS pass: |psi|^2 is finite unless a sample is not
            if not math.isfinite(np.vdot(psi, psi).real):
                raise LinearSolveFailure(f"non-finite state after step {k + 1}")
        self.row = table[-1].copy()
        drift = abs(math.sqrt(float(np.sum(np.abs(psi) ** 2))) / norm0 - 1.0)
        if drift > 1e-10 * n_steps:
            raise LinearSolveFailure(f"norm drifted by {drift:.2e} over {n_steps} steps")
        return psi, n_steps, int(np.count_nonzero(fresh)), drift


def _smooth_pieces(s: Scenario, t_a: float, t_b: float):
    """t_a, the breakpoints strictly between t_a and t_b where a piecewise
    coefficient jumps, and t_b, in the order the evolution meets them."""
    lo, hi = min(t_a, t_b), max(t_a, t_b)
    jumps = sorted({t for name in ("mass", "frequency", "force", "a", "b", "f")
                    for t in _jumps(getattr(s, name), lo, hi)}, reverse=bool(t_b < t_a))
    return np.array([t_a, *jumps, t_b], dtype=float)


def evolve_tdse(s: Scenario, packet: WavePacket, t_end: float,
                cfg: EvolverConfig) -> WavePacket:
    """Sixth-order evolution of a packet to t_end: three Crank-Nicolson runs,
    at a fine step dt of about cfg.dt, at 2 dt and at 4 dt, extrapolated as
    (64 psi_dt - 20 psi_2dt + psi_4dt) / 45; evolve_tdse_stops with the one
    stop t_end.

    The interval is first cut at every breakpoint inside it where a piecewise
    coefficient jumps, so that no step of any run straddles a jump (the
    midpoint rule is only first order across one). On each smooth piece the
    coarse run takes round(|piece| / (4 cfg.dt)) steps, at least one, and the
    middle and fine runs twice and four times as many, so all three divide
    the piece evenly and runs are deterministic. Each run samples the
    coefficients at step midpoints; each step is psi' = 2 A^-1 psi - psi with
    A = 1 + i dt H / (2 hbar) on the 7-point stencils, and A is factored again
    only when the midpoint coefficients change. Logs, at DEBUG level on the
    "gho.oracle" logger, the grid's point count and spacing, each run's step
    count, factorizations and norm drift, and the Romberg error estimate
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

    Each of the three runs keeps its step matrix from leg to leg, so a leg
    whose first step has the coefficients of the previous leg's last step
    (a constant scenario, or a plateau across the stop) factors nothing, and
    its DEBUG record reports 0 factorizations for that run.
    """
    runs = [_Run(s.hbar, packet.grid) for _ in range(3)]  # fine, middle, coarse
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
    # every run's steps: each piece's step and midpoints, the three runs'
    # coefficients from one call
    dts, mids = [], []
    for scale in (4, 2, 1):
        counts = scale * coarse_counts.astype(int)
        piece_dts = np.diff(edges) / counts
        dts.append(np.repeat(piece_dts, counts))
        mids.extend(lo + (np.arange(n) + 0.5) * dt
                    for lo, n, dt in zip(edges[:-1], counts, piece_dts))
    table = np.column_stack((*hamiltonian_coefficients(s, np.concatenate(mids)),
                             np.concatenate(dts)))
    tables = np.split(table, np.cumsum([d.size for d in dts[:-1]]))
    results = [run.leg(packet.samples, rows) for run, rows in zip(runs, tables)]
    fine, middle, coarse = (result[0] for result in results)
    # R_dt - R_2dt = (4 psi_dt - 5 psi_2dt + psi_4dt) / 3
    estimate = float(np.linalg.norm(4.0 * fine - 5.0 * middle + coarse)
                     / (45.0 * np.linalg.norm(packet.samples)))
    _log.debug("evolve_tdse: grid %d points, dx %.6g; "
               "fine run %d steps, %d factorizations, norm drift %.3e; "
               "middle run %d steps, %d factorizations, norm drift %.3e; "
               "coarse run %d steps, %d factorizations, norm drift %.3e; "
               "Romberg error estimate %.3e", packet.grid.n_points, packet.grid.dx,
               *(value for result in results for value in result[1:]), estimate)
    return WavePacket(packet.grid, (64.0 * fine - 20.0 * middle + coarse) / 45.0, t=t_end)


def _hamiltonian_terms(s: Scenario, t: float, grid: GridSpec, samples):
    """The summands of H(t) samples: kinetic, mixed a(xp + px), drift b p,
    potential. With the stencils of packets.derivative and second_derivative
    and the mixed term as i hbar a (X D + D X), which is the step matrix's
    (x_j + x_k) D_jk, their sum is the evolver's discrete H times samples."""
    x = grid.points
    dx = grid.dx
    hbar = s.hbar
    m, a_c, b_c, v2, v1, v0 = hamiltonian_coefficients(s, t)
    psi = np.asarray(samples, dtype=np.complex128)
    d1 = derivative(psi, dx)
    d2 = second_derivative(psi, dx)
    return (-hbar ** 2 / (2.0 * m) * d2,
            1j * hbar * a_c * (x * d1 + derivative(x * psi, dx)),
            1j * hbar * (b_c / m) * d1,
            (v2 * x * x + v1 * x + v0) * psi)


def schrodinger_residual_map(field, s: Scenario, t: float, grid: GridSpec):
    """Pointwise |(-i hbar d/dt + H) field| over interior nodes, normalized.

    The scale is the largest single term of (-i hbar d/dt + H) field on the
    interior, which stays finite when H field itself vanishes (a zero-energy
    mode). Returns (x_interior, residual) arrays, suitable for CSV export; the
    scalar check below takes the max of this map.
    """
    x = grid.points
    psi = np.asarray(field(t, x), dtype=np.complex128)
    # the centred difference's step in t: the field's phase turns as E t / hbar,
    # so its truncation error at a fixed step would grow as 1 / hbar^2
    dt = 1e-5 * min(1.0, s.hbar)
    dpsi_dt = (np.asarray(field(t + dt, x)) - np.asarray(field(t - dt, x))) / (2.0 * dt)
    terms = (-1j * s.hbar * dpsi_dt,) + _hamiltonian_terms(s, t, grid, psi)
    res = sum(terms)
    interior = slice(4, -4)
    scale = max(float(np.max(np.abs(term[interior]))) for term in terms)
    if scale == 0.0:
        raise ValidationError("the field vanishes on the interior; cannot normalize")
    return x[interior], np.abs(res[interior]) / scale


def schrodinger_residual(field, s: Scenario, t: float, grid: GridSpec) -> float:
    """Normalized residual of (-i hbar d/dt + H) applied to a field.

    `field(t, x_array)` must be evaluable in a neighborhood of t. The time
    derivative uses centered differences with step 1e-5 min(1, hbar), H is the
    evolver's discrete H on the 7-point sixth-order stencils, and the max-norm
    over interior nodes is divided by the largest single term of the operator
    applied to the field.
    """
    _, res = schrodinger_residual_map(field, s, t, grid)
    return float(np.max(res))


def _smooth_window(points, center, r_flat, r_zero):
    """C-infinity taper: 1 inside |u| <= r_flat, 0 outside |u| >= r_zero."""
    u = np.abs(np.asarray(points, dtype=float) - center)
    w = np.zeros_like(u)
    w[u <= r_flat] = 1.0
    ramp = (u > r_flat) & (u < r_zero)
    if np.any(ramp):
        sigma = (r_zero - u[ramp]) / (r_zero - r_flat)

        def bump(v):
            out = np.zeros_like(v)
            pos = v > 0
            out[pos] = np.exp(-1.0 / v[pos])
            return out

        up = bump(sigma)
        down = bump(1.0 - sigma)
        w[ramp] = up / (up + down)
    return w


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

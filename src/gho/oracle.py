"""Independent numerical references used to validate the analytic modules.

Nothing here shares mutable state with the code it checks. The evolver is an
implicit-midpoint (Crank-Nicolson) scheme on a tridiagonal Hermitian
discretization of the Hamiltonian, chosen over split-step because the mixed
a(t) (xp + px) coupling does not factor into kinetic/potential pieces. The
mixed term is discretized antisymmetrically so the matrix stays exactly
Hermitian and the Cayley step preserves the discrete norm to solver roundoff.
With A = 1 + i dt H(t_mid) / (2 hbar) the step A psi' = (2 - A) psi is taken
as psi' = 2 A^-1 psi - psi: one tridiagonal solve and no matrix-vector
product. A is factored (LAPACK zgttrf) only when the midpoint coefficients
differ from the previous step's, so a constant scenario, or each plateau of a
piecewise one, is factored once. The evolver sees coefficients only at step
midpoints, so it cannot apply the delta a jump puts into da/dt, db/dt or
(dM/dt / M) a; `Scenario` rejects such jumps at load time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .classical import ClassicalBasis, particular_or_zero, solve_homogeneous_basis
from .coefficients import Scenario, hamiltonian_coefficients
from .errors import (CausticEncountered, GridTooNarrow, LinearSolveFailure,
                     ValidationError)
from .packets import GridSpec, WavePacket, derivative, second_derivative
from .propagator import KernelQuery, _lct_apply, kernel, kernel_coefficients

_log = logging.getLogger(__name__)

__all__ = [
    "EvolverConfig",
    "evolve_tdse",
    "schrodinger_residual",
    "schrodinger_residual_map",
    "path_integral_oracle",
    "compose_kernels",
]


@dataclass(frozen=True)
class EvolverConfig:
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("dt must be positive")


def _hamiltonian_scalars(s: Scenario, t):
    """M, a, b and the potential's coefficients v2, v1, v0 of H at time(s) t.

    H = p^2 / (2M) - a (xp + px) - (b / M) p + v2 x^2 + v1 x + v0, with
    v2 = M c / 2, v1 = d and v0 = b^2 / (2M) - f; t may be an array of times,
    and each coefficient is evaluated once for all of them.
    """
    m, _ = s.mass.eval(t)
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    f_c, _ = s.f.eval(t)
    hc = hamiltonian_coefficients(s, t)
    return m, a_c, b_c, 0.5 * m * hc.c, hc.d, b_c * b_c / (2.0 * m) - f_c


def solve_banded(factors, rhs):
    """A^-1 rhs from the zgttrf factors (dl, d, du, du2, ipiv) of a tridiagonal A."""
    out, info = zgttrs(*factors, rhs)
    if info != 0:
        raise LinearSolveFailure(f"tridiagonal solve failed (zgttrs info {info})")
    return out


def _factor_step(row, i_half, hbar, x, dx):
    """zgttrf factors of A = 1 + i_half H for one row of _hamiltonian_scalars."""
    m, a_c, b_c, v2, v1, v0 = row
    kin = hbar ** 2 / (m * dx * dx)
    diag = (1.0 + i_half * (kin + v0)) + ((i_half * v2) * x + i_half * v1) * x
    # -a (xp + px) -> -i hbar a (D_c X + X D_c); -(b/M) p -> i hbar (b/M) D_c
    u0 = -0.5 * kin + 0.5j * hbar * b_c / (m * dx)
    u1 = 0.5j * hbar * a_c / dx
    pair = x[:-1] + x[1:]
    upper = i_half * u0 + (i_half * u1) * pair
    lower = i_half * np.conj(u0) + (i_half * np.conj(u1)) * pair
    *factors, info = zgttrf(lower, diag, upper, overwrite_dl=1, overwrite_d=1,
                            overwrite_du=1)
    if info != 0:
        raise LinearSolveFailure(f"singular step matrix (zgttrf info {info})")
    return factors


def evolve_tdse(s: Scenario, packet: WavePacket, t_end: float,
                cfg: EvolverConfig) -> WavePacket:
    """Crank-Nicolson evolution of a packet to t_end.

    Coefficients are sampled at step midpoints, which keeps second-order
    accuracy for time-dependent scenarios; the step count is rounded so the
    interval divides evenly and runs are deterministic. Each step is
    psi' = 2 A^-1 psi - psi with A = 1 + i dt H / (2 hbar); A is factored
    again only when the midpoint coefficients change. Logs the step count,
    the number of factorizations and the norm drift at DEBUG level on the
    "gho.oracle" logger.
    """
    if s.dimension != 1:
        raise ValidationError("the grid evolver is one-dimensional")
    grid = packet.grid
    packet.require_dark_edges(1e-8, "evolve_tdse")
    span = t_end - packet.t
    if span == 0.0:
        return packet.with_samples(packet.samples)
    n_steps = max(1, round(abs(span) / cfg.dt))
    dt = span / n_steps
    table = np.column_stack(
        _hamiltonian_scalars(s, packet.t + (np.arange(n_steps) + 0.5) * dt))
    fresh = np.ones(n_steps, dtype=bool)
    fresh[1:] = np.any(table[1:] != table[:-1], axis=1)
    i_half = 0.5j * dt / s.hbar
    x = grid.points
    psi = np.asarray(packet.samples, dtype=np.complex128)
    norm0 = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
    for k in range(n_steps):
        if fresh[k]:
            factors = _factor_step(table[k], i_half, s.hbar, x, grid.dx)
        psi = 2.0 * solve_banded(factors, psi) - psi
        if not np.all(np.isfinite(psi.view(np.float64))):
            raise LinearSolveFailure(f"non-finite state after step {k + 1}")
    drift = abs(math.sqrt(float(np.sum(np.abs(psi) ** 2))) / norm0 - 1.0)
    _log.debug("evolve_tdse: %d steps, %d factorizations, norm drift %.3e",
               n_steps, int(np.count_nonzero(fresh)), drift)
    if drift > 1e-10 * n_steps:
        raise LinearSolveFailure(f"norm drifted by {drift:.2e} over {n_steps} steps")
    return WavePacket(grid, psi, t=t_end)


def _hamiltonian_terms(s: Scenario, t: float, grid: GridSpec, samples):
    """The summands of H(t) samples: kinetic, mixed a(xp + px), drift b p, potential."""
    x = grid.points
    dx = grid.dx
    hbar = s.hbar
    m, a_c, b_c, v2, v1, v0 = _hamiltonian_scalars(s, t)
    psi = np.asarray(samples, dtype=np.complex128)
    d1 = derivative(psi, dx)
    d2 = second_derivative(psi, dx)
    return (-hbar ** 2 / (2.0 * m) * d2,
            1j * hbar * a_c * (2.0 * x * d1 + psi),
            1j * hbar * (b_c / m) * d1,
            (v2 * x * x + v1 * x + v0) * psi)


def schrodinger_residual_map(field, s: Scenario, t: float, grid: GridSpec,
                             dt: float = 1e-5):
    """Pointwise |(-i hbar d/dt + H) field| over interior nodes, normalized.

    The scale is the largest single term of (-i hbar d/dt + H) field on the
    interior, which stays finite when H field itself vanishes (a zero-energy
    mode). Returns (x_interior, residual) arrays, suitable for CSV export; the
    scalar check below takes the max of this map.
    """
    x = grid.points
    psi = np.asarray(field(t, x), dtype=np.complex128)
    dpsi_dt = (np.asarray(field(t + dt, x)) - np.asarray(field(t - dt, x))) / (2.0 * dt)
    terms = (-1j * s.hbar * dpsi_dt,) + _hamiltonian_terms(s, t, grid, psi)
    res = sum(terms)
    interior = slice(4, -4)
    scale = max(float(np.max(np.abs(term[interior]))) for term in terms)
    if scale == 0.0:
        raise ValidationError("the field vanishes on the interior; cannot normalize")
    return x[interior], np.abs(res[interior]) / scale


def schrodinger_residual(field, s: Scenario, t: float, grid: GridSpec,
                         dt: float = 1e-5) -> float:
    """Normalized residual of (-i hbar d/dt + H) applied to a field.

    `field(t, x_array)` must be evaluable in a neighborhood of t. The time
    derivative uses centered differences with step dt, space uses 4th-order
    stencils, and the max-norm over interior nodes is divided by the largest
    single term of the operator applied to the field.
    """
    _, res = schrodinger_residual_map(field, s, t, grid, dt)
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
                    t_b: float, t_c: float, x_a: float, x_c: float,
                    flat_halfwidth=None, oversample: float = 6.0) -> complex:
    """Quadrature check of the semigroup property: integral over the
    intermediate position of K(c, b) K(b, a).

    The integrand is a pure chirp, so the real-line trapezoid is stabilized by
    a smooth window that is flat across the stationary-phase region; the
    windowed tails are non-stationary and contribute below the test
    tolerances. Kernel values come from the propagator module itself; only the
    integration is independent.
    """
    if s.dimension != 1:
        raise ValidationError("composition quadrature is one-dimensional")
    co1 = kernel_coefficients(s, basis, part, t_a, t_b)
    co2 = kernel_coefficients(s, basis, part, t_b, t_c)
    a_tot = co1.q_bb + co2.q_aa
    b_tot = co1.q_ab * x_a + co1.l_b + co2.q_ab * x_c + co2.l_a
    if a_tot == 0.0:
        raise CausticEncountered("composite interval sits on a focal point")
    y_star = -0.5 * b_tot / a_tot
    zone = math.sqrt(math.pi / abs(a_tot))
    r_flat = flat_halfwidth if flat_halfwidth is not None else max(12.0 * zone, 8.0)
    r_zero = 2.0 * r_flat
    rate = 2.0 * abs(a_tot) * r_zero + abs(b_tot + 2.0 * a_tot * y_star)
    dy = math.pi / (oversample * max(rate, 1.0))
    n = int(math.ceil(2.0 * r_zero / dy)) + 1
    ys = np.linspace(y_star - r_zero, y_star + r_zero, n)
    vals = co1.value_1d(x_a, ys) * co2.value_1d(ys, x_c)
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
                         grid: GridSpec, basis: ClassicalBasis = None,
                         part=None) -> complex:
    """Discretized time-slicing evaluation of the kernel.

    Composes n_slices exact short-time kernels by iterated quadrature on the
    given grid (the grid fixes the quadrature resolution, so refinement
    studies are meaningful); each slice's trapezoid sum is one chirp-z.
    Intermediate fields are smoothly windowed to tame the non-decaying chirp
    tails; the window must stay flat around the classical path, otherwise
    GridTooNarrow is raised.
    """
    if n_slices < 1:
        raise ValidationError("n_slices must be >= 1")
    if s.dimension != 1:
        raise ValidationError("the slicing oracle is one-dimensional")
    if basis is None:
        basis = solve_homogeneous_basis(s)
    part = particular_or_zero(s, part)
    if n_slices == 1:
        return kernel(s, basis, part, q)
    x_a = float(np.atleast_1d(q.r_a)[0])
    x_b = float(np.atleast_1d(q.r_b)[0])
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

    co = kernel_coefficients(s, basis, part, times[0], times[1])
    field = co.value_1d(x_a, x)
    for k in range(1, n_slices - 1):
        co = kernel_coefficients(s, basis, part, times[k], times[k + 1])
        field = _lct_apply(co, x, field * window, dx, x)
    co = kernel_coefficients(s, basis, part, times[-2], times[-1])
    vals = co.value_1d(x, x_b) * field * window
    return complex(np.sum(vals) * dx)

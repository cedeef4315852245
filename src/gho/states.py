"""Complete wavefunction sets, unitary displacement/squeezing maps, invariant.

The mode set for a generalized oscillator is, per dimension,

    psi_n(t, x) = (Omega / (hbar rho^2))^{1/4} htilde_n(z) *
                  exp[ i ( (n + 1/2) theta(t)
                           + ( xi + M a x^2 + (M x_p' + b) x + int f ) / hbar
                           + M rho' (x - x_p)^2 / (2 hbar rho) ) ]

with z = sqrt(Omega/hbar) (x - x_p) / rho and htilde_n the orthonormal
Hermite functions. theta(t) is the continuously unwrapped angle of u - i v;
it equals theta(t0) - tau(t), so the fractional power (u - iv)^{n + 1/2}
never suffers principal-branch jumps.

The same states arise by conjugating unit-oscillator eigenstates with the
displacement map U_F (shift by x_p plus momentum boost) and the squeezing map
U_S (dilation by rho/sqrt(Omega) plus quadratic phase); both maps are provided
as grid operations on arbitrary packets.
"""

from __future__ import annotations

import math

import numpy as np

from .classical import ClassicalBasis, ParticularSolution, particular_or_zero
from .coefficients import Scenario, integrate_coefficient
from .errors import GridTooNarrow, ValidationError
from .packets import GridSpec, WavePacket, derivative, evaluate_trig_interpolant

__all__ = [
    "hermite",
    "hermite_functions",
    "sho_eigenstate",
    "eigenmode",
    "eigenmode_packet",
    "mode_sum_kernel",
    "apply_U_F",
    "apply_U_S",
    "build_generalized_coherent_state",
    "invariant_expectation",
]

_MAX_HERMITE = 200


def _quantum_numbers(qn, n_dims):
    """One non-negative integer per dimension, from an int or a sequence."""
    numbers = tuple(int(k) for k in (qn if isinstance(qn, (tuple, list)) else (qn,)))
    if any(k < 0 for k in numbers):
        raise ValidationError("quantum numbers must be non-negative")
    if len(numbers) != n_dims:
        raise ValidationError(f"need {n_dims} quantum number(s), got {len(numbers)}")
    return numbers


def hermite(n: int, y):
    """Physicists' Hermite polynomial H_n by the three-term recurrence."""
    if n < 0 or n > _MAX_HERMITE:
        raise ValidationError(f"hermite order must be in [0, {_MAX_HERMITE}]")
    y = np.asarray(y, dtype=float)
    h_prev = np.ones_like(y)
    if n == 0:
        return h_prev if y.shape else float(h_prev)
    h = 2.0 * y
    for k in range(1, n):
        h, h_prev = 2.0 * y * h - 2.0 * k * h_prev, h
    return h if y.shape else float(h)


def hermite_functions(n_max: int, z):
    """Orthonormal Hermite functions htilde_0..htilde_{n_max} at points z.

    htilde_n(z) = H_n(z) exp(-z^2/2) / sqrt(2^n n! sqrt(pi)); the normalized
    recurrence keeps every intermediate bounded, so large n and z are safe
    where the raw polynomial would overflow.
    """
    if n_max < 0 or n_max > _MAX_HERMITE:
        raise ValidationError(f"hermite order must be in [0, {_MAX_HERMITE}]")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty((n_max + 1, len(z)))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * z * z)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * z * out[0]
    for k in range(1, n_max):
        out[k + 1] = (math.sqrt(2.0 / (k + 1)) * z * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


def sho_eigenstate(n: int, grid: GridSpec, hbar: float = 1.0) -> WavePacket:
    """Normalized n-th eigenstate of p^2/2 + x^2/2 sampled on the grid."""
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    wavelength = math.pi * math.sqrt(hbar) / math.sqrt(2.0 * n + 1.0)
    if grid.dx > wavelength / 8.0:
        raise GridTooNarrow(
            f"grid spacing {grid.dx:.3g} cannot resolve mode n={n} "
            f"(needs <= {wavelength / 8.0:.3g})")
    z = grid.points / math.sqrt(hbar)
    samples = hbar ** -0.25 * hermite_functions(n, z)[n]
    packet = WavePacket(grid, samples.astype(np.complex128), t=0.0)
    packet.require_dark_edges(1e-8, f"sho_eigenstate(n={n})")
    return packet


def _mode_snapshots(s, basis, part, t):
    """Basis and particular snapshots at t for a mode construction (Omega > 0)."""
    if basis.omega <= 0:
        raise ValidationError("mode construction needs Omega > 0 (normalizable Gaussian)")
    return basis.at(t), particular_or_zero(s, part).at(t)


def _mode_common_1d(s, omega, bs, ps, t, x):
    """Shared per-dimension factor of psi_n at t from the snapshots bs, ps
    there: everything except htilde_n and the (n + 1/2) theta phase.
    Returns (common, z)."""
    hbar = s.hbar
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    x = np.asarray(x, dtype=float)
    dxp = x - ps.x
    z = math.sqrt(omega / hbar) * dxp / bs.rho
    phase = (ps.xi + bs.mass * a_c * x * x + (ps.momentum + b_c) * x) / hbar \
        + bs.mass * bs.rho_dot * dxp * dxp / (2.0 * hbar * bs.rho)
    common = (omega / (hbar * bs.rho ** 2)) ** 0.25 * np.exp(1j * phase)
    return common, z


def eigenmode(s: Scenario, basis: ClassicalBasis, part, qn, t: float, r) -> complex:
    """Value of the mode-set wavefunction psi_qn(t, r).

    The branch of (u - iv)^{n + 1/2} is tracked continuously from t0 via the
    unwrapped basis angle, and the time integral of f starts at t0 (a global
    phase convention, matching xi(t0) = tau(t0) = 0).
    """
    numbers = _quantum_numbers(qn, s.dimension)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (s.dimension,):
        raise ValidationError(f"position must have {s.dimension} component(s)")
    bs, ps = _mode_snapshots(s, basis, part, t)
    f_int = integrate_coefficient(s.f, s.t0, t) / s.hbar
    value = np.exp(1j * f_int)
    for n_i, x_i in zip(numbers, r):
        common, z = _mode_common_1d(s, basis.omega, bs, ps, t, x_i)
        h = hermite_functions(n_i, z)[n_i][0]
        value = value * common * h * np.exp(1j * (n_i + 0.5) * bs.theta)
    return complex(value)


def eigenmode_packet(s: Scenario, basis: ClassicalBasis, part, n: int, t: float,
                     grid: GridSpec) -> WavePacket:
    """psi_n(t, .) sampled on a grid (dimension 1)."""
    if s.dimension != 1:
        raise ValidationError("eigenmode_packet is implemented for dimension 1")
    bs, ps = _mode_snapshots(s, basis, part, t)
    common, z = _mode_common_1d(s, basis.omega, bs, ps, t, grid.points)
    h = hermite_functions(n, z)[n]
    f_int = integrate_coefficient(s.f, s.t0, t) / s.hbar
    samples = common * h * np.exp(1j * ((n + 0.5) * bs.theta + f_int))
    return WavePacket(grid, samples, t=t)


def mode_sum_kernel(s: Scenario, basis: ClassicalBasis, part, n_max: int,
                    q) -> complex:
    """Truncated mode-sum form of the kernel: sum over n <= n_max of
    psi_n(b) psi_n*(a), factorized over dimensions."""
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    ra = np.atleast_1d(np.asarray(q.r_a, dtype=float))
    rb = np.atleast_1d(np.asarray(q.r_b, dtype=float))
    if ra.shape != (s.dimension,) or rb.shape != (s.dimension,):
        raise ValidationError(f"positions must have {s.dimension} component(s)")
    bs_a, ps_a = _mode_snapshots(s, basis, part, q.t_a)
    bs_b, ps_b = _mode_snapshots(s, basis, part, q.t_b)
    orders = np.arange(n_max + 1) + 0.5
    turn = np.exp(1j * orders * (bs_b.theta - bs_a.theta))
    total = 1.0 + 0j
    for x_a, x_b in zip(ra, rb):
        common_a, z_a = _mode_common_1d(s, basis.omega, bs_a, ps_a, q.t_a, x_a)
        common_b, z_b = _mode_common_1d(s, basis.omega, bs_b, ps_b, q.t_b, x_b)
        h_a = hermite_functions(n_max, z_a)[:, 0]
        h_b = hermite_functions(n_max, z_b)[:, 0]
        total *= common_b * np.conj(common_a) * np.sum(h_a * h_b * turn)
    # the per-dimension commons exclude the pure time term; it enters once
    f_ab = integrate_coefficient(s.f, q.t_a, q.t_b) / s.hbar
    return complex(total * np.exp(1j * f_ab))


def _support_bounds(packet: WavePacket, rel=1e-8):
    amp = np.abs(packet.samples)
    peak = float(np.max(amp))
    if peak == 0.0:
        return packet.grid.x_min, packet.grid.x_min
    idx = np.nonzero(amp > rel * peak)[0]
    pts = packet.grid.points
    return float(pts[idx[0]]), float(pts[idx[-1]])


def apply_U_F(packet: WavePacket, part: ParticularSolution, s: Scenario,
              t: float) -> WavePacket:
    """Displacement map: translate by x_p(t), boost by M x_p', phase by xi.

    (U_F psi)(x) = exp(i xi / hbar) exp(i M x_p' x / hbar) psi(x - x_p);
    part=None stands for x_p = 0.
    """
    ps = particular_or_zero(s, part).at(t)
    xp = ps.x
    lo, hi = _support_bounds(packet)
    if lo + xp < packet.grid.x_min or hi + xp > packet.grid.x_max:
        raise GridTooNarrow(f"translation by {xp:.3g} pushes support off the grid")
    # exact band-limited translation: phase multiply in frequency space
    n = packet.grid.n_points
    freqs = np.fft.fftfreq(n, d=packet.grid.dx)
    shifted = np.fft.ifft(np.fft.fft(packet.samples) * np.exp(-2j * np.pi * freqs * xp))
    x = packet.grid.points
    outside = (x - xp < packet.grid.x_min) | (x - xp > packet.grid.x_max)
    shifted[outside] = 0.0
    out = np.exp(1j * (ps.xi + ps.momentum * x) / s.hbar) * shifted
    return WavePacket(packet.grid, out, t=t)


def apply_U_S(packet: WavePacket, basis: ClassicalBasis, s: Scenario,
              t: float) -> WavePacket:
    """Squeezing map: dilate by sqrt(Omega/rho^2) with a quadratic phase.

    (U_S psi)(x) = exp(i M rho' x^2 / (2 hbar rho)) (Omega/rho^2)^{1/4}
                   psi(sqrt(Omega/rho^2) x).
    """
    omega = basis.omega
    if omega <= 0:
        raise ValidationError("squeezing map needs Omega > 0")
    bs = basis.at(t)
    scale = math.sqrt(omega) / bs.rho
    packet.require_dark_edges(1e-8, "apply_U_S")
    rescaled = evaluate_trig_interpolant(packet, scale * packet.grid.points)
    x = packet.grid.points
    out = (np.sqrt(scale)
           * np.exp(1j * bs.mass * bs.rho_dot * x * x / (2.0 * s.hbar * bs.rho)) * rescaled)
    result = WavePacket(packet.grid, out, t=t)
    result.require_dark_edges(1e-8, "apply_U_S output")
    return result


def build_generalized_coherent_state(s: Scenario, basis: ClassicalBasis, part,
                                     n: int, t: float, grid: GridSpec) -> WavePacket:
    """Mode n of the full system built as the unitary transform of a unit-SHO
    eigenstate: energy phase x U_F x U_S acting on phi_n, evaluated in closed
    form on the grid (no interpolation error).

    The energy phase uses E = hbar (n + 1/2) and the unwrapped basis angle
    theta(t) = theta(t0) - tau(t), so it reduces to exp(-i E tau / hbar) for
    bases with u(t0) > 0, v(t0) = 0. For scenarios with quadratic couplings
    (a, b, f nonzero) the corresponding phase map is applied on top, keeping
    the construction equal to the mode set for every scenario.
    """
    if s.dimension != 1:
        raise ValidationError("coherent-state construction is implemented for dimension 1")
    if n < 0:
        raise ValidationError("mode index must be >= 0")
    bs, ps = _mode_snapshots(s, basis, part, t)
    hbar = s.hbar
    x = grid.points

    # U_S phi_n at the shifted argument: dilation with Jacobian normalization
    scale = math.sqrt(basis.omega) / bs.rho
    y = scale * (x - ps.x)
    phi = hbar ** -0.25 * hermite_functions(n, y / math.sqrt(hbar))[n]
    state = math.sqrt(scale) * phi \
        * np.exp(1j * bs.mass * bs.rho_dot * (x - ps.x) ** 2 / (2.0 * hbar * bs.rho))
    # U_F: momentum boost and xi phase (translation already in the argument)
    state = state * np.exp(1j * (ps.xi + ps.momentum * x) / hbar)
    # energy phase through the unwrapped basis angle
    state = state * np.exp(1j * (n + 0.5) * bs.theta)
    # quadratic-coupling phase map (identity when a = b = f = 0)
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    f_int = integrate_coefficient(s.f, s.t0, t)
    state = state * np.exp(1j * (bs.mass * a_c * x * x + b_c * x + f_int) / hbar)
    result = WavePacket(grid, state, t=t)
    result.require_dark_edges(1e-8, "build_generalized_coherent_state")
    return result


def invariant_expectation(packet: WavePacket, basis: ClassicalBasis, part,
                          s: Scenario, with_diagnostic: bool = False):
    """Expectation of the invariant I on a packet at the packet's time.

    I = [ (Omega^2/rho^2) X^2 + (M rho' X - rho P)^2 ] / (2 Omega) with
    X = x - x_p and P = p - 2 M a x - b - M x_p', where p = -i hbar d/dx and
    p - 2 M a x - b = M dx/dt is the kinetic momentum under the a, b gauge
    couplings (the convention of classical.classical_invariant); part=None
    stands for x_p = 0. The cross
    term expands to the symmetric combination XP + PX, so <I> is real up to
    discretization. The momentum acts by 4th-order centered differences.
    """
    packet.require_dark_edges(1e-8, "invariant_expectation")
    t = packet.t
    hbar = s.hbar
    omega = basis.omega
    bs = basis.at(t)
    ps = particular_or_zero(s, part).at(t)
    m = bs.mass
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    x = packet.grid.points
    dx = packet.grid.dx
    psi = packet.samples
    momentum_shift = 2.0 * m * a_c * x + b_c + ps.momentum

    def p_tilde(f):
        return -1j * hbar * derivative(f, dx) - momentum_shift * f

    x_shift = x - ps.x
    p_psi = p_tilde(psi)
    xpsi = x_shift * psi
    cross = x_shift * p_psi + p_tilde(xpsi)
    i_psi = ((omega ** 2 / bs.rho ** 2 + (m * bs.rho_dot) ** 2) * x_shift * xpsi
             - m * bs.rho * bs.rho_dot * cross
             + bs.rho ** 2 * p_tilde(p_psi)) / (2.0 * omega)
    norm_sq = np.trapezoid(np.abs(psi) ** 2, dx=dx)
    expectation = complex(np.trapezoid(np.conj(psi) * i_psi, dx=dx) / norm_sq)
    if with_diagnostic:
        return expectation.real, expectation.imag
    return expectation.real

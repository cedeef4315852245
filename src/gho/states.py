"""Complete wavefunction sets, unitary displacement/squeezing maps, invariant.

The mode set for a generalized oscillator is

    psi_n(t, x) = (|Omega| / (hbar rho^2))^{1/4} htilde_n(z) *
                  exp[ i ( (n + 1/2) sgn(Omega) theta(t)
                           + ( xi + M a x^2 + (M x_p' + b) x + int f ) / hbar
                           + M rho' (x - x_p)^2 / (2 hbar rho) ) ]

with z = sqrt(|Omega|/hbar) (x - x_p) / rho and htilde_n the orthonormal
Hermite functions. theta(t) is the continuously unwrapped angle of u - i v;
it equals theta(t0) - tau(t), so sgn(Omega) theta, the angle of
u - i sgn(Omega) v, falls at the rate |Omega| / (M rho^2) and the fractional
power (n + 1/2) never suffers principal-branch jumps. Only rho, rho', |Omega|
and that angle enter, so a basis with Omega < 0 and its swapped pair (v, u)
give the same states up to one constant phase per mode.

The same states arise from unit-oscillator eigenstates phi_n through the
displacement map U_F (shift by x_p plus momentum boost) and the squeezing map
U_S (dilation by rho/sqrt(|Omega|) plus quadratic phase): energy phase x U_F
x U_S phi_n = psi_n. Both maps are provided as grid operations on arbitrary
packets, apart from the closed form above: each is one read of the packet's
trigonometric interpolant on a moved lattice (packets._read_interpolant),
the lattice shifted by x_p for U_F and scaled for U_S.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import fft

from .classical import (ClassicalBasis, ParticularSolution, _check_time, _snapshots,
                        gauge_coefficients, particular_or_zero)
from .coefficients import Scenario, integrate_coefficient
from .errors import GridTooNarrow, ValidationError
from .packets import (GridSpec, WavePacket, _read_interpolant, _support, _times_grid_phase,
                      _trapezoid_inner, derivative)

__all__ = [
    "hermite_functions",
    "sho_eigenstate",
    "eigenmode",
    "eigenmode_packet",
    "eigenmode_packets",
    "mode_sum_kernel",
    "apply_U_F",
    "apply_U_S",
    "build_generalized_coherent_state",
    "invariant_expectation",
]

_MAX_HERMITE = 200


def hermite_functions(n_max: int, z):
    """Orthonormal Hermite functions htilde_0..htilde_{n_max} at points z.

    htilde_n(z) = H_n(z) exp(-z^2/2) / sqrt(2^n n! sqrt(pi)); the normalized
    recurrence keeps every intermediate bounded, so large n and z are safe
    where the raw polynomial would overflow.
    """
    z = _hermite_points(n_max, z)
    table = np.empty((n_max + 1,) + z.shape)
    for n, row in enumerate(_hermite_rows(n_max, z)):
        table[n] = row
    return table


def _hermite_row(n: int, z):
    """htilde_n(z) alone, equal to hermite_functions(n, z)[n] to the bit; the
    recurrence keeps only its last two rows."""
    for row in _hermite_rows(n, _hermite_points(n, z)):
        pass
    return row


def _hermite_points(n_max, z):
    if n_max < 0 or n_max > _MAX_HERMITE:
        raise ValidationError(f"hermite order must be in [0, {_MAX_HERMITE}]")
    return np.atleast_1d(np.asarray(z, dtype=float))


def _hermite_rows(n_max, z):
    """Yield htilde_0..htilde_{n_max}(z) in turn, each from the two before it
    by sqrt(2 / (k + 1)) z row - sqrt(k / (k + 1)) prev, in three buffers: a
    yielded row is overwritten two rows later."""
    prev = np.multiply(z, z)
    prev *= -0.5
    np.exp(prev, out=prev)
    prev *= math.pi ** -0.25
    yield prev
    if n_max >= 1:
        row = np.multiply(math.sqrt(2.0), z)
        row *= prev
        yield row
    if n_max >= 2:
        new = np.empty_like(row)
    for k in range(1, n_max):
        np.multiply(math.sqrt(2.0 / (k + 1)), z, out=new)
        new *= row
        prev *= math.sqrt(k / (k + 1.0))
        new -= prev
        prev, row, new = row, new, prev
        yield row


def sho_eigenstate(n: int, grid: GridSpec, hbar: float = 1.0) -> WavePacket:
    """Normalized n-th eigenstate of p^2/2 + x^2/2 sampled on the grid."""
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    z = _hermite_points(n, grid.points / math.sqrt(hbar))  # checks n first
    wavelength = math.pi * math.sqrt(hbar) / math.sqrt(2.0 * n + 1.0)
    if grid.dx > wavelength / 8.0:
        raise GridTooNarrow(
            f"grid spacing {grid.dx:.3g} cannot resolve mode n={n} "
            f"(needs <= {wavelength / 8.0:.3g})")
    samples = hbar ** -0.25 * _hermite_row(n, z)
    packet = WavePacket(grid, samples.astype(np.complex128), t=0.0)
    packet.require_dark_edges(1e-8, f"sho_eigenstate(n={n})")
    return packet


def _modes_1d(s, basis, part, n_max, t, x):
    """psi_0..psi_{n_max} at time t and positions x, from one basis and one
    particular snapshot, as factors: psi_k = htilde_k(z) * amplitude *
    exp(i (alpha x^2 + beta x + gamma)) * turn[k], the envelope's phase being
    the gauge phase plus M rho' (x - x_p)^2 / (2 hbar rho) and
    phase = (alpha, beta, gamma). turn holds exp(i (k + 1/2) sgn(Omega)
    theta). gamma holds the time term int f / hbar from t0. The caller takes
    the envelope's exponential, in place on a grid and by _envelope at
    scattered points, and evaluates the Hermite functions at z: every row for
    a mode sum, one row when only psi_k is wanted. Raises ValidationError for
    t outside the working interval.
    """
    _check_time(s, t, "t")
    bs, ps = _snapshots(basis, part, t)
    hbar = s.hbar
    omega = abs(basis.omega)
    alpha, beta, gamma = gauge_coefficients(s, bs.mass, ps, t)
    gamma += integrate_coefficient(s.f, s.t0, t) / hbar
    chirp = bs.mass * bs.rho_dot / (2.0 * hbar * bs.rho)
    phase = (alpha + chirp, beta - 2.0 * chirp * ps.x, gamma + chirp * ps.x * ps.x)
    amplitude = (omega / (hbar * bs.rho ** 2)) ** 0.25
    z = np.subtract(x, ps.x, dtype=float)
    z *= math.sqrt(omega / hbar)
    z /= bs.rho
    angle = math.copysign(1.0, basis.omega) * bs.theta
    turn = np.exp(1j * (np.arange(n_max + 1) + 0.5) * angle)
    return z, amplitude, phase, turn


def _envelope(amplitude, phase, x):
    """amplitude * exp(i (alpha x^2 + beta x + gamma)) at scattered points x."""
    alpha, beta, gamma = phase
    return amplitude * np.exp(1j * ((alpha * x + beta) * x + gamma))


def eigenmode(s: Scenario, basis: ClassicalBasis, part, n: int, t: float, x: float) -> complex:
    """Value of the mode-set wavefunction psi_n(t, x).

    The branch of (u - iv)^{n + 1/2} is tracked continuously from t0 via the
    unwrapped basis angle, and the time integral of f starts at t0 (a global
    phase convention, matching xi(t0) = tau(t0) = 0). x is a scalar
    (ValidationError for an array); eigenmode_packet samples a grid.
    """
    if np.ndim(x) != 0:
        raise ValidationError("eigenmode takes a scalar position; "
                              "eigenmode_packet samples a grid")
    z, amplitude, phase, turn = _modes_1d(s, basis, part, n, t, x)
    return complex(_hermite_row(n, z)[0] * _envelope(amplitude, phase, x) * turn[n])


def eigenmode_packet(s: Scenario, basis: ClassicalBasis, part, n: int, t: float,
                     grid: GridSpec) -> WavePacket:
    """psi_n(t, .) sampled on a grid; the envelope's phase is one grid phase,
    multiplied in place."""
    z, amplitude, phase, turn = _modes_1d(s, basis, part, n, t, grid.points)
    return _mode_packet(_hermite_row(n, z), amplitude * turn[n], phase, grid, t)


def eigenmode_packets(s: Scenario, basis: ClassicalBasis, part, n_max: int, t: float,
                      grid: GridSpec) -> list[WavePacket]:
    """psi_0..psi_{n_max}(t, .) sampled on a grid, from one _modes_1d and one
    Hermite recursion: each equal to eigenmode_packet's to the bit."""
    z, amplitude, phase, turn = _modes_1d(s, basis, part, n_max, t, grid.points)
    return [_mode_packet(row, amplitude * turn[n], phase, grid, t)
            for n, row in enumerate(_hermite_rows(n_max, _hermite_points(n_max, z)))]


def _mode_packet(row, scale, phase, grid, t):
    """The packet of row * scale times the envelope's grid phase."""
    samples = row.astype(np.complex128)
    samples *= scale
    _times_grid_phase(samples, *phase, grid.x_min, grid.dx)
    return WavePacket(grid, samples, t=t)


def mode_sum_kernel(s: Scenario, basis: ClassicalBasis, part, n_max: int,
                    q) -> complex:
    """Truncated mode-sum form of the kernel: sum over n <= n_max of
    psi_n(b) psi_n*(a), at scalar positions (ValidationError for arrays)."""
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if np.ndim(q.r_a) != 0 or np.ndim(q.r_b) != 0:
        raise ValidationError("mode_sum_kernel takes scalar positions")
    z_a, amplitude_a, phase_a, turn_a = _modes_1d(s, basis, part, n_max, q.t_a, q.r_a)
    z_b, amplitude_b, phase_b, turn_b = _modes_1d(s, basis, part, n_max, q.t_b, q.r_b)
    envelope_a = _envelope(amplitude_a, phase_a, q.r_a)
    envelope_b = _envelope(amplitude_b, phase_b, q.r_b)
    h_a, h_b = hermite_functions(n_max, z_a), hermite_functions(n_max, z_b)
    total = np.sum(h_a[:, 0] * h_b[:, 0] * _times_conj(turn_b, turn_a))
    return complex(_times_conj(envelope_b, envelope_a) * total)


def _times_conj(z, w):
    """z conj(w) from real products, so that swapping z and w conjugates it to
    the bit; numpy's complex product, fused on some CPUs, does not promise
    that."""
    out = np.empty(np.broadcast(z, w).shape, dtype=complex)
    out.real = z.real * w.real + z.imag * w.imag
    out.imag = z.imag * w.real - z.real * w.imag
    return out


def apply_U_F(packet: WavePacket, part: ParticularSolution, s: Scenario,
              t: float) -> WavePacket:
    """Displacement map: translate by x_p(t), boost by M x_p', phase by xi.

    (U_F psi)(x) = exp(i xi / hbar) exp(i M x_p' x / hbar) psi(x - x_p);
    part=None stands for x_p = 0. The packet's interpolant is read at
    x - x_p, a lattice at the grid's own spacing, so one inverse FFT after
    the ramp exp(-i k x_p) on the spectrum, with the phase folded in.
    """
    _check_time(s, t, "t")
    ps = particular_or_zero(s, part).at(t)
    xp = ps.x
    grid = packet.grid
    x = grid.points
    first, last = _support(np.abs(packet.samples), 1e-8)
    if x[first] + xp < grid.x_min or x[last] + xp > grid.x_max:
        raise GridTooNarrow(f"translation by {xp:.3g} pushes support off the grid")
    shifted = _read_interpolant(fft(packet.samples), grid, grid.x_min - xp, grid.dx,
                                grid.n_points, phase=(0.0, ps.momentum / s.hbar, ps.xi / s.hbar))
    return WavePacket(grid, shifted, t=t)


def apply_U_S(packet: WavePacket, basis: ClassicalBasis, s: Scenario,
              t: float) -> WavePacket:
    """Squeezing map: dilate by sqrt(|Omega|/rho^2) with a quadratic phase.

    (U_S psi)(x) = exp(i M rho' x^2 / (2 hbar rho)) (|Omega|/rho^2)^{1/4}
                   psi(sqrt(|Omega|/rho^2) x);
    one read of the packet's interpolant on the dilated lattice, with the
    amplitude and the chirp folded in.
    """
    _check_time(s, t, "t")
    bs = basis.at(t)
    scale = math.sqrt(abs(basis.omega)) / bs.rho
    packet.require_dark_edges(1e-8, "apply_U_S")
    grid = packet.grid
    chirp = bs.mass * bs.rho_dot / (2.0 * s.hbar * bs.rho)
    rescaled = _read_interpolant(fft(packet.samples), grid, scale * grid.x_min, scale * grid.dx,
                                 grid.n_points, math.sqrt(scale), phase=(chirp, 0.0, 0.0))
    result = WavePacket(grid, rescaled, t=t)
    result.require_dark_edges(1e-8, "apply_U_S output")
    return result


def build_generalized_coherent_state(s: Scenario, basis: ClassicalBasis, part,
                                     n: int, t: float, grid: GridSpec) -> WavePacket:
    """Mode n of the full system as the unitary transform of a unit-SHO
    eigenstate phi_n: energy phase x U_F x U_S phi_n = psi_n. It applies no
    transform: it returns eigenmode_packet's samples of psi_n, which are
    that product written out, and raises GridTooNarrow unless the packet's
    edges are dark to 1e-8 of its peak.

    U_S stretches phi_n by rho/sqrt(|Omega|) with the chirp
    M rho' x^2 / (2 hbar rho), U_F shifts it by x_p and boosts it by M x_p'
    with the phase xi, and the energy phase exp(i (n + 1/2) sgn(Omega) theta)
    reduces to exp(-i E |tau| / hbar), E = hbar (n + 1/2), for bases with
    u(t0) > 0, v(t0) = 0; the couplings add exp(i (M a x^2 + b x + int f) /
    hbar). The product is the mode psi_n of eigenmode_packet.
    """
    result = eigenmode_packet(s, basis, part, n, t, grid)
    result.require_dark_edges(1e-8, "build_generalized_coherent_state")
    return result


def invariant_expectation(packet: WavePacket, basis: ClassicalBasis, part,
                          s: Scenario, with_diagnostic: bool = False):
    """Expectation of the invariant I on a packet at the packet's time.

    I = [ (Omega^2/rho^2) X^2 + (M rho' X - rho P)^2 ] / (2 |Omega|) with
    X = x - x_p and P = p - 2 M a x - b - M x_p', where p = -i hbar d/dx and
    p - 2 M a x - b = M dx/dt is the kinetic momentum under the a, b gauge
    couplings (the convention of classical.classical_invariant); part=None
    stands for x_p = 0. X and M rho' X - rho P are Hermitian, so

        <I> = [ (Omega^2/rho^2) ||X psi||^2 + ||(M rho' X - rho P) psi||^2 ]
              / (2 |Omega| ||psi||^2),

    real and non-negative by construction. P psi takes one pass of
    packets.derivative, the 7-point sixth-order stencil, and each
    norm is the trapezoidal integral.

    The sum of squares rests on P being Hermitian: the zero-padded stencil
    is antisymmetric, so P is Hermitian under the plain sum and, under the
    trapezoid, up to the dark end samples. with_diagnostic=True returns the
    pair (<I>, Im<psi, P psi> / (||psi|| ||P psi||)); the second value measures
    how far P is from Hermitian on this packet and is near rounding on a
    resolved, dark-edged one.
    """
    _check_time(s, packet.t, "packet.t")
    packet.require_dark_edges(1e-8, "invariant_expectation")
    t = packet.t
    bs, ps = _snapshots(basis, part, t)
    omega = abs(basis.omega)
    m = bs.mass
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    dx = packet.grid.dx
    psi = packet.samples
    # P psi = -i hbar psi' - (2 M a x + b + M x_p') psi; the grid points are
    # made after the stencil, whose padded copy and pair are then gone
    p_psi = derivative(psi, dx)
    np.multiply(-1j * s.hbar, p_psi, out=p_psi)
    x = packet.grid.points
    shift = 2.0 * m * a_c * x
    shift += b_c
    shift += ps.momentum
    work = np.empty_like(psi)
    np.copyto(work, shift)
    work *= psi
    p_psi -= work
    norm_sq = _trapezoid_inner(psi, psi, dx).real
    if with_diagnostic:
        skew = _trapezoid_inner(psi, p_psi, dx).imag / math.sqrt(
            norm_sq * _trapezoid_inner(p_psi, p_psi, dx).real)
    x -= ps.x
    np.copyto(work, x)
    x_psi = np.multiply(work, psi, out=work)
    spread = _trapezoid_inner(x_psi, x_psi, dx).real
    # (M rho' X - rho P) psi, over the buffers of X psi and P psi
    mixed = np.multiply(m * bs.rho_dot, x_psi, out=x_psi)
    mixed -= np.multiply(bs.rho, p_psi, out=p_psi)
    value = float((omega ** 2 / bs.rho ** 2 * spread + _trapezoid_inner(mixed, mixed, dx).real)
                  / (2.0 * omega * norm_sq))
    if with_diagnostic:
        return value, float(skew)
    return value

"""Exact quadratic-system propagator built from classical solutions.

For any pair of times the kernel is a complex Gaussian

    K(b, a) = P * exp[ i ( Q_bb x_b^2 + Q_ab x_a x_b + Q_aa x_a^2
                           + L_b x_b + L_a x_a + C ) ]

whose coefficients come from the homogeneous basis (u, v), the particular
solution x_p and the scenario couplings. With u - i v = rho exp(i theta) and
theta = theta(t0) - tau, the denominator is

    D = v(t_b) u(t_a) - u(t_b) v(t_a) = rho(t_a) rho(t_b) sin(tau_b - tau_a),

so it vanishes at focal times, where |tau_b - tau_a| is a multiple of pi; there
the kernel is distributional and evaluation raises CausticEncountered. The
branch of the square-root prefactor is fixed to exp(-i pi/4) per dimension in
the short forward-time limit (free-Gaussian convention) and continued through
each simple zero of D with an extra exp(-i pi/2) per dimension. The Morse
index is counted from tau, floor(|tau_b - tau_a| / pi), with its parity pinned
by the sign of D. Backward-time values follow from the conjugation symmetry
K*(b, a) = K(a, b).

Wave-packet propagation evaluates the quadrature

    psi(t_b, x) = integral K(t_b, x; t_a, y) psi(t_a, y) dy

as a trapezoidal sum; because the integrand is a chirp times a band-limited
packet the sum is computed exactly via chirp multiplications and a chirp-z
transform, with the packet trigonometrically upsampled first whenever the
kernel's phase rate exceeds the packet grid's capacity (short-time kernels
oscillate far faster than any reasonable packet grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.optimize import brentq

from .classical import ClassicalBasis, particular_or_zero
from .coefficients import Scenario, integrate_coefficient
from .errors import CausticEncountered, GridTooNarrow, ValidationError
from .packets import WavePacket, czt, upsample_periodic

__all__ = [
    "KernelQuery",
    "CausticReport",
    "KernelCoefficients",
    "kernel_coefficients",
    "kernel",
    "green_function",
    "caustic_times",
    "propagate",
    "kernel_delta_check",
]

# caustic trigger: |D| below this times the basis scale at the two endpoints
CAUSTIC_RTOL = 1e-12
_QUAD_OVERSAMPLE = 4.0
_MAX_QUAD_POINTS = 1 << 23


@dataclass(frozen=True)
class KernelQuery:
    """Endpoint data (t_a, r_a) -> (t_b, r_b); positions are scalars for N=1."""

    t_a: float
    t_b: float
    r_a: object
    r_b: object


@dataclass(frozen=True)
class CausticReport:
    """Focal times after t_a, where tau has turned by a multiple of pi since
    t_a; morse_index counts those before a given time."""

    t_a: float
    t_end: float
    times: tuple

    def morse_index(self, t_b: float) -> int:
        """Number of focal times crossed strictly before t_b."""
        return int(np.searchsorted(np.asarray(self.times), t_b, side="left"))


@dataclass(frozen=True)
class KernelCoefficients:
    """Gaussian-exponent data of K between two fixed times (per dimension).

    value = prefactor * exp(i (q_bb x_b^2 + q_ab x_a x_b + q_aa x_a^2
                               + l_b x_b + l_a x_a)), summed over dimensions
    inside the exponent; the dimension-independent constant phase is already
    folded into `prefactor`.
    """

    t_a: float
    t_b: float
    n_dims: int
    prefactor: complex
    q_aa: float
    q_bb: float
    q_ab: float
    l_a: float
    l_b: float
    denominator: float

    def value_1d(self, x_a, x_b):
        """Kernel values with numpy broadcasting over endpoint positions."""
        x_a = np.asarray(x_a)
        x_b = np.asarray(x_b)
        phase = (self.q_bb * x_b * x_b + self.q_ab * x_a * x_b
                 + self.q_aa * x_a * x_a + self.l_b * x_b + self.l_a * x_a)
        return self.prefactor * np.exp(1j * phase)

    def value(self, r_a, r_b):
        ra = np.atleast_1d(np.asarray(r_a, dtype=float))
        rb = np.atleast_1d(np.asarray(r_b, dtype=float))
        if ra.shape != (self.n_dims,) or rb.shape != (self.n_dims,):
            raise ValidationError(
                f"positions must have {self.n_dims} component(s)")
        phase = (self.q_bb * rb @ rb + self.q_ab * ra @ rb + self.q_aa * ra @ ra
                 + self.l_b * np.sum(rb) + self.l_a * np.sum(ra))
        return complex(self.prefactor * np.exp(1j * phase))


def _check_time(s: Scenario, t, name):
    slack = 1e-9 * (s.t1 - s.t0)
    if t < s.t0 - slack or t > s.t1 + slack:
        raise ValidationError(f"{name}={t} outside working interval [{s.t0}, {s.t1}]")


def caustic_times(basis: ClassicalBasis, t_a: float, t_end=None) -> CausticReport:
    """All focal times in (t_a, t_end] (default: end of the working interval).

    D(t; t_a) = rho(t_a) rho(t) sin(tau(t) - tau(t_a)), so the k-th focal time
    is the root of the monotone sgn(Omega) (tau(t) - tau(t_a)) - k pi, polished
    by one Newton step on D; their number is the Morse index at t_end.
    """
    s = basis.scenario
    _check_time(s, t_a, "t_a")
    t_end = s.t1 if t_end is None else t_end
    times = []
    if t_end > t_a:
        at_a = basis.at(t_a)
        at_end = basis.at(t_end)
        count = _morse_count(basis.omega, at_a, at_end, at_end.v * at_a.u - at_end.u * at_a.v)
        sign = math.copysign(1.0, basis.omega)

        def half_turns(tau):
            return sign * float(tau - at_a.tau) / math.pi

        lo = t_a
        end_turns = half_turns(at_end.tau)
        for k in range(1, count + 1):
            if end_turns <= k:
                lo = t_end  # a focal time within solver error of t_end
            else:
                lo = brentq(lambda t: half_turns(basis.at(t).tau) - k, lo, t_end)
                # one Newton step on D removes the error tau accumulates
                at = basis.at(lo)
                lo = min(lo - (at.v * at_a.u - at.u * at_a.v)
                         / (at.v_dot * at_a.u - at.u_dot * at_a.v), t_end)
            times.append(float(lo))
    return CausticReport(t_a=t_a, t_end=t_end, times=tuple(times))


def _morse_count(omega, at_a, at_b, d):
    """Focal times strictly between t_a < t_b, from the basis snapshots there
    and D(t_b; t_a) = d.

    The count is floor(|tau_b - tau_a| / pi); its parity is pinned by
    sign(D Omega) = (-1)^count, which corrects the floor when the endpoint
    lies within the solver error of a focal time.
    """
    turns = abs(float(at_b.tau - at_a.tau)) / math.pi
    count = math.floor(turns)
    if (d * omega < 0) != (count % 2 == 1):
        count = count + 1 if turns - count > 0.5 else max(count - 1, 0)
    return count


def _forward_coefficients(s, basis, part, t_a, t_b) -> KernelCoefficients:
    hbar = s.hbar
    n = s.dimension
    # one scalar dense evaluation per solution and endpoint
    at_a, at_b = basis.at(t_a), basis.at(t_b)
    xp_a, xp_b = part.at(t_a), part.at(t_b)
    omega = basis.omega

    d = at_b.v * at_a.u - at_b.u * at_a.v
    scale = max(abs(at_b.u), abs(at_b.v)) * (abs(at_a.u) + abs(at_a.v))
    if abs(d) <= CAUSTIC_RTOL * scale:
        raise CausticEncountered(
            f"focal point: denominator {d:.3e} at t_b={t_b} (t_a={t_a})")

    a_aa = at_a.mass * (at_b.u * at_a.v_dot - at_a.u_dot * at_b.v) / (2.0 * hbar * d)
    a_bb = at_b.mass * (at_a.u * at_b.v_dot - at_b.u_dot * at_a.v) / (2.0 * hbar * d)
    a_ab = -omega / (hbar * d)

    ca, _ = s.a.eval(t_a)
    cb, _ = s.a.eval(t_b)
    ba, _ = s.b.eval(t_a)
    bb, _ = s.b.eval(t_b)

    q_aa = a_aa - at_a.mass * ca / hbar
    q_bb = a_bb + at_b.mass * cb / hbar
    q_ab = a_ab
    l_a = -2.0 * a_aa * xp_a.x - a_ab * xp_b.x - (xp_a.momentum + ba) / hbar
    l_b = -2.0 * a_bb * xp_b.x - a_ab * xp_a.x + (xp_b.momentum + bb) / hbar
    per_dim_const = a_aa * xp_a.x ** 2 + a_bb * xp_b.x ** 2 + a_ab * xp_a.x * xp_b.x

    f_int = integrate_coefficient(s.f, t_a, t_b)
    const = n * (per_dim_const + (xp_b.xi - xp_a.xi) / hbar) + f_int / hbar

    morse = _morse_count(omega, at_a, at_b, d)
    modulus = abs(omega / (2.0 * math.pi * hbar * d)) ** (0.5 * n)
    branch = -n * (0.25 * math.pi + 0.5 * math.pi * morse)
    prefactor = modulus * np.exp(1j * (branch + const))

    return KernelCoefficients(t_a=t_a, t_b=t_b, n_dims=n, prefactor=complex(prefactor),
                              q_aa=float(q_aa), q_bb=float(q_bb), q_ab=float(q_ab),
                              l_a=float(l_a), l_b=float(l_b), denominator=float(d))


def kernel_coefficients(s: Scenario, basis: ClassicalBasis, part, t_a, t_b) -> KernelCoefficients:
    """Gaussian coefficients of K(t_b, .; t_a, .); conjugated for t_b < t_a.

    part=None stands for x_p = 0 (see classical.particular_or_zero).
    """
    part = particular_or_zero(s, part)
    _check_time(s, t_a, "t_a")
    _check_time(s, t_b, "t_b")
    if t_b == t_a:
        raise ValidationError(
            "equal-time kernel is a delta function; probe it via kernel_delta_check")
    if t_b > t_a:
        return _forward_coefficients(s, basis, part, t_a, t_b)
    fwd = _forward_coefficients(s, basis, part, t_b, t_a)
    # K(b, a) = conj(K(a, b)): swap endpoint roles, negate the exponent
    return KernelCoefficients(t_a=t_a, t_b=t_b, n_dims=fwd.n_dims,
                              prefactor=complex(np.conj(fwd.prefactor)),
                              q_aa=-fwd.q_bb, q_bb=-fwd.q_aa, q_ab=-fwd.q_ab,
                              l_a=-fwd.l_b, l_b=-fwd.l_a,
                              denominator=-fwd.denominator)


def kernel(s: Scenario, basis: ClassicalBasis, part, q: KernelQuery) -> complex:
    """Exact kernel value K(b, a) for one endpoint query."""
    co = kernel_coefficients(s, basis, part, q.t_a, q.t_b)
    return co.value(q.r_a, q.r_b)


def green_function(s: Scenario, basis: ClassicalBasis, part, q: KernelQuery) -> complex:
    """Retarded Green function: K(b, a) for t_b > t_a, exactly 0 for t_b < t_a."""
    if q.t_b == q.t_a:
        raise ValidationError("Green function is distributional at equal times")
    if q.t_b < q.t_a:
        return 0j
    return kernel(s, basis, part, q)


def _lct_apply(co: KernelCoefficients, ys, g, dy, out_points):
    """Trapezoid-by-chirp-z: sum_m K(x_j, y_m) g_m dy for all output points."""
    beta = co.q_ab
    x0 = float(out_points[0])
    dxo = float(out_points[1] - out_points[0])
    m_out = len(out_points)
    h = g * np.exp(1j * (co.q_aa * ys * ys + co.l_a * ys))
    h = h * np.exp(1j * beta * x0 * (ys - ys[0]))
    transform = czt(h, m_out, beta * dxo * dy)
    transform *= np.exp(1j * beta * ys[0] * out_points)
    out = co.prefactor * np.exp(
        1j * (co.q_bb * out_points ** 2 + co.l_b * out_points)) * transform * dy
    return out


def _quadrature_size(co: KernelCoefficients, grid):
    """Points needed so the chirped integrand is sampled below Nyquist."""
    y_max = max(abs(grid.x_min), abs(grid.x_max))
    x_max = y_max
    kernel_rate = 2.0 * abs(co.q_aa) * y_max + abs(co.q_ab) * x_max + abs(co.l_a)
    packet_rate = math.pi / grid.dx
    period = grid.n_points * grid.dx
    needed = int(math.ceil(period * (packet_rate + _QUAD_OVERSAMPLE * kernel_rate) / math.pi))
    return max(needed, grid.n_points)


def propagate(packet: WavePacket, s: Scenario, basis: ClassicalBasis, part,
              t_b: float, _depth: int = 0) -> WavePacket:
    """Propagate a packet to t_b through the exact kernel quadrature.

    The evolved packet is regular even when t_b is a focal time (only the
    kernel's position representation is singular there), so a caustic at t_b
    is handled by composing two caustic-free hops through an intermediate
    time; caustics strictly inside the interval need no special treatment
    (the Morse phase accounts for them).
    """
    if s.dimension != 1:
        raise ValidationError("packet propagation is implemented for dimension 1")
    if t_b == packet.t:
        return packet.with_samples(packet.samples)
    packet.require_dark_edges(1e-10, "propagate")
    try:
        co = kernel_coefficients(s, basis, part, packet.t, t_b)
        needed = _quadrature_size(co, packet.grid)
    except CausticEncountered:
        co = None
        needed = None
    if co is None or needed > _MAX_QUAD_POINTS:
        # at (or numerically near) a focal time the kernel is singular or
        # oscillates beyond any quadrature budget; the evolved packet is
        # still regular, so compose two hops when that genuinely helps,
        # through the split point whose worse half needs the fewest points
        # (a midpoint next to another focal time barely resolves its chirp)
        best = None
        if _depth < 3:
            for fraction in (0.5, 0.45, 0.55, 0.40, 0.60):
                t_mid = packet.t + fraction * (t_b - packet.t)
                try:
                    co1 = kernel_coefficients(s, basis, part, packet.t, t_mid)
                    co2 = kernel_coefficients(s, basis, part, t_mid, t_b)
                except CausticEncountered:
                    continue
                worst = max(_quadrature_size(co1, packet.grid),
                            _quadrature_size(co2, packet.grid))
                if worst > _MAX_QUAD_POINTS or (needed is not None
                                                and worst > needed // 2):
                    continue  # splitting does not reduce the chirp
                if best is None or worst < best[0]:
                    best = (worst, t_mid)
        if best is not None:
            halfway = propagate(packet, s, basis, part, best[1], _depth + 1)
            return propagate(halfway, s, basis, part, t_b, _depth + 1)
        if co is None:
            raise CausticEncountered(
                f"focal point at t_b={t_b} and no caustic-free split found")
        raise GridTooNarrow(
            f"kernel needs {needed} quadrature points on this grid "
            f"(budget {_MAX_QUAD_POINTS}); the endpoint is too close to a "
            f"focal time or the step too short")
    m = next_fast_len(needed)
    ys, g = upsample_periodic(packet, m)
    dy = ys[1] - ys[0]
    out = _lct_apply(co, ys, g, dy, packet.grid.points)
    return WavePacket(packet.grid, out, t_b)


def kernel_delta_check(s: Scenario, basis: ClassicalBasis, part, t_a: float,
                       epsilon: float, test_packet: WavePacket) -> float:
    """L2 distance between a packet and its propagation over a short epsilon.

    Tends to 0 linearly as epsilon -> 0, which is the delta-function initial
    condition of the kernel probed through smooth states.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    start = test_packet.with_samples(test_packet.samples, t=t_a)
    moved = propagate(start, s, basis, part, t_a + epsilon)
    diff = np.abs(moved.samples - start.samples) ** 2
    return float(np.sqrt(np.trapezoid(diff, dx=test_packet.grid.dx)))

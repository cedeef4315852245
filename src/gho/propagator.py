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
branch of the square-root prefactor is fixed to exp(-i pi/4) in the short
forward-time limit (free-Gaussian convention) and continued through each
simple zero of D with an extra exp(-i pi/2). The Morse index is counted from
tau, floor(|tau_b - tau_a| / pi), with its parity pinned by the sign of D.
Backward-time values take the same formulas, which give K*(b, a) = K(a, b).

Wave-packet propagation makes one hop with the metaplectic operator of the
hop's symplectic matrix [[A, B], [C, .]] (see _hop_matrix; D above is Omega B):
stripped of the mode set's gauge phase, the linear canonical transform. The
factored form, regular at B = 0 (short hops, focal times), starts from one
FFT of the gauge-reduced packet: chirp(C/A) . dilation(A) . Fresnel(B/A),
the same operator as chirp(C/A) . Fresnel(A B) . dilation(A), is one read
(packets._read_interpolant) of the interpolant of the Fresnel-multiplied
spectrum at x_p(t_a) + (x - x_p(t_b)) / A, 0 off the grid, with the chirp
and the gauge phase as its output phase. A unit dilation, |A - 1| <= 4 eps
(every free-particle hop), is taken as A = 1: the read is then the shift by
x_p(t_b) - x_p(t_a) at the grid's own spacing, one inverse FFT, as for
states.apply_U_F; any other A reads by one chirp-z. The chirp-z form is the
trapezoidal kernel sum by chirp multiplications and a chirp-z transform,
regular at A = 0, on as many points as the trapezoid rule's aliasing bound
asks (see _quadrature_size): the packet's own grid on most hops, its
trigonometric interpolant read at that many points on the rest.

One test admits the factored form, whatever A is. Its Fresnel multiply on
the periodic grid moves each mode k by hbar (B/A) k, and is exact unless it
wraps the packet around the period; the read after it puts 0 off the grid,
so a moving x_p wraps nothing. The hop is factored when the packet's
phase-space box (_moved_box), the samples and the modes of that FFT above
PACKET_BOX_RTOL of their peak, sheared by hbar (B/A) k, lies inside the
FFT's period cell [x_min - dx/2, x_max + dx/2]; else it takes the chirp-z
form. A hop with A != 1 past the Nyquist band, hbar |B| pi / dx > |A| N dx,
where the grid's top mode shears by more than the period N dx, takes the
chirp-z form without that FFT. This is a shortcut, not a second test: with
A != 1 either form costs a chirp-z, and on such hops the box often leaves
the cell, so there the FFT and the box cost more than they save. The DEBUG
line of each hop names the test that chose its form.

Every phase either form puts on a grid (the gauge phase, the kernel's
chirps, the Fresnel transfer on each half of the FFT order) is a quadratic
in the grid index, evaluated from its coefficients and multiplied in place
into the array that carries it (packets._times_grid_phase); no full-grid
complex exponential is taken point by point.
"""

from __future__ import annotations

import cmath
import logging
import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .classical import ClassicalBasis, _read, _snapshots, gauge_coefficients
from .coefficients import Scenario, integrate_coefficient
from .errors import CausticEncountered, GridTooNarrow, ValidationError
from .packets import (MAX_POINTS, WavePacket, _ends, _read_interpolant, _scipy_fft, _support,
                      _times_grid_phase, czt, l2_distance, upsample_periodic)

_log = logging.getLogger(__name__)

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
# |A - 1| of a unit dilation: it moves no grid point by more than a few ulps
_UNIT_DILATION = 4.0 * np.finfo(float).eps
# a sample or an FFT mode of a packet belongs to its phase-space box when
# its modulus is above this fraction of the largest one (see propagate)
PACKET_BOX_RTOL = 1e-13
_EQUAL_TIMES = "equal-time kernel is a delta function; probe it via kernel_delta_check"
# numpy's elementwise functions that the kernel formulas use, under the same
# names for Python floats: a scalar query runs the one copy of the formulas
# without numpy's per-call overhead
_FLOATS = SimpleNamespace(abs=abs, maximum=max, floor=math.floor, exp=cmath.exp, any=bool,
                          copysign=math.copysign, where=lambda cond, yes, no: yes if cond else no)


class KernelQuery(NamedTuple):
    """Endpoint data (t_a, r_a) -> (t_b, r_b); the positions are scalars."""

    t_a: float
    t_b: float
    r_a: object
    r_b: object


class CausticReport(NamedTuple):
    """Focal times after t_a, where tau has turned by a multiple of pi since
    t_a; morse_index counts those before a given time."""

    t_a: float
    t_end: float
    times: tuple

    def morse_index(self, t_b: float) -> int:
        """Number of focal times crossed strictly before t_b."""
        return int(np.searchsorted(np.asarray(self.times), t_b, side="left"))


class KernelCoefficients(NamedTuple):
    """Gaussian-exponent data of K between two fixed times.

    value = prefactor * exp(i (q_bb x_b^2 + q_ab x_a x_b + q_aa x_a^2
                               + l_b x_b + l_a x_a)), the constant phase
    being already folded into `prefactor`; `value` is the one evaluator.

    For a 1-D array of time pairs every field is an array of the pairs, and
    `caustic` marks the pairs inside the caustic band, whose prefactor and
    exponent coefficients are nan (their denominator is kept). A scalar pair
    is never marked: it raises CausticEncountered instead.
    """

    t_a: object
    t_b: object
    prefactor: object
    q_aa: object
    q_bb: object
    q_ab: object
    l_a: object
    l_b: object
    denominator: object
    caustic: object = False

    def pair(self, k) -> KernelCoefficients:
        """The scalar coefficients of pair k of an array of time pairs."""
        return KernelCoefficients._make(v[k] for v in self)

    def value(self, x_a, x_b):
        """K at positions x_a, x_b: a complex by Python's complex exp when
        both are ints or floats, else numpy values broadcast over the
        positions (and over the pairs of an array of time pairs). A backward
        pair's coefficients are the forward pair's swapped and negated (see
        _coefficients), which maps each term group of the phase onto itself,
        so the phase is negated exactly and K(b, a) is conj K(a, b) to the bit."""
        scalar = isinstance(x_a, (int, float)) and isinstance(x_b, (int, float))
        if scalar:
            x_a, x_b, exp = float(x_a), float(x_b), cmath.exp
        else:
            x_a, x_b, exp = np.asarray(x_a), np.asarray(x_b), np.exp
        phase = ((self.q_aa * (x_a * x_a) + self.q_bb * (x_b * x_b)) + self.q_ab * (x_a * x_b)
                 + (self.l_a * x_a + self.l_b * x_b))
        value = self.prefactor * exp(1j * phase)
        return complex(value) if scalar else value


def caustic_times(basis: ClassicalBasis, t_a: float, t_end=None) -> CausticReport:
    """All focal times in (t_a, t_end] (default: end of the working interval).

    D(t; t_a) = rho(t_a) rho(t) sin(tau(t) - tau(t_a)), so the k-th focal time
    is the root of the monotone sgn(Omega) (tau(t) - tau(t_a)) - k pi, found to
    rounding since tau is exact to rounding; their number is the Morse index
    at t_end.
    """
    s = basis.scenario
    t_end = s.t1 if t_end is None else t_end
    at_a, at_end = _read(s, basis, t_a, "t_a"), _read(s, basis, t_end, "t_end")
    times = []
    if t_end > t_a:
        ops = _FLOATS if isinstance(t_a, (int, float)) and isinstance(t_end, (int, float)) else np
        count = int(_morse_count(at_a, at_end, _hop_matrix(basis.omega, at_a, at_end)[1], ops))
        end_turns = math.copysign(1.0, basis.omega) * float(at_end.tau - at_a.tau) / math.pi
        lo = t_a
        for k in range(1, count + 1):
            # a focal time within solver error of t_end is t_end
            lo = t_end if end_turns <= k else _focal_time(basis, at_a.tau, k, lo, t_end)
            times.append(float(lo))
    return CausticReport(t_a=t_a, t_end=t_end, times=tuple(times))


def _focal_time(basis, tau_a, k, lo, hi):
    """The root in [lo, hi] of g(t) = sgn(Omega) (tau(t) - tau_a) - k pi, which
    increases with g' = |Omega| / (M rho^2) from the same snapshot: Newton
    steps kept inside the bracket that g's sign narrows, bisection where a
    step would leave it, until the step is below rounding."""
    sign = math.copysign(1.0, basis.omega)
    t = lo
    for _ in range(200):
        at = basis.at(t)
        g = sign * float(at.tau - tau_a) - k * math.pi
        if g == 0.0:
            return t
        if g < 0.0:
            lo = t
        else:
            hi = t
        step = g * float(at.mass * at.rho ** 2) / abs(basis.omega)
        new = t - step if lo < t - step < hi else 0.5 * (lo + hi)
        if abs(new - t) <= 1e-15 * max(1.0, abs(t)):
            return new
        t = new
    return t


def _morse_count(at_a, at_b, big_b, ops):
    """Focal times strictly between t_a and t_b from the snapshots there and
    the hop matrix entry B of the forward order: floor(|tau_b - tau_a| / pi),
    with its parity pinned by sign(B) = (-1)^count when t_b is within solver
    error of a focal time. Element by element for snapshots at arrays of
    times; ops is numpy, or _FLOATS for snapshots of Python floats."""
    turns = ops.abs(at_b.tau - at_a.tau) / math.pi
    count = ops.floor(turns)
    wrong = (big_b < 0) != (count % 2 == 1)
    if ops.any(wrong):
        moved = ops.where(turns - count > 0.5, count + 1, ops.maximum(count - 1, 0))
        count = ops.where(wrong, moved, count)
    return count


def _hop_matrix(omega, at_a, at_b):
    """Symplectic matrix (A, B, C, D) of the hop t_a -> t_b, either way:
    X_b = A X_a + B P_a, P_b = C X_a + D P_a for X = x - x_p and P = M X'.
    B is the kernel denominator over Omega, 0 at focal times."""
    big_a = at_a.mass * (at_b.u * at_a.v_dot - at_a.u_dot * at_b.v) / omega
    big_b = (at_a.u * at_b.v - at_a.v * at_b.u) / omega
    big_c = at_a.mass * at_b.mass * (at_a.v_dot * at_b.u_dot - at_a.u_dot * at_b.v_dot) / omega
    big_d = at_b.mass * (at_a.u * at_b.v_dot - at_b.u_dot * at_a.v) / omega
    return big_a, big_b, big_c, big_d


def _coefficients(s, basis, part, t_a, t_b, scalar) -> KernelCoefficients:
    """Coefficients for t_a != t_b in either order, scalars or arrays of
    pairs; equal times raise ValidationError once both ends pass the gate,
    and a scalar pair in the caustic band raises, an array marks it.
    scalar says whether both times are ints or floats. K is exp(i G(t_b))
    times the reduced kernel in x - x_p times exp(-i G(t_a)) (G from
    gauge_coefficients) times exp(i int f / hbar) over [t_a, t_b]. Exchanged
    endpoints swap A and D and negate B; with sigma = sign(t_b - t_a) on the
    Morse pin and the branch, and the scale and the constant symmetric in
    the ends, they give every coefficient swapped and negated to the bit."""
    ops = _FLOATS if scalar else np
    hbar = s.hbar
    # one dense evaluation of the basis and x_p together per endpoint (array)
    at_a, xp_a = _snapshots(s, basis, part, t_a, "t_a")
    at_b, xp_b = _snapshots(s, basis, part, t_b, "t_b")
    if ops.any(t_a == t_b):
        raise ValidationError(_EQUAL_TIMES)
    omega = basis.omega
    sigma = ops.copysign(1.0, t_b - t_a)

    big_a, big_b, _, big_d = _hop_matrix(omega, at_a, at_b)
    d = omega * big_b
    scale = (ops.abs(at_a.u) + ops.abs(at_a.v)) * (ops.abs(at_b.u) + ops.abs(at_b.v))
    caustic = ops.abs(d) <= CAUSTIC_RTOL * scale
    morse = _morse_count(at_a, at_b, sigma * big_b, ops)
    if _log.isEnabledFor(logging.DEBUG):
        margin = np.abs(d) / (CAUSTIC_RTOL * scale)
        _log.debug("kernel_coefficients: %d pairs, Morse index <= %d, "
                   "min |D|/scale %.3e x CAUSTIC_RTOL", np.size(d),
                   int(np.max(morse, initial=0)), float(np.min(margin, initial=np.inf)))
    if ops.any(caustic):
        if np.ndim(caustic) == 0:
            raise CausticEncountered(
                f"focal point: denominator {d:.3e} at t_b={t_b} (t_a={t_a})")
        big_b = np.where(caustic, np.nan, big_b)

    a_aa = big_a / (2.0 * hbar * big_b)
    a_bb = big_d / (2.0 * hbar * big_b)
    a_ab = -1.0 / (hbar * big_b)

    alpha_a, beta_a, gamma_a = gauge_coefficients(s, at_a.mass, xp_a, t_a)
    alpha_b, beta_b, gamma_b = gauge_coefficients(s, at_b.mass, xp_b, t_b)
    q_aa = a_aa - alpha_a
    q_bb = a_bb + alpha_b
    q_ab = a_ab
    l_a = -2.0 * a_aa * xp_a.x - a_ab * xp_b.x - beta_a
    l_b = -2.0 * a_bb * xp_b.x - a_ab * xp_a.x + beta_b
    f_int = integrate_coefficient(s.f, t_a, t_b)
    const = ((a_aa * (xp_a.x * xp_a.x) + a_bb * (xp_b.x * xp_b.x)) + a_ab * (xp_a.x * xp_b.x)
             + (gamma_b - gamma_a) + f_int / hbar)

    modulus = ops.abs(1.0 / (2.0 * math.pi * hbar * big_b)) ** 0.5
    branch = sigma * -(0.25 * math.pi + 0.5 * math.pi * morse)
    prefactor = modulus * ops.exp(1j * (branch + const))

    return KernelCoefficients(t_a, t_b, prefactor, q_aa, q_bb, q_ab, l_a, l_b, d, caustic)


def kernel_coefficients(s: Scenario, basis: ClassicalBasis, part, t_a, t_b) -> KernelCoefficients:
    """Gaussian coefficients of K(t_b, .; t_a, .), forward or backward in time.

    t_a and t_b are scalars, or a scalar and a 1-D array or two 1-D arrays
    of one length (the pairs). At two scalar times (ints or floats,
    np.float64 included) the same formulas run on Python floats: the
    coefficients and the denominator are floats and the prefactor a complex.
    0-d arrays take numpy's path and give numpy scalars. Arrays are
    evaluated in one pass: one dense evaluation of the basis and x_p
    together per endpoint array (see classical._snapshots), the Morse count
    and the caustic band applied pair by pair, and the fields come back as
    arrays over the pairs (an overflow gives inf or nan, as on floats, and
    no numpy warning). A scalar pair inside the caustic band (|D| <=
    CAUSTIC_RTOL times the basis scale) raises CausticEncountered; in an
    array such pairs are marked in `caustic` and their prefactor and
    exponent coefficients are nan. Equal times raise ValidationError either
    way. Logs the number of pairs, the largest Morse index and the smallest
    |D|/scale in units of CAUSTIC_RTOL at DEBUG level on "gho.propagator".

    part=None stands for x_p = 0. Each end passes classical._snapshots'
    gate: ValidationError unless its times lie in the working interval and
    then unless basis and part solve s.
    """
    if isinstance(t_a, (int, float)) and isinstance(t_b, (int, float)):
        return _coefficients(s, basis, part, t_a, t_b, True)
    t_a, t_b = np.broadcast_arrays(np.asarray(t_a, dtype=float), np.asarray(t_b, dtype=float))
    if t_a.ndim > 1:
        raise ValidationError("time pairs must be scalars or 1-D arrays")
    with np.errstate(over="ignore", invalid="ignore"):
        return _coefficients(s, basis, part, t_a, t_b, False)


def kernel(s: Scenario, basis: ClassicalBasis, part, q: KernelQuery) -> complex:
    """Exact kernel value K(b, a) for one endpoint query at scalar times
    and positions (ValidationError for anything else)."""
    value = kernel_coefficients(s, basis, part, q.t_a, q.t_b).value(q.r_a, q.r_b)
    if type(value) is not complex:  # checked after the float path, which needs no check
        if np.ndim(value) != 0:
            raise ValidationError("kernel takes scalar positions; "
                                  "KernelCoefficients.value broadcasts over arrays")
        value = complex(value)
    return value


def green_function(s: Scenario, basis: ClassicalBasis, part, q: KernelQuery) -> complex:
    """Retarded Green function: K(b, a) for t_b > t_a, exactly 0 for t_b < t_a
    once both ends pass the gate that kernel's pass (classical._snapshots)."""
    if q.t_b < q.t_a:
        _snapshots(s, basis, part, q.t_a, "t_a")
        _snapshots(s, basis, part, q.t_b, "t_b")
        return 0j
    return kernel(s, basis, part, q)


def _lct_apply(co: KernelCoefficients, ys, g, dy, out_points):
    """Trapezoid-by-chirp-z: sum_m K(x_j, y_m) g_m dy for all output points,
    ys and out_points uniform grids."""
    beta = co.q_ab
    x0 = float(out_points[0])
    dxo = float(out_points[1] - out_points[0])
    m_out = len(out_points)
    y0 = float(ys[0])
    # one grid phase per side: the kernel's own phase plus the shift
    # beta x0 (y - y0) that puts the chirp-z origin at (y0, x0)
    h = _times_grid_phase(np.array(g, dtype=np.complex128), co.q_aa, co.l_a + beta * x0,
                          -beta * x0 * y0, y0, dy)
    transform = czt(h, m_out, beta * dxo * dy)
    _times_grid_phase(transform, co.q_bb, co.l_b + beta * y0, 0.0, x0, dxo)
    transform *= co.prefactor * dy
    return transform


def _quadrature_size(co: KernelCoefficients, grid):
    """Points M of the trapezoid sum over the packet's period P = N dx that
    alias nothing: max(N, ceil(P (pi/dx + R) / (2 pi))).

    The packet's trigonometric interpolant g is band-limited to pi/dx. Over
    the window the kernel's phase q_aa y^2 + q_ab x y + l_a y has local
    frequency 2 q_aa y + q_ab x + l_a, within R = (2|q_aa| + |q_ab|) y_max
    + |l_a| for |x|, |y| <= y_max, so the integrand's spectrum lies within
    pi/dx + R. By Poisson summation the trapezoid sum with step dy = P/M
    adds the spectrum at the nonzero multiples of 2 pi/dy to the integral,
    and these all miss it once 2 pi/dy > pi/dx + R. Where the chirp-z form
    is taken, R is about pi/dx or less, so M is N on most hops. An M past
    N and packets.MAX_POINTS raises GridTooNarrow.
    """
    y_max = max(abs(grid.x_min), abs(grid.x_max))  # also the largest |x|
    kernel_rate = (2.0 * abs(co.q_aa) + abs(co.q_ab)) * y_max + abs(co.l_a)
    packet_rate = math.pi / grid.dx
    period = grid.n_points * grid.dx
    needed = period * (packet_rate + kernel_rate) / (2.0 * math.pi)
    if not needed <= max(grid.n_points, MAX_POINTS):  # nan included
        raise GridTooNarrow(f"the chirp-z quadrature asks for {needed:.3g} points, "
                            f"more than MAX_POINTS = {MAX_POINTS}")
    return max(math.ceil(needed), grid.n_points)


def _moved_box(samples, spectrum, shear, grid):
    """x-extent [lo, hi] of the packet's phase-space box sheared by shear k,
    where the Fresnel multiply of the factored form carries each mode k: the
    box spans the samples and the signed FFT modes above PACKET_BOX_RTOL of
    their peak (spectrum in FFT order)."""
    n = grid.n_points
    support = _support(np.abs(samples), PACKET_BOX_RTOL)
    modes = np.abs(spectrum)
    above = modes > PACKET_BOX_RTOL * modes.max()
    # FFT order holds the modes k >= 0 first, then k < 0: the band's lowest
    # mode is the lowest negative one above, else the lowest one above 0
    nonneg, neg = above[:n - n // 2], above[n - n // 2:]
    j_lo = _ends(neg)[0] - n // 2 if neg.any() else _ends(nonneg)[0]
    j_hi = _ends(nonneg)[1] if nonneg.any() else _ends(neg)[1] - n // 2
    k_lo, k_hi = (j * 2.0 * math.pi / (n * grid.dx) for j in (j_lo, j_hi))
    moves = (shear * k_lo, shear * k_hi)
    return (grid.x_min + support[0] * grid.dx + min(moves),
            grid.x_min + support[1] * grid.dx + max(moves))


def propagate(packet: WavePacket, s: Scenario, basis: ClassicalBasis, part,
              t_b: float) -> WavePacket:
    """Propagate a packet to t_b in one hop, in the factored or the chirp-z
    form (see the module docstring); part=None stands for x_p = 0.
    """
    t_a, grid, hbar = packet.t, packet.grid, s.hbar
    at_a, xp_a = _snapshots(s, basis, part, t_a, "t_a")
    at_b, xp_b = _snapshots(s, basis, part, t_b, "t_b")
    packet.require_dark_edges(1e-10, "propagate")
    if t_b == t_a:
        return packet.with_samples(packet.samples)
    big_a, big_b, big_c, _ = _hop_matrix(basis.omega, at_a, at_b)
    sfft = _scipy_fft()
    n = grid.n_points
    # the dilation reads the packet at x_p(t_a) + (x - x_p(t_b)) / A; a unit
    # dilation is taken as A = 1, the shift by x_p(t_b) - x_p(t_a)
    resample = abs(big_a - 1.0) > _UNIT_DILATION
    if not resample:
        big_a = 1.0
    # past the Nyquist band a hop with A != 1 takes the chirp-z form without
    # the FFT: a shortcut, not a second test (see the module docstring)
    test, spectrum = "past the Nyquist band", None
    if not resample or hbar * abs(big_b) * math.pi / grid.dx <= abs(big_a) * n * grid.dx:
        alpha, beta, gamma = gauge_coefficients(s, at_a.mass, xp_a, t_a)
        reduced = _times_grid_phase(np.array(packet.samples), -alpha, -beta, -gamma,
                                    grid.x_min, grid.dx)
        spectrum = sfft.fft(reduced, overwrite_x=True)
        # |reduced| is |packet|: the box reads the support off the samples;
        # the Fresnel multiply wraps nothing while the box it shears stays
        # inside the FFT's period cell
        lo, hi = _moved_box(packet.samples, spectrum, hbar * big_b / big_a, grid)
        fits = grid.x_min - 0.5 * grid.dx <= lo and hi <= grid.x_max + 0.5 * grid.dx
        test = f"packet box [{lo:.6g}, {hi:.6g}] {'fits' if fits else 'leaves the grid'}"
        if not fits:
            spectrum = None
    if spectrum is None:
        x = grid.points
        co = kernel_coefficients(s, basis, part, t_a, t_b)
        m = _quadrature_size(co, grid)
        if m > n:
            m = sfft.next_fast_len(m)
            ys, g = upsample_periodic(packet, m)
        else:  # the packet's own grid: the sum reads the samples as they are
            ys, g = x, packet.samples
        _log.debug("propagate %.6g -> %.6g: chirp-z form (%s), A %.6e, B %.6e, "
                   "%d quadrature points", t_a, t_b, test, big_a, big_b, m)
        return WavePacket(grid, _lct_apply(co, ys, g, ys[1] - ys[0], x), t_b)
    _log.debug("propagate %.6g -> %.6g: factored form (%s), A %.6e, B %.6e, %s",
               t_a, t_b, test, big_a, big_b,
               "dilation resampled" if resample else "dilation is the identity")
    # the metaplectic phase: -pi/4 - m pi/2 from the kernel (conjugated going
    # backward) less the -pi/4 sgn(A B) the Fresnel factor carries; it is
    # continuous across B = 0, where m steps and sgn(A) = (-1)^m. m is the
    # kernel's own count, pinned by the forward hop's B = sigma B
    sigma = math.copysign(1.0, t_b - t_a)
    morse = _morse_count(at_a, at_b, sigma * big_b, _FLOATS)
    phi = sigma * (-0.25 * math.pi - 0.5 * math.pi * morse
                   + 0.25 * math.pi * math.copysign(1.0, big_a) * (-1) ** morse)
    # dilation(A) . Fresnel(B/A), which is Fresnel(A B) . dilation(A): the
    # interpolant of the Fresnel-multiplied spectrum read at
    # y = x_p(t_a) + (x - x_p(t_b)) / A, 0 off the grid, times the phase
    # phi + C X^2 / (2 hbar A) + G(t_b, x) + int f / hbar, X = x - x_p(t_b)
    f_int = integrate_coefficient(s.f, t_a, t_b)
    chirp = big_c / (2.0 * hbar * big_a)
    alpha, beta, gamma = gauge_coefficients(s, at_b.mass, xp_b, t_b)
    out = _read_interpolant(spectrum, grid, xp_a.x + (grid.x_min - xp_b.x) / big_a,
                            grid.dx / big_a, n, abs(big_a) ** -0.5, -0.5 * hbar * big_b / big_a,
                            (chirp + alpha, beta - 2.0 * chirp * xp_b.x,
                             phi + chirp * xp_b.x * xp_b.x + gamma + f_int / hbar))
    return WavePacket(grid, out, t_b)


def kernel_delta_check(s: Scenario, basis: ClassicalBasis, part, t_a: float,
                       epsilon: float, test_packet: WavePacket) -> float:
    """L2 distance between a packet and its propagation over a short epsilon.

    Tends to 0 linearly as epsilon -> 0, which is the delta-function initial
    condition of the kernel probed through smooth states.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    start = test_packet.with_samples(test_packet.samples, t=t_a)
    return l2_distance(propagate(start, s, basis, part, t_a + epsilon), start)

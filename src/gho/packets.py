"""Uniform spatial grids, sampled wave packets and grid numerics.

One primitive does each job on a uniform grid. Integrals of conj(f) g (inner
products, norms, distances, moments, the invariant) are the trapezoid rule as
one BLAS dot product, _trapezoid_inner, spectrally accurate for the
dark-edged packets every operation requires. Oscillatory sums are chirp-z
transforms, czt. Every phase put on a grid is a quadratic in the grid index,
so every full-grid complex exponential is quadratic_phase, which builds
exp(i (a k^2 + b k + c)) from about 4 sqrt(n) exponentials, laid out as a
Hankel table, and 2n complex products. Where an array carries the phase (the
gauge phase, a chirp, a spectral ramp), _times_quadratic_phase multiplies
the same three factors into it in place, 3n products and no full-size
temporary; _times_grid_phase and _times_spectral_phase take the phase's
coefficients in x and in the angular frequencies of an FFT. Every move of a
packet on its grid (states.apply_U_F's shift, states.apply_U_S's dilation,
the factored form of propagate, evaluate_trig_interpolant) is one read of
its trigonometric interpolant on a moved lattice, _read_interpolant: the
start ramp (after a Fresnel phase, if any) on the FFT spectrum, one inverse
FFT for n points at the grid's own spacing and one chirp-z for any other
lattice, 0 at the points off the grid, and one grid phase into which the
chirp-z's end ramp folds. Derivatives
are the 7-point sixth-order central stencils with the samples taken as zero
beyond the ends (which are required to be numerically dark anyway): the
weights _D1 and _D2 are defined here once, and gho.oracle's Schrodinger
residual and gho.states' invariant apply the same ones.

The packet functions here and in gho.propagator and gho.states compute in
place on arrays they own and never write to their inputs. Where a test pins
a result to the bit (the Hermite rows, the invariant's sums), each in-place
step keeps the operand order of the plain expression it replaces: numpy's
complex product, fused on some CPUs, is not commutative to the bit. A real
array times a complex one is copied into a complex buffer first and then
multiplied in place: numpy's product with the real array cast to complex, to
the bit, without the casting buffer numpy fills (up to 8192 points).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, GridTooNarrow, ValidationError

__all__ = [
    "GridSpec",
    "WavePacket",
    "inner_product",
    "packet_norm",
    "l2_distance",
    "mean_x",
    "var_x",
    "derivative",
    "second_derivative",
    "quadratic_phase",
    "czt",
    "evaluate_trig_interpolant",
    "upsample_periodic",
]

# the most points of any grid or grid sum gho makes: an explicit --grid, a
# grid the cli scales to the modes or a kernel slice, propagate's chirp-z sum
# and compose_kernels' window. A complex array of 2^21 points takes 32 MB.
# The modes ask 498 times the default grid's 2048 points on sho with
# custom:1,0,0,1e-3 (verify peaks at 188 MB and takes 1.7 s), the kernel
# slice 80-109 times at hbar = 0.01, and a near-degenerate basis
# (custom:1,0,0,1e-300) 1e300 times, which no allocation survives
MAX_POINTS = 2 ** 21


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not math.isfinite(self.x_max - self.x_min):  # nor is it when an end is not
            raise ValidationError(
                f"grid needs finite ends and span, not {self.x_min}, {self.x_max}")
        if not self.x_min < self.x_max:
            raise ValidationError("grid needs x_min < x_max")
        if self.n_points < 16:
            raise ValidationError("grid needs at least 16 points")
        # numpy scalars (ends read off an array) print as np.float64(...)
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class WavePacket:
    """Complex samples of a one-dimensional wavefunction on a uniform grid.

    Immutable: the sample array is made read-only on construction and every
    transformation returns a new packet.
    """

    grid: GridSpec
    samples: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if samples.shape != (self.grid.n_points,):
            raise ValidationError(
                f"samples shape {samples.shape} != grid size ({self.grid.n_points},)")
        # one BLAS pass: the squared norm is finite and positive unless a
        # sample is not finite, all are zero, or the squares over/underflow
        if not 0.0 < np.vdot(samples, samples).real < math.inf:
            view = samples.view(np.float64)
            if not np.isfinite(view).all():
                raise ValidationError("packet samples must be finite")
            if not view.any():
                raise ValidationError(f"packet is zero at every point of {self.grid}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def with_samples(self, samples, t=None) -> "WavePacket":
        return WavePacket(self.grid, samples, self.t if t is None else t)

    def edge_ratio(self) -> float:
        peak = float(np.max(np.abs(self.samples)))  # > 0: a packet is never empty
        return float(max(abs(self.samples[0]), abs(self.samples[-1]))) / peak

    def require_dark_edges(self, threshold=1e-8, what="operation"):
        ratio = self.edge_ratio()
        if ratio >= threshold:
            raise GridTooNarrow(
                f"{what}: edge amplitude {ratio:.2e} of peak (limit {threshold:.0e})")


def _check_same_grid(p1: WavePacket, p2: WavePacket):
    if p1.grid != p2.grid:
        raise GridMismatch(f"grids differ: {p1.grid} vs {p2.grid}")


def _support(modulus, rel) -> tuple[int, int]:
    """First and last index of the entries of modulus above rel times its max."""
    return _ends(modulus > rel * modulus.max())


def _ends(mask) -> tuple[int, int]:
    """First and last index where a boolean array is true."""
    return int(mask.argmax()), len(mask) - 1 - int(mask[::-1].argmax())


def _trapezoid_inner(f, g, dx) -> complex:
    """Trapezoidal integral of conj(f) g over a uniform grid: one BLAS dot
    product less half of each end term, with no full-size temporary."""
    return dx * (np.vdot(f, g) - 0.5 * (f[0].conjugate() * g[0] + f[-1].conjugate() * g[-1]))


def inner_product(p1: WavePacket, p2: WavePacket) -> complex:
    """Trapezoidal <p1|p2> = integral of conj(p1) p2 dx (grids must match)."""
    _check_same_grid(p1, p2)
    return complex(_trapezoid_inner(p1.samples, p2.samples, p1.grid.dx))


def packet_norm(p: WavePacket) -> float:
    return math.sqrt(_trapezoid_inner(p.samples, p.samples, p.grid.dx).real)


def l2_distance(p1: WavePacket, p2: WavePacket) -> float:
    _check_same_grid(p1, p2)
    diff = p1.samples - p2.samples
    return math.sqrt(_trapezoid_inner(diff, diff, p1.grid.dx).real)


def _moment(p: WavePacket, weight) -> float:
    psi, dx = p.samples, p.grid.dx
    return float(_trapezoid_inner(psi, weight * psi, dx).real
                 / _trapezoid_inner(psi, psi, dx).real)


def mean_x(p: WavePacket) -> float:
    return _moment(p, p.grid.points)


def var_x(p: WavePacket) -> float:
    return _moment(p, (p.grid.points - mean_x(p)) ** 2)


# 7-point sixth-order central weights at offsets 0, 1, 2, 3 (Fornberg 1988),
# in units of 1/dx^2 and 1/dx: d^2 weighs offset -k as +k and d as minus +k,
# so under the plain dot product d^2 is symmetric and d antisymmetric
_D2 = (-490.0 / 180.0, 270.0 / 180.0, -27.0 / 180.0, 2.0 / 180.0)
_D1 = (0.0, 45.0 / 60.0, -9.0 / 60.0, 1.0 / 60.0)


def _central_stencil(samples, weights, sign: float, scale: float) -> np.ndarray:
    """sum_k c_k f[j + k] / scale over |k| < len(weights) at every j, with
    c_k = weights[k] and c_-k = sign weights[k], the samples taken as zero
    beyond the ends. np.correlate sums it, on the real and the imaginary
    part in turn, so the one full-size complex array made is the result."""
    f = np.asarray(samples)
    taps = np.array([sign * w for w in weights[:0:-1]] + list(weights)) / scale
    if len(f) < len(taps):  # np.correlate would return len(taps) values
        raise ValidationError(f"a stencil of {len(taps)} points needs as many samples, "
                              f"not {len(f)}")
    if not np.iscomplexobj(f):
        return np.correlate(f, taps, "same")
    out = np.empty(len(f), dtype=np.complex128)
    out.real = np.correlate(f.real, taps, "same")
    out.imag = np.correlate(f.imag, taps, "same")
    return out


def derivative(samples: np.ndarray, dx: float) -> np.ndarray:
    """d/dx by the 7-point sixth-order central stencil, the samples taken as
    zero beyond the ends."""
    return _central_stencil(samples, _D1, -1.0, dx)


def second_derivative(samples: np.ndarray, dx: float) -> np.ndarray:
    """d2/dx2 by the 7-point sixth-order central stencil, the samples taken
    as zero beyond the ends."""
    return _central_stencil(samples, _D2, 1.0, dx * dx)


@functools.cache
def _scipy_fft():
    """scipy.fft, imported at first use. The kernel layer imports this module
    but transforms nothing, so `import gho` loads no scipy module."""
    from scipy import fft

    return fft


def _phase_factors(a: float, b: float, c: float, n: int):
    """The factors of exp(i (a k^2 + b k + c)), k < n, laid out for
    quadratic_phase: the Hankel view of D, U along its rows and V down its
    columns (see there)."""
    n = int(n)  # a grid size may be a numpy integer
    block = 1 << (n.bit_length() // 2)
    rows = -(-n // block)  # the last row may run past n
    step = a * block
    # one phase array: U (block points), V (rows) and D (rows + block; the
    # view reads one fewer, and the one more keeps i as long as U at n = 0)
    i = np.arange(rows + block, dtype=float)
    phase = np.empty(2 * (rows + block))
    u, v, d = phase[:block], phase[block:block + rows], phase[block + rows:]
    np.multiply((a - step) * i[:block] + b, i[:block], out=u)
    np.multiply((step * block - step) * i[:rows] + b * block, i[:rows], out=v)
    v += c
    np.multiply(step * i, i, out=d)
    cis = np.multiply(1j, phase)
    np.exp(cis, out=cis)
    # D[h + l] at (h, l): a read-only view with equal strides over D; the
    # ndarray constructor checks that it stays inside the buffer
    hankel = np.ndarray((rows, block), np.complex128, cis, (block + rows) * cis.itemsize,
                        (cis.itemsize, cis.itemsize))
    hankel.flags.writeable = False
    return hankel, cis[:block], cis[block:block + rows, None]


def quadratic_phase(a: float, b: float, c: float, n: int) -> np.ndarray:
    """exp(i (a k^2 + b k + c)) for k = 0 .. n-1, from few exponentials.

    With k = B h + l, B a power of two near sqrt(n) and l < B, the cross
    term is 2 a B h l = a B ((h + l)^2 - h^2 - l^2), so the phase splits as
    exp(i (a k^2 + b k + c)) = U[l] V[h] D[h + l] with

        U[l] = exp(i ((a - a B) l^2 + b l)),
        V[h] = exp(i ((a B^2 - a B) h^2 + b B h + c)),
        D[j] = exp(i a B j^2).

    One np.exp call of about 4 sqrt(n) points makes U, V and D. The rows h
    of the table of k read D through a Hankel view, D[h + l] at row h and
    column l, which is multiplied by U along the rows and then by V down the
    columns: two complex products per point. Each exponent is formed from a,
    b and c themselves, never as a power of exp(i a), so the error stays
    that of rounding the phase itself, as for np.exp of the phase written
    out (see the tests). n = 0 gives an empty array.
    """
    hankel, u, v = _phase_factors(a, b, c, n)
    out = np.empty(hankel.size, dtype=np.complex128)
    table = out.reshape(hankel.shape)
    np.multiply(hankel, u, out=table)
    table *= v
    # drop the part of the last row past n; no other view of out is alive
    del table
    out.resize(int(n), refcheck=False)
    return out


def _times_quadratic_phase(values, a: float, b: float, c: float) -> np.ndarray:
    """values *= quadratic_phase(a, b, c, len(values)), in place, with no
    full-size temporary: D, U and V multiply the values' own rows of B
    points in turn. values is any 1-D view, a reversed one included, and is
    returned."""
    hankel, u, v = _phase_factors(a, b, c, len(values))
    block = hankel.shape[1]
    full = len(values) // block
    # the full rows as a view (reshape raises rather than copy), then the
    # shorter last row
    table = values[:full * block].reshape(full, block, copy=False)
    table *= hankel[:full]
    table *= u
    table *= v[:full]
    rest = values[full * block:]
    if len(rest):
        rest *= hankel[full, :len(rest)]
        rest *= u[:len(rest)]
        rest *= v[full]
    return values


def _times_grid_phase(values, alpha: float, beta: float, gamma: float, x0: float,
                      dx: float) -> np.ndarray:
    """values *= exp(i (alpha x^2 + beta x + gamma)) at x = x0 + k dx, in
    place: the same quadratic in the index k, multiplied in as
    _times_quadratic_phase multiplies it; returns values."""
    return _times_quadratic_phase(values, alpha * dx * dx, (2.0 * alpha * x0 + beta) * dx,
                                  (alpha * x0 + beta) * x0 + gamma)


def _times_spectral_phase(spectrum, alpha: float, beta: float, dx: float) -> np.ndarray:
    """spectrum *= exp(i (alpha k^2 + beta k)) at the angular frequencies
    k = 2 pi fftfreq(n, dx) of an FFT of n samples spaced dx, in FFT order,
    in place; returns spectrum. Each half of that order is a uniform grid of
    k formed from k = 0 outward, one grid phase each: 0, step, 2 step, ...
    and -step, -2 step, ..., the latter read through a reversed view. A
    phase near k = 0 is then made from terms of its own size, not from the
    cancellation of terms of alpha k_max^2."""
    n = len(spectrum)
    step = 2.0 * math.pi / (n * dx)
    low = (n + 1) // 2
    _times_grid_phase(spectrum[:low], alpha, beta, 0.0, 0.0, step)
    _times_grid_phase(spectrum[low:][::-1], alpha, beta, 0.0, -step, -step)
    return spectrum


def czt(h, m: int, angle: float) -> np.ndarray:
    """Chirp-z sum out_j = sum_n h_n exp(i angle n j) for j < m.

    Bluestein's method: with n j = (n^2 + j^2 - (j - n)^2) / 2 the sum is a
    linear convolution with a chirp, done by FFT in O((n + m) log(n + m)).
    The chirp exp(i angle k^2 / 2) is quadratic_phase, built from the angle
    itself, so small angles lose no phase accuracy to rounding in
    exp(i angle). An empty h or m = 0 gives the empty sum, zeros(m).
    """
    sfft = _scipy_fft()
    h = np.asarray(h, dtype=np.complex128)
    n = len(h)
    if n == 0 or m == 0:
        return np.zeros(m, dtype=np.complex128)
    chirp = quadratic_phase(0.5 * angle, 0.0, 0.0, max(n, m))
    size = sfft.next_fast_len(n + m - 1)
    # the zero-padded signal and the chirp filter, transformed in place
    work = np.zeros(size, dtype=np.complex128)
    np.multiply(h, chirp[:n], out=work[:n])
    filt = np.zeros(size, dtype=np.complex128)
    np.conjugate(chirp[:m], out=filt[:m])
    np.conjugate(chirp[n - 1:0:-1], out=filt[size - n + 1:])
    work = sfft.fft(work, overwrite_x=True)
    work *= sfft.fft(filt, overwrite_x=True)
    work = sfft.ifft(work, overwrite_x=True)
    # the result goes into the chirp's own buffer, cut to m points (no view
    # of it is alive): no fresh array of m points
    np.multiply(work[:m], chirp[:m], out=chirp[:m])
    chirp.resize(m, refcheck=False)
    return chirp


def _read_interpolant(spectrum, grid: GridSpec, start: float, step: float, m: int, scale=1.0,
                      fresnel=0.0, phase=(0.0, 0.0, 0.0)) -> np.ndarray:
    """scale times the trigonometric interpolant of spectrum, the FFT of
    samples on grid in FFT order, each mode k first times exp(i fresnel k^2),
    at the m points start + j step, 0 where one leaves [x_min, x_max], times
    exp(i (alpha x^2 + beta x + gamma)) at x = x_min + j dx for
    phase = (alpha, beta, gamma). spectrum is overwritten.

    The Fresnel phase and the start ramp exp(i k (start - x_min)) are one
    spectral phase. n points at the grid's own spacing are one inverse FFT;
    any other lattice is one chirp-z over the modes in signed order, whose
    end ramp exp(i k_min j step), k_min = -(n//2) 2 pi / (n dx) the lowest
    mode, folds into the grid phase.
    """
    n, dx, x_min = grid.n_points, grid.dx, grid.x_min
    _times_spectral_phase(spectrum, fresnel, start - x_min, dx)
    if m == n and step == dx:
        out = _scipy_fft().ifft(spectrum, overwrite_x=True)
        out *= scale
    else:
        # the modes in signed order, k = (j - n//2) 2 pi / (n dx) at index j,
        # each times scale / n
        low = n - n // 2
        h = np.empty(n, dtype=np.complex128)
        np.multiply(spectrum[:low], scale / n, out=h[n // 2:])
        np.multiply(spectrum[low:], scale / n, out=h[:n // 2])
        out = czt(h, m, 2.0 * math.pi * step / (n * dx))
        ramp = -2.0 * math.pi * (n // 2) * step / (n * dx * dx)
        phase = (phase[0], phase[1] + ramp, phase[2] - ramp * x_min)
    # 0 at the j outside [lo, hi] widened by 1e-9, the spacing test's bound,
    # so that a lattice meeting an end keeps it through rounding
    lo, hi = x_min - start, grid.x_max - start
    if step:
        lo, hi = sorted((lo / step, hi / step))
    else:
        lo, hi = (0.0, m) if lo <= 0.0 <= hi else (m, -1.0)
    out[:math.ceil(min(max(lo - 1e-9, 0.0), m))] = 0.0
    out[math.floor(min(max(hi + 1e-9, -1.0), m)) + 1:] = 0.0
    return _times_grid_phase(out, *phase, x_min, dx)


def evaluate_trig_interpolant(p: WavePacket, points) -> np.ndarray:
    """Evaluate the packet's trigonometric interpolant at evenly spaced points.

    Exact at grid nodes, spectrally accurate between them for edge-decayed
    packets. Points outside [x_min, x_max] return 0 (the interpolant itself is
    periodic, which is meaningless for a dark-edged packet). The sum over the
    packet's Fourier modes is _read_interpolant; points that are not finite,
    whose step is not finite or that are not evenly spaced raise
    ValidationError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or len(points) == 0:
        raise ValidationError("interpolation points must be a non-empty 1-D array")
    if not np.isfinite(points).all():
        raise ValidationError("interpolation points must be finite")
    m = len(points)
    # as Python floats: a span past the largest double reads inf, unwarned
    step = (float(points[-1]) - float(points[0])) / (m - 1) if m > 1 else 0.0
    if not math.isfinite(step):
        raise ValidationError("interpolation points' step must be finite")
    lattice = np.arange(m, dtype=float)
    lattice *= step
    lattice += points[0]
    if np.max(np.abs(points - lattice)) > 1e-9 * abs(step):
        raise ValidationError("interpolation points must be evenly spaced")
    return _read_interpolant(_scipy_fft().fft(p.samples), p.grid, float(points[0]), float(step), m)


def upsample_periodic(p: WavePacket, m: int):
    """Resample onto m >= n uniform points across the implied period.

    Returns (points, values), the values those of the packet's trigonometric
    interpolant (evaluate_trig_interpolant), so 0 at the points past x_max.
    The chirp-z form of propagation calls it only when the trapezoid rule's
    aliasing bound asks for more points than the packet has; m == n returns
    copies of the grid and the samples.
    """
    n = p.grid.n_points
    if m == n:
        return p.grid.points.copy(), np.asarray(p.samples, dtype=np.complex128).copy()
    if m < n:
        raise ValidationError("upsample target must be >= current grid size")
    points = np.arange(m, dtype=float)
    points *= n * p.grid.dx / m
    points += p.grid.x_min
    return points, evaluate_trig_interpolant(p, points)

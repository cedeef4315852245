"""Uniform spatial grids, sampled wave packets and grid numerics.

One primitive does each job on a uniform grid. Integrals of conj(f) g (inner
products, norms, distances, moments, the invariant) are the trapezoid rule as
one BLAS dot product, _trapezoid_inner, spectrally accurate for the
dark-edged packets every operation requires. Oscillatory sums are chirp-z
transforms, czt. Every phase put on a grid is a quadratic in the grid index,
so every full-grid complex exponential is quadratic_phase, which builds
exp(i (a k^2 + b k + c)) from about 4 sqrt(n) exponentials, laid out as a
Hankel table, and 2n complex products. Values off the nodes (a dilated grid,
an upsampled one) are the packet's trigonometric interpolant,
evaluate_trig_interpolant; every translation (states.apply_U_F, each
unit-dilation hop of propagate) reads it as a ramp on the FFT spectrum.
Derivatives use 4th-order centered stencils with one-sided closures at the
edges (which are required to be numerically dark anyway).

The packet functions here and in gho.propagator and gho.states compute in
place on arrays they own and never write to their inputs. Each in-place step
keeps the operand order of the plain expression it replaces, so the results
are the same to the bit: numpy's complex product, fused on some CPUs, is not
commutative to the bit.
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
    "grid_phase",
    "spectral_phase",
    "czt",
    "evaluate_trig_interpolant",
    "upsample_periodic",
]


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
    above = modulus > rel * modulus.max()
    return int(above.argmax()), len(above) - 1 - int(above[::-1].argmax())


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


# 4th-order first-derivative closures (rows: first two / last two points).
_EDGE1 = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                   [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0


def derivative(samples: np.ndarray, dx: float) -> np.ndarray:
    """d/dx via 4th-order centered stencil, one-sided at the edges."""
    f = np.asarray(samples)
    out = np.empty_like(f)
    # (f[:-4] - 8 f[1:-3] + 8 f[3:-1] - f[4:]) / (12 dx), summed in that
    # order into the interior of the result with one temporary term
    mid = out[2:-2]
    np.multiply(8.0, f[1:-3], out=mid)
    np.subtract(f[:-4], mid, out=mid)
    mid += np.multiply(8.0, f[3:-1])
    mid -= f[4:]
    mid /= 12.0 * dx
    head = f[:5]
    tail = f[-5:][::-1]
    out[0] = _EDGE1[0] @ head / dx
    out[1] = _EDGE1[1] @ head / dx
    out[-1] = -(_EDGE1[0] @ tail) / dx
    out[-2] = -(_EDGE1[1] @ tail) / dx
    return out


def second_derivative(samples: np.ndarray, dx: float) -> np.ndarray:
    """d2/dx2, 4th order in the interior, 2nd-order one-sided at the edges."""
    f = np.asarray(samples)
    out = np.empty_like(f)
    # (-f[:-4] + 16 f[1:-3] - 30 f[2:-2] + 16 f[3:-1] - f[4:]) / (12 dx^2),
    # summed in that order into the interior with one temporary term
    mid = out[2:-2]
    np.multiply(16.0, f[1:-3], out=mid)
    mid -= f[:-4]
    term = np.multiply(30.0, f[2:-2])
    mid -= term
    mid += np.multiply(16.0, f[3:-1], out=term)
    mid -= f[4:]
    mid /= 12.0 * dx * dx
    edge = np.array([2.0, -5.0, 4.0, -1.0])
    out[0] = edge @ f[:4] / (dx * dx)
    out[1] = edge @ f[1:5] / (dx * dx)
    out[-1] = edge @ f[-4:][::-1] / (dx * dx)
    out[-2] = edge @ f[-5:-1][::-1] / (dx * dx)
    return out


@functools.cache
def _scipy_fft():
    """scipy.fft, imported at first use. The kernel layer imports this module
    but transforms nothing, so `import gho` loads no scipy module."""
    from scipy import fft

    return fft


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
    out = np.empty(rows * block, dtype=np.complex128)
    table = out.reshape(rows, block)
    np.multiply(hankel, cis[:block], out=table)
    table *= cis[block:block + rows, None]
    # drop the part of the last row past n; no other view of out is alive
    del table
    out.resize(n, refcheck=False)
    return out


def grid_phase(alpha: float, beta: float, gamma: float, x0: float, dx: float,
               n: int) -> np.ndarray:
    """exp(i (alpha x^2 + beta x + gamma)) at x = x0 + k dx, k < n: the same
    quadratic in the index k, by quadratic_phase."""
    return quadratic_phase(alpha * dx * dx, (2.0 * alpha * x0 + beta) * dx,
                           (alpha * x0 + beta) * x0 + gamma, n)


def spectral_phase(alpha: float, beta: float, n: int, dx: float) -> np.ndarray:
    """exp(i (alpha k^2 + beta k)) at the angular frequencies
    k = 2 pi fftfreq(n, dx) of an FFT of n samples spaced dx, in FFT order.
    Each half of that order is a uniform grid of k formed from k = 0
    outward, one grid_phase each: 0, step, 2 step, ... and -step, -2 step,
    ..., the latter reversed. A phase near k = 0 is then made from terms of
    its own size, not from the cancellation of terms of alpha k_max^2."""
    step = 2.0 * math.pi / (n * dx)
    low = (n + 1) // 2
    out = np.empty(n, dtype=np.complex128)
    out[:low] = grid_phase(alpha, beta, 0.0, 0.0, step, low)
    out[low:] = grid_phase(alpha, beta, 0.0, -step, -step, n // 2)[::-1]
    return out


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
    return work[:m] * chirp[:m]


def evaluate_trig_interpolant(p: WavePacket, points) -> np.ndarray:
    """Evaluate the packet's trigonometric interpolant at evenly spaced points.

    Exact at grid nodes, spectrally accurate between them for edge-decayed
    packets. Points outside [x_min, x_max] return 0 (the interpolant itself is
    periodic, which is meaningless for a dark-edged packet). The sum over the
    packet's Fourier modes is one chirp-z between two linear phase ramps
    (quadratic_phase); points that are not evenly spaced raise
    ValidationError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or len(points) == 0:
        raise ValidationError("interpolation points must be a non-empty 1-D array")
    m = len(points)
    step = (points[-1] - points[0]) / (m - 1) if m > 1 else 0.0
    lattice = np.arange(m, dtype=float)
    lattice *= step
    lattice += points[0]
    if np.max(np.abs(points - lattice)) > 1e-9 * abs(step):
        raise ValidationError("interpolation points must be evenly spaced")
    n = p.grid.n_points
    period = n * p.grid.dx
    # modes ordered by frequency (k - n//2) / period, k = 0 .. n-1
    spectrum = _scipy_fft().fft(p.samples)
    h = np.empty(n, dtype=np.complex128)
    h[n // 2:] = spectrum[:n - n // 2]
    h[:n // 2] = spectrum[n - n // 2:]
    h /= n
    # the ramps that move the sum's origin to the first point and the
    # frequencies' to the lowest mode, each linear in its index
    start = points[0] - p.grid.x_min
    h *= quadratic_phase(0.0, 2.0 * np.pi * start / period, 0.0, n)
    vals = czt(h, m, 2.0 * np.pi * step / period)
    shift = -2.0 * np.pi * (n // 2) / period
    vals *= quadratic_phase(0.0, shift * step, shift * start, m)
    vals[(points < p.grid.x_min) | (points > p.grid.x_max)] = 0.0
    return vals


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

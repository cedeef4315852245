import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import fft, ifft, next_fast_len

from conftest import COUPLED

import gho
from gho import GridSpec, ValidationError, WavePacket, sho_eigenstate
from gho.packets import (_support, _times_spectral_phase, _trapezoid_inner, czt, derivative,
                         evaluate_trig_interpolant, quadratic_phase, second_derivative,
                         upsample_periodic)
from gho.propagator import _lct_apply, kernel_coefficients


def _direct_czt(h, m, angle):
    return np.exp(1j * angle * np.outer(np.arange(m), np.arange(len(h)))) @ h


def _dense_interpolant(p, points):
    """Reference: the interpolant as a dense (points x modes) phase matrix."""
    n = p.grid.n_points
    coeffs = np.fft.fft(p.samples) / n
    freqs = np.fft.fftfreq(n, d=p.grid.dx)
    rel = points - p.grid.x_min
    out = np.exp(2j * np.pi * rel[:, None] * freqs[None, :]) @ coeffs
    out[(points < p.grid.x_min) | (points > p.grid.x_max)] = 0.0
    return out


@pytest.mark.parametrize("n, m", [(64, 24), (24, 64), (40, 1)])
def test_czt_matches_direct_sum(n, m):
    rng = np.random.default_rng(n + m)
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    for angle in (0.37, -2.1e-4):
        ref = _direct_czt(h, m, angle)
        assert np.max(np.abs(czt(h, m, angle) - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, m", [(0, 5), (1, 0), (5, 0), (0, 0)])
def test_czt_of_no_terms_or_no_points_is_the_empty_sum(n, m):
    got = czt([1.0] * n, m, 0.37)
    assert got.shape == (m,) and got.dtype == np.complex128 and not np.any(got)


@pytest.mark.parametrize("n_points", [2048, 4096])
@pytest.mark.parametrize("scale", [0.7, 1.3])
def test_trig_interpolant_matches_dense_sum(n_points, scale):
    grid = GridSpec(-10.0, 10.0, n_points)
    x = grid.points
    packet = WavePacket(grid, sho_eigenstate(3, grid).samples * np.exp(0.8j * x))
    points = scale * x
    ref = _dense_interpolant(packet, points)
    got = evaluate_trig_interpolant(packet, points)
    assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref))


def test_trig_interpolant_rejects_uneven_points(grid):
    packet = sho_eigenstate(0, grid)
    with pytest.raises(ValidationError):
        evaluate_trig_interpolant(packet, np.array([0.0, 0.1, 0.3]))
    with pytest.raises(ValidationError):
        evaluate_trig_interpolant(packet, np.zeros((2, 2)))


def test_trig_interpolant_keeps_the_nodes_and_reads_0_past_the_ends(grid, monkeypatch):
    # bright ends: a read at the nodes keeps both; a lattice at the grid's own
    # spacing is one inverse FFT, any other one chirp-z, and on either path
    # each point past an end reads exactly 0
    rng = np.random.default_rng(7)
    packet = WavePacket(grid, rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points))
    sums = []
    monkeypatch.setattr(gho.packets, "czt", lambda *args: sums.append(args) or czt(*args))
    at_nodes = evaluate_trig_interpolant(packet, grid.points)
    assert sums == [] and np.max(np.abs(at_nodes - packet.samples)) <= 1e-13
    for points, chirp_z in ((grid.points + 0.5, False), (grid.points - 0.5, False),
                            (1.3 * grid.points, True)):
        sums.clear()
        got = evaluate_trig_interpolant(packet, points)
        assert len(sums) == int(chirp_z)
        past = (points < grid.x_min) | (points > grid.x_max)
        assert past.any() and not np.any(got[past])
        assert np.max(np.abs(got - _dense_interpolant(packet, points))) <= 1e-11


@pytest.mark.parametrize("n", [1001, 1024])
def test_trapezoid_inner_is_the_trapezoid_rule(n):
    rng = np.random.default_rng(n)
    f, g = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    for a, b in ((f, g), (g, f), (f, f)):
        ref = np.trapezoid(np.conj(a) * b, dx=0.013)
        assert abs(_trapezoid_inner(a, b, 0.013) - ref) <= 1e-14 * abs(ref)


def _zero_padded(p, m):
    """Reference: upsampling by zero-padding the packet's spectrum to m
    points, the Nyquist bin of an even n split evenly between +-n/2."""
    n = p.grid.n_points
    spectrum = fft(p.samples)
    padded = np.zeros(m, dtype=np.complex128)
    half = n // 2
    if n % 2 == 0:
        padded[:half] = spectrum[:half]
        padded[half] = padded[m - half] = 0.5 * spectrum[half]
        padded[m - half + 1:] = spectrum[half + 1:]
    else:
        padded[:half + 1] = spectrum[:half + 1]
        padded[m - half:] = spectrum[half + 1:]
    points = p.grid.x_min + np.arange(m) * (n * p.grid.dx / m)
    return points, ifft(padded) * (m / n)


@pytest.mark.parametrize("n", [255, 256])
def test_upsample_periodic_is_the_zero_padded_spectrum(n):
    # the interpolant reads 0 past x_max and puts the Nyquist bin at -n/2
    # alone: on a dark-edged packet neither shows
    grid = GridSpec(-10.0, 10.0, n)
    packet = WavePacket(grid, sho_eigenstate(2, grid).samples * np.exp(0.4j * grid.points))
    for m in (n + 1, next_fast_len(3 * n + 5)):
        points, values = upsample_periodic(packet, m)
        ref_points, ref_values = _zero_padded(packet, m)
        assert np.max(np.abs(points - ref_points)) <= 1e-14
        assert np.max(np.abs(values - ref_values)) < 1e-12


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# every public name `import gho` exports; `from gho import *` and dir(gho)
# must list each one
PUBLIC_NAMES = [
    "CausticEncountered", "CausticReport", "ClassicalBasis", "CoefficientFn", "Constant",
    "DegenerateBasis", "Exponential", "GhoError", "GridMismatch",
    "GridSpec", "GridTooNarrow", "HamiltonianCoeffs", "IntegrationFailure", "KernelQuery",
    "LinearSolveFailure", "ParseError", "ParticularSolution", "PiecewiseConstant",
    "Polynomial", "Scenario", "Sinusoidal", "ValidationError", "WavePacket", "ZeroRho",
    "apply_U_F", "apply_U_S", "build_generalized_coherent_state", "caustic_times",
    "classical", "classical_invariant", "coefficients", "compose_kernels", "eigenmode",
    "eigenmode_packet", "errors", "evolve_tdse", "green_function",
    "hamiltonian_coefficients", "hermite_functions", "inner_product",
    "integrate_coefficient", "invariant_expectation", "kernel", "kernel_coefficients",
    "kernel_delta_check", "l2_distance", "load_scenario", "mean_x", "mode_sum_kernel",
    "oracle", "packet_norm", "packets", "path_integral_oracle", "propagate", "propagator",
    "scenario_from_dict", "scenario_to_dict", "schrodinger_residual",
    "schrodinger_residual_map", "serialize_scenario", "sho_eigenstate",
    "solve_homogeneous_basis", "solve_particular", "states", "trajectory_table", "var_x",
]


def _fresh_python(code):
    """Standard output of code run in a new interpreter that imports this gho."""
    src = str(Path(gho.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip()


def test_import_does_not_load_scipy_signal():
    # nor any other scipy module on the kernel path: import, load, the
    # classical solves and a kernel query run on numpy alone
    code = f"""
import sys, gho
from pathlib import Path
s = gho.load_scenario(Path({str(SCENARIOS / "driven_sho.json")!r}).read_text())
basis, part = gho.solve_homogeneous_basis(s), gho.solve_particular(s)
gho.kernel(s, basis, part, gho.KernelQuery(0.1, 1.2, 0.3, -0.4))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
assert gho.eigenmode_packet is gho.states.eigenmode_packet
assert gho.evolve_tdse is gho.oracle.evolve_tdse
print(sorted(m for m in ("scipy.fft", "scipy.linalg") if m in sys.modules))
"""
    assert _fresh_python(code).splitlines() == ["[]", "[]"]


def test_cli_loads_scipy_at_start():
    # the CLI imports the oracle and the mode set at its top, as it always did
    code = "import sys, gho.cli; print('scipy.fft' in sys.modules)"
    assert _fresh_python(code) == "True"


def test_cli_import_leaves_scipy_linalg_out():
    # no gho module imports LAPACK at its top: `import gho.cli` once loaded
    # scipy.linalg, about half of its import time
    code = ("import sys, gho.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    assert _fresh_python(code) == "[]"


def test_namespace_keeps_every_public_name():
    namespace = {}
    exec("from gho import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert set(PUBLIC_NAMES) <= set(dir(gho))
    assert len(set(gho.__all__)) == len(gho.__all__)


# The error of quadratic_phase and of np.exp on the same phase, in units of
# eps (1 + |a| (n-1)^2 + |b| (n-1) + |c|), the rounding of the phase itself.
# Measured worst over the cases below with numpy 2.4 on x86-64: 0.89 for the
# primitive, 0.98 for np.exp; the bound of 2 leaves a margin of 2x.
PHASE_ERROR_BOUND = 2.0


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps / 100,
                    reason="the reference needs a long double wider than double")
# n = 0 (an empty array, as from np.exp); n = 1; one row of blocks (n = 2, 3);
# a partial last row (3, 5, 1000, 4097: blocks are powers of two no longer
# than n, so no n is shorter than a block); the largest widened grid (20736)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 1000, 4096, 4097, 20736])
def test_quadratic_phase_is_as_accurate_as_exp(n):
    k = np.arange(n, dtype=float)
    k_long = np.arange(n, dtype=np.longdouble)
    for a in (1e-6, -3e-5, 1e-3, -0.01, 0.4, -0.4):
        for b, c in ((0.0, 0.0), (-0.3, -5.0), (2.0, 1.5)):
            phase = (np.longdouble(a) * k_long + np.longdouble(b)) * k_long + np.longdouble(c)
            unit = np.finfo(float).eps * (1.0 + abs(a) * (n - 1) ** 2 + abs(b) * (n - 1)
                                          + abs(c))
            for got in (quadratic_phase(a, b, c, n), np.exp(1j * (a * k * k + b * k + c))):
                assert got.shape == (n,) and got.dtype == np.complex128
                assert _owns_its_buffer(got)
                error = np.hypot((got.real - np.cos(phase)).astype(float),
                                 (got.imag - np.sin(phase)).astype(float))
                assert np.max(error, initial=0.0) <= PHASE_ERROR_BOUND * unit, (a, b, c)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps / 100,
                    reason="the reference needs a long double wider than double")
@pytest.mark.parametrize("n", [2048, 2049, 9000])
@pytest.mark.parametrize("beta", [37.0, -250.0])
def test_spectral_phase_is_accurate_near_k0_in_both_halves(n, beta):
    # alpha k_max^2 = 1e6 rad. quadratic_phase forms the phase at each k
    # from terms of at most its block size B times |alpha k^2|, plus
    # |beta k|; the error there is a few ulp of those terms, and near k = 0
    # they are small. Built from the most negative k up, the negative half
    # read up to 4e5 such ulp near k = 0 (terms of 1e6 rad cancelling).
    dx = 0.01
    step = 2.0 * np.pi / (n * dx)
    alpha = 1e6 / ((n // 2) * step) ** 2
    got = _times_spectral_phase(np.ones(n, dtype=np.complex128), alpha, beta, dx)
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.longdouble) * np.longdouble(step)
    phase = (np.longdouble(alpha) * k + np.longdouble(beta)) * k
    error = np.hypot((got.real - np.cos(phase)).astype(float),
                     (got.imag - np.sin(phase)).astype(float))
    block = 1 << ((n // 2).bit_length() // 2)
    terms = 1.0 + block * np.abs(alpha * k * k).astype(float) + np.abs(beta * k).astype(float)
    ulps = error / (np.finfo(float).eps * terms)
    low = (n + 1) // 2
    assert np.max(ulps[:low]) <= 4.0 and np.max(ulps[low:]) <= 4.0
    assert np.max(ulps[np.abs(k) <= 20 * step]) <= 4.0


def _bluestein(h, m, angle):
    """Textbook chirp-z: chirp, convolution with the conjugate chirp by FFT,
    chirp again. The chirp exp(i angle k^2 / 2) comes from quadratic_phase,
    whose accuracy its own test pins, so the comparison pins the
    convolution's structure to the bit."""
    n = len(h)
    chirp = quadratic_phase(0.5 * angle, 0.0, 0.0, max(n, m))
    size = next_fast_len(n + m - 1)
    filt = np.zeros(size, dtype=np.complex128)
    filt[:m] = np.conj(chirp[:m])
    filt[size - n + 1:] = np.conj(chirp[1:n][::-1])
    return ifft(fft(h * chirp[:n], size) * fft(filt))[:m] * chirp[:m]


def _owns_its_buffer(result):
    """No larger buffer (an FFT work array, a chirp) is kept alive by result."""
    return result.flags.owndata or result.base.nbytes == result.nbytes


@pytest.mark.parametrize("n, m", [(64, 24), (24, 64), (2048, 4800), (3001, 7919)])
def test_czt_is_the_textbook_bluestein_sum(n, m):
    rng = np.random.default_rng(n * m)
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    kept = h.copy()
    for angle in (0.37, -2.1e-4):
        got = czt(h, m, angle)
        assert np.array_equal(got, _bluestein(h, m, angle))
        assert np.array_equal(h, kept)
        assert got.shape == (m,) and _owns_its_buffer(got)


def test_spectral_derivatives_are_anti_hermitian_and_hermitian():
    # under the plain dot product D is anti-Hermitian and D^2 Hermitian, the
    # ends and the Nyquist mode included: the invariant's sum of squares and
    # the residual's Hermitian H rest on it
    rng = np.random.default_rng(29)
    for n in (256, 257):
        u, v = (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) * 10.0 ** rng.uniform(
            -3, 3, size=(2, n))
        for diff, sign in ((derivative, -1.0), (second_derivative, 1.0)):
            left, right = np.vdot(u, diff(v, 0.1)), sign * np.vdot(diff(u, 0.1), v)
            bound = 1e-14 * np.linalg.norm(u) * np.linalg.norm(diff(v, 0.1))
            assert abs(left - right) <= bound, (n, diff.__name__)


@pytest.mark.parametrize("diff", [derivative, second_derivative])
def test_stencils_leave_input_unchanged(diff):
    rng = np.random.default_rng(3)
    f = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    kept = f.copy()
    got = diff(f, 0.01)
    assert np.array_equal(f, kept)
    assert got.shape == f.shape and _owns_its_buffer(got)


def test_resampling_leaves_packet_unchanged(grid):
    packet = WavePacket(grid, sho_eigenstate(2, grid).samples * np.exp(0.4j * grid.points))
    kept = packet.samples.copy()
    points = 0.8 * grid.points + 0.05
    points_kept = points.copy()
    values = evaluate_trig_interpolant(packet, points)
    assert np.array_equal(points, points_kept)
    assert _owns_its_buffer(values)
    for result in upsample_periodic(packet, 3 * grid.n_points + 5):
        assert _owns_its_buffer(result)
    assert np.array_equal(packet.samples, kept)


def test_lct_apply_leaves_inputs_unchanged(sho, sho_basis, sho_part_zero):
    grid = GridSpec(-12.0, 12.0, 1024)
    x, dx = grid.points, grid.dx
    co = kernel_coefficients(sho, sho_basis, sho_part_zero, 0.25, 0.5)
    field = np.exp(-(x - 0.3) ** 2) * (1.0 + 0.2j * x)
    kept = field.copy(), x.copy()
    got = _lct_apply(co, x, field, dx, x)
    assert np.array_equal(field, kept[0]) and np.array_equal(x, kept[1])
    assert _owns_its_buffer(got)


def _invariant_written_out(packet, basis, part, s):
    """invariant_expectation's arithmetic as one expression per quantity: the
    sum of squares and the skew of P, each integral the trapezoid rule as a
    dot product less half of each end term."""
    t, hbar, omega = packet.t, s.hbar, abs(basis.omega)
    bs = basis.at(t)
    ps = part.at(t)
    m = bs.mass
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    grid, psi = packet.grid, packet.samples
    dx = grid.dx

    def integral(f, g):
        return dx * (np.vdot(f, g) - 0.5 * (np.conj(f[0]) * g[0] + np.conj(f[-1]) * g[-1]))

    x_psi = np.linspace(grid.x_min - ps.x, grid.x_max - ps.x, grid.n_points) * psi
    # (M rho' X - rho P) psi with P psi = -i hbar psi' - (2 M a x + b + M x_p') psi
    mixed = (derivative(psi, dx) * (1j * hbar * bs.rho)
             + x_psi * (m * bs.rho_dot + 2.0 * m * a_c * bs.rho)
             + psi * (bs.rho * (2.0 * m * a_c * ps.x + b_c + ps.momentum)))
    norm_sq = integral(psi, psi).real
    value = ((omega ** 2 / bs.rho ** 2 * integral(x_psi, x_psi).real
              + integral(mixed, mixed).real) / (2.0 * omega * norm_sq))
    p_psi = (x_psi * (m * bs.rho_dot) - mixed) / bs.rho
    skew = integral(psi, p_psi).imag / np.sqrt(norm_sq * integral(p_psi, p_psi).real)
    return value, skew


def _invariant_operator_form(packet, basis, part, s):
    """Reference: <psi, I psi> with I applied as an operator, the symmetric
    cross term X P + P X and P^2 each by a further derivative pass."""
    t, hbar, omega = packet.t, s.hbar, abs(basis.omega)
    bs = basis.at(t)
    ps = part.at(t)
    m = bs.mass
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    x, dx, psi = packet.grid.points, packet.grid.dx, packet.samples
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
    return complex(np.trapezoid(np.conj(psi) * i_psi, dx=dx) / norm_sq).real


@pytest.mark.parametrize("coupled", [False, True])
def test_invariant_expectation_is_the_written_out_expression(coupled, sho, sho_basis,
                                                             sho_part_cos):
    s = gho.scenario_from_dict(COUPLED) if coupled else sho
    basis = gho.solve_homogeneous_basis(s) if coupled else sho_basis
    part = gho.solve_particular(s) if coupled else sho_part_cos
    grid = GridSpec(-12.0, 12.0, 3000)
    packet = gho.eigenmode_packet(s, basis, part, 2, 1.3, grid)
    kept = packet.samples.copy()
    got = gho.invariant_expectation(packet, basis, part, s, with_diagnostic=True)
    assert got == _invariant_written_out(packet, basis, part, s)
    assert np.array_equal(packet.samples, kept)


def _invariant_cases():
    """(scenario, basis, particular solution, mode numbers): the bundled
    scenarios, every coupling, an Omega < 0 basis and hbar = 0.5."""
    for path in sorted(SCENARIOS.glob("*.json")):
        s = gho.load_scenario(path.read_text())
        yield s, gho.solve_homogeneous_basis(s), gho.solve_particular(s), range(4)
    coupled = gho.scenario_from_dict(COUPLED)
    yield (coupled, gho.solve_homogeneous_basis(coupled),
           gho.solve_particular(coupled, (0.4, -0.2)), (0, 3))
    sho = gho.scenario_from_dict({"interval": [0.0, 12.0]})
    yield (sho, gho.solve_homogeneous_basis(sho, ((0.0, 1.0), (1.0, 0.0))),  # Omega = -1
           gho.solve_particular(sho, (1.0, 0.0)), (0, 3))
    half = gho.scenario_from_dict({"hbar": 0.5, "interval": [0.0, 12.0]})
    yield (half, gho.solve_homogeneous_basis(half, ((1.0, 0.0), (0.0, 2.0))),
           gho.solve_particular(half, (1.0, 0.0)), (0, 3))


def test_invariant_sum_of_squares_is_the_operator_form():
    grid = GridSpec(-12.0, 12.0, 3000)
    for s, basis, part, modes in _invariant_cases():
        for n in modes:
            packet = gho.eigenmode_packet(s, basis, part, n, s.t0 + 0.6, grid)
            got = gho.invariant_expectation(packet, basis, part, s)
            reference = _invariant_operator_form(packet, basis, part, s)
            assert abs(got - reference) <= 1e-12 * abs(reference), (s, n)


def _traced_peak(call):
    """Peak bytes numpy allocates (as tracemalloc sees them) during call()."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_chirp_z_hop_and_invariant_allocate_no_extra_full_size_array(
        sho, sho_basis, sho_part_zero):
    # At N = 4096 on (-10, 10) the hop 0.3 -> 1.0 takes the chirp-z form on
    # the packet's own 4096 points. Measured with numpy 2.4 / scipy 1.17: the
    # hop peaks at 419.4 KiB and the invariant at 193.5 KiB (483.25 and 257
    # KiB while chirp-z returned a fresh array and the phases and the
    # invariant's real-by-complex products made their own). Each bound adds
    # half of one complex array of 4096 points, so one more such temporary
    # alive at the peak fails.
    grid = GridSpec(-10.0, 10.0, 4096)
    packet = gho.eigenmode_packet(sho, sho_basis, sho_part_zero, 1, 0.3, grid)
    co = kernel_coefficients(sho, sho_basis, sho_part_zero, 0.3, 1.0)
    assert gho.propagator._quadrature_size(co, grid) == grid.n_points
    moved = gho.propagate(packet, sho, sho_basis, sho_part_zero, 1.0)  # warm-up
    hop = _traced_peak(lambda: gho.propagate(packet, sho, sho_basis, sho_part_zero, 1.0))
    invariant = _traced_peak(
        lambda: gho.invariant_expectation(moved, sho_basis, sho_part_zero, sho))
    assert hop < 420 * 1024 + 4096 * 16 // 2
    assert invariant < 194 * 1024 + 4096 * 16 // 2


def test_focal_landing_and_eigenmode_packet_allocate_no_extra_full_size_array(
        sho, sho_basis, sho_part_zero):
    # At N = 4096 on (-10, 10) the hop 0.7 -> its first focal time takes the
    # factored form and resamples (A = -1). Measured with numpy 2.4 / scipy
    # 1.17: the hop peaks at 451.2 KiB (643 KiB while it dilated before the
    # Fresnel pair) and eigenmode_packet at 166.3 KiB (258 KiB while the
    # phase was a separate array). Each bound adds half of one complex array
    # of 4096 points.
    grid = GridSpec(-10.0, 10.0, 4096)
    t_f = gho.caustic_times(sho_basis, 0.7).times[0]
    packet = gho.eigenmode_packet(sho, sho_basis, sho_part_zero, 2, 0.7, grid)
    gho.propagate(packet, sho, sho_basis, sho_part_zero, t_f)  # warm-up
    landing = _traced_peak(lambda: gho.propagate(packet, sho, sho_basis, sho_part_zero, t_f))
    mode = _traced_peak(lambda: gho.eigenmode_packet(sho, sho_basis, sho_part_zero, 2, 0.7,
                                                     grid))
    assert landing < 452 * 1024 + 4096 * 16 // 2
    assert mode < 167 * 1024 + 4096 * 16 // 2


@pytest.mark.parametrize("where, value, message", [
    (5, complex(np.nan, 0.0), "packet samples must be finite"),
    (0, complex(0.0, np.inf), "packet samples must be finite"),
    (31, complex(-np.inf, 1.0), "packet samples must be finite"),
    (None, 0.0, "packet is zero at every point of GridSpec(x_min=-1.0, x_max=1.0, "
                "n_points=32)"),
])
def test_packet_samples_are_finite_and_not_all_zero(where, value, message):
    grid = GridSpec(-1.0, 1.0, 32)
    samples = np.zeros(32, dtype=complex) if where is None else np.ones(32, dtype=complex)
    if where is not None:
        samples[where] = value
    with pytest.raises(ValidationError) as raised:
        WavePacket(grid, samples)
    assert str(raised.value) == message
    # one subnormal sample, whose square underflows, is a packet, and so is
    # one whose squares overflow, or -0.0 beside a 1
    for lone in (5e-324j, 1e200, -1e300 + 1e300j):
        samples = np.zeros(32, dtype=complex)
        samples[7] = lone
        assert WavePacket(grid, samples).samples[7] == lone
    assert WavePacket(grid, np.array([-0.0] * 31 + [1.0])).samples[-1] == 1.0


def test_packets_are_checked_without_a_blas_dot(monkeypatch):
    # OpenBLAS spreads np.vdot over threads, whose wake-up between FFTs cost
    # milliseconds where a numpy pass takes microseconds
    def refuse(*args):
        raise AssertionError("np.vdot called")

    monkeypatch.setattr(np, "vdot", refuse)
    grid = GridSpec(-10.0, 10.0, 4096)
    samples = sho_eigenstate(3, grid).samples
    assert np.array_equal(WavePacket(grid, samples).samples, samples)
    samples = samples.copy()
    samples[9] = np.nan
    with pytest.raises(ValidationError, match="packet samples must be finite"):
        WavePacket(grid, samples)
    with pytest.raises(ValidationError, match="packet is zero at every point"):
        WavePacket(grid, np.zeros(4096))


def test_a_packet_keeps_a_contiguous_complex_array_and_copies_any_other():
    # kept and frozen: copying every array would cost page faults on large grids
    grid = GridSpec(-5.0, 5.0, 64)
    real = np.exp(-grid.points ** 2)
    kept = real.astype(np.complex128)
    assert WavePacket(grid, kept).samples is kept
    assert not kept.flags.writeable
    wide = np.repeat(real, 2).astype(np.complex128)
    for given in (real, real.astype(np.complex64), wide[::2], real.tolist()):
        packet = WavePacket(grid, given)
        assert packet.samples is not given and not np.shares_memory(packet.samples, wide)
        assert np.array_equal(packet.samples, np.asarray(given, dtype=np.complex128))
        assert not packet.samples.flags.writeable
        if isinstance(given, np.ndarray):
            assert given.flags.writeable


def test_support_is_the_first_and_last_index_above_the_threshold():
    modulus = np.array([0.0, 1e-9, 2e-8, 1.0, 0.5, 1e-8, 0.0])
    assert _support(modulus, 1e-8) == (2, 4)
    assert _support(modulus, 0.0) == (1, 5)
    assert _support(modulus, 0.6) == (3, 3)

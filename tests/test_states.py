import logging
import math
import tracemalloc

import numpy as np
import pytest

import gho
from gho import (GridSpec, KernelQuery, ValidationError, WavePacket, apply_U_F,
                 apply_U_S, build_generalized_coherent_state, eigenmode,
                 eigenmode_packet, hermite_functions, inner_product, invariant_expectation,
                 l2_distance, mean_x, mode_sum_kernel, packet_norm, propagate,
                 sho_eigenstate, var_x)
from gho.packets import derivative, second_derivative

from conftest import COUPLED, transformed_eigenstate
from test_propagator import _propagate_records


def hermite_series(n, y):
    """Independent oracle: explicit series H_n(y) = n! sum (-1)^m (2y)^{n-2m} / (m! (n-2m)!)."""
    total = 0.0
    for m in range(n // 2 + 1):
        total += ((-1) ** m / (math.factorial(m) * math.factorial(n - 2 * m))
                  * (2 * y) ** (n - 2 * m))
    return math.factorial(n) * total


def test_hermite_basics():
    assert hermite_functions(0, 0.0)[0, 0] == pytest.approx(np.pi ** -0.25, rel=1e-15)
    # H_2(1) = 4 y^2 - 2 = 2, normalized by sqrt(2^2 2! sqrt(pi))
    assert hermite_functions(2, 1.0)[2, 0] == pytest.approx(
        2.0 * math.exp(-0.5) / math.sqrt(8.0 * math.sqrt(math.pi)), rel=1e-14)


def test_hermite_against_series():
    for y in (-1.3, 0.0, 0.7, 2.4):
        rows = hermite_functions(8, y)[:, 0]
        for n in (1, 3, 5, 8):
            norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
            ref = hermite_series(n, y) * math.exp(-0.5 * y * y) / norm
            assert rows[n] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_hermite_order_cap():
    with pytest.raises(ValidationError):
        hermite_functions(201, 0.5)


def test_single_hermite_row_is_the_tables_row():
    z = np.linspace(-14.0, 14.0, 1001)
    for n in range(41):
        assert np.array_equal(gho.states._hermite_row(n, z), hermite_functions(n, z)[n])
    with pytest.raises(ValidationError):
        gho.states._hermite_row(201, z)


def test_eigenmode_packet_keeps_two_hermite_rows(sho, sho_basis):
    # Measured with numpy 2.4: the call peaks at 258 KiB for n = 0, 5 and 40
    # alike (1602 KiB for n = 40 while it built all 41 Hermite rows). The
    # bound adds two real rows of 32 KiB.
    grid = GridSpec(-12.0, 12.0, 4096)
    eigenmode_packet(sho, sho_basis, None, 40, 0.3, grid)  # warm-up
    tracemalloc.start()
    try:
        eigenmode_packet(sho, sho_basis, None, 40, 0.3, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 258 * 1024 + 2 * 4096 * 8


def test_sho_eigenstate_ground(grid):
    packet = sho_eigenstate(0, grid)
    assert packet_norm(packet) == pytest.approx(1.0, abs=1e-10)
    mid = packet.samples[grid.n_points // 2]
    x_mid = grid.points[grid.n_points // 2]
    assert mid.real == pytest.approx(np.pi ** -0.25 * np.exp(-x_mid ** 2 / 2),
                                     rel=1e-12)


def test_sho_eigenstate_orthogonality(grid):
    third = sho_eigenstate(3, grid)
    assert packet_norm(third) == pytest.approx(1.0, abs=1e-8)
    for n in (0, 1, 2):
        other = sho_eigenstate(n, grid)
        assert abs(inner_product(third, other)) < 1e-8


def test_sho_eigenstate_energy(grid):
    packet = sho_eigenstate(2, grid)
    psi = packet.samples
    dx = grid.dx
    h_psi = -0.5 * second_derivative(psi, dx) + 0.5 * grid.points ** 2 * psi
    energy = np.trapezoid(np.conj(psi) * h_psi, dx=dx).real
    assert energy == pytest.approx(2.5, abs=1e-6)


def test_sho_eigenstate_grid_too_coarse():
    with pytest.raises(gho.GridTooNarrow):
        sho_eigenstate(150, GridSpec(-20.0, 20.0, 64))


def test_eigenmode_ground_value(sho, sho_basis, sho_part_zero):
    value = eigenmode(sho, sho_basis, sho_part_zero, 0, 0.0, 0.0)
    assert value == pytest.approx(np.pi ** -0.25, rel=1e-12)


def test_eigenmode_node_of_first_mode(driven, driven_basis, driven_part):
    # H_1 vanishes at its node x = x_p(t)
    t = 1.7
    value = eigenmode(driven, driven_basis, driven_part, 1, t,
                      float(driven_part.at(t).x))
    assert abs(value) < 1e-12


def test_eigenmode_phase_evolution(sho, sho_basis, sho_part_zero):
    value = eigenmode(sho, sho_basis, sho_part_zero, 0, np.pi / 2, 0.0)
    assert abs(value) == pytest.approx(np.pi ** -0.25, rel=1e-10)
    assert np.angle(value) == pytest.approx(-np.pi / 4, abs=1e-10)


def test_eigenmode_orthonormality_three_times(sho, sho_basis, sho_part_cos, grid,
                                              driven, driven_basis, driven_part,
                                              parametric, parametric_basis,
                                              parametric_part):
    cases = [(sho, sho_basis, sho_part_cos), (driven, driven_basis, driven_part),
             (parametric, parametric_basis, parametric_part)]
    for s, basis, part in cases:
        for t in (0.0, 1.1, 2.6):
            packets = [eigenmode_packet(s, basis, part, n, t, grid)
                       for n in range(11)]
            gram = np.array([[inner_product(pm, pn) for pn in packets]
                             for pm in packets])
            assert np.max(np.abs(gram - np.eye(11))) < 1e-8


def test_mode_set_is_each_modes_packet_to_the_bit(sho, parametric, parametric_basis,
                                                  parametric_part, sho_basis_squeezed,
                                                  sho_part_cos, grid):
    # one _modes_1d and one Hermite recursion give every mode up to n_max
    for s, basis, part in [(sho, sho_basis_squeezed, sho_part_cos),
                           (parametric, parametric_basis, parametric_part)]:
        modes = gho.states.eigenmode_packets(s, basis, part, 7, 1.1, grid)
        assert len(modes) == 8
        for n, packet in enumerate(modes):
            alone = eigenmode_packet(s, basis, part, n, 1.1, grid)
            assert (packet.grid, packet.t) == (alone.grid, alone.t)
            assert np.array_equal(packet.samples, alone.samples)


def test_mode_sum_single_term(sho, sho_basis, sho_part_zero):
    q = KernelQuery(0.3, 1.1, 0.25, -0.4)
    total = mode_sum_kernel(sho, sho_basis, sho_part_zero, 0, q)
    b = eigenmode(sho, sho_basis, sho_part_zero, 0, q.t_b, q.r_b)
    a = eigenmode(sho, sho_basis, sho_part_zero, 0, q.t_a, q.r_a)
    assert total == pytest.approx(b * np.conj(a), rel=1e-12)


def test_mode_sum_conjugation(sho, sho_basis, sho_part_zero):
    q = KernelQuery(0.3, 1.1, 0.25, -0.4)
    swapped = KernelQuery(1.1, 0.3, -0.4, 0.25)
    forward = mode_sum_kernel(sho, sho_basis, sho_part_zero, 7, q)
    backward = mode_sum_kernel(sho, sho_basis, sho_part_zero, 7, swapped)
    assert np.conj(backward) == forward


def test_mode_sum_propagation_matches_kernel(sho, sho_basis, sho_part_zero, grid):
    # displaced ground state, <n> = x0^2/2 = 5, propagated two ways
    x0 = math.sqrt(10.0)
    x = grid.points
    samples = np.pi ** -0.25 * np.exp(-(x - x0) ** 2 / 2)
    packet = WavePacket(grid, samples.astype(complex), t=0.0)
    t_b = 1.0
    direct = propagate(packet, sho, sho_basis, sho_part_zero, t_b)
    modes_a = np.array([eigenmode_packet(sho, sho_basis, sho_part_zero, n, 0.0,
                                         grid).samples for n in range(61)])
    modes_b = np.array([eigenmode_packet(sho, sho_basis, sho_part_zero, n, t_b,
                                         grid).samples for n in range(61)])
    weights = np.full(grid.n_points, grid.dx)
    weights[0] = weights[-1] = grid.dx / 2
    kernel_matrix = modes_b.T @ np.conj(modes_a)
    summed = WavePacket(grid, kernel_matrix @ (weights * packet.samples), t=t_b)
    assert l2_distance(summed, direct) < 1e-6


def test_apply_U_F_identity_for_zero_xp(sho, sho_part_zero, grid):
    packet = sho_eigenstate(1, grid)
    out = apply_U_F(packet, sho_part_zero, sho, 1.3)
    assert np.max(np.abs(out.samples - packet.samples)) < 1e-12


def test_apply_U_F_unitary_and_shifts(sho, sho_part_cos, grid):
    packet = sho_eigenstate(0, grid)
    out = apply_U_F(packet, sho_part_cos, sho, 0.0)
    assert abs(packet_norm(out) - 1.0) < 1e-12
    assert mean_x(out) == pytest.approx(1.0, abs=1e-8)


def test_apply_U_F_grid_too_narrow(sho, grid):
    part = gho.solve_particular(sho, (9.5, 0.0))
    packet = sho_eigenstate(0, grid)
    with pytest.raises(gho.GridTooNarrow):
        apply_U_F(packet, part, sho, 0.0)


MODE_LAYER_CALLS = {
    "eigenmode_packet": lambda s, basis, part, packet, t: eigenmode_packet(
        s, basis, part, 0, t, packet.grid),
    "build_generalized_coherent_state": lambda s, basis, part, packet, t:
        build_generalized_coherent_state(s, basis, part, 0, t, packet.grid),
    "apply_U_S": lambda s, basis, part, packet, t: apply_U_S(packet, basis, s, t),
    "apply_U_F": lambda s, basis, part, packet, t: apply_U_F(packet, part, s, t),
    "invariant_expectation": lambda s, basis, part, packet, t: invariant_expectation(
        packet.with_samples(packet.samples, t=t), basis, part, s),
}


@pytest.mark.parametrize("t", [40.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(MODE_LAYER_CALLS))
def test_mode_layer_rejects_times_outside_the_interval(sho, sho_basis, sho_part_cos, grid,
                                                       name, t):
    # past t1 the dense output extrapolates: u(40) would read -2.1e6, not cos 40
    packet = eigenmode_packet(sho, sho_basis, sho_part_cos, 0, 1.0, grid)
    with pytest.raises(ValidationError, match="outside working interval"):
        MODE_LAYER_CALLS[name](sho, sho_basis, sho_part_cos, packet, t)
    assert MODE_LAYER_CALLS[name](sho, sho_basis, sho_part_cos, packet, sho.t1) is not None


def test_apply_U_S_identity_when_unsqueezed(sho, sho_basis, grid):
    packet = sho_eigenstate(2, grid)
    out = apply_U_S(packet, sho_basis, sho, 0.8)  # rho^2 = Omega = 1, rho' = 0
    assert np.max(np.abs(out.samples - packet.samples)) < 1e-10


def test_apply_U_S_unitary_and_rescales(sho, sho_basis_squeezed, grid):
    packet = sho_eigenstate(0, grid)
    out = apply_U_S(packet, sho_basis_squeezed, sho, 0.0)  # rho=1, Omega=2
    assert abs(packet_norm(out) - 1.0) < 1e-12
    assert var_x(out) == pytest.approx(0.25, abs=1e-10)


def test_coherent_state_reduces_to_sho_eigenstate(sho, sho_basis, sho_part_zero,
                                                  grid):
    for n in (0, 2, 5):
        built = build_generalized_coherent_state(sho, sho_basis, sho_part_zero,
                                                 n, 0.0, grid)
        reference = sho_eigenstate(n, grid)
        assert np.max(np.abs(built.samples - reference.samples)) < 1e-13


def test_coherent_state_tracks_classical_solution(sho, sho_basis, sho_part_cos,
                                                  grid):
    for t in (0.0, 0.5, 1.0):
        packet = build_generalized_coherent_state(sho, sho_basis, sho_part_cos,
                                                  0, t, grid)
        assert mean_x(packet) == pytest.approx(np.cos(t), abs=1e-8)


def test_squeezed_variance_follows_rho(sho, sho_basis_squeezed, sho_part_zero,
                                       grid):
    for t, expected in ((0.0, 0.25), (np.pi / 2, 1.0)):
        packet = build_generalized_coherent_state(sho, sho_basis_squeezed,
                                                  sho_part_zero, 0, t, grid)
        assert var_x(packet) == pytest.approx(expected, abs=1e-8)


def test_variance_trajectory_matches_rho(sho, sho_basis_squeezed, sho_part_zero,
                                         grid):
    for t in np.linspace(0.0, np.pi, 9):
        packet = build_generalized_coherent_state(sho, sho_basis_squeezed,
                                                  sho_part_zero, 0, float(t), grid)
        rv = sho_basis_squeezed.at(float(t))
        expected = rv.rho ** 2 / (2.0 * sho_basis_squeezed.omega)
        assert var_x(packet) == pytest.approx(expected, rel=1e-6)


def test_equivalence_of_constructions(sho, sho_basis_squeezed, sho_part_cos, grid,
                                      driven, driven_basis, driven_part):
    coupled = gho.scenario_from_dict(COUPLED)
    coupled_part = gho.solve_particular(coupled, (0.4, -0.2))
    cases = [(sho, sho_basis_squeezed, sho_part_cos),
             (driven, driven_basis, driven_part),
             (coupled, gho.solve_homogeneous_basis(coupled), coupled_part),
             (coupled, gho.solve_homogeneous_basis(coupled, ((0.0, 1.0), (1.0, 0.0))),
              coupled_part)]  # Omega = -1.3
    for s, basis, part in cases:
        for n in (0, 3):
            for t in (0.0, 0.7, 2.0):
                direct = eigenmode_packet(s, basis, part, n, t, grid)
                built = transformed_eigenstate(s, basis, part, n, t, grid)
                assert l2_distance(direct, built) < 1e-9


def test_invariant_on_eigenmodes(sho, sho_basis, sho_part_zero, grid):
    for n in (0, 1, 2, 3):
        packet = eigenmode_packet(sho, sho_basis, sho_part_zero, n, 0.0, grid)
        value = invariant_expectation(packet, sho_basis, sho_part_zero, sho)
        assert value == pytest.approx(n + 0.5, abs=1e-6)


def test_invariant_on_transformed_states(sho, sho_basis_squeezed, sho_part_cos,
                                         grid):
    for n in (0, 2):
        packet = build_generalized_coherent_state(sho, sho_basis_squeezed,
                                                  sho_part_cos, n, 0.9, grid)
        value = invariant_expectation(packet, sho_basis_squeezed, sho_part_cos, sho)
        assert value == pytest.approx(n + 0.5, abs=1e-6)


def test_invariant_expectation_is_real(sho, sho_basis_squeezed, sho_part_cos, grid):
    packet = build_generalized_coherent_state(sho, sho_basis_squeezed, sho_part_cos,
                                              1, 1.4, grid)
    _, imag = invariant_expectation(packet, sho_basis_squeezed, sho_part_cos, sho,
                                    with_diagnostic=True)
    assert abs(imag) < 1e-8


def test_eigenmode_schrodinger_residual(sho, sho_basis, sho_part_cos, grid):
    from gho.oracle import schrodinger_residual

    for n in range(6):
        def field(t, x, n=n):
            g = GridSpec(x[0], x[-1], len(x))
            return eigenmode_packet(sho, sho_basis, sho_part_cos, n, t, g).samples

        assert schrodinger_residual(field, sho, 0.9, grid) < 1e-4


def test_branch_continuity_no_phase_jumps(sho, sho_basis, sho_part_zero):
    # (u - iv)^(n + 1/2) tracked continuously: the mode phase advances smoothly
    ts = np.linspace(0.0, 11.0, 600)
    values = np.array([eigenmode(sho, sho_basis, sho_part_zero, 0, float(t), 0.3)
                       for t in ts])
    dphi = np.diff(np.angle(values))
    dphi[dphi > np.pi] -= 2 * np.pi
    dphi[dphi < -np.pi] += 2 * np.pi
    # smooth -i(n+1/2)t phase: steps of about -(1/2) dt, never a pi/2 jump
    assert np.max(np.abs(dphi + 0.5 * np.diff(ts))) < 1e-6


def test_derivative_stencils_accuracy():
    # the name dates from the 7-point stencils that the spectral derivatives
    # replaced. On [-4, 4] f is about 1e-7 at the ends, and the grid taken
    # as one period makes that a step: the whole-grid bounds hold (measured
    # 4.8e-6 and 6.0e-5), the error being largest at the ends
    grid = GridSpec(-4.0, 4.0, 512)
    x = grid.points
    f = np.exp(-x ** 2) * np.sin(3 * x)
    d1_ref = np.exp(-x ** 2) * (3 * np.cos(3 * x) - 2 * x * np.sin(3 * x))
    d1 = derivative(f, grid.dx)
    assert np.max(np.abs(d1 - d1_ref)) < 1e-5
    d2 = second_derivative(f, grid.dx)
    d2_ref = np.exp(-x ** 2) * ((4 * x ** 2 - 2 - 9) * np.sin(3 * x)
                                - 12 * x * np.cos(3 * x))
    assert np.max(np.abs(d2[2:-2] - d2_ref[2:-2])) < 1e-4
    # on [-8, 8] f is 1.6e-28 at the ends and its spectrum
    # exp(-(k -+ 3)^2 / 4) is far below rounding at the Nyquist wavenumber
    # k_max = pi / dx = 50: the p-th derivative is exact to the transform's
    # rounding, about eps k_max^p, at every point, the ends included
    # (measured 2.6 and 2.9 eps k_max^p; the 7-point stencils read 2.8e-9
    # three points in on [-4, 4] and 512 points, four times finer)
    grid = GridSpec(-8.0, 8.0, 256)
    x, dx = grid.points, grid.dx
    gauss = np.exp(-x ** 2)
    f = gauss * np.sin(3.0 * x)
    d1 = gauss * (3.0 * np.cos(3.0 * x) - 2.0 * x * np.sin(3.0 * x))
    d2 = gauss * ((4.0 * x ** 2 - 11.0) * np.sin(3.0 * x) - 12.0 * x * np.cos(3.0 * x))
    rounding = 16.0 * np.finfo(float).eps
    for samples in (f, f * (1.0 - 0.5j)):
        scale = 1.0 if np.isrealobj(samples) else 1.0 - 0.5j
        got1, got2 = derivative(samples, dx), second_derivative(samples, dx)
        assert got1.dtype == got2.dtype == samples.dtype
        assert np.max(np.abs(got1 - scale * d1)) <= rounding * np.pi / dx
        assert np.max(np.abs(got2 - scale * d2)) <= rounding * (np.pi / dx) ** 2


def test_grid_and_packet_validation():
    with pytest.raises(ValidationError):
        GridSpec(1.0, -1.0, 64)
    with pytest.raises(ValidationError):
        GridSpec(-1.0, 1.0, 8)
    grid = GridSpec(-1.0, 1.0, 32)
    with pytest.raises(ValidationError):
        WavePacket(grid, np.ones(17, dtype=complex))
    with pytest.raises(ValidationError):
        WavePacket(grid, np.full(32, np.nan, dtype=complex))
    packet = WavePacket(grid, np.ones(32, dtype=complex))
    with pytest.raises(ValueError):
        packet.samples[0] = 2.0  # samples are frozen


def test_coupled_scenario_consistency():
    # nonzero a, b, f: mode phases, kernel couplings and the evolver must agree
    s = gho.scenario_from_dict({"a": 0.2, "b": 0.3, "f": 0.1,
                                "interval": [0.0, 4.0]})
    basis = gho.solve_homogeneous_basis(s)
    part = gho.solve_particular(s)
    grid = GridSpec(-10.0, 10.0, 2048)
    from gho.oracle import evolve_tdse, schrodinger_residual

    def mode_field(t, x):
        g = GridSpec(x[0], x[-1], len(x))
        return eigenmode_packet(s, basis, part, 1, t, g).samples

    assert schrodinger_residual(mode_field, s, 1.1, grid) < 1e-4

    from gho.propagator import kernel_coefficients

    def kernel_field(t, x):
        return kernel_coefficients(s, basis, part, 0.0, t).value(0.3, x)

    assert schrodinger_residual(kernel_field, s, 0.8, grid) < 1e-4

    start = eigenmode_packet(s, basis, part, 0, 0.0, grid)
    evolved = evolve_tdse(s, start, 1.0)
    direct = propagate(start, s, basis, part, 1.0)
    assert l2_distance(evolved, direct) < 1e-4

    packets = [eigenmode_packet(s, basis, part, n, 1.3, grid) for n in range(6)]
    gram = np.array([[inner_product(a, b) for b in packets] for a in packets])
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8


@pytest.mark.parametrize("coupling", [
    {"a": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 1.0}},
    {"b": 0.3},
])
def test_invariant_with_gauge_couplings(coupling, grid):
    # P in the invariant is the kinetic momentum p - 2 M a x - b - M x_p'
    s = gho.scenario_from_dict({"interval": [0.0, 12.0], **coupling})
    basis = gho.solve_homogeneous_basis(s)
    part = gho.solve_particular(s, (0.5, 0.2))
    for n in (0, 1, 2):
        for t in (0.0, 1.3):
            packet = eigenmode_packet(s, basis, part, n, t, grid)
            value = invariant_expectation(packet, basis, part, s)
            assert value == pytest.approx(n + 0.5, abs=1e-6)


# f = A cos(w t + phase) + offset, and a step at t = 1 between t_a = 0.6 and
# t_b = 1.5; each with its integral over [lo, hi] written out
F_TIME_TERMS = {
    "sinusoidal": ({"kind": "sinusoidal", "amplitude": 0.4, "omega": 1.7, "phase": 0.3,
                    "offset": 0.1},
                   lambda lo, hi: (0.4 / 1.7 * (math.sin(1.7 * hi + 0.3)
                                                - math.sin(1.7 * lo + 0.3)) + 0.1 * (hi - lo))),
    "piecewise": ({"kind": "piecewise", "breakpoints": [1.0], "values": [0.3, -0.5]},
                  lambda lo, hi: (0.3 * (min(hi, 1.0) - min(lo, 1.0))
                                  - 0.5 * (max(hi, 1.0) - max(lo, 1.0)))),
}


@pytest.mark.parametrize("kind", sorted(F_TIME_TERMS))
def test_f_time_term_is_one_phase_from_the_right_reference_time(kind, caplog):
    # f enters only as exp(i int f / hbar): from t0 for a mode, from t_a for
    # a kernel or a hop. A constant f cannot tell the two apart; these can.
    spec, integral = F_TIME_TERMS[kind]
    base = {k: v for k, v in COUPLED.items() if k != "f"} | {"interval": [0.0, 4.0]}
    solved = []
    for s in (gho.scenario_from_dict(base), gho.scenario_from_dict(base | {"f": spec})):
        solved.append((s, gho.solve_homogeneous_basis(s), gho.solve_particular(s, (0.4, -0.2))))
    (s0, basis0, part0), (sf, basisf, partf) = solved
    hbar, t0, t_a, t_b = s0.hbar, s0.t0, 0.6, 1.5
    grid = GridSpec(-10.0, 10.0, 512)

    def phase(lo, hi):
        return np.exp(1j * integral(lo, hi) / hbar)

    def assert_ratio(with_f, without_f, ratio):
        with_f, without_f = np.asarray(with_f), np.asarray(without_f)
        assert np.max(np.abs(with_f - ratio * without_f)) <= 1e-12 * np.max(np.abs(without_f))

    for q in (KernelQuery(t_a, t_b, 0.3, -0.5), KernelQuery(t_b, t_a, -0.5, 0.3)):
        assert_ratio(gho.kernel(sf, basisf, partf, q), gho.kernel(s0, basis0, part0, q),
                     phase(q.t_a, q.t_b))
        assert_ratio(mode_sum_kernel(sf, basisf, partf, 6, q),
                     mode_sum_kernel(s0, basis0, part0, 6, q), phase(q.t_a, q.t_b))
    for t in (t_a, t_b):
        assert_ratio(eigenmode(sf, basisf, partf, 2, t, 0.7),
                     eigenmode(s0, basis0, part0, 2, t, 0.7), phase(t0, t))
        assert_ratio(eigenmode_packet(sf, basisf, partf, 1, t, grid).samples,
                     eigenmode_packet(s0, basis0, part0, 1, t, grid).samples, phase(t0, t))
    for start, stop in ((0.9, 1.1), (t_a, t_b)):
        packet = eigenmode_packet(s0, basis0, part0, 1, start, grid)
        with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
            with_f = propagate(packet, sf, basisf, partf, stop)
        assert_ratio(with_f.samples, propagate(packet, s0, basis0, part0, stop).samples,
                     phase(start, stop))
    assert [record[0] for record in _propagate_records(caplog)] == ["factored", "chirp-z"]

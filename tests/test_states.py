import math

import numpy as np
import pytest

import gho
from gho import (GridSpec, KernelQuery, ValidationError, WavePacket, apply_U_F,
                 apply_U_S, build_generalized_coherent_state, eigenmode,
                 eigenmode_packet, hermite, inner_product, invariant_expectation,
                 l2_distance, mean_x, mode_sum_kernel, packet_norm, propagate,
                 sho_eigenstate, var_x)
from gho.packets import derivative, second_derivative


def hermite_series(n, y):
    """Independent oracle: explicit series H_n(y) = n! sum (-1)^m (2y)^{n-2m} / (m! (n-2m)!)."""
    total = 0.0
    for m in range(n // 2 + 1):
        total += ((-1) ** m / (math.factorial(m) * math.factorial(n - 2 * m))
                  * (2 * y) ** (n - 2 * m))
    return math.factorial(n) * total


def test_hermite_basics():
    assert hermite(0, 123.4) == 1.0
    assert hermite(2, 1.0) == 2.0  # 4 y^2 - 2


def test_hermite_against_series():
    for n in (1, 3, 5, 8):
        for y in (-1.3, 0.0, 0.7, 2.4):
            ref = hermite_series(n, y)
            got = hermite(n, y)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_hermite_order_cap():
    with pytest.raises(ValidationError):
        hermite(201, 0.5)


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
    cases = [(sho, sho_basis_squeezed, sho_part_cos), (driven, driven_basis,
                                                       driven_part)]
    for s, basis, part in cases:
        for n in (0, 3):
            for t in (0.0, 0.7, 2.0):
                direct = eigenmode_packet(s, basis, part, n, t, grid)
                built = build_generalized_coherent_state(s, basis, part, n, t, grid)
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
    grid = GridSpec(-4.0, 4.0, 512)
    x = grid.points
    f = np.exp(-x ** 2) * np.sin(3 * x)
    d1_ref = np.exp(-x ** 2) * (3 * np.cos(3 * x) - 2 * x * np.sin(3 * x))
    assert np.max(np.abs(derivative(f, grid.dx) - d1_ref)) < 1e-5
    interior = slice(2, -2)
    d2 = second_derivative(f, grid.dx)
    d2_ref = np.exp(-x ** 2) * ((4 * x ** 2 - 2 - 9) * np.sin(3 * x)
                                - 12 * x * np.cos(3 * x))
    assert np.max(np.abs(d2[interior] - d2_ref[interior])) < 1e-4


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
    from gho.oracle import EvolverConfig, evolve_tdse, schrodinger_residual

    def mode_field(t, x):
        g = GridSpec(x[0], x[-1], len(x))
        return eigenmode_packet(s, basis, part, 1, t, g).samples

    assert schrodinger_residual(mode_field, s, 1.1, grid) < 1e-4

    from gho.propagator import kernel_coefficients

    def kernel_field(t, x):
        return kernel_coefficients(s, basis, part, 0.0, t).value_1d(0.3, x)

    assert schrodinger_residual(kernel_field, s, 0.8, grid) < 1e-4

    start = eigenmode_packet(s, basis, part, 0, 0.0, grid)
    evolved = evolve_tdse(s, start, 1.0, EvolverConfig(dt=1e-3))
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

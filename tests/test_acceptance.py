"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is fixed here, not calibrated at runtime.
"""

import math

import numpy as np
import pytest

import gho
from gho import (CausticEncountered, EvolverConfig, GridSpec, KernelQuery,
                 WavePacket, build_generalized_coherent_state, eigenmode_packet,
                 evolve_tdse, inner_product, invariant_expectation, kernel,
                 kernel_delta_check, l2_distance, mean_x, packet_norm,
                 path_integral_oracle, propagate, schrodinger_residual,
                 sho_eigenstate, var_x)
from gho.oracle import compose_kernels
from gho.propagator import kernel_coefficients
from scipy.integrate import solve_ivp

from conftest import free_kernel, mehler_kernel


def report(num, name, value, tol):
    print(f"ACCEPTANCE {num} {name}: measured={value:.3e} tol={tol:.0e} PASS")


def test_criterion_1_closed_form_kernels(sho, sho_basis, free, free_basis):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        t_a = rng.uniform(0.0, 3.0)
        t_b = t_a + rng.uniform(0.2, np.pi - 0.2)  # caustic-free with margin
        x_a, x_b = rng.uniform(-3.0, 3.0, 2)
        val = kernel(sho, sho_basis, None, KernelQuery(t_a, t_b, x_a, x_b))
        ref = mehler_kernel(t_a, t_b, x_a, x_b)
        worst = max(worst, abs(val - ref) / abs(ref))
    for _ in range(100):
        t_a = rng.uniform(0.0, 2.0)
        t_b = t_a + rng.uniform(0.05, 2.5)
        x_a, x_b = rng.uniform(-3.0, 3.0, 2)
        val = kernel(free, free_basis, None, KernelQuery(t_a, t_b, x_a, x_b))
        ref = free_kernel(t_a, t_b, x_a, x_b)
        worst = max(worst, abs(val - ref) / abs(ref))
    assert worst < 1e-10
    report(1, "closed-form kernel equivalence", worst, 1e-10)


def test_criterion_2_kernel_properties(sho, sho_basis, sho_part_cos, free,
                                       free_basis, parametric, parametric_basis,
                                       grid):
    rng = np.random.default_rng(102)
    worst_conj = 0.0
    for _ in range(100):
        t_a, t_b = np.sort(rng.uniform(0.0, 11.0, 2))
        if t_b - t_a < 0.05:
            continue
        x_a, x_b = rng.uniform(-2.0, 2.0, 2)
        try:
            fwd = kernel(sho, sho_basis, sho_part_cos, KernelQuery(t_a, t_b, x_a, x_b))
            bwd = kernel(sho, sho_basis, sho_part_cos, KernelQuery(t_b, t_a, x_b, x_a))
        except CausticEncountered:
            continue
        worst_conj = max(worst_conj, abs(np.conj(fwd) - bwd) / abs(fwd))
    assert worst_conj < 1e-12

    worst_comp = 0.0
    for s, basis, (t_a, t_b, t_c) in ((free, free_basis, (0.0, 0.7, 2.0)),
                                      (sho, sho_basis, (0.2, 0.8, 1.5)),
                                      (parametric, parametric_basis, (0.2, 0.9, 1.6))):
        direct = kernel(s, basis, None, KernelQuery(t_a, t_c, 0.3, -0.5))
        composed = compose_kernels(s, basis, None, t_a, t_b, t_c, 0.3, -0.5)
        worst_comp = max(worst_comp, abs(composed - direct) / abs(direct))
    assert worst_comp < 1e-6

    packet = sho_eigenstate(0, grid)
    d1 = kernel_delta_check(sho, sho_basis, None, 0.0, 1e-3, packet)
    d2 = kernel_delta_check(sho, sho_basis, None, 0.0, 5e-4, packet)
    assert d1 < 1e-2
    assert d1 / d2 == pytest.approx(2.0, rel=0.2)
    report(2, "conjugation / composition / delta limit",
           max(worst_conj, worst_comp, d1), 1e-2)


def test_criterion_3_basis_choice_invariance(sho, sho_basis, sho_basis_squeezed,
                                             sho_basis_rotated, sho_part_zero,
                                             sho_part_cos):
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(60):
        t_a = rng.uniform(0.0, 3.0)
        t_b = t_a + rng.uniform(0.2, np.pi - 0.2)
        x_a, x_b = rng.uniform(-2.5, 2.5, 2)
        q = KernelQuery(t_a, t_b, x_a, x_b)
        ref = kernel(sho, sho_basis, sho_part_zero, q)
        for basis in (sho_basis_squeezed, sho_basis_rotated):
            worst = max(worst, abs(kernel(sho, basis, sho_part_zero, q) - ref)
                        / abs(ref))
        worst = max(worst, abs(kernel(sho, sho_basis, sho_part_cos, q) - ref)
                    / abs(ref))
    assert worst < 1e-10
    report(3, "basis-choice invariance", worst, 1e-10)


def test_criterion_4_schrodinger_residuals(sho, sho_basis, sho_part_cos, driven,
                                           driven_basis, driven_part, parametric,
                                           parametric_basis, parametric_part, grid):
    worst = 0.0
    cases = [(sho, sho_basis, sho_part_cos), (driven, driven_basis, driven_part),
             (parametric, parametric_basis, parametric_part)]
    for s, basis, part in cases:
        def slice_field(t, x, s=s, basis=basis, part=part):
            co = kernel_coefficients(s, basis, part, 0.0, t)
            return co.value(0.3, x)

        worst = max(worst, schrodinger_residual(slice_field, s, 0.7, grid))
        for n in range(6):
            def mode_field(t, x, s=s, basis=basis, part=part, n=n):
                g = GridSpec(x[0], x[-1], len(x))
                return eigenmode_packet(s, basis, part, n, t, g).samples

            worst = max(worst, schrodinger_residual(mode_field, s, 0.9, grid))
    assert worst < 1e-4

    def corrupted(t, x):
        g = GridSpec(x[0], x[-1], len(x))
        return eigenmode_packet(sho, sho_basis, sho_part_cos, 0, t, g).samples \
            * (1 + 0.1 * x)

    control = schrodinger_residual(corrupted, sho, 0.9, grid)
    assert control > 1e-2
    report(4, "schrodinger residuals (control %.2e)" % control, worst, 1e-4)


def test_criterion_5_mode_completeness(sho, sho_basis, sho_part_zero, grid):
    worst_gram = 0.0
    for t in (0.0, 1.1, 2.6):
        packets = [eigenmode_packet(sho, sho_basis, sho_part_zero, n, t, grid)
                   for n in range(11)]
        gram = np.array([[inner_product(pm, pn) for pn in packets]
                         for pm in packets])
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(11)))))
    assert worst_gram < 1e-8

    x0 = math.sqrt(10.0)  # <n> = x0^2 / 2 = 5
    x = grid.points
    packet = WavePacket(grid, (np.pi ** -0.25 * np.exp(-(x - x0) ** 2 / 2))
                        .astype(complex), t=0.0)
    direct = propagate(packet, sho, sho_basis, sho_part_zero, 1.0)
    modes_a = np.array([eigenmode_packet(sho, sho_basis, sho_part_zero, n, 0.0,
                                         grid).samples for n in range(61)])
    modes_b = np.array([eigenmode_packet(sho, sho_basis, sho_part_zero, n, 1.0,
                                         grid).samples for n in range(61)])
    weights = np.full(grid.n_points, grid.dx)
    weights[0] = weights[-1] = grid.dx / 2
    summed = WavePacket(grid, (modes_b.T @ np.conj(modes_a)) @ (weights
                                                                * packet.samples),
                        t=1.0)
    distance = l2_distance(summed, direct)
    assert distance < 1e-6
    report(5, "mode completeness + mode-sum propagation",
           max(worst_gram, distance), 1e-6)


def test_criterion_6_coherent_and_squeezed(sho, sho_basis, sho_basis_squeezed,
                                           sho_part_zero, sho_part_cos, grid):
    worst_track = 0.0
    for t in (0.0, 0.5, 1.0):
        packet = build_generalized_coherent_state(sho, sho_basis, sho_part_cos,
                                                  0, t, grid)
        worst_track = max(worst_track, abs(mean_x(packet) - np.cos(t)))
    assert worst_track < 1e-8

    worst_var = 0.0
    for t in np.linspace(0.0, np.pi, 7):
        packet = build_generalized_coherent_state(sho, sho_basis_squeezed,
                                                  sho_part_zero, 0, float(t), grid)
        rv = sho_basis_squeezed.at(float(t))
        expected = rv.rho ** 2 / (2.0 * sho_basis_squeezed.omega)
        worst_var = max(worst_var, abs(var_x(packet) - expected) / expected)
    assert worst_var < 1e-6

    # the width pulsates with period pi (rho^2 = cos^2 + 4 sin^2), not period 1
    def width(t):
        packet = build_generalized_coherent_state(sho, sho_basis_squeezed,
                                                  sho_part_zero, 0, t, grid)
        return var_x(packet)

    assert width(0.3 + np.pi) == pytest.approx(width(0.3), rel=1e-6)
    assert abs(width(0.3 + 1.0) - width(0.3)) > 0.05
    report(6, "coherent tracking / squeezed width (period pi)",
           max(worst_track, worst_var), 1e-6)


def test_criterion_7_invariant(sho, sho_basis, sho_basis_squeezed, sho_part_zero,
                               sho_part_cos, parametric, parametric_basis,
                               parametric_part, grid):
    worst_eigen = 0.0
    for n in (0, 1, 2, 3):
        packet = eigenmode_packet(sho, sho_basis, sho_part_zero, n, 0.0, grid)
        value = invariant_expectation(packet, sho_basis, sho_part_zero, sho)
        worst_eigen = max(worst_eigen, abs(value - (n + 0.5)))
        transformed = build_generalized_coherent_state(sho, sho_basis_squeezed,
                                                       sho_part_cos, n, 0.9, grid)
        value = invariant_expectation(transformed, sho_basis_squeezed,
                                      sho_part_cos, sho)
        worst_eigen = max(worst_eigen, abs(value - (n + 0.5)))
    assert worst_eigen < 1e-6

    packet = eigenmode_packet(parametric, parametric_basis, parametric_part, 0,
                              0.0, grid)
    cfg = EvolverConfig(dt=1e-2)
    values = [invariant_expectation(packet, parametric_basis, parametric_part,
                                    parametric)]
    state = packet
    for t_end in np.linspace(0.5, 5.0, 10):
        state = evolve_tdse(parametric, state, float(t_end), cfg)
        values.append(invariant_expectation(state, parametric_basis,
                                            parametric_part, parametric))
    values = np.asarray(values)
    drift = (values.max() - values.min()) / abs(values.mean())
    assert drift < 1e-5

    def rhs(t, y):
        m, _ = parametric.mass.eval(t)
        w, _ = parametric.frequency.eval(t)
        return [y[1] / m, -m * w * w * y[0]]

    sol = solve_ivp(rhs, (0.0, 10.0), [1.0, 0.3], method="DOP853",
                    dense_output=True, rtol=1e-12, atol=1e-14)
    ts = np.linspace(0.0, 10.0, 400)
    ys = sol.sol(ts)
    ivals = gho.classical_invariant(parametric_basis, parametric_part, parametric,
                                    ys[0], ys[1], ts)
    classical_drift = (ivals.max() - ivals.min()) / abs(ivals.mean())
    assert classical_drift < 1e-6
    report(7, "invariant spectrum / quantum drift / classical drift",
           max(worst_eigen, drift, classical_drift), 1e-5)


def test_criterion_8_oracle_cross_validation(sho, sho_basis, parametric,
                                             parametric_basis, sho_part_zero, grid):
    worst_evolver = 0.0
    for s, basis in ((sho, sho_basis), (parametric, parametric_basis)):
        packet = sho_eigenstate(0, grid)
        evolved = evolve_tdse(s, packet, 1.0, EvolverConfig(dt=1e-3))
        direct = propagate(packet, s, basis, None, 1.0)
        worst_evolver = max(worst_evolver, l2_distance(evolved, direct))
    assert worst_evolver < 1e-4

    pgrid = GridSpec(-12.0, 12.0, 4096)
    rng = np.random.default_rng(108)
    worst_pi = 0.0
    for _ in range(5):
        x_a, x_b = rng.uniform(-1.5, 1.5, 2)
        q = KernelQuery(0.0, 1.0, float(x_a), float(x_b))
        value = path_integral_oracle(sho, q, 8, pgrid, basis=sho_basis,
                                     part=sho_part_zero)
        ref = kernel(sho, sho_basis, sho_part_zero, q)
        worst_pi = max(worst_pi, abs(value - ref) / abs(ref))
    assert worst_pi < 1e-5
    report(8, "evolver vs kernel / path-integral slices",
           max(worst_evolver, worst_pi), 1e-4)


def test_criterion_9_caustic_handling(sho, sho_basis, sho_part_zero):
    with pytest.raises(CausticEncountered):
        kernel(sho, sho_basis, sho_part_zero, KernelQuery(0.0, np.pi, 0.1, 0.2))

    t_a, t_b, t_c = 0.0, 3 * np.pi / 4, 5 * np.pi / 4
    direct = kernel(sho, sho_basis, sho_part_zero, KernelQuery(t_a, t_c, 0.3, -0.5))
    composed = compose_kernels(sho, sho_basis, sho_part_zero, t_a, t_b, t_c,
                               0.3, -0.5)
    err = abs(composed - direct) / abs(direct)
    assert err < 1e-5
    report(9, "caustic rejection + composition across focus", err, 1e-5)

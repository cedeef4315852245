import logging
import re

import numpy as np
import pytest

import gho
from gho import (EvolverConfig, GridSpec, KernelQuery, LinearSolveFailure,
                 ValidationError, WavePacket,
                 evolve_tdse, inner_product, kernel, l2_distance, mean_x,
                 packet_norm, path_integral_oracle, propagate,
                 schrodinger_residual, sho_eigenstate, var_x)
from gho.oracle import compose_kernels

from conftest import free_kernel


def test_stationary_state_under_evolution(sho, grid):
    packet = sho_eigenstate(0, grid)
    out = evolve_tdse(sho, packet, 1.0, EvolverConfig(dt=1e-3))
    overlap = inner_product(out, packet)
    assert abs(overlap) > 1 - 1e-8
    # global phase exp(-i t / 2); the overlap conjugates the evolved state
    assert np.angle(overlap) == pytest.approx(0.5, abs=1e-4)


def test_free_gaussian_spreading(free, grid):
    packet = sho_eigenstate(0, grid)
    out = evolve_tdse(free, packet, 1.0, EvolverConfig(dt=1e-3))
    assert var_x(out) == pytest.approx(1.0, abs=1e-4)


def test_ehrenfest_driven_sho(driven, driven_part, grid):
    packet = sho_eigenstate(0, grid)
    out = evolve_tdse(driven, packet, 2.0, EvolverConfig(dt=1e-3))
    assert mean_x(out) == pytest.approx(float(driven_part.at(2.0).x), abs=1e-4)
    assert float(driven_part.at(2.0).x) == pytest.approx(1 - np.cos(2.0), abs=1e-10)


def test_norm_drift_over_thousand_steps(parametric, grid):
    packet = sho_eigenstate(0, grid)
    out = evolve_tdse(parametric, packet, 1.0, EvolverConfig(dt=1e-3))
    assert abs(packet_norm(out) - packet_norm(packet)) < 1e-8


def test_evolver_vs_kernel_propagation(sho, sho_basis, parametric,
                                       parametric_basis, grid):
    for s, basis in ((sho, sho_basis), (parametric, parametric_basis)):
        packet = sho_eigenstate(0, grid)
        evolved = evolve_tdse(s, packet, 1.0, EvolverConfig(dt=1e-3))
        direct = propagate(packet, s, basis, None, 1.0)
        assert l2_distance(evolved, direct) < 1e-4


COUPLED = {"a": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 1.0},
           "b": 0.3, "f": 0.2,
           "force": {"kind": "sinusoidal", "amplitude": 0.5, "omega": 1.3},
           "interval": [0.0, 2.0]}
FREQUENCY_STEP = {"frequency": {"kind": "piecewise", "breakpoints": [0.5],
                                "values": [1.0, 1.6]},
                  "interval": [0.0, 2.0]}


@pytest.mark.parametrize("spec", [COUPLED, FREQUENCY_STEP], ids=["coupled", "step"])
def test_evolver_vs_propagate(spec, grid):
    # the step case fails if the step matrix is not factored again after
    # the frequency changes
    s = gho.scenario_from_dict(spec)
    basis = gho.solve_homogeneous_basis(s)
    part = gho.solve_particular(s)
    packet = sho_eigenstate(0, grid)
    evolved = evolve_tdse(s, packet, 1.0, EvolverConfig(dt=1e-3))
    direct = propagate(packet, s, basis, part, 1.0)
    assert l2_distance(evolved, direct) < 1e-4


def _factorizations(caplog):
    (record,) = [r for r in caplog.records if r.name == "gho.oracle"]
    return int(re.search(r"(\d+) factorizations", record.getMessage()).group(1))


@pytest.mark.parametrize("spec, count", [
    ({"interval": [0.0, 2.0]}, 1),
    ({"frequency": {"kind": "piecewise", "breakpoints": [0.3, 0.6, 1.5],
                    "values": [1.0, 1.4, 0.8, 1.2]}, "interval": [0.0, 2.0]}, 3),
])
def test_evolver_factors_once_per_plateau(spec, count, grid, caplog):
    s = gho.scenario_from_dict(spec)
    with caplog.at_level(logging.DEBUG, logger="gho.oracle"):
        evolve_tdse(s, sho_eigenstate(0, grid), 1.0, EvolverConfig(dt=1e-2))
    assert _factorizations(caplog) == count


def test_evolver_non_finite_state_raises(grid):
    # a = 1e154 loads (every coefficient and M w^2 is finite) but 4 a^2 in the
    # x^2 coefficient of H overflows, so the step matrix and the state turn
    # non-finite
    s = gho.scenario_from_dict({"a": 1e154})
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(LinearSolveFailure):
        evolve_tdse(s, sho_eigenstate(0, grid), 0.1, EvolverConfig(dt=1e-2))


def test_evolver_respects_mixed_coupling_norm():
    s = gho.scenario_from_dict({"a": 0.2, "b": 0.3, "interval": [0.0, 2.0]})
    grid = GridSpec(-10.0, 10.0, 1024)
    packet = sho_eigenstate(0, grid)
    out = evolve_tdse(s, packet, 1.5, EvolverConfig(dt=1e-3))
    assert abs(packet_norm(out) - 1.0) < 1e-8


def test_path_integral_free_particle(free, free_basis):
    grid = GridSpec(-12.0, 12.0, 4096)
    q = KernelQuery(0.0, 1.0, 0.2, 0.5)
    value = path_integral_oracle(free, q, 4, grid, basis=free_basis)
    ref = free_kernel(0.0, 1.0, 0.2, 0.5)
    assert abs(value - ref) / abs(ref) < 1e-6


def test_path_integral_single_slice_is_kernel(sho, sho_basis, sho_part_zero):
    grid = GridSpec(-12.0, 12.0, 512)
    q = KernelQuery(0.0, 1.0, 0.3, -0.4)
    value = path_integral_oracle(sho, q, 1, grid, basis=sho_basis,
                                 part=sho_part_zero)
    assert value == kernel(sho, sho_basis, sho_part_zero, q)


def test_path_integral_sho_eight_slices(sho, sho_basis, sho_part_zero):
    grid = GridSpec(-12.0, 12.0, 4096)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x_a, x_b = rng.uniform(-1.5, 1.5, 2)
        q = KernelQuery(0.0, 1.0, float(x_a), float(x_b))
        value = path_integral_oracle(sho, q, 8, grid, basis=sho_basis,
                                     part=sho_part_zero)
        ref = kernel(sho, sho_basis, sho_part_zero, q)
        assert abs(value - ref) / abs(ref) < 1e-5


def test_path_integral_converges_with_grid(free, free_basis):
    # the base grid under-resolves the slice chirp; x2 and x4 refinements
    # drop the error by orders of magnitude each
    q = KernelQuery(0.0, 1.0, 0.3, -0.4)
    ref = free_kernel(0.0, 1.0, 0.3, -0.4)
    errors = []
    for n in (192, 384, 768):
        grid = GridSpec(-12.0, 12.0, n)
        value = path_integral_oracle(free, q, 3, grid, basis=free_basis)
        errors.append(abs(value - ref) / abs(ref))
    assert errors[0] > 10 * errors[1]
    assert errors[1] > 10 * errors[2]


def test_path_integral_slice_matches_dense_sum(sho, sho_basis, sho_part_zero):
    from gho.propagator import _lct_apply, kernel_coefficients

    grid = GridSpec(-12.0, 12.0, 512)
    x, dx = grid.points, grid.dx
    co = kernel_coefficients(sho, sho_basis, sho_part_zero, 0.25, 0.5)
    field = np.exp(-(x - 0.3) ** 2) * (1.0 + 0.2j * x)
    # the trapezoid sum of one slice as a dense N x N kernel matrix
    dense = co.value_1d(x[None, :], x[:, None]) @ field * dx
    got = _lct_apply(co, x, field, dx, x)
    assert np.max(np.abs(got - dense)) < 1e-10 * np.max(np.abs(dense))


def test_path_integral_off_grid_path_rejected(free, free_basis):
    grid = GridSpec(-3.0, 3.0, 256)
    q = KernelQuery(0.0, 1.0, 0.0, 2.8)
    with pytest.raises(gho.GridTooNarrow):
        path_integral_oracle(free, q, 4, grid, basis=free_basis)


def test_residual_detects_exact_and_corrupted(sho, sho_basis, sho_part_zero, grid):
    def exact(t, x):
        g = GridSpec(x[0], x[-1], len(x))
        return gho.eigenmode_packet(sho, sho_basis, sho_part_zero, 0, t, g).samples

    def corrupted(t, x):
        return exact(t, x) * (1 + 0.1 * x)

    assert schrodinger_residual(exact, sho, 0.9, grid) < 1e-4
    assert schrodinger_residual(corrupted, sho, 0.9, grid) > 1e-2


def test_residual_of_zero_energy_mode(driven, driven_basis, grid):
    # x_p = 1 sits at the force's equilibrium, so mode 0 has energy
    # hbar/2 - F^2/(2 M omega^2) = 0 and H psi vanishes up to stencil error
    part = gho.solve_particular(driven, (1.0, 0.0))

    def exact(t, x):
        g = GridSpec(x[0], x[-1], len(x))
        return gho.eigenmode_packet(driven, driven_basis, part, 0, t, g).samples

    def corrupted(t, x):
        return exact(t, x) * (1 + 0.1 * x)

    assert schrodinger_residual(exact, driven, 3.2, grid) < 1e-4
    assert schrodinger_residual(corrupted, driven, 3.2, grid) > 1e-2


def test_residual_kernel_slice(sho, sho_basis, sho_part_zero, grid):
    from gho.propagator import kernel_coefficients

    def field(t, x):
        co = kernel_coefficients(sho, sho_basis, sho_part_zero, 0.0, t)
        return co.value_1d(0.3, x)

    assert schrodinger_residual(field, sho, 0.7, grid) < 1e-4


def test_inner_product_basics(grid):
    psi0 = sho_eigenstate(0, grid)
    psi1 = sho_eigenstate(1, grid)
    assert inner_product(psi0, psi0) == pytest.approx(1.0, abs=1e-10)
    assert abs(inner_product(psi0, psi1)) < 1e-10
    weighted = psi0.with_samples(grid.points * psi0.samples)
    assert abs(inner_product(psi0, weighted)) < 1e-10


def test_inner_product_grid_mismatch(grid):
    other = GridSpec(-9.0, 9.0, 2048)
    a = sho_eigenstate(0, grid)
    b = sho_eigenstate(0, other)
    with pytest.raises(gho.GridMismatch):
        inner_product(a, b)


def test_compose_kernels_across_caustic(sho, sho_basis, sho_part_zero):
    t_a, t_b, t_c = 0.0, 3 * np.pi / 4, 5 * np.pi / 4
    x_a, x_c = 0.3, -0.5
    direct = kernel(sho, sho_basis, sho_part_zero, KernelQuery(t_a, t_c, x_a, x_c))
    composed = compose_kernels(sho, sho_basis, sho_part_zero, t_a, t_b, t_c,
                               x_a, x_c)
    assert abs(composed - direct) / abs(direct) < 1e-5


def test_evolver_config_validation(grid):
    with pytest.raises(ValidationError):
        EvolverConfig(dt=-0.1)


def test_residual_map_exportable(sho, sho_basis, sho_part_zero, grid):
    from gho.oracle import schrodinger_residual_map

    def exact(t, x):
        g = GridSpec(x[0], x[-1], len(x))
        return gho.eigenmode_packet(sho, sho_basis, sho_part_zero, 0, t, g).samples

    xs, res = schrodinger_residual_map(exact, sho, 0.9, grid)
    assert xs.shape == res.shape
    assert len(xs) == grid.n_points - 8
    assert np.all(res >= 0)
    assert np.max(res) < 1e-4

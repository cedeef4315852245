import logging
import math
import re
import types

import numpy as np
import pytest

import gho
from gho import (GridSpec, KernelQuery, LinearSolveFailure, ValidationError, WavePacket,
                 evolve_tdse, inner_product, kernel, l2_distance, mean_x,
                 packet_norm, path_integral_oracle, propagate,
                 schrodinger_residual, sho_eigenstate, var_x)
from gho.oracle import compose_kernels

from conftest import COUPLED as CONFTEST_COUPLED
from conftest import free_kernel


@pytest.mark.parametrize("start, t_end, name", [
    (0.0, 14.0, "t_end=14.0"), (0.0, -1.0, "t_end=-1.0"), (0.0, float("nan"), "t_end=nan"),
    (13.0, 1.0, "packet.t=13.0"), (float("nan"), 1.0, "packet.t=nan")])
def test_evolver_rejects_times_outside_the_interval(sho, grid, start, t_end, name):
    # past t1 the evolver would read coefficients the scenario never checked
    packet = WavePacket(grid, sho_eigenstate(0, grid).samples, t=start)
    with pytest.raises(ValidationError, match=rf"{name} outside working interval \[0.0, 12.0\]"):
        evolve_tdse(sho, packet, t_end)


def test_stationary_state_under_evolution(sho, grid):
    packet = sho_eigenstate(0, grid)
    out = evolve_tdse(sho, packet, 1.0)
    overlap = inner_product(out, packet)
    assert abs(overlap) > 1 - 1e-8
    # global phase exp(-i t / 2); the overlap conjugates the evolved state
    assert np.angle(overlap) == pytest.approx(0.5, abs=1e-4)


def test_free_gaussian_spreading(free, grid):
    packet = sho_eigenstate(0, grid)
    out = evolve_tdse(free, packet, 1.0)
    assert var_x(out) == pytest.approx(1.0, abs=1e-4)


def test_ehrenfest_driven_sho(driven, driven_part, grid):
    packet = sho_eigenstate(0, grid)
    out = evolve_tdse(driven, packet, 2.0)
    assert mean_x(out) == pytest.approx(float(driven_part.at(2.0).x), abs=1e-4)
    assert float(driven_part.at(2.0).x) == pytest.approx(1 - np.cos(2.0), abs=1e-10)


def test_norm_drift_over_thousand_steps(parametric, grid):
    packet = sho_eigenstate(0, grid)
    out = evolve_tdse(parametric, packet, 1.0)
    assert abs(packet_norm(out) - packet_norm(packet)) < 1e-8


def test_evolver_vs_kernel_propagation(sho, sho_basis, parametric,
                                       parametric_basis, grid):
    # measured 6.9e-12 (sho) and 9.0e-12 (parametric) at the start step,
    # whose estimates read 6.1e-9 and 7.4e-9 (4.4e-13 and 5.0e-13 at a fine
    # step of 1e-2); the bound, set with 8x margin over a fourth-order
    # evolver's 4.1e-10 and 3.7e-9, is kept
    for s, basis in ((sho, sho_basis), (parametric, parametric_basis)):
        packet = sho_eigenstate(0, grid)
        evolved = evolve_tdse(s, packet, 1.0)
        direct = propagate(packet, s, basis, None, 1.0)
        assert l2_distance(evolved, direct) < 3e-8


COUPLED = {"a": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 1.0},
           "b": 0.3, "f": 0.2,
           "force": {"kind": "sinusoidal", "amplitude": 0.5, "omega": 1.3},
           "interval": [0.0, 2.0]}
FREQUENCY_STEP = {"frequency": {"kind": "piecewise", "breakpoints": [0.5],
                                "values": [1.0, 1.6]},
                  "interval": [0.0, 2.0]}
# the same jump at 0.55, inside the coarse run's step from 0.5 to 0.57
FREQUENCY_STEP_MID = {"frequency": {"kind": "piecewise", "breakpoints": [0.55],
                                    "values": [1.0, 1.6]},
                      "interval": [0.0, 2.0]}


def _evolver_error(spec, grid):
    """L2 distance at t = 1 between the evolved and the propagated n = 0
    oscillator state of the scenario spec."""
    s = gho.scenario_from_dict(spec)
    basis = gho.solve_homogeneous_basis(s)
    part = gho.solve_particular(s)
    packet = sho_eigenstate(0, grid)
    evolved = evolve_tdse(s, packet, 1.0)
    return l2_distance(evolved, propagate(packet, s, basis, part, 1.0))


def _fixed_step(monkeypatch, dt):
    """Pins the evolver's fine step to dt: its start step, with no error
    target that would halve it."""
    monkeypatch.setattr(gho.oracle, "START_DT", dt)
    monkeypatch.setattr(gho.oracle, "ERROR_TARGET", math.inf)


# measured 1.0e-11 (coupled), 6.8e-11 (step) and 8.2e-11 (step_mid_coarse_step)
# at the start step, whose estimates read 8.1e-9, 2.7e-8 and 3.0e-8 (4.7e-13,
# 2.7e-12 and 2.2e-12 at a fine step of 1e-2); the bounds, set with about 8x
# margin over a fourth-order evolver's 1.3e-8, 6.4e-7 and 5.9e-7, are kept
@pytest.mark.parametrize("spec, bound", [(COUPLED, 1e-7), (FREQUENCY_STEP, 5e-6),
                                         (FREQUENCY_STEP_MID, 5e-6)],
                         ids=["coupled", "step", "step_mid_coarse_step"])
def test_evolver_vs_propagate(spec, bound, grid):
    # the step cases fail if the potential factor is not made again after the
    # frequency changes. If a coarse step straddles the jump instead of ending
    # on it, the mid-step case is first order: at a fine step of 1e-2 it read
    # 3.2e-3, and with its step halved until the estimate meets the target
    # the leg passes MAX_STEPS at its 14th try and raises GridTooNarrow
    assert _evolver_error(spec, grid) < bound


@pytest.mark.parametrize("column, factor", [(1, -1.0), (2, 0.0)],
                         ids=["a_sign_flipped", "b_drift_dropped"])
def test_evolver_vs_propagate_fails_on_a_wrong_coupling(column, factor, grid,
                                                        monkeypatch):
    # the evolver with a's sign flipped in H, or with b dropped from H (b^2 / 2M
    # stays in v0): the gauge chi = a M x^2 + b x and the potential W read
    # them, and it lands 0.20 or 0.23 away from propagate on the coupled
    # scenario
    coefficients = gho.oracle.hamiltonian_coefficients

    def mutated(s, t):
        row = list(coefficients(s, t))
        row[column] = factor * row[column]
        return tuple(row)

    monkeypatch.setattr(gho.oracle, "hamiltonian_coefficients", mutated)
    assert _evolver_error(COUPLED, grid) > 1e-4


def test_evolver_is_sixth_order_in_time(grid, monkeypatch):
    # each halving of dt cuts the error about 64x (measured 81, 260 and 65,
    # from 1.0e-4 down to 7.7e-11); a fourth-order error would cut it 16x.
    # Finer steps meet the grid's rounding floor: 1.1e-12 at dt = 0.0125 and
    # 4.6e-13 at 0.00625
    errors = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        _fixed_step(monkeypatch, dt)
        errors.append(_evolver_error(COUPLED, grid))
    assert all(coarse > 40.0 * fine for coarse, fine in zip(errors, errors[1:]))


def test_evolver_is_spectral_in_space(monkeypatch):
    # dx = 20 / 64, 20 / 128, 20 / 256, 20 / 512 at a step whose time error
    # is far below the spatial one: the kinetic step is exact on the FFT's
    # band, so the coarsest grid, 0.31 apart for a packet about 1 wide,
    # already reads the rounding floor (measured 7.4e-14, 4.9e-14, 1.2e-13
    # and 2.8e-13; bound with 10x margin). 7-point sixth-order stencils read
    # 7.2e-5 at 65 points
    _fixed_step(monkeypatch, 1.25e-3)
    errors = [_evolver_error(COUPLED, GridSpec(-10.0, 10.0, n)) for n in (65, 129, 257, 513)]
    assert max(errors) < 3e-12


def _factors(caplog):
    """Each leg's (potential, kinetic) counts of factors made by the fine,
    the middle and the coarse run."""
    return [[tuple(map(int, pair)) for pair in
             re.findall(r"(\d+) potential and (\d+) kinetic factors", r.getMessage())]
            for r in caplog.records if r.name == "gho.oracle"]


@pytest.mark.parametrize("spec, count", [
    ({"interval": [0.0, 2.0]}, 1),
    # three plateaus on [0, 1], of 0.25, 0.25 and 0.5: 6, 6 and 12 coarse
    # steps, all of one length, so M and dt never move
    ({"frequency": {"kind": "piecewise", "breakpoints": [0.25, 0.5, 1.5],
                    "values": [1.0, 1.4, 0.8, 1.2]}, "interval": [0.0, 2.0]}, 3),
])
def test_evolver_factors_once_per_plateau(spec, count, grid, caplog, monkeypatch):
    _fixed_step(monkeypatch, 1e-2)
    s = gho.scenario_from_dict(spec)
    with caplog.at_level(logging.DEBUG, logger="gho.oracle"):
        evolve_tdse(s, sho_eigenstate(0, grid), 1.0)
    assert _factors(caplog) == [[(count, 1)] * 3]


def test_evolver_retry_makes_one_new_run(caplog, monkeypatch):
    # a leg of 0.5 at a start step of 0.125 reads an estimate of 8.3e-6, and
    # 4.9e-7 at half that step: at a target between, it tries twice. Its runs
    # take 1, 2, 4 and then 8 coarse steps, the second try reading the last
    # three, to the bit a one-try leg at the half step
    s = gho.scenario_from_dict({"interval": [0.0, 2.0]})
    start = sho_eigenstate(0, GridSpec(-10.0, 10.0, 256))
    run, steps = gho.oracle._strang_run, []

    def counted(hbar, grid, samples, table):
        steps.append(len(table))
        return run(hbar, grid, samples, table)

    monkeypatch.setattr(gho.oracle, "_strang_run", counted)
    monkeypatch.setattr(gho.oracle, "START_DT", 0.125)
    monkeypatch.setattr(gho.oracle, "ERROR_TARGET", 2e-6)
    with caplog.at_level(logging.DEBUG, logger="gho.oracle"):
        retried = evolve_tdse(s, start, 0.5)
    assert re.search(r"try (\d+):", caplog.records[-1].getMessage())[1] == "2"
    assert steps == [1, 2, 4, 8]
    monkeypatch.setattr(gho.oracle, "START_DT", 0.0625)
    assert np.array_equal(evolve_tdse(s, start, 0.5).samples, retried.samples)
    assert steps[4:] == [2, 4, 8]


STOPS = [0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("spec", [
    {"interval": [0.0, 12.0]},
    {"frequency": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 2.0, "offset": 1.0},
     "interval": [0.0, 12.0]},
    {"frequency": {"kind": "piecewise", "breakpoints": [0.7], "values": [1.0, 1.3]},
     "interval": [0.0, 2.0]},
], ids=["sho-factors-reused", "parametric-factors-every-step", "piecewise-jump-inside-a-leg"])
def test_evolver_stops_equal_chained_calls_to_the_bit(spec, caplog, monkeypatch):
    # at a target of 1e-9 every leg halves its start step once (its first
    # try's estimate reads 2.5e-9 to 1.5e-8), and still starts from it
    monkeypatch.setattr(gho.oracle, "START_DT", 1.8e-2)
    monkeypatch.setattr(gho.oracle, "ERROR_TARGET", 1e-9)
    s = gho.scenario_from_dict(spec)
    start = sho_eigenstate(0, GridSpec(-10.0, 10.0, 341))
    chained, state = [], start
    with caplog.at_level(logging.DEBUG, logger="gho.oracle"):
        for t_end in STOPS:
            state = evolve_tdse(s, state, t_end)
            chained.append(state)
    assert [re.search(r"try (\d+):", r.getMessage())[1] for r in caplog.records] == ["2"] * 4
    through = list(gho.oracle.evolve_tdse_stops(s, start, STOPS))
    assert [p.t for p in through] == STOPS
    assert all(np.array_equal(a.samples, b.samples) for a, b in zip(through, chained))


def test_evolver_stops_factor_a_constant_scenario_once_per_run(sho, caplog):
    # each leg makes its own factors: no run keeps them from the leg before
    start = sho_eigenstate(0, GridSpec(-10.0, 10.0, 341))
    with caplog.at_level(logging.DEBUG, logger="gho.oracle"):
        list(gho.oracle.evolve_tdse_stops(sho, start, STOPS))
    assert _factors(caplog) == [[(1, 1)] * 3] * 4


def test_evolver_remakes_only_the_potential_factor_when_only_the_potential_moves(
        parametric, caplog):
    # a Strang step is P K P: the potential factor P = exp(-i W dt / (2 hbar))
    # on the samples, the kinetic factor exp(-i hbar k^2 dt / (2M)) on their
    # spectrum. parametric's frequency moves at every step, its M and dt
    # never: every step makes P again, and each run of a leg makes the
    # kinetic factor once
    start = sho_eigenstate(0, GridSpec(-10.0, 10.0, 341))
    with caplog.at_level(logging.DEBUG, logger="gho.oracle"):
        list(gho.oracle.evolve_tdse_stops(parametric, start, STOPS))
    assert _factors(caplog) == [[(28, 1), (14, 1), (7, 1)]] * 4


def test_evolver_non_finite_gauge_factor_raises(grid):
    # a = 1e150 loads (c = 4 a^2 = 4e300 is finite) but with hbar = 1e-160 the
    # gauge phase a M x^2 / hbar that takes the packet into the coupling
    # gauge overflows
    s = gho.scenario_from_dict({"a": 1e150, "hbar": 1e-160})
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(LinearSolveFailure, match="non-finite gauge factor"):
        evolve_tdse(s, sho_eigenstate(0, grid), 0.1)


@pytest.mark.parametrize("spec, mass, factor", [
    ({"frequency": 1e150, "hbar": 1e-10}, None, "potential"),  # W x^2 dt / hbar alone
    ({}, 1e-307, "kinetic"),  # hbar k^2 dt / M alone
], ids=["potential", "kinetic"])
def test_evolver_non_finite_strang_factor_raises(spec, mass, factor, grid, monkeypatch):
    # one of the two factors of a Strang step P K P overflows
    s = gho.scenario_from_dict(spec)
    if mass is not None:  # M set past the scenario, so v2 stays sho's 1/2
        coefficients = gho.oracle.hamiltonian_coefficients

        def with_mass(s, t):
            m, *rest = coefficients(s, t)
            return (np.full_like(m, mass), *rest)

        monkeypatch.setattr(gho.oracle, "hamiltonian_coefficients", with_mass)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(LinearSolveFailure, match=f"non-finite {factor} factor"):
        evolve_tdse(s, sho_eigenstate(0, grid), 0.1)


def test_evolver_non_finite_state_raises(sho, grid, monkeypatch):
    # a transform that returns nan past finite factors is caught after the
    # step that produced it
    fft = gho.packets._scipy_fft()
    broken = types.SimpleNamespace(fft=fft.fft, ifft=lambda spectrum, **_: spectrum * np.nan)
    monkeypatch.setattr(gho.oracle, "_scipy_fft", lambda: broken)
    with pytest.raises(LinearSolveFailure, match="non-finite state after step 1"):
        evolve_tdse(sho, sho_eigenstate(0, grid), 0.1)


def test_evolver_respects_mixed_coupling_norm():
    s = gho.scenario_from_dict({"a": 0.2, "b": 0.3, "interval": [0.0, 2.0]})
    grid = GridSpec(-10.0, 10.0, 1024)
    packet = sho_eigenstate(0, grid)
    out = evolve_tdse(s, packet, 1.5)
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


def test_path_integral_takes_one_coefficient_call(monkeypatch, sho, sho_basis,
                                                  sho_part_zero):
    calls = []
    coefficients = gho.oracle.kernel_coefficients

    def counted(*args, **kwargs):
        calls.append(args[3:5])
        return coefficients(*args, **kwargs)

    monkeypatch.setattr(gho.oracle, "kernel_coefficients", counted)
    q = KernelQuery(0.0, 1.0, 0.3, -0.4)
    value = path_integral_oracle(sho, q, 8, GridSpec(-12.0, 12.0, 4096), basis=sho_basis,
                                 part=sho_part_zero)
    assert len(calls) == 1 and np.size(calls[0][0]) == 8
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
    dense = co.value(x[None, :], x[:, None]) @ field * dx
    got = _lct_apply(co, x, field, dx, x)
    assert np.max(np.abs(got - dense)) < 1e-10 * np.max(np.abs(dense))


def test_path_integral_off_grid_path_rejected(free, free_basis):
    grid = GridSpec(-3.0, 3.0, 256)
    q = KernelQuery(0.0, 1.0, 0.0, 2.8)
    with pytest.raises(gho.GridTooNarrow):
        path_integral_oracle(free, q, 4, grid, basis=free_basis)


def test_residual_detects_exact_and_corrupted(sho, grid):
    # sho, and the coupled scenario (a, b, f, M and hbar all away from 0 and
    # 1), where the gauge factor the residual reads H through is not 1: its
    # exact mode read 6.6e-10
    for s in (sho, gho.scenario_from_dict(CONFTEST_COUPLED)):
        basis, part = gho.solve_homogeneous_basis(s), gho.solve_particular(s)

        def exact(t, x):
            g = GridSpec(x[0], x[-1], len(x))
            return gho.eigenmode_packet(s, basis, part, 0, t, g).samples

        def corrupted(t, x):
            return exact(t, x) * (1 + 0.1 * x)

        assert schrodinger_residual(exact, s, 0.9, grid) < 1e-4
        assert schrodinger_residual(corrupted, s, 0.9, grid) > 1e-2


def test_residual_of_zero_energy_mode(driven, driven_basis, grid):
    # x_p = 1 sits at the force's equilibrium, so mode 0 has energy
    # hbar/2 - F^2/(2 M omega^2) = 0 and H psi vanishes up to the grid's error
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
        return co.value(0.3, x)

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


def test_compose_kernels_refuses_a_focal_composite(sho, sho_basis):
    # (0, pi) is a focal pair of sho. a_tot read 1.3e-13 there, not 0, and
    # the window asked for 1.5e8 points about y* = -4.6e11
    with pytest.raises(gho.CausticEncountered):
        compose_kernels(sho, sho_basis, None, 0.0, 1.0, np.pi, 0.3, -0.4)


def test_compose_kernels_bounds_its_window(sho, sho_basis, sho_part_cos, monkeypatch):
    # verify's first triple on an interval of 2.5 pi + 3e-11 spans pi + 3e-11,
    # outside the caustic band: the chirp is so slow that the window asks for
    # 1.4e7 points, about 1 GB over its arrays. sho's own first triple, with
    # --xp 1.0,0.0, asks 4,609
    sizes = []
    window = gho.oracle._smooth_window

    def counted(points, *args):
        sizes.append(len(points))
        return window(points, *args)

    monkeypatch.setattr(gho.oracle, "_smooth_window", counted)
    compose_kernels(sho, sho_basis, sho_part_cos, *12.0 * np.array([0.05, 0.25, 0.45]),
                    0.3, -0.4)
    assert sizes == [4609]
    t_a, t_b, t_c = 7.853981634053023 * np.array([0.05, 0.25, 0.45])
    with pytest.raises(gho.GridTooNarrow, match=r"^the composition's window asks for "
                       r"1\d{7} points, more than MAX_POINTS = 2097152$"):
        compose_kernels(sho, sho_basis, None, t_a, t_b, t_c, 0.3, -0.4)
    assert sizes == [4609]


def test_residual_map_exportable(sho, sho_basis, sho_part_zero, grid):
    from gho.oracle import schrodinger_residual_map

    def exact(t, x):
        g = GridSpec(x[0], x[-1], len(x))
        return gho.eigenmode_packet(sho, sho_basis, sho_part_zero, 0, t, g).samples

    xs, res = schrodinger_residual_map(exact, sho, 0.9, grid)
    assert xs.shape == res.shape
    # the map covers where the window is 1: flat to 0.8 of the half-span,
    # and its ramp rounds to 1 up to |x| = 8.036
    window = gho.oracle._smooth_window(grid.points, 0.0, 8.0, 9.7)
    assert np.array_equal(xs, grid.points[window == 1.0])
    assert len(xs) == 1646 and np.max(np.abs(xs)) < 8.04
    assert np.all(res >= 0)
    assert np.max(res) < 1e-4

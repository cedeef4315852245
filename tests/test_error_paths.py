"""Input checks of the library's functions that no other test reaches, the
check that a basis and a particular solution solve the scenario passed with
them, and the equal-time copies of the evolver and of propagate."""

import numpy as np
import pytest

import gho
from gho import (GridSpec, KernelQuery, ParseError, ValidationError, apply_U_F, apply_U_S,
                 build_generalized_coherent_state, classical_invariant, compose_kernels,
                 eigenmode, eigenmode_packet, evolve_tdse, green_function,
                 invariant_expectation, kernel, kernel_coefficients, kernel_delta_check,
                 load_scenario, mode_sum_kernel, path_integral_oracle, propagate,
                 schrodinger_residual, sho_eigenstate, trajectory_table)
from gho.packets import evaluate_trig_interpolant, upsample_periodic
from gho.states import eigenmode_packets

SHO = gho.scenario_from_dict({"interval": [0.0, 12.0]})
BASIS = gho.solve_homogeneous_basis(SHO)
GRID = GridSpec(-10.0, 10.0, 256)
GROUND = sho_eigenstate(0, GRID)
QUERY = KernelQuery(0.0, 1.0, 0.3, -0.4)
PART = gho.solve_particular(SHO)
# another oscillator: the solutions of SHO are not its solutions
OTHER = gho.scenario_from_dict({"hbar": 2.0, "frequency": 1.5, "interval": [0.0, 12.0]})
OTHER_PART = gho.solve_particular(OTHER)
# oscillators on short intervals, where a time a few units on is outside
SHO_1 = gho.scenario_from_dict({"interval": [0.0, 1.0]})
SHO_2 = gho.scenario_from_dict({"interval": [0.0, 2.0]})


@pytest.mark.parametrize("call, error, message", [
    (lambda: load_scenario("[]"), ParseError, "scenario must be a mapping"),
    (lambda: load_scenario('{"interval": 5}'), ParseError, "'interval' must be [t0, t1]"),
    (lambda: schrodinger_residual(lambda t, x: np.zeros_like(x), SHO, 1.0, GRID),
     ValidationError, "the field vanishes on the interior; cannot normalize"),
    (lambda: path_integral_oracle(SHO, QUERY, 0, GRID, basis=BASIS), ValidationError,
     "n_slices must be >= 1"),
    (lambda: sho_eigenstate(0, GRID, 0.0), ValidationError, "hbar must be positive"),
    (lambda: mode_sum_kernel(SHO, BASIS, None, -1, QUERY), ValidationError,
     "n_max must be >= 0"),
    (lambda: kernel_delta_check(SHO, BASIS, None, 0.0, 0.0, GROUND), ValidationError,
     "epsilon must be positive"),
    (lambda: upsample_periodic(GROUND, 255), ValidationError,
     "upsample target must be >= current grid size"),
    (lambda: evaluate_trig_interpolant(GROUND, [0.0, np.nan, 1.0]), ValidationError,
     "interpolation points must be finite"),
    (lambda: evaluate_trig_interpolant(GROUND, [0.0, np.inf]), ValidationError,
     "interpolation points must be finite"),
    (lambda: evaluate_trig_interpolant(GROUND, [-1e308, 1e308]), ValidationError,
     "interpolation points' step must be finite"),
    (lambda: sho_eigenstate(-1, GRID), ValidationError, "hermite order must be in [0, 200]"),
    (lambda: eigenmode(SHO, BASIS, None, 0, 0.5, np.array([0.1, 0.2])), ValidationError,
     "eigenmode takes a scalar position; eigenmode_packet samples a grid"),
    (lambda: mode_sum_kernel(SHO, BASIS, None, 3, KernelQuery(0.0, 1.0, 0.3, np.array([0.1]))),
     ValidationError, "mode_sum_kernel takes scalar positions"),
], ids=["scenario-not-a-mapping", "interval-not-a-pair", "vanishing-field", "no-slices",
        "zero-hbar", "negative-n-max", "zero-epsilon", "upsample-below-n", "nan-point",
        "infinite-point", "overflowing-step", "negative-hermite-order", "array-mode-position",
        "array-mode-sum-position"])
def test_bad_input_raises_its_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("hop", [
    lambda packet: evolve_tdse(SHO, packet, packet.t),
    lambda packet: propagate(packet, SHO, BASIS, None, packet.t)], ids=["evolve", "propagate"])
def test_an_equal_time_hop_copies_the_packet(hop):
    start = GROUND.with_samples(GROUND.samples, t=0.5)
    copy = hop(start)
    assert copy is not start
    assert (copy.grid, copy.t) == (start.grid, start.t)
    assert np.array_equal(copy.samples, start.samples)


BASIS_OF_ANOTHER = "the ClassicalBasis was solved for another scenario than the one passed"
PART_OF_ANOTHER = "the ParticularSolution was solved for another scenario than the one passed"


@pytest.mark.parametrize("call, message", [
    (lambda: kernel(OTHER, BASIS, PART, QUERY), BASIS_OF_ANOTHER),
    (lambda: kernel(SHO, BASIS, OTHER_PART, QUERY), PART_OF_ANOTHER),
    (lambda: kernel_coefficients(OTHER, BASIS, PART, 0.0, 1.0), BASIS_OF_ANOTHER),
    (lambda: green_function(OTHER, BASIS, PART, QUERY), BASIS_OF_ANOTHER),
    (lambda: green_function(OTHER, BASIS, PART, KernelQuery(1.0, 0.0, 0.3, -0.4)),
     BASIS_OF_ANOTHER),
    (lambda: propagate(GROUND, OTHER, BASIS, PART, 1.0), BASIS_OF_ANOTHER),
    (lambda: propagate(GROUND, OTHER, BASIS, PART, GROUND.t), BASIS_OF_ANOTHER),
    (lambda: kernel_delta_check(OTHER, BASIS, PART, 0.5, 0.01, GROUND), BASIS_OF_ANOTHER),
    (lambda: eigenmode(OTHER, BASIS, PART, 0, 0.5, 0.1), BASIS_OF_ANOTHER),
    (lambda: eigenmode_packet(OTHER, BASIS, PART, 0, 0.5, GRID), BASIS_OF_ANOTHER),
    (lambda: eigenmode_packets(OTHER, BASIS, PART, 2, 0.5, GRID), BASIS_OF_ANOTHER),
    (lambda: build_generalized_coherent_state(OTHER, BASIS, PART, 0, 0.5, GRID),
     BASIS_OF_ANOTHER),
    (lambda: mode_sum_kernel(OTHER, BASIS, PART, 3, QUERY), BASIS_OF_ANOTHER),
    (lambda: apply_U_F(GROUND, PART, OTHER, 0.5), PART_OF_ANOTHER),
    (lambda: apply_U_S(GROUND, BASIS, OTHER, 0.5), BASIS_OF_ANOTHER),
    (lambda: invariant_expectation(GROUND, BASIS, PART, OTHER), BASIS_OF_ANOTHER),
    (lambda: classical_invariant(BASIS, PART, OTHER, 0.3, 0.1, 0.5), BASIS_OF_ANOTHER),
    (lambda: trajectory_table(BASIS, OTHER_PART, [0.5, 1.0]), PART_OF_ANOTHER),
    (lambda: compose_kernels(OTHER, BASIS, PART, 0.0, 0.5, 1.0, 0.3, -0.4), BASIS_OF_ANOTHER),
    (lambda: path_integral_oracle(OTHER, QUERY, 4, GRID, BASIS, PART), BASIS_OF_ANOTHER),
], ids=["kernel", "kernel-part", "kernel_coefficients", "green_function",
        "green_function-backward", "propagate", "propagate-equal-times", "kernel_delta_check", "eigenmode", "eigenmode_packet", "eigenmode_packets",
        "build_generalized_coherent_state", "mode_sum_kernel", "apply_U_F", "apply_U_S",
        "invariant_expectation", "classical_invariant", "trajectory_table", "compose_kernels",
        "path_integral_oracle"])
def test_solutions_of_another_scenario_raise(call, message):
    # each of these returned a number for neither oscillator
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: green_function(SHO_1, gho.solve_homogeneous_basis(SHO_1), None,
                            KernelQuery(5.0, -3.0, 0.3, -0.4)),
     "t_a=5.0 outside working interval [0.0, 1.0]"),
    (lambda: propagate(GROUND.with_samples(GROUND.samples, t=50.0), SHO, BASIS, None, 50.0),
     "t_a=50.0 outside working interval [0.0, 12.0]"),
    (lambda: kernel_coefficients(SHO, BASIS, None, 50.0, 50.0),
     "t_a=50.0 outside working interval [0.0, 12.0]"),
    (lambda: path_integral_oracle(SHO_2, KernelQuery(0.0, 50.0, 0.3, -0.4), 4, GRID,
                                  gho.solve_homogeneous_basis(SHO_2)),
     "t_b=50.0 outside working interval [0.0, 2.0]"),
    (lambda: path_integral_oracle(SHO_2, KernelQuery(0.0, np.nan, 0.3, -0.4), 4, GRID,
                                  gho.solve_homogeneous_basis(SHO_2)),
     "t_b=nan outside working interval [0.0, 2.0]"),
], ids=["green_function-backward", "propagate-equal-times", "kernel_coefficients-equal-times",
        "path_integral_oracle", "path_integral_oracle-nan"])
def test_times_outside_the_interval_raise_before_any_answer(call, message):
    # the retarded Green function answered 0j, the equal-time copy a packet
    # at t = 50, and the path integral extrapolated the classical path to
    # GridTooNarrow, or named t_a for a nan t_b; a time outside comes before
    # the equal-time rejection
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message

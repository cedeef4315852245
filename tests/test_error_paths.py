"""Input checks of the library's functions that no other test reaches, and
the equal-time copies of the evolver and of propagate."""

import numpy as np
import pytest

import gho
from gho import (EvolverConfig, GridSpec, KernelQuery, ParseError, ValidationError,
                 eigenmode, evolve_tdse, kernel_delta_check, load_scenario, mode_sum_kernel,
                 path_integral_oracle, propagate, schrodinger_residual, sho_eigenstate)
from gho.packets import evaluate_trig_interpolant, upsample_periodic

SHO = gho.scenario_from_dict({"interval": [0.0, 12.0]})
BASIS = gho.solve_homogeneous_basis(SHO)
GRID = GridSpec(-10.0, 10.0, 256)
GROUND = sho_eigenstate(0, GRID)
QUERY = KernelQuery(0.0, 1.0, 0.3, -0.4)


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
    lambda packet: evolve_tdse(SHO, packet, packet.t, EvolverConfig(dt=1e-2)),
    lambda packet: propagate(packet, SHO, BASIS, None, packet.t)], ids=["evolve", "propagate"])
def test_an_equal_time_hop_copies_the_packet(hop):
    start = GROUND.with_samples(GROUND.samples, t=0.5)
    copy = hop(start)
    assert copy is not start
    assert (copy.grid, copy.t) == (start.grid, start.t)
    assert np.array_equal(copy.samples, start.samples)

"""Generalized-harmonic-oscillator quantum mechanics from classical solutions.

Exact Feynman kernels, complete wavefunction sets, coherent/squeezed states
and the Lewis invariant for quadratic systems with time-dependent mass,
frequency and driving, all evaluated from numerically integrated classical
solutions and cross-checked against independent grid oracles.

`import gho` loads numpy and no scipy module: the kernel layer needs none.
The names of gho.states and gho.oracle are resolved on first access, which
imports scipy.fft or scipy's LAPACK with the submodule, and the transforms in
gho.packets and gho.propagator import scipy.fft at their first call.
"""

import importlib

from .classical import (ClassicalBasis, ParticularSolution, classical_invariant,
                        solve_homogeneous_basis, solve_particular, trajectory_table)
from .coefficients import (CoefficientFn, Constant, Exponential, HamiltonianCoeffs,
                           PiecewiseConstant, Polynomial, Scenario, Sinusoidal,
                           eval_coefficient, hamiltonian_coefficients,
                           integrate_coefficient, load_scenario, scenario_from_dict,
                           scenario_to_dict, serialize_scenario)
from .errors import (CausticEncountered, DegenerateBasis, GhoError, GridMismatch,
                     GridTooNarrow, IntegrationFailure, LinearSolveFailure,
                     ParseError, ValidationError, ZeroRho)
from .packets import (GridSpec, WavePacket, inner_product, l2_distance, mean_x,
                      packet_norm, var_x)
from .propagator import (CausticReport, KernelQuery, caustic_times, green_function,
                         kernel, kernel_coefficients, kernel_delta_check, propagate)

__version__ = "0.1.0"

# submodule -> the names it lends the package on first access (PEP 562)
_LAZY = {
    "oracle": ("EvolverConfig", "compose_kernels", "evolve_tdse", "path_integral_oracle",
               "schrodinger_residual", "schrodinger_residual_map"),
    "states": ("apply_U_F", "apply_U_S", "build_generalized_coherent_state", "eigenmode",
               "eigenmode_packet", "hermite_functions", "invariant_expectation",
               "mode_sum_kernel", "sho_eigenstate"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    # not cached here, so each access sees the submodule's current binding,
    # a wrapper set on it later included
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))


__all__ = [
    # submodules
    "classical", "coefficients", "errors", "oracle", "packets", "propagator", "states",
    # classical
    "ClassicalBasis", "ParticularSolution", "classical_invariant", "solve_homogeneous_basis",
    "solve_particular", "trajectory_table",
    # coefficients
    "CoefficientFn", "Constant", "Exponential", "HamiltonianCoeffs", "PiecewiseConstant",
    "Polynomial", "Scenario", "Sinusoidal", "eval_coefficient", "hamiltonian_coefficients",
    "integrate_coefficient", "load_scenario", "scenario_from_dict", "scenario_to_dict",
    "serialize_scenario",
    # errors
    "CausticEncountered", "DegenerateBasis", "GhoError", "GridMismatch", "GridTooNarrow",
    "IntegrationFailure", "LinearSolveFailure", "ParseError", "ValidationError", "ZeroRho",
    # packets
    "GridSpec", "WavePacket", "inner_product", "l2_distance", "mean_x", "packet_norm", "var_x",
    # propagator
    "CausticReport", "KernelQuery", "caustic_times", "green_function", "kernel",
    "kernel_coefficients", "kernel_delta_check", "propagate",
    # oracle and states, loaded on first access
    *_HOME,
]

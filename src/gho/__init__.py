"""Generalized-harmonic-oscillator quantum mechanics from classical solutions.

Exact Feynman kernels, complete wavefunction sets, coherent/squeezed states
and the Lewis invariant for quadratic systems with time-dependent mass,
frequency and driving, all evaluated from numerically integrated classical
solutions and cross-checked against independent grid oracles.

`import gho` loads numpy and no scipy module: every transform imports
scipy.fft at its first call, through gho.packets' one seam.
"""

from .classical import (ClassicalBasis, ParticularSolution, classical_invariant,
                        solve_homogeneous_basis, solve_particular, trajectory_table)
from .coefficients import (CoefficientFn, Constant, Exponential, HamiltonianCoeffs,
                           PiecewiseConstant, Polynomial, Scenario, Sinusoidal,
                           hamiltonian_coefficients, integrate_coefficient, load_scenario,
                           scenario_from_dict, scenario_to_dict, serialize_scenario)
from .errors import (CausticEncountered, DegenerateBasis, GhoError, GridMismatch,
                     GridTooNarrow, IntegrationFailure, LinearSolveFailure,
                     ParseError, ValidationError, ZeroRho)
from .packets import (GridSpec, WavePacket, inner_product, l2_distance, mean_x,
                      packet_norm, var_x)
from .oracle import (compose_kernels, evolve_tdse, path_integral_oracle, schrodinger_residual,
                     schrodinger_residual_map)
from .propagator import (CausticReport, KernelQuery, caustic_times, green_function,
                         kernel, kernel_coefficients, kernel_delta_check, propagate)
from .states import (apply_U_F, apply_U_S, build_generalized_coherent_state, eigenmode,
                     eigenmode_packet, hermite_functions, invariant_expectation,
                     mode_sum_kernel, sho_eigenstate)

__version__ = "0.1.0"

__all__ = [
    # submodules
    "classical", "coefficients", "errors", "oracle", "packets", "propagator", "states",
    # classical
    "ClassicalBasis", "ParticularSolution", "classical_invariant", "solve_homogeneous_basis",
    "solve_particular", "trajectory_table",
    # coefficients
    "CoefficientFn", "Constant", "Exponential", "HamiltonianCoeffs", "PiecewiseConstant",
    "Polynomial", "Scenario", "Sinusoidal", "hamiltonian_coefficients", "integrate_coefficient",
    "load_scenario", "scenario_from_dict", "scenario_to_dict", "serialize_scenario",
    # errors
    "CausticEncountered", "DegenerateBasis", "GhoError", "GridMismatch", "GridTooNarrow",
    "IntegrationFailure", "LinearSolveFailure", "ParseError", "ValidationError", "ZeroRho",
    # packets
    "GridSpec", "WavePacket", "inner_product", "l2_distance", "mean_x", "packet_norm", "var_x",
    # propagator
    "CausticReport", "KernelQuery", "caustic_times", "green_function", "kernel",
    "kernel_coefficients", "kernel_delta_check", "propagate",
    # oracle
    "compose_kernels", "evolve_tdse", "path_integral_oracle", "schrodinger_residual",
    "schrodinger_residual_map",
    # states
    "apply_U_F", "apply_U_S", "build_generalized_coherent_state", "eigenmode",
    "eigenmode_packet", "hermite_functions", "invariant_expectation", "mode_sum_kernel",
    "sho_eigenstate",
]

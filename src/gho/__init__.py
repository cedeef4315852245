"""Generalized-harmonic-oscillator quantum mechanics from classical solutions.

Exact Feynman kernels, complete wavefunction sets, coherent/squeezed states
and the Lewis invariant for quadratic systems with time-dependent mass,
frequency and driving, all evaluated from numerically integrated classical
solutions and cross-checked against independent grid oracles.
"""

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
from .oracle import (EvolverConfig, compose_kernels, evolve_tdse, path_integral_oracle,
                     schrodinger_residual, schrodinger_residual_map)
from .packets import (GridSpec, WavePacket, inner_product, l2_distance, mean_x,
                      packet_norm, var_x)
from .propagator import (CausticReport, KernelQuery, caustic_times, green_function,
                         kernel, kernel_coefficients, kernel_delta_check, propagate)
from .states import (apply_U_F, apply_U_S, build_generalized_coherent_state, eigenmode,
                     eigenmode_packet, hermite_functions, invariant_expectation,
                     mode_sum_kernel, sho_eigenstate)

__version__ = "0.1.0"

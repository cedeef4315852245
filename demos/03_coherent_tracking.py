"""Coherent states: probability centers riding on classical solutions.

Even an undriven oscillator admits a nontrivial particular solution, and the
displacement map built from it turns each stationary eigenstate into a state
whose density center follows that classical trajectory exactly. For a driven
oscillator the same construction works with the forced solution, and the
independent grid evolver confirms it via Ehrenfest's theorem.
"""

import numpy as np

import gho

grid = gho.GridSpec(-10.0, 10.0, 2048)

sho = gho.scenario_from_dict({"interval": [0.0, 12.0]})
basis = gho.solve_homogeneous_basis(sho)
part = gho.solve_particular(sho, (1.0, 0.0))     # x_p = cos t, F = 0

print("undriven oscillator, x_p = cos t:")
print(f"{'t':>5} {'<x>':>14} {'x_p(t)':>14} {'Var(x)':>10}")
for t in np.linspace(0.0, 2.0, 5):
    state = gho.build_generalized_coherent_state(sho, basis, part, 0, float(t), grid)
    print(f"{t:5.2f} {gho.mean_x(state):14.10f} {part.at(t).x:14.10f} "
          f"{gho.var_x(state):10.6f}")
print("the center tracks the classical solution; the width never changes.")

driven = gho.scenario_from_dict({"force": 1.0, "interval": [0.0, 8.0]})
dbasis = gho.solve_homogeneous_basis(driven)
dpart = gho.solve_particular(driven)             # x_p = 1 - cos t

print("\ndriven oscillator (F = 1), starting in the bare ground state;")
print("the grid evolver's <x>(t) lands on the classical x_p (Ehrenfest):")
print(f"{'t':>5} {'<x> evolved':>14} {'x_p(t)':>14}")
state = gho.sho_eigenstate(0, grid)
cfg = gho.EvolverConfig(dt=1e-2)
for t in (1.0, 2.0, 3.0):
    state = gho.evolve_tdse(driven, state, t, cfg)
    print(f"{t:5.2f} {gho.mean_x(state):14.9f} {dpart.at(t).x:14.9f}")

print("\nthe kernel does not care which particular solution is used:")
q = gho.KernelQuery(0.1, 1.4, 0.3, -0.6)
part0 = gho.solve_particular(sho)
k0 = gho.kernel(sho, basis, part0, q)
k1 = gho.kernel(sho, basis, part, q)
print(f"  x_p = 0 vs x_p = cos t: relative difference {abs(k1 - k0) / abs(k0):.2e}")

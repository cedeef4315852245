"""The Lewis invariant: a conserved action variable, classical and quantum.

For a parametric oscillator w(t) = 1 + 0.1 cos 2t nothing obvious is
conserved, yet the combination

    I = [ (Omega^2/rho^2)(x - x_p)^2 + (M rho'(x - x_p) - rho(p - M x_p'))^2 ]
        / (2 Omega)

is constant along every classical trajectory, and as an operator its
expectation is frozen under the exact quantum evolution, with spectrum
hbar (n + 1/2) on the mode set.
"""

import numpy as np
from scipy.integrate import solve_ivp

import gho

par = gho.scenario_from_dict({
    "frequency": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 2.0,
                  "offset": 1.0},
    "interval": [0.0, 12.0]})
basis = gho.solve_homogeneous_basis(par)
part = gho.solve_particular(par)
grid = gho.GridSpec(-10.0, 10.0, 2048)


def rhs(t, y):
    m, _ = par.mass.eval(t)
    w, _ = par.frequency.eval(t)
    return [y[1] / m, -m * w * w * y[0]]


sol = solve_ivp(rhs, (0.0, 10.0), [1.0, 0.3], method="DOP853",
                dense_output=True, rtol=1e-12, atol=1e-14)
ts = np.linspace(0.0, 10.0, 6)
print("classical trajectory x(0)=1, p(0)=0.3 and its invariant:")
print(f"{'t':>5} {'x(t)':>12} {'p(t)':>12} {'I(x, p, t)':>16}")
for t in ts:
    x, p = sol.sol(t)
    val = gho.classical_invariant(basis, part, par, float(x), float(p), float(t))
    print(f"{t:5.2f} {float(x):12.8f} {float(p):12.8f} {val:16.12f}")

print("\nquantum: <I> on the mode set (spectrum hbar (n + 1/2)):")
for n in range(4):
    state = gho.eigenmode_packet(par, basis, part, n, 0.0, grid)
    val = gho.invariant_expectation(state, basis, part, par)
    print(f"  n = {n}: <I> = {val:.10f}")

print("\nquantum: <I> along an independent split-step evolution:")
state = gho.eigenmode_packet(par, basis, part, 0, 0.0, grid)
print(f"{'t':>5} {'<I>(t)':>18}")
print(f"{0.0:5.2f} {gho.invariant_expectation(state, basis, part, par):18.12f}")
for t in (1.0, 2.5, 5.0):
    state = gho.evolve_tdse(par, state, t)
    print(f"{t:5.2f} {gho.invariant_expectation(state, basis, part, par):18.12f}")

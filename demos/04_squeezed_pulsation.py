"""Squeezed states: the width rides on rho(t) = sqrt(u^2 + v^2).

Choosing unequal homogeneous solutions (here u = cos t, v = 2 sin t) makes
the dilation map nontrivial: the ground state becomes a squeezed Gaussian
whose variance is hbar rho^2 / (2 Omega) at every instant.

Note the period: rho^2 = cos^2 t + 4 sin^2 t repeats after pi, not after 1.
The measured pulsation period of the width is pi (for an angular frequency 1
oscillator the width oscillates at twice the frequency).
"""

import numpy as np

import gho

sho = gho.scenario_from_dict({"interval": [0.0, 12.0]})
basis = gho.solve_homogeneous_basis(sho, ((1.0, 0.0), (0.0, 2.0)))
part = gho.solve_particular(sho)
grid = gho.GridSpec(-10.0, 10.0, 2048)

print("u = cos t, v = 2 sin t  (Omega = 2)")
print(f"{'t':>6} {'Var(x) measured':>16} {'rho^2/(2 Omega)':>16}")
for t in np.linspace(0.0, np.pi, 9):
    state = gho.build_generalized_coherent_state(sho, basis, part, 0, float(t), grid)
    rho = basis.at(float(t)).rho
    print(f"{t:6.3f} {gho.var_x(state):16.10f} "
          f"{rho ** 2 / (2 * basis.omega):16.10f}")

def width(t):
    state = gho.build_generalized_coherent_state(sho, basis, part, 0, t, grid)
    return gho.var_x(state)

print("\npulsation period:")
print(f"  |Var(0.3 + pi) - Var(0.3)| = {abs(width(0.3 + np.pi) - width(0.3)):.2e}"
      "  (period pi: repeats)")
print(f"  |Var(0.3 + 1)  - Var(0.3)| = {abs(width(0.3 + 1.0) - width(0.3)):.2e}"
      "  (period 1: does not)")

print("\nunitarity of the squeezing map on an arbitrary packet:")
packet = gho.sho_eigenstate(1, grid)
squeezed = gho.apply_U_S(packet, basis, sho, 0.0)
print(f"  norm before {gho.packet_norm(packet):.12f}, "
      f"after {gho.packet_norm(squeezed):.12f}")

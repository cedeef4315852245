"""Propagating packets: exact kernel quadrature against a grid evolver.

The same ground-state Gaussian is pushed forward two independent ways: by
integrating it against the exact kernel, and by Strang split-step evolution of
the Schrodinger equation. They agree to the evolver's discretization error.
A full oscillator period brings the packet back to itself (up to the e^{-i pi}
ground-state phase), and on a free particle the variance grows as (1+t^2)/2.
"""

import numpy as np

import gho

grid = gho.GridSpec(-10.0, 10.0, 2048)
packet = gho.sho_eigenstate(0, grid)

sho = gho.scenario_from_dict({"interval": [0.0, 12.0]})
basis = gho.solve_homogeneous_basis(sho)

exact = gho.propagate(packet, sho, basis, None, 1.0)
stepped = gho.evolve_tdse(sho, packet, 1.0)
print(f"oscillator, T=1: |kernel - evolver|_L2 = "
      f"{gho.l2_distance(exact, stepped):.2e}")

revived = gho.propagate(packet, sho, basis, None, 2 * np.pi)
overlap = gho.inner_product(revived, packet)
print(f"oscillator, full period: |<out|in>| = {abs(overlap):.12f}, "
      f"phase = {np.angle(overlap):+.6f} (ground state returns with e^(-i pi))")

free = gho.scenario_from_dict({"frequency": 0.0, "interval": [0.0, 5.0]})
fbasis = gho.solve_homogeneous_basis(free)
print("\nfree particle spreading, Var(t) = (1 + t^2)/2:")
print(f"{'t':>5} {'Var (kernel)':>14} {'Var (exact)':>12} {'norm':>14}")
state = packet
for t in (0.5, 1.0, 2.0):
    state = gho.propagate(state, free, fbasis, None, t)
    print(f"{t:5.2f} {gho.var_x(state):14.9f} {(1 + t**2) / 2:12.6f} "
          f"{gho.packet_norm(state):14.12f}")

there = gho.propagate(packet, free, fbasis, None, 1.0)
back = gho.propagate(there, free, fbasis, None, 0.0)
print(f"\npropagate to t=1 and back: L2 error {gho.l2_distance(back, packet):.2e} "
      "(unitarity + conjugation symmetry)")

print("\nshort-time limit: distance of propagate(eps) from the identity")
for eps in (4e-3, 2e-3, 1e-3):
    d = gho.kernel_delta_check(sho, basis, None, 0.0, eps, packet)
    print(f"  eps = {eps:.0e}: distance = {d:.3e}")
print("  halves with eps: the kernel tends to a delta function")

"""Property tests over drawn custom bases of either sign of Omega, hbar and n.

The profile is derandomized, so the drawn examples are the same on every run.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gho
from conftest import COUPLED, transformed_eigenstate

SCENARIOS = {
    "parametric": {"frequency": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 2.0,
                                 "offset": 1.0}},
    "coupled": COUPLED,
}
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=24)
component = st.floats(-1.0, 1.0)


def mode_grid(basis, t, hbar):
    """Base grid +-12 at 3072 points, widened by the mode width
    rho sqrt(hbar/|Omega|) (and by sqrt(hbar) for the unit-oscillator state
    the grid maps start from), refined by the mode's momentum spread."""
    bs = basis.at(t)
    omega = abs(basis.omega)
    width = bs.rho * math.sqrt(hbar / omega)
    spread = math.sqrt(((omega / bs.rho) ** 2 + (bs.mass * bs.rho_dot) ** 2) / (hbar * omega))
    widen = max(1.0, width, math.sqrt(hbar))
    return gho.GridSpec(-12.0 * widen, 12.0 * widen,
                        int(math.ceil(12.0 * widen * max(1.0, spread))) * 256)


@PROFILE
@given(name=st.sampled_from(sorted(SCENARIOS)), hbar=st.floats(0.5, 2.0),
       ics=st.tuples(component, component, component, component),
       xp=st.tuples(component, component), n=st.integers(0, 4), t=st.floats(0.0, 2.0))
def test_modes_of_drawn_bases(name, hbar, ics, xp, n, t):
    s = gho.scenario_from_dict({**SCENARIOS[name], "hbar": hbar, "interval": [0.0, 2.0]})
    u0, u0_dot, v0, v0_dot = ics
    m0, _ = s.mass.eval(0.0)
    assume(abs(m0 * (u0 * v0_dot - v0 * u0_dot)) >= 0.2)
    basis = gho.solve_homogeneous_basis(s, ((u0, u0_dot), (v0, v0_dot)))
    part = gho.solve_particular(s, xp)
    grid = mode_grid(basis, t, hbar)
    packets = [gho.eigenmode_packet(s, basis, part, k, t, grid) for k in range(n + 1)]
    gram = np.array([[gho.inner_product(a, b) for b in packets] for a in packets])
    assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-8
    invariant = gho.invariant_expectation(packets[n], basis, part, s)
    assert invariant == pytest.approx(hbar * (n + 0.5), abs=1e-6)
    reference = transformed_eigenstate(s, basis, part, n, t, grid)
    assert gho.l2_distance(packets[n], reference) <= 1e-9

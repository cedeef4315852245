"""One dense-output evaluation per solution and time, and the part=None rule."""

from pathlib import Path

import numpy as np
import pytest

import gho
from gho import KernelQuery, ValidationError

ROOT = Path(__file__).resolve().parents[1]
QUERY = KernelQuery(0.2, 1.4, 0.3, -0.4)


@pytest.fixture(scope="module")
def driven_sho():
    s = gho.load_scenario((ROOT / "scenarios" / "driven_sho.json").read_text())
    return s, gho.solve_homogeneous_basis(s), gho.solve_particular(s)


PART_NONE_CALLS = {
    "kernel": lambda s, basis, packet: gho.kernel(s, basis, None, QUERY),
    "propagate": lambda s, basis, packet: gho.propagate(packet, s, basis, None, 1.5),
    "eigenmode_packet": lambda s, basis, packet: gho.eigenmode_packet(
        s, basis, None, 0, 1.0, packet.grid),
    "apply_U_F": lambda s, basis, packet: gho.apply_U_F(packet, None, s, 1.0),
    "invariant_expectation": lambda s, basis, packet: gho.invariant_expectation(
        packet, basis, None, s),
}


@pytest.mark.parametrize("name", sorted(PART_NONE_CALLS))
def test_part_none_rejected_under_a_force(driven_sho, grid, name):
    # x_p = 0 does not solve the driven equation; None must not stand for it
    s, basis, part = driven_sho
    packet = gho.eigenmode_packet(s, basis, part, 0, 1.0, grid)
    with pytest.raises(ValidationError, match="solve_particular"):
        PART_NONE_CALLS[name](s, basis, packet)


def test_part_none_is_the_zero_solution_without_force(sho, sho_basis, sho_part_zero, grid):
    assert gho.kernel(sho, sho_basis, None, QUERY) == gho.kernel(sho, sho_basis,
                                                                 sho_part_zero, QUERY)
    with_none = gho.eigenmode_packet(sho, sho_basis, None, 2, 0.7, grid)
    solved = gho.eigenmode_packet(sho, sho_basis, sho_part_zero, 2, 0.7, grid)
    assert np.array_equal(with_none.samples, solved.samples)


def test_snapshot_agrees_for_scalar_and_array_times(parametric_basis, parametric_part):
    ts = np.array([0.3, 2.9, 7.1])
    together = parametric_basis.at(ts)
    for k, t in enumerate(ts):
        alone = parametric_basis.at(t)
        for name in ("u", "u_dot", "v", "v_dot", "rho", "rho_dot", "tau", "theta", "mass"):
            assert getattr(alone, name) == pytest.approx(getattr(together, name)[k],
                                                         rel=1e-14, abs=1e-15)
    assert parametric_part.at(ts).xi[1] == pytest.approx(parametric_part.at(2.9).xi)


def test_dense_evaluations_per_operation(monkeypatch, parametric, parametric_basis, grid):
    s, basis = parametric, parametric_basis
    part = gho.solve_particular(s, (1.0, 0.0))
    packet = gho.eigenmode_packet(s, basis, part, 1, 1.1, grid)
    sizes = []
    original = gho.classical._DenseOutput.__call__

    def counting(self, t):
        sizes.append(int(np.size(t)))
        return original(self, t)

    monkeypatch.setattr(gho.classical._DenseOutput, "__call__", counting)

    def evaluations(operation):
        sizes.clear()
        operation()
        return list(sizes)

    kernel_calls = evaluations(lambda: gho.kernel(s, basis, part, QUERY))
    assert len(kernel_calls) <= 4
    assert set(kernel_calls) == {1}  # every endpoint is a scalar evaluation
    assert len(evaluations(lambda: gho.eigenmode_packet(s, basis, part, 1, 1.1, grid))) <= 2
    assert len(evaluations(lambda: gho.build_generalized_coherent_state(
        s, basis, part, 1, 1.1, grid))) <= 2
    assert len(evaluations(lambda: gho.invariant_expectation(packet, basis, part, s))) <= 2

import numpy as np
import pytest

import gho


@pytest.fixture(scope="session")
def sho():
    return gho.scenario_from_dict({"interval": [0.0, 12.0]})


@pytest.fixture(scope="session")
def free():
    return gho.scenario_from_dict({"frequency": 0.0, "interval": [0.0, 5.0]})


@pytest.fixture(scope="session")
def driven():
    return gho.scenario_from_dict({"force": 1.0, "interval": [0.0, 8.0]})


@pytest.fixture(scope="session")
def parametric():
    return gho.scenario_from_dict({
        "frequency": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 2.0,
                      "offset": 1.0},
        "interval": [0.0, 12.0]})


@pytest.fixture(scope="session")
def sho_basis(sho):
    return gho.solve_homogeneous_basis(sho)  # u = cos t, v = sin t


@pytest.fixture(scope="session")
def sho_basis_squeezed(sho):
    return gho.solve_homogeneous_basis(sho, ((1.0, 0.0), (0.0, 2.0)))  # v = 2 sin t


@pytest.fixture(scope="session")
def sho_basis_rotated(sho):
    phi = 0.7
    return gho.solve_homogeneous_basis(
        sho, ((np.cos(phi), -np.sin(phi)), (np.sin(phi), np.cos(phi))))


@pytest.fixture(scope="session")
def sho_part_zero(sho):
    return gho.solve_particular(sho)


@pytest.fixture(scope="session")
def sho_part_cos(sho):
    return gho.solve_particular(sho, (1.0, 0.0))  # x_p = cos t


@pytest.fixture(scope="session")
def free_basis(free):
    return gho.solve_homogeneous_basis(free)  # u = 1, v = t


@pytest.fixture(scope="session")
def driven_basis(driven):
    return gho.solve_homogeneous_basis(driven)


@pytest.fixture(scope="session")
def driven_part(driven):
    return gho.solve_particular(driven)  # x_p = 1 - cos t


@pytest.fixture(scope="session")
def parametric_basis(parametric):
    return gho.solve_homogeneous_basis(parametric)


@pytest.fixture(scope="session")
def parametric_part(parametric):
    return gho.solve_particular(parametric)


@pytest.fixture(scope="session")
def grid():
    return gho.GridSpec(-10.0, 10.0, 2048)


@pytest.fixture(scope="session")
def wide_grid():
    return gho.GridSpec(-16.0, 16.0, 3072)


def mehler_kernel(t_a, t_b, x_a, x_b, hbar=1.0):
    """Closed-form unit-SHO kernel, principal branch for 0 < t_b - t_a < pi."""
    big_t = t_b - t_a
    return ((2j * np.pi * hbar * np.sin(big_t)) ** -0.5
            * np.exp(1j * ((x_a ** 2 + x_b ** 2) * np.cos(big_t) - 2 * x_a * x_b)
                     / (2 * hbar * np.sin(big_t))))


def free_kernel(t_a, t_b, x_a, x_b, hbar=1.0, mass=1.0):
    big_t = t_b - t_a
    return ((mass / (2j * np.pi * hbar * big_t)) ** 0.5
            * np.exp(1j * mass * (x_b - x_a) ** 2 / (2 * hbar * big_t)))


# hbar != 1, M != 1 and every gauge coupling, driven; a and the force are cosines
COUPLED = {"hbar": 0.7, "mass": 1.3, "b": 0.3, "f": 0.2, "interval": [0.0, 12.0],
           "a": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 1.0, "phase": 0.5},
           "force": {"kind": "sinusoidal", "amplitude": 0.5, "omega": 1.3}}


def transformed_eigenstate(s, basis, part, n, t, grid):
    """psi_n as energy phase x U_F x U_S acting on the unit-oscillator
    eigenstate, through the grid maps (FFT shift, trigonometric interpolant)
    rather than the closed form."""
    bs = basis.at(t)
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    x = grid.points
    phase = ((n + 0.5) * np.sign(basis.omega) * bs.theta
             + (bs.mass * a_c * x * x + b_c * x
                + gho.integrate_coefficient(s.f, s.t0, t)) / s.hbar)
    unit = gho.sho_eigenstate(n, grid, s.hbar)
    moved = gho.apply_U_F(gho.apply_U_S(unit, basis, s, t), part, s, t)
    return moved.with_samples(np.exp(1j * phase) * moved.samples)

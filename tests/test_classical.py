import numpy as np
import pytest
from scipy.integrate import solve_ivp

import gho
from gho import (DegenerateBasis, classical_invariant, scenario_from_dict,
                 solve_homogeneous_basis, solve_particular)
from gho.classical import trajectory_columns, trajectory_table


def test_sho_default_basis_is_cos_sin(sho, sho_basis):
    assert sho_basis.at(np.pi / 2).u == pytest.approx(0.0, abs=1e-9)
    assert sho_basis.at(np.pi / 2).v == pytest.approx(1.0, abs=1e-9)
    ts = np.linspace(0.0, 12.0, 40)
    assert np.max(np.abs(sho_basis.at(ts).u - np.cos(ts))) < 1e-9
    assert np.max(np.abs(sho_basis.at(ts).v - np.sin(ts))) < 1e-9


def test_sho_omega_is_one(sho, sho_basis):
    assert sho_basis.omega == pytest.approx(1.0, abs=1e-12)
    assert sho_basis.wronskian_at(3.3) == pytest.approx(1.0, abs=1e-8)


def test_free_particle_basis(free, free_basis):
    ts = np.linspace(0.0, 5.0, 20)
    assert np.max(np.abs(free_basis.at(ts).u - 1.0)) < 1e-10
    assert np.max(np.abs(free_basis.at(ts).v - ts)) < 1e-10


def test_degenerate_ics_rejected(sho):
    with pytest.raises(DegenerateBasis):
        solve_homogeneous_basis(sho, ((1.0, 2.0), (2.0, 4.0)))


def test_particular_zero(sho, sho_part_zero):
    ts = np.linspace(0.0, 12.0, 30)
    assert np.max(np.abs(sho_part_zero.at(ts).x)) == 0.0
    assert np.max(np.abs(sho_part_zero.at(ts).xi)) == 0.0


def test_particular_homogeneous_choice_is_allowed(sho, sho_part_cos):
    # for F = 0 a nonzero particular solution is legitimate; ics (1, 0) -> cos t
    ts = np.linspace(0.0, 12.0, 30)
    assert np.max(np.abs(sho_part_cos.at(ts).x - np.cos(ts))) < 1e-10


def test_driven_constant_force_fixed_point(driven):
    # x'' + x = 1 with x(0) = 1, x'(0) = 0 stays at the fixed point x = 1
    part = solve_particular(driven, (1.0, 0.0))
    ts = np.linspace(0.0, 8.0, 30)
    assert np.max(np.abs(part.at(ts).x - 1.0)) < 1e-10
    # residual form: d/dt(M x') + M w^2 x - F = 0
    h = 1e-6
    mid = ts[1:-1]
    dmu = (part.at(mid + h).momentum - part.at(mid - h).momentum) / (2 * h)
    assert np.max(np.abs(dmu + part.at(mid).x - 1.0)) < 1e-6


def test_wronskian_scaled_basis(sho, sho_basis_squeezed):
    # u = cos t, v = 2 sin t: M (u v' - v u') = 2 cos^2 + 2 sin^2 = 2
    for t in (0.0, 0.7, 2.0, 5.5):
        assert sho_basis_squeezed.wronskian_at(t) == pytest.approx(2.0, abs=1e-8)


def test_wronskian_constant_with_time_dependent_mass():
    s = scenario_from_dict({
        "mass": {"kind": "exponential", "amplitude": 1.0, "rate": 1.0},
        "interval": [0.0, 3.0]})
    basis = solve_homogeneous_basis(s)
    ts = np.linspace(0.0, 3.0, 50)
    values = basis.wronskian_at(ts)
    assert np.max(np.abs(values - basis.omega)) / abs(basis.omega) < 1e-7


def test_wronskian_constancy_random_scenarios():
    rng = np.random.default_rng(2024)
    for k in range(20):
        mass = {"kind": "exponential", "amplitude": float(rng.uniform(0.5, 2.0)),
                "rate": float(rng.uniform(-0.3, 0.3))}
        freq = {"kind": "sinusoidal", "amplitude": float(rng.uniform(0.0, 0.4)),
                "omega": float(rng.uniform(0.5, 3.0)),
                "phase": float(rng.uniform(0, 6.28)),
                "offset": float(rng.uniform(0.8, 1.5))}
        s = scenario_from_dict({"mass": mass, "frequency": freq,
                                "interval": [0.0, 6.0]})
        basis = solve_homogeneous_basis(s)
        ts = np.linspace(0.0, 6.0, 101)
        dev = np.max(np.abs(basis.wronskian_at(ts) - basis.omega)) / abs(basis.omega)
        assert dev < 1e-6, f"scenario {k}: wronskian drift {dev}"


def test_basis_residual(parametric, parametric_basis):
    # substitute the interpolated u back into d/dt(M u') + M w^2 u
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.05, 11.95, 200)
    h = 1e-6
    m_p, _ = parametric.mass.eval(ts + h)
    m_m, _ = parametric.mass.eval(ts - h)
    dmu = (m_p * parametric_basis.at(ts + h).u_dot
           - m_m * parametric_basis.at(ts - h).u_dot) / (2 * h)
    m, _ = parametric.mass.eval(ts)
    w, _ = parametric.frequency.eval(ts)
    drive = m * w * w * parametric_basis.at(ts).u
    assert np.max(np.abs(dmu + drive)) / np.max(np.abs(drive)) < 1e-6


def test_xi_derivative_consistency(parametric):
    part = solve_particular(parametric, (1.0, 0.0))
    rng = np.random.default_rng(8)
    ts = rng.uniform(0.05, 11.95, 200)
    h = 1e-5
    fd = (part.at(ts + h).xi - part.at(ts - h).xi) / (2 * h)
    m, _ = parametric.mass.eval(ts)
    w, _ = parametric.frequency.eval(ts)
    now = part.at(ts)
    analytic = 0.5 * (m * w * w * now.x ** 2 - m * (now.momentum / m) ** 2)
    assert np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic)) < 1e-5


def test_particular_ode_residual(driven, driven_part):
    ts = np.linspace(0.1, 7.9, 120)
    h = 1e-6
    dmu = (driven_part.at(ts + h).momentum - driven_part.at(ts - h).momentum) / (2 * h)
    m, _ = driven.mass.eval(ts)
    w, _ = driven.frequency.eval(ts)
    force, _ = driven.force.eval(ts)
    res = dmu + m * w * w * driven_part.at(ts).x - force
    assert np.max(np.abs(res)) < 1e-6


def test_rho_sho(sho_basis):
    for t in (0.0, 1.1, 4.0):
        rv = sho_basis.at(t)
        assert rv.rho == pytest.approx(1.0, abs=1e-10)
        assert rv.rho_dot == pytest.approx(0.0, abs=1e-9)


def test_rho_squeezed(sho_basis_squeezed):
    rv0 = sho_basis_squeezed.at(0.0)
    assert (rv0.rho, rv0.rho_dot) == (pytest.approx(1.0, abs=1e-10),
                                      pytest.approx(0.0, abs=1e-9))
    rv1 = sho_basis_squeezed.at(np.pi / 2)
    assert rv1.rho == pytest.approx(2.0, abs=1e-9)
    assert rv1.rho_dot == pytest.approx(0.0, abs=1e-8)


def test_rho_free_particle(free_basis):
    rv = free_basis.at(2.0)
    assert rv.rho == pytest.approx(np.sqrt(5.0), rel=1e-10)
    assert rv.rho_dot == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-10)


def test_tau_sho(sho, sho_basis):
    ts = np.linspace(0.0, 11.0, 23)
    assert np.max(np.abs(sho_basis.at(ts).tau - ts)) < 1e-8


def test_tau_squeezed_quarter_period(sho, sho_basis_squeezed):
    # integral of 2 / (cos^2 + 4 sin^2) from 0 to pi/2 = arctan(2 tan z) -> pi/2
    assert sho_basis_squeezed.at(np.pi / 2).tau == pytest.approx(np.pi / 2, abs=1e-9)


def test_tau_free_is_arctan(free, free_basis):
    for t in (0.5, 1.0, 3.0, 5.0):
        assert free_basis.at(t).tau == pytest.approx(np.arctan(t), abs=1e-9)


def test_tau_strictly_increasing(parametric, parametric_basis):
    ts = np.linspace(0.0, 12.0, 400)
    assert np.all(np.diff(parametric_basis.at(ts).tau) > 0)


def test_classical_invariant_sho(sho, sho_basis, sho_part_zero):
    for t in (0.0, 0.9, 3.0):
        value = classical_invariant(sho_basis, sho_part_zero, sho, 1.0, 0.0, t)
        assert value == pytest.approx(0.5, abs=1e-9)


def test_classical_invariant_vanishes_on_particular(driven, driven_basis, driven_part):
    for t in (0.3, 1.7, 5.0):
        x = float(driven_part.at(t).x)
        p = float(driven_part.at(t).momentum)
        assert classical_invariant(driven_basis, driven_part, driven, x, p, t) \
            == pytest.approx(0.0, abs=1e-12)


def test_classical_invariant_constant_along_trajectory(parametric, parametric_basis,
                                                       parametric_part):
    def rhs(t, y):
        m, _ = parametric.mass.eval(t)
        w, _ = parametric.frequency.eval(t)
        return [y[1] / m, -m * w * w * y[0]]

    sol = solve_ivp(rhs, (0.0, 10.0), [1.0, 0.3], method="DOP853",
                    dense_output=True, rtol=1e-12, atol=1e-14)
    ts = np.linspace(0.0, 10.0, 400)
    ys = sol.sol(ts)
    vals = classical_invariant(parametric_basis, parametric_part, parametric,
                               ys[0], ys[1], ts)
    drift = (vals.max() - vals.min()) / abs(vals.mean())
    assert drift < 1e-6


def test_trajectory_table_columns(sho, sho_basis, sho_part_cos):
    ts = np.linspace(0.0, 2.0, 5)
    table = trajectory_table(sho_basis, sho_part_cos, ts)
    assert table.shape == (5, len(trajectory_columns))
    assert trajectory_columns == ("t", "u", "u_dot", "v", "v_dot", "x_p", "x_p_dot",
                                  "xi", "rho", "rho_dot", "tau")
    assert table[:, 0] == pytest.approx(ts)
    assert table[:, 5] == pytest.approx(np.cos(ts), abs=1e-10)
    # xi for x_p = cos t integrates (cos^2 - sin^2)/2 -> sin(2t)/4
    assert table[:, 7] == pytest.approx(np.sin(2 * ts) / 4, abs=1e-10)


def test_mass_crossing_zero_rejected():
    with pytest.raises(gho.ValidationError):
        scenario_from_dict({
            "mass": {"kind": "polynomial", "coefficients": [1.0, -0.3]},
            "interval": [0.0, 4.0]})


def test_piecewise_frequency_restarts_cleanly():
    s = scenario_from_dict({
        "frequency": {"kind": "piecewise", "breakpoints": [2.0, 4.0],
                      "values": [1.0, 2.0, 0.5]},
        "interval": [0.0, 6.0]})
    basis = solve_homogeneous_basis(s)
    ts = np.linspace(0.0, 6.0, 200)
    dev = np.max(np.abs(basis.wronskian_at(ts) - basis.omega)) / abs(basis.omega)
    assert dev < 1e-10
    # frequency jumps but u stays C^1: u' continuous across the breakpoint
    h = 1e-7
    assert basis.at(2.0 + h).u_dot == pytest.approx(basis.at(2.0 - h).u_dot, abs=1e-5)


def test_zero_rho_detected(sho, sho_basis):
    class CorruptDense:
        def __call__(self, t):
            return np.zeros(5)

    broken = gho.ClassicalBasis(scenario=sho, omega=1.0, rtol=1e-12, atol=1e-14,
                                _dense=CorruptDense(), _nodes=np.array([0.0]))
    with pytest.raises(gho.ZeroRho):
        broken.at(1.0)


def test_classical_invariant_takes_canonical_momentum():
    # with gauge couplings the canonical momentum is p = M x' + 2 M a x + b
    s = scenario_from_dict({"a": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 1.0},
                            "b": 0.3, "force": 0.4, "interval": [0.0, 10.0]})
    basis = solve_homogeneous_basis(s)
    part = solve_particular(s)

    def rhs(t, y):
        m, _ = s.mass.eval(t)
        w, _ = s.frequency.eval(t)
        force, _ = s.force.eval(t)
        return [y[1] / m, force - m * w * w * y[0]]

    sol = solve_ivp(rhs, (0.0, 10.0), [1.0, 0.3], method="DOP853",
                    dense_output=True, rtol=1e-12, atol=1e-14)
    ts = np.linspace(0.0, 10.0, 400)
    x, m_xdot = sol.sol(ts)
    a, _ = s.a.eval(ts)
    b, _ = s.b.eval(ts)
    p = m_xdot + 2.0 * a * x + b
    vals = classical_invariant(basis, part, s, x, p, ts)
    assert (vals.max() - vals.min()) / abs(vals.mean()) < 1e-6


def test_solve_budget_raises_integration_failure(monkeypatch):
    # w = 5 over 12 time units needs thousands of right-hand-side calls
    s = scenario_from_dict({"hbar": 0.5, "interval": [0.0, 12.0], "frequency": 5.0})
    monkeypatch.setattr(gho.classical, "MAX_RHS_CALLS", 1000)
    with pytest.raises(gho.IntegrationFailure, match="right-hand-side"):
        solve_homogeneous_basis(s)

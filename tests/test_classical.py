import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import gho
from gho import (DegenerateBasis, classical_invariant, scenario_from_dict,
                 solve_homogeneous_basis, solve_particular)
from gho.classical import particular_or_zero, trajectory_columns, trajectory_table

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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


# the benchmark's fast oscillator, and a squeezed basis on sho whose rho dips
# to 0.1 (Omega = 0.2), where the angle of u - i v turns fastest
TAU_EXACT_CASES = [({"hbar": 0.5, "interval": [0.0, 12.0], "frequency": 5.0}, None),
                   ({"interval": [0.0, 12.0]}, ((0.1, 0.0), (0.0, 2.0)))]


@pytest.mark.parametrize("spec, ics", TAU_EXACT_CASES)
def test_theta_is_the_unwrapped_angle_of_u_minus_iv(spec, ics):
    s = scenario_from_dict(spec)
    basis = solve_homogeneous_basis(s, ics)
    ts = np.linspace(s.t0, s.t1, 20001)
    at = basis.at(ts)
    assert np.max(np.abs(at.theta - np.unwrap(np.arctan2(-at.v, at.u)))) <= 1e-12
    assert np.array_equal(at.tau, at.theta[0] - at.theta)
    a, b = np.random.default_rng(9).integers(0, len(ts), (2, 4000))
    rr = at.rho[a] * at.rho[b]
    d = at.v[b] * at.u[a] - at.u[b] * at.v[a]
    assert np.max(np.abs(d - rr * np.sin(at.tau[b] - at.tau[a])) / rr) <= 1e-13


def test_fundamental_solve_is_shared_per_scenario_object(monkeypatch):
    solves = []
    solve = gho.classical._collocation_solve

    def counted(*args):
        solves.append(args[0])
        return solve(*args)

    monkeypatch.setattr(gho.classical, "_collocation_solve", counted)
    spec = {"frequency": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 2.0},
            "force": 0.3, "interval": [0.0, 6.0]}
    s = scenario_from_dict(spec)
    bases = [solve_homogeneous_basis(s, ics)
             for ics in (None, ((0.0, 1.0), (1.0, 0.0)), ((0.8, 0.3), (0.4, 1.1)))]
    # particular solutions ride on the same solve: the zero-start x_p plus
    # the pair's image of their initial data
    parts = [solve_particular(s, ics) for ics in ((0.0, 0.0), (0.5, -0.2))]
    assert solves == [s]
    assert (parts[1].at(0.0).x, parts[1].at(0.0).momentum) == pytest.approx((0.5, -0.2), abs=1e-14)
    # each basis is the image of the same pair: its own initial data at t0
    assert bases[2].at(0.0).u == 0.8 and bases[2].at(0.0).v_dot == 1.1
    again = scenario_from_dict(spec)  # equal, but another object: solved afresh
    assert again == s
    solve_homogeneous_basis(again)
    solve_particular(again)
    solve_homogeneous_basis(s)
    assert len(solves) == 2 and solves[1] is again


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


def test_classical_invariant_either_sign_of_omega(parametric, parametric_part):
    # I depends on the basis only through rho and |Omega|: a basis with
    # Omega < 0 and its swapped pair (v, u) give the same positive value
    ics = ((0.3, 1.1), (1.0, -0.2))
    negative = solve_homogeneous_basis(parametric, ics)
    swapped = solve_homogeneous_basis(parametric, ics[::-1])
    assert negative.omega < 0 < swapped.omega
    for t in (0.0, 1.4, 6.1):
        value = classical_invariant(negative, parametric_part, parametric, 0.7, -0.4, t)
        assert value > 0
        assert value == pytest.approx(
            classical_invariant(swapped, parametric_part, parametric, 0.7, -0.4, t), rel=1e-10)


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


@pytest.mark.parametrize("t", [40.0, -1.0, float("nan"), np.array([1.0, 40.0])])
def test_classical_invariant_and_trajectory_reject_times_outside_the_interval(
        sho, sho_basis, sho_part_zero, t):
    # the dense output extrapolates past t1: at t = 40 the invariant read
    # 1.99e12 where it is 0.5, and u read -2.1e6 where cos 40 = -0.67
    with pytest.raises(gho.ValidationError, match=r"outside working interval \[0.0, 12.0\]"):
        classical_invariant(sho_basis, sho_part_zero, sho, np.cos(40.0), -np.sin(40.0), t)
    with pytest.raises(gho.ValidationError, match=r"outside working interval \[0.0, 12.0\]"):
        trajectory_table(sho_basis, None, np.atleast_1d(t))


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
            return np.zeros((4,) + np.shape(t))

    broken = gho.ClassicalBasis(scenario=sho, omega=1.0,
                                _fundamental=CorruptDense(), _state0=(1.0, 0.0, 0.0, 1.0))
    with pytest.raises(gho.ZeroRho):
        broken.at(1.0)
    with pytest.raises(gho.ZeroRho):
        broken.at(np.array(1.0))


def test_snapshots_at_a_scalar_time_hold_floats(parametric, parametric_basis,
                                                parametric_part, sho):
    # ints and floats, np.float64 included, give Python floats; a 0-d array
    # takes the array path and gives the same numbers
    zero = particular_or_zero(sho, None)
    for t in (0.7, 1, np.float64(0.7)):
        for snapshot, on_array in ((parametric_basis.at(t), parametric_basis.at(np.array(t))),
                                   (parametric_part.at(t), parametric_part.at(np.array(t))),
                                   (zero.at(t), zero.at(np.array(t)))):
            for name in snapshot._fields:
                value = getattr(snapshot, name)
                assert type(value) is float, name
                assert value == pytest.approx(float(getattr(on_array, name)), rel=1e-15)


# the bundled scenarios, the benchmark's omega = 5 oscillator (512 steps) and
# a frequency with one jump
DENSE_TABLES = [*(json.loads((SCENARIOS / f"{name}.json").read_text())
                  for name in ("sho", "free_particle", "parametric", "driven_sho")),
                {"hbar": 0.5, "interval": [0, 12], "frequency": 5},
                {"interval": [0, 10],
                 "frequency": {"kind": "piecewise", "breakpoints": [4.0], "values": [1.0, 1.6]}}]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_dense_output_gives_a_scalar_time_the_bits_of_the_array():
    # both paths run Horner's rule with the same roundings, also beyond the
    # ends; each time is read twice, so a step's row serves its first scalar
    # read and the later ones
    for spec in DENSE_TABLES:
        s = scenario_from_dict(spec)  # a fresh solve, no row filled yet
        basis, part = solve_homogeneous_basis(s), solve_particular(s)
        edges = basis._fundamental._edges
        starts, ends = edges[:-1], edges[1:]
        times = np.concatenate([[edges[0] - 0.5, edges[-1], edges[-1] + 0.5], starts,
                                0.5 * (starts + ends), np.nextafter(ends, starts)])
        for dense in (basis._fundamental, part._dense):
            assert dense._rows == [None] * len(starts)
            on_array = dense(times)
            for _ in range(2):
                for k, t in enumerate(times.tolist()):
                    assert _bits(dense(t)) == _bits(on_array[:, k]), (spec, t)


def test_scalar_reads_inside_one_step_store_that_steps_row_alone():
    dense = solve_homogeneous_basis(scenario_from_dict(DENSE_TABLES[2]))._fundamental
    edges = dense._edges
    k = len(edges) // 2
    dense(np.linspace(edges[0], edges[-1], 50))  # the array path stores no row
    assert dense._rows == [None] * (len(edges) - 1)
    dense(float(edges[k]))
    row = dense._rows[k]
    assert row == dense._horner[k].tolist()
    for t in (0.5 * (edges[k] + edges[k + 1]), np.nextafter(edges[k + 1], edges[k])):
        dense(float(t))
        assert dense._rows[k] is row
    assert [j for j, stored in enumerate(dense._rows) if stored is not None] == [k]


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


def test_wronskian_drift_raises_integration_failure(monkeypatch):
    # c scaled by 1 + 1e-9 moves M (u v' - v u') by 1e-9 cos^2 t on the
    # default oscillator basis, where the products it cancels are cos^2 t and
    # sin^2 t: a real drift, 100x the limit of 10 DEFAULT_RTOL
    solve = gho.classical._collocation_solve

    def perturbed(*args):
        sol = solve(*args)
        fundamental = sol.fundamental

        def off(t):
            c, pc, sn, ps = fundamental(t)
            return (1.0 + 1e-9) * c, pc, sn, ps

        return sol._replace(fundamental=off)

    monkeypatch.setattr(gho.classical, "_collocation_solve", perturbed)
    with pytest.raises(gho.IntegrationFailure, match="Wronskian drifted by 1.00e-09"):
        solve_homogeneous_basis(scenario_from_dict({"interval": [0.0, 12.0]}))


def test_solve_budget_raises_integration_failure(monkeypatch):
    # w = 5 over 12 time units tries 8, 16, ..., 1024 steps, 2040 in all,
    # and keeps 512
    s = scenario_from_dict({"hbar": 0.5, "interval": [0.0, 12.0], "frequency": 5.0})
    monkeypatch.setattr(gho.classical, "MAX_STEPS", 2000)
    with pytest.raises(gho.IntegrationFailure, match="exceeded 2000 collocation steps"):
        solve_homogeneous_basis(s)
    monkeypatch.setattr(gho.classical, "MAX_STEPS", 2040)
    assert len(solve_homogeneous_basis(s).nodes) == 513


def test_solves_log_steps_and_wronskian_drift(parametric, caplog):
    with caplog.at_level(logging.DEBUG, logger="gho.classical"):
        basis = solve_homogeneous_basis(parametric)
        part = solve_particular(parametric, (1.0, 0.0))
    basis_msg, part_msg = [r.getMessage() for r in caplog.records if r.name == "gho.classical"]
    steps, tried, drift = re.search(
        r"^solve_homogeneous_basis: (\d+) steps, (\d+) steps tried, Wronskian drift (\S+)$",
        basis_msg).groups()
    # one piece: 8, 16, ..., 2 N steps tried, N kept
    assert int(steps) == len(basis.nodes) - 1 and int(tried) == 4 * int(steps) - 8
    # the drift at each step edge is relative to the products that cancel to
    # Omega there, |u M v'| + |v M u'|, or to |Omega| if that is larger
    at = basis.at(basis.nodes)
    u_pv, v_pu = at.u * at.mass * at.v_dot, at.v * at.mass * at.u_dot
    scale = np.maximum(np.abs(u_pv) + np.abs(v_pu), abs(basis.omega))
    expected = np.max(np.abs(u_pv - v_pu - basis.omega) / scale)
    assert float(drift) == pytest.approx(expected, rel=1e-3, abs=1e-300)
    assert part_msg == f"solve_particular: {steps} steps, {tried} steps tried"
    assert np.array_equal(part._dense._edges, basis.nodes)


# one scenario per coefficient kind, with force, and the fast oscillator
KIND_CASES = {
    "constant": {"mass": 2.0, "frequency": 1.3, "force": 0.4, "interval": [0.0, 8.0]},
    "polynomial": {"mass": {"kind": "polynomial", "coefficients": [1.0, 0.1]},
                   "frequency": {"kind": "polynomial", "coefficients": [1.0, 0.0, 0.05]},
                   "force": {"kind": "polynomial", "coefficients": [0.2, -0.1]},
                   "interval": [0.0, 6.0]},
    "sinusoidal": {"mass": {"kind": "sinusoidal", "amplitude": 0.2, "omega": 1.1,
                            "offset": 1.0},
                   "frequency": {"kind": "sinusoidal", "amplitude": 0.3, "omega": 1.7,
                                 "offset": 1.2},
                   "force": {"kind": "sinusoidal", "amplitude": 0.5, "omega": 0.9},
                   "interval": [0.0, 10.0]},
    "piecewise": {"mass": {"kind": "piecewise", "breakpoints": [1.5, 4.0],
                           "values": [1.0, 2.5, 0.8]},
                  "frequency": {"kind": "piecewise", "breakpoints": [2.5, 4.0],
                                "values": [1.0, 1.8, 0.6]},
                  "force": {"kind": "piecewise", "breakpoints": [3.0], "values": [0.0, 0.7]},
                  "interval": [0.0, 6.0]},
    "exponential": {"mass": {"kind": "exponential", "amplitude": 1.0, "rate": 0.3},
                    "frequency": {"kind": "exponential", "amplitude": 1.5, "rate": -0.1},
                    "force": {"kind": "exponential", "amplitude": 0.3, "rate": 0.2},
                    "interval": [0.0, 6.0]},
    "fast": {"frequency": 30.0, "interval": [0.0, 12.0]},
}


XP0 = (0.4, -0.3)


def _reference(s, xp0, times):
    """(u, M u', v, M v', x_p, M x_p', xi) of the default basis and x_p at
    sorted times, by DOP853 at rtol 1e-13, restarted at every breakpoint."""
    def rhs(t, y):
        m, _ = s.mass.eval(t)
        w, _ = s.frequency.eval(t)
        force, _ = s.force.eval(t)
        k = m * w * w
        u, pu, v, pv, x, p, _ = y
        return [pu / m, -k * u, pv / m, -k * v, p / m, force - k * x,
                0.5 * (k * x * x - p * p / m)]

    cuts = sorted({t for fn in (s.mass, s.frequency, s.force)
                   for t in getattr(fn, "breakpoints", ()) if s.t0 < t < s.t1})
    bounds = [s.t0, *cuts, s.t1]
    m0, _ = s.mass.eval(s.t0)
    y = [1.0, 0.0, 0.0, 1.0, xp0[0], m0 * xp0[1], 0.0]
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", dense_output=True,
                        rtol=1e-13, atol=1e-15)
        out.append(sol.sol(times[(times >= lo) & (times < hi)]))
        y = sol.y[:, -1]
    return np.concatenate(out, axis=1)


def _fast_reference(times):
    """The same for w = 30, M = 1 and F = 0 in closed form."""
    w, (x0, v0) = 30.0, XP0
    c, sn = np.cos(w * times), np.sin(w * times)
    x, p = x0 * c + v0 * sn / w, -x0 * w * sn + v0 * c
    # xi' = (w^2 x^2 - p^2) / 2 with x = x0 cos + (v0 / w) sin
    xi = (0.25 * (w * x0 * x0 - v0 * v0 / w) * np.sin(2 * w * times)
          + 0.5 * x0 * v0 * (1.0 - np.cos(2 * w * times)))
    return np.array([c, -w * sn, sn / w, c, x, p, xi])


@pytest.mark.parametrize("name", sorted(KIND_CASES))
def test_solve_matches_dop853_for_every_coefficient_kind(name):
    s = scenario_from_dict(KIND_CASES[name])
    basis = solve_homogeneous_basis(s)
    part = solve_particular(s, XP0)
    times = np.sort(np.random.default_rng(31).uniform(s.t0, s.t1, 400))
    edges = basis.nodes
    assert not np.isin(times, edges).any()  # between step edges
    for jump in {t for fn in (s.mass, s.frequency, s.force)
                 for t in getattr(fn, "breakpoints", ())}:
        assert jump in edges
    bs, ps = basis.at(times), part.at(times)
    got = np.array([bs.u, bs.mass * bs.u_dot, bs.v, bs.mass * bs.v_dot,
                    ps.x, ps.momentum, ps.xi])
    ref = _fast_reference(times) if name == "fast" else _reference(s, XP0, times)
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=1))
    assert np.max(np.abs(got - ref).max(axis=1) / scale) < 1e-10

import json

import numpy as np
import pytest

from gho import (Constant, Exponential, ParseError, PiecewiseConstant, Polynomial,
                 Sinusoidal, ValidationError, eval_coefficient,
                 hamiltonian_coefficients, integrate_coefficient, load_scenario,
                 scenario_from_dict, scenario_to_dict, serialize_scenario)


def test_constant_eval():
    assert eval_coefficient(Constant(1.0), 3.7) == (1.0, 0.0)


def test_sinusoidal_eval_at_zero():
    fn = Sinusoidal(amplitude=1.0, omega=2.0, phase=0.0, offset=0.0)
    value, deriv = eval_coefficient(fn, 0.0)
    assert value == pytest.approx(1.0, abs=1e-15)
    assert deriv == pytest.approx(0.0, abs=1e-15)


def test_polynomial_eval():
    value, deriv = eval_coefficient(Polynomial((2.0, 3.0)), 2.0)
    assert value == 8.0
    assert deriv == 3.0


def test_exponential_eval():
    value, deriv = eval_coefficient(Exponential(2.0, -0.5), 1.0)
    assert value == pytest.approx(2.0 * np.exp(-0.5))
    assert deriv == pytest.approx(-0.5 * value)


def test_piecewise_right_limit_at_breakpoint():
    fn = PiecewiseConstant(breakpoints=(1.0, 2.0), values=(5.0, 7.0, -1.0))
    assert eval_coefficient(fn, 0.5)[0] == 5.0
    assert eval_coefficient(fn, 1.0)[0] == 7.0  # right limit exactly on a breakpoint
    assert eval_coefficient(fn, 1.5)[0] == 7.0
    assert eval_coefficient(fn, 2.0)[0] == -1.0
    assert eval_coefficient(fn, 3.0) == (-1.0, 0.0)


def test_piecewise_validation():
    with pytest.raises(ValidationError):
        PiecewiseConstant(breakpoints=(1.0,), values=(1.0,))
    with pytest.raises(ValidationError):
        PiecewiseConstant(breakpoints=(2.0, 1.0), values=(1.0, 2.0, 3.0))


@pytest.mark.parametrize("fn", [
    Constant(2.5),
    Polynomial((1.0, -2.0, 0.5, 0.125)),
    Sinusoidal(amplitude=0.7, omega=3.0, phase=0.4, offset=1.2),
    Exponential(1.5, 0.3),
])
def test_derivative_matches_central_differences(fn):
    rng = np.random.default_rng(11)
    times = rng.uniform(-5.0, 5.0, 100)
    for t in times:
        h = 1e-5 * (abs(t) + 1.0)
        value_p, _ = eval_coefficient(fn, t + h)
        value_m, _ = eval_coefficient(fn, t - h)
        fd = (value_p - value_m) / (2 * h)
        _, deriv = eval_coefficient(fn, t)
        scale = max(abs(deriv), abs(fd), 1e-9)
        assert abs(deriv - fd) / scale < 1e-6


@pytest.mark.parametrize("fn,lo,hi,expected", [
    (Constant(2.0), 0.0, 3.0, 6.0),
    (Polynomial((0.0, 1.0)), 0.0, 2.0, 2.0),
    (Sinusoidal(1.0, 1.0, 0.0, 0.0), 0.0, np.pi / 2, 1.0),
    (Exponential(1.0, 1.0), 0.0, 1.0, np.e - 1.0),
    (PiecewiseConstant((1.0,), (1.0, 3.0)), 0.0, 2.0, 4.0),
])
def test_integrate_coefficient(fn, lo, hi, expected):
    assert integrate_coefficient(fn, lo, hi) == pytest.approx(expected, rel=1e-12)
    assert integrate_coefficient(fn, hi, lo) == pytest.approx(-expected, rel=1e-12)


def test_load_sho_scenario_roundtrip():
    text = json.dumps({"dimension": 1, "hbar": 1.0, "interval": [0.0, 6.2832],
                       "mass": {"kind": "constant", "value": 1.0},
                       "frequency": {"kind": "constant", "value": 1.0},
                       "force": {"kind": "constant", "value": 0.0},
                       "a": {"kind": "constant", "value": 0.0},
                       "b": {"kind": "constant", "value": 0.0},
                       "f": {"kind": "constant", "value": 0.0}})
    s = load_scenario(text)
    assert s.mass == Constant(1.0)
    assert s.hbar == 1.0
    assert (s.t0, s.t1) == (0.0, 6.2832)
    again = load_scenario(serialize_scenario(s))
    assert again == s


def test_omitted_blocks_default():
    s = load_scenario('{"interval": [0.0, 1.0]}')
    assert s.mass == Constant(1.0)
    assert s.frequency == Constant(1.0)
    assert s.force == Constant(0.0)
    assert s.a == Constant(0.0)
    assert s.b == Constant(0.0)
    assert s.f == Constant(0.0)
    assert s.hbar == 1.0
    assert s.dimension == 1


def test_negative_mass_rejected():
    with pytest.raises(ValidationError):
        load_scenario('{"mass": {"kind": "constant", "value": -1.0}}')


def test_bad_interval_rejected():
    with pytest.raises(ValidationError):
        load_scenario('{"interval": [1.0, 1.0]}')


STEP = {"kind": "piecewise", "breakpoints": [0.5], "values": [0.0, 0.2]}
COS_A = {"kind": "sinusoidal", "amplitude": 0.1, "omega": 1.0}
MASS_STEP = {"kind": "piecewise", "breakpoints": [0.5], "values": [1.0, 2.0]}


@pytest.mark.parametrize("spec, name", [
    ({"a": STEP}, "'a'"),
    ({"b": STEP}, "'b'"),
    ({"mass": MASS_STEP, "a": COS_A}, "'mass'"),
])
def test_coefficient_jump_with_delta_rejected(spec, name):
    # each jump puts a delta into a Hamiltonian coefficient that the
    # evolver and the basis solve drop, so the scenario cannot be checked
    with pytest.raises(ValidationError, match=name):
        scenario_from_dict({**spec, "interval": [0.0, 4.0]})


@pytest.mark.parametrize("spec", [
    {"mass": MASS_STEP},  # a = 0: (dM/dt / M) a has no delta
    {"a": {**STEP, "breakpoints": [5.0]}},  # the jump lies outside the interval
    {"b": {**STEP, "values": [0.3, 0.3]}},  # no jump
])
def test_coefficient_steps_without_delta_accepted(spec):
    scenario_from_dict({**spec, "interval": [0.0, 4.0]})


def test_parse_errors():
    with pytest.raises(ParseError):
        load_scenario("{not json")
    with pytest.raises(ParseError):
        load_scenario('{"mass": {"kind": "mystery"}}')
    with pytest.raises(ParseError):
        load_scenario('{"mass": {"value": 1.0}}')
    with pytest.raises(ParseError):
        load_scenario('{"unknown_key": 1}')


def test_parametric_roundtrip_keeps_coefficients():
    s = scenario_from_dict({
        "mass": 1.0,
        "frequency": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 2.0,
                      "offset": 1.0},
        "interval": [0.0, 3.0]})
    data = scenario_to_dict(s)
    assert data["frequency"]["amplitude"] == 0.1
    assert scenario_from_dict(data) == s


def test_hamiltonian_coeffs_sho(sho):
    hc = hamiltonian_coefficients(sho, 1.234)
    assert hc.c == 1.0
    assert hc.d == 0.0


def test_hamiltonian_coeffs_constant_a():
    s = scenario_from_dict({"a": 0.5, "interval": [0.0, 1.0]})
    hc = hamiltonian_coefficients(s, 0.3)
    # c = w^2 + 4 a^2 - 2 da/dt - 2 (dM/M) a = 1 + 1 - 0 - 0
    assert hc.c == pytest.approx(2.0, rel=1e-14)
    assert hc.d == pytest.approx(0.0, abs=1e-14)


def test_hamiltonian_coeffs_linear_b():
    s = scenario_from_dict({"b": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
                            "interval": [0.0, 1.0]})
    hc = hamiltonian_coefficients(s, 0.6)
    assert hc.d == pytest.approx(-1.0, rel=1e-14)


def test_hamiltonian_coeffs_match_finite_differences():
    # independent check of the derivative terms: symbolic db/dt, da/dt, dM/dt
    # replaced by central differences of the coefficient values
    s = scenario_from_dict({
        "mass": {"kind": "exponential", "amplitude": 1.0, "rate": 0.2},
        "a": {"kind": "sinusoidal", "amplitude": 0.3, "omega": 1.5, "offset": 0.1},
        "b": {"kind": "polynomial", "coefficients": [0.5, -1.0, 0.25]},
        "force": 0.7,
        "interval": [0.0, 4.0]})
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.1, 3.9, 25):
        h = 1e-6
        a_p, _ = s.a.eval(t + h)
        a_m, _ = s.a.eval(t - h)
        b_p, _ = s.b.eval(t + h)
        b_m, _ = s.b.eval(t - h)
        m_p, _ = s.mass.eval(t + h)
        m_m, _ = s.mass.eval(t - h)
        a_v, _ = s.a.eval(t)
        b_v, _ = s.b.eval(t)
        m_v, _ = s.mass.eval(t)
        w_v, _ = s.frequency.eval(t)
        f_v, _ = s.force.eval(t)
        c_ref = (w_v ** 2 + 4 * a_v ** 2 - 2 * (a_p - a_m) / (2 * h)
                 - 2 * ((m_p - m_m) / (2 * h) / m_v) * a_v)
        d_ref = 2 * a_v * b_v - (b_p - b_m) / (2 * h) - f_v
        hc = hamiltonian_coefficients(s, t)
        assert hc.c == pytest.approx(c_ref, rel=1e-8)
        assert hc.d == pytest.approx(d_ref, rel=1e-8, abs=1e-8)


def test_hamiltonian_coeffs_reduce_without_couplings(parametric):
    ts = np.linspace(0.0, 12.0, 50)
    for t in ts:
        w, _ = parametric.frequency.eval(t)
        hc = hamiltonian_coefficients(parametric, t)
        assert hc.c == w * w
        assert hc.d == 0.0


def test_dimension_and_hbar_validation():
    with pytest.raises(ValidationError):
        scenario_from_dict({"dimension": 0, "interval": [0.0, 1.0]})
    with pytest.raises(ValidationError):
        scenario_from_dict({"hbar": -1.0, "interval": [0.0, 1.0]})


def test_hamiltonian_coeffs_driven(driven):
    # a = b = 0 reduces the linear coefficient to d = -F exactly
    for t in (0.0, 1.3, 5.0):
        hc = hamiltonian_coefficients(driven, t)
        assert hc.c == 1.0
        assert hc.d == -1.0


@pytest.mark.parametrize("spec, name", [
    ({"frequency": {"kind": "polynomial", "coefficients": [1.0, 0.0, 1e200]}}, "M w"),
    ({"force": {"kind": "exponential", "amplitude": 1.0, "rate": 1000.0}}, "'force'"),
    ({"mass": {"kind": "polynomial", "coefficients": [1.0, 1e308, 1e308]}}, "'mass'"),
])
def test_non_finite_coefficient_rejected(spec, name):
    # an overflowing coefficient would leave the classical solve crawling
    with pytest.raises(ValidationError, match=name):
        scenario_from_dict({**spec, "interval": [0.0, 4.0]})

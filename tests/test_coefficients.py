import dataclasses
import json
import re
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gho import (CoefficientFn, Constant, Exponential, ParseError, PiecewiseConstant,
                 Polynomial, Sinusoidal, ValidationError, eval_coefficient,
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
    # omega = 0 and rate = 0 take the closed forms' constant branches
    (Sinusoidal(2.0, 0.0, 0.5, 1.0), 0.0, 3.0, 3.0 * (2.0 * np.cos(0.5) + 1.0)),
    (Exponential(1.5, 0.0), 0.0, 2.0, 3.0),
])
def test_integrate_coefficient(fn, lo, hi, expected):
    assert integrate_coefficient(fn, lo, hi) == pytest.approx(expected, rel=1e-12)
    assert integrate_coefficient(fn, hi, lo) == pytest.approx(-expected, rel=1e-12)
    # ints and np.float64 are scalars too, integrated on Python floats
    assert type(integrate_coefficient(fn, np.float64(lo), 3)) is float
    # arrays of limits, element by element, the same values as scalar calls
    both = integrate_coefficient(fn, np.array([lo, hi, lo]), np.array([hi, lo, lo]))
    assert both.shape == (3,)
    assert both == pytest.approx([integrate_coefficient(fn, lo, hi),
                                  integrate_coefficient(fn, hi, lo), 0.0], rel=1e-15)


@pytest.mark.parametrize("fn", [
    Constant(2),
    Polynomial((1.5,)),
    Polynomial((1.0, -2.0, 0.5)),
    Sinusoidal(amplitude=0.7, omega=3.0, phase=0.4, offset=1.2),
    PiecewiseConstant((1.0,), (1.0, 3.0)),
    Exponential(1.5, 0.3),
])
def test_eval_shapes_and_dtypes(fn):
    for t in (0.7, np.float64(0.7), np.array(0.7), np.linspace(0.0, 2.0, 5),
              np.zeros((2, 3))):
        value, deriv = fn.eval(t)
        assert np.shape(value) == np.shape(deriv) == np.shape(t)
        assert np.asarray(value).dtype == np.asarray(deriv).dtype == np.float64


@pytest.mark.parametrize("fn", [
    Constant(2),
    Polynomial((1.5,)),
    Polynomial((1.0, -2.0, 0.5)),
    Sinusoidal(amplitude=0.7, omega=3.0, phase=0.4, offset=1.2),
    PiecewiseConstant((0.8, 1.5), (1.0, 3.0, -2.0)),
    Exponential(1.5, 0.3),
])
def test_eval_at_a_scalar_time_returns_floats(fn):
    # ints and floats, np.float64 included, take the Python-float path; a 0-d
    # array takes numpy's and gives the same numbers
    for t in (0.7, 1, np.float64(0.7), 0.8, 2):
        value, deriv = fn.eval(t)
        assert type(value) is float and type(deriv) is float
        on_array = fn.eval(np.array(float(t)))
        assert (value, deriv) == pytest.approx(tuple(map(float, on_array)), rel=1e-15)


# a drawn parameter is 0 (omega = 0 and rate = 0 take their own branches) or
# in [-3, 3]; a limit in [-5, 5]
_parameter = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
_limit = st.floats(-5.0, 5.0)


@st.composite
def _coefficients(draw):
    """Any kind, each field drawn from dataclasses.fields: a float field as
    one parameter, a tuple field as 1-4 distinct ones; breakpoints ascend and
    values take one more than them."""
    cls = draw(st.sampled_from(get_args(CoefficientFn)))
    size = draw(st.integers(1, 4))
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.type != "tuple":
            kwargs[field.name] = draw(_parameter)
            continue
        n = size + (field.name == "values")
        drawn = draw(st.lists(_parameter, min_size=n, max_size=n, unique=True))
        kwargs[field.name] = tuple(sorted(drawn) if field.name == "breakpoints" else drawn)
    return cls(**kwargs)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(fn=_coefficients(), limits=st.lists(st.tuples(_limit, _limit), min_size=1, max_size=6))
def test_every_kind_integral_is_antisymmetric_to_the_bit(fn, limits):
    # kernel_coefficients reads K(b, a) = conj K(a, b) to the bit off this
    lo, hi = np.array(limits).T
    forward = integrate_coefficient(fn, lo, hi)
    assert np.array_equal(integrate_coefficient(fn, hi, lo), -forward)
    assert np.all(integrate_coefficient(fn, lo, lo) == 0.0)
    for a, b in limits:
        assert integrate_coefficient(fn, b, a) == -integrate_coefficient(fn, a, b)
        assert integrate_coefficient(fn, a, a) == 0.0


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
    assert json.loads(serialize_scenario(s))["dimension"] == 1


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
    with pytest.raises(ParseError, match=re.escape(
            "coefficient 'mass' (exponential): missing parameter 'rate'")):
        load_scenario('{"mass": {"kind": "exponential", "amplitude": 1.0}}')
    with pytest.raises(ParseError, match=re.escape(
            "coefficient 'a': unexpected parameters ['rate']")):
        load_scenario('{"a": {"kind": "constant", "value": 0.1, "rate": 2.0}}')


# every kind, and sinusoidal with its optional phase and offset omitted and given
EVERY_KIND = [
    {"kind": "constant", "value": 0.3},
    {"kind": "polynomial", "coefficients": [0.3, -0.1, 0.02]},
    {"kind": "sinusoidal", "amplitude": 0.1, "omega": 2.0},
    {"kind": "sinusoidal", "amplitude": 0.1, "omega": 2.0, "phase": 0.4, "offset": 0.2},
    {"kind": "piecewise", "breakpoints": [1.0, 2.0], "values": [0.1, 0.3, 0.2]},
    {"kind": "exponential", "amplitude": 0.2, "rate": -0.1},
]


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda spec: spec["kind"])
def test_every_kind_round_trips(spec):
    s = scenario_from_dict({"force": spec, "interval": [0.0, 3.0]})
    data = scenario_to_dict(s)
    # the block writes every parameter, an omitted optional one at its default
    defaults = {"phase": 0.0, "offset": 0.0} if spec["kind"] == "sinusoidal" else {}
    assert data["force"] == {**defaults, **spec}
    assert scenario_from_dict(data) == s
    assert load_scenario(serialize_scenario(s)) == s


# a scenario that draws on all five kinds (b and f are constants)
ALL_KINDS = {"hbar": 0.8, "interval": [0, 6],
             "mass": {"kind": "exponential", "amplitude": 1.0, "rate": 0.05},
             "frequency": {"kind": "polynomial", "coefficients": [1.0, 0.02]},
             "force": {"kind": "piecewise", "breakpoints": [3.0], "values": [0.0, 0.3]},
             "a": {"kind": "sinusoidal", "amplitude": 0.05, "omega": 1.0},
             "b": 0.1, "f": 0.2}


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
    assert hc.v2 == 0.5  # M c / 2 with c = w^2 = 1
    assert hc.v1 == 0.0


def test_hamiltonian_coeffs_constant_a():
    s = scenario_from_dict({"a": 0.5, "interval": [0.0, 1.0]})
    hc = hamiltonian_coefficients(s, 0.3)
    # v2 = M c / 2, c = w^2 + 4 a^2 - 2 da/dt - 2 (dM/M) a = 1 + 1 - 0 - 0
    assert hc.v2 == pytest.approx(1.0, rel=1e-14)
    assert hc.v1 == pytest.approx(0.0, abs=1e-14)


def test_hamiltonian_coeffs_linear_b():
    s = scenario_from_dict({"b": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
                            "interval": [0.0, 1.0]})
    hc = hamiltonian_coefficients(s, 0.6)
    assert hc.v1 == pytest.approx(-1.0, rel=1e-14)


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
        assert hc.v2 == pytest.approx(0.5 * m_v * c_ref, rel=1e-8)
        assert hc.v1 == pytest.approx(d_ref, rel=1e-8, abs=1e-8)


def test_hamiltonian_coeffs_reduce_without_couplings(parametric):
    ts = np.linspace(0.0, 12.0, 50)
    for t in ts:
        w, _ = parametric.frequency.eval(t)
        hc = hamiltonian_coefficients(parametric, t)
        assert hc.v2 == 0.5 * (w * w)  # M = 1
        assert hc.v1 == 0.0


def test_dimension_and_hbar_validation():
    with pytest.raises(ValidationError):
        scenario_from_dict({"dimension": 0, "interval": [0.0, 1.0]})
    with pytest.raises(ValidationError):
        scenario_from_dict({"hbar": -1.0, "interval": [0.0, 1.0]})


@pytest.mark.parametrize("dimension, error, message", [
    (1, None, None),
    (1.0, None, None),
    (0, ValidationError, "gho is one-dimensional: 'dimension' must be 1, not 0"),
    (2, ValidationError, "gho is one-dimensional: 'dimension' must be 1, not 2"),
    (1.5, ValidationError, "gho is one-dimensional: 'dimension' must be 1, not 1.5"),
    (2.9, ValidationError, "gho is one-dimensional: 'dimension' must be 1, not 2.9"),
    ("1", ParseError, "'dimension' must be a number, not '1'"),
    (True, ParseError, "'dimension' must be a number, not True"),
], ids=["1", "1.0", "0", "2", "1.5", "2.9", "string", "true"])
def test_only_dimension_one_loads(dimension, error, message):
    text = json.dumps({"dimension": dimension, "interval": [0.0, 6.0]})
    if error is None:
        assert json.loads(serialize_scenario(load_scenario(text)))["dimension"] == 1
    else:
        with pytest.raises(error) as caught:
            load_scenario(text)
        assert str(caught.value) == message


@pytest.mark.parametrize("spec", [
    {"hbar": "2"},
    {"hbar": True},
    {"interval": ["0", "1"]},
    {"interval": [True, 2]},
    {"mass": True},
    {"mass": {"kind": "constant", "value": "2"}},
    {"mass": {"kind": "constant", "value": [2.0]}},
    {"frequency": {"kind": "sinusoidal", "amplitude": 0.1, "omega": False}},
    {"frequency": {"kind": "polynomial", "coefficients": ["1"]}},
    {"frequency": {"kind": "polynomial", "coefficients": 1.0}},
    {"force": {"kind": "piecewise", "breakpoints": [1.0], "values": [0.0, None]}},
    {"hbar": 10 ** 400},
])
def test_scalar_fields_take_only_json_numbers(spec):
    with pytest.raises(ParseError, match="must be a (list of )?number|overflows a float"):
        scenario_from_dict({"interval": [0.0, 2.0], **spec})


def test_hamiltonian_coeffs_driven(driven):
    # a = b = 0 reduces the linear coefficient to v1 = -F exactly
    for t in (0.0, 1.3, 5.0):
        hc = hamiltonian_coefficients(driven, t)
        assert hc.v2 == 0.5
        assert hc.v1 == -1.0


@pytest.mark.parametrize("spec, name", [
    ({"frequency": {"kind": "polynomial", "coefficients": [1.0, 0.0, 1e200]}}, "M w"),
    ({"force": {"kind": "exponential", "amplitude": 1.0, "rate": 1000.0}}, "'force'"),
    ({"mass": {"kind": "polynomial", "coefficients": [1.0, 1e308, 1e308]}}, "'mass'"),
    # every coefficient is finite, but 4 a^2 in the x^2 coefficient of H is not
    ({"a": 1e154}, "'Hamiltonian v2'"),
    # b^2 in v0 = b^2 / 2M - f is not
    ({"b": 1e155}, "'Hamiltonian v0'"),
    # M w^2 = 1e300 is finite, v2 = M (w^2 + 4 a^2) / 2 = 2e308 is not
    ({"mass": 1e300, "a": 1e4}, "'Hamiltonian v2'"),
])
def test_non_finite_coefficient_rejected(spec, name):
    # an overflowing coefficient would leave the classical solve crawling
    with pytest.raises(ValidationError, match=name):
        scenario_from_dict({**spec, "interval": [0.0, 4.0]})


# scenario texts that once loaded, with the error each now raises at load;
# JSON 1e400 reads as inf, and Python's json reads NaN
NON_FINITE_OR_EMPTY = [
    ('{"interval": [0, 1e400]}', "t1 must be finite, not inf"),
    ('{"interval": [-1e400, 1]}', "t0 must be finite, not -inf"),
    ('{"hbar": 1e400}', "hbar must be finite, not inf"),
    ('{"hbar": NaN}', "hbar must be finite, not nan"),
    ('{"frequency": {"kind": "polynomial", "coefficients": []}}',
     "polynomial needs at least one coefficient"),
    ('{"frequency": {"kind": "piecewise", "breakpoints": [0.5, NaN], "values": [1, 2, 3]}}',
     "piecewise-constant breakpoints must be finite and strictly increasing"),
    ('{"frequency": {"kind": "piecewise", "breakpoints": [NaN], "values": [1, 2]}}',
     "piecewise-constant breakpoints must be finite and strictly increasing"),
    ('{"force": {"kind": "piecewise", "breakpoints": [1e400], "values": [0, 1]}}',
     "piecewise-constant breakpoints must be finite and strictly increasing"),
    ('{"b": 1e155, "interval": [0, 2]}', "'Hamiltonian v0' is not finite on [0.0, 2.0]"),
    ('{"mass": 1e300, "a": 1e4, "interval": [0, 2]}',
     "'Hamiltonian v2' is not finite on [0.0, 2.0]"),
    ('{"hbar": 1e300}', "'kinetic hbar^2 / (2M)' is not finite on [0.0, 1.0]"),
]


@pytest.mark.parametrize("text, message", NON_FINITE_OR_EMPTY)
def test_non_finite_or_empty_fields_rejected_at_load(text, message):
    with pytest.raises(ValidationError) as caught:
        load_scenario(text)
    assert str(caught.value) == message

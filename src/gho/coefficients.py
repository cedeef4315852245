"""Time-dependent coefficient functions and the scenario that bundles them.

A scenario is the full description of one generalized (driven, time-dependent)
quadratic oscillator: mass M(t), frequency w(t), force F(t), the
total-derivative couplings a(t), b(t) and the pure time term f(t), together
with hbar and the working time interval, in one spatial dimension.

Coefficients are restricted to a closed set of analytic kinds so that exact
first derivatives are always available (they enter the accumulated-phase
integrals and the Hamiltonian's coefficients, which `hamiltonian_coefficients`
alone defines: the load check, the evolver and the residual all read it).

A kind is one frozen dataclass and nothing else: its JSON name as the class
variable `kind`, its parameters as its fields (a field with a default may be
omitted from JSON, a `tuple` field is a JSON list of numbers), `eval(t)` and
`integral(lo, hi)`. The parser, the serializer and `integrate_coefficient`
read all of it from the class, so a new kind is one more class in the
`CoefficientFn` union.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Union, get_args

import numpy as np

from .errors import ParseError, ValidationError

__all__ = [
    "Constant",
    "Polynomial",
    "Sinusoidal",
    "PiecewiseConstant",
    "Exponential",
    "CoefficientFn",
    "HamiltonianCoeffs",
    "Scenario",
    "eval_coefficient",
    "integrate_coefficient",
    "hamiltonian_coefficients",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "serialize_scenario",
]


# Each coefficient kind's eval returns (value, first derivative): Python floats
# at a scalar time (an int or a float, np.float64 included), float arrays of
# t's shape at an array (also 0-d) of times. Constant, Sinusoidal and
# Exponential compute a scalar time's values with Python floats and `math`;
# Polynomial and PiecewiseConstant compute every time in numpy and return a
# scalar time's values as floats through _floats_at. Each kind's
# integral(lo, hi) takes two Python floats or two float arrays of one shape,
# and is antisymmetric in the limits to the bit, so a reversed interval needs
# no branch.


def _floats_at(t, value, deriv):
    """(value, deriv) as Python floats at a scalar time t, as given at an array."""
    if isinstance(t, (int, float)):
        return float(value), float(deriv)
    return value, deriv


@dataclass(frozen=True)
class Constant:
    kind: ClassVar[str] = "constant"
    value: float

    def eval(self, t):
        if isinstance(t, (int, float)):
            return float(self.value), 0.0
        shape = np.shape(t)
        return np.full(shape, self.value, dtype=float), np.zeros(shape)

    def integral(self, lo, hi):
        return self.value * (hi - lo)


@dataclass(frozen=True)
class Polynomial:
    """c0 + c1 t + c2 t^2 + ...  (ascending coefficients)."""

    kind: ClassVar[str] = "polynomial"
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValidationError("polynomial needs at least one coefficient")

    def eval(self, t):
        poly, x = np.polynomial.polynomial, np.asarray(t, dtype=float)
        c = np.asarray(self.coefficients, dtype=float)
        return _floats_at(t, poly.polyval(x, c), poly.polyval(x, poly.polyder(c)))

    def integral(self, lo, hi):
        poly = np.polynomial.polynomial
        anti = poly.polyint(np.asarray(self.coefficients, dtype=float))
        return poly.polyval(hi, anti) - poly.polyval(lo, anti)


@dataclass(frozen=True)
class Sinusoidal:
    """amplitude * cos(omega t + phase) + offset."""

    kind: ClassVar[str] = "sinusoidal"
    amplitude: float
    omega: float
    phase: float = 0.0
    offset: float = 0.0

    def eval(self, t):
        if isinstance(t, (int, float)):
            cos, sin, t = math.cos, math.sin, float(t)
        else:
            cos, sin, t = np.cos, np.sin, np.asarray(t, dtype=float)
        arg = self.omega * t + self.phase
        return (self.amplitude * cos(arg) + self.offset,
                -self.amplitude * self.omega * sin(arg))

    def integral(self, lo, hi):
        if self.omega == 0.0:
            return (self.amplitude * math.cos(self.phase) + self.offset) * (hi - lo)
        sin = math.sin if isinstance(lo, float) else np.sin
        return ((sin(self.omega * hi + self.phase) - sin(self.omega * lo + self.phase))
                * self.amplitude / self.omega + self.offset * (hi - lo))


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step function: values[i] on [breakpoints[i-1], breakpoints[i]).

    Evaluation exactly at a breakpoint takes the right-limit value, so an ODE
    integration restarted on a breakpoint sees the new plateau. The derivative
    is 0 away from breakpoints and reported as 0 on them as well, so a
    `Scenario` rejects jumps in a and b, and jumps in M where a != 0.
    """

    kind: ClassVar[str] = "piecewise"
    breakpoints: tuple
    values: tuple  # len(values) == len(breakpoints) + 1

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValidationError("piecewise-constant needs len(values) == len(breakpoints) + 1")
        edges = np.asarray(self.breakpoints, dtype=float)
        if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
            raise ValidationError(
                "piecewise-constant breakpoints must be finite and strictly increasing")

    def eval(self, t):
        idx = np.searchsorted(np.asarray(self.breakpoints, dtype=float), t, side="right")
        return _floats_at(t, np.asarray(self.values, dtype=float)[idx], np.zeros(np.shape(t)))

    def integral(self, lo, hi):
        # plateau i covers [edges[i], edges[i + 1]); value times signed overlap
        edges = np.array([-math.inf, *self.breakpoints, math.inf])
        overlap = (np.clip(np.expand_dims(hi, -1), edges[:-1], edges[1:])
                   - np.clip(np.expand_dims(lo, -1), edges[:-1], edges[1:]))
        return overlap @ np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class Exponential:
    """amplitude * exp(rate * t)."""

    kind: ClassVar[str] = "exponential"
    amplitude: float
    rate: float

    def eval(self, t):
        if isinstance(t, (int, float)):
            exp, t = math.exp, float(t)
        else:
            exp, t = np.exp, np.asarray(t, dtype=float)
        value = self.amplitude * exp(self.rate * t)
        return value, self.rate * value

    def integral(self, lo, hi):
        if self.rate == 0.0:
            return self.amplitude * (hi - lo)
        exp = math.exp if isinstance(lo, float) else np.exp
        return self.amplitude * (exp(self.rate * hi) - exp(self.rate * lo)) / self.rate


CoefficientFn = Union[Constant, Polynomial, Sinusoidal, PiecewiseConstant, Exponential]
_KINDS = {cls.kind: cls for cls in get_args(CoefficientFn)}


def eval_coefficient(fn: CoefficientFn, t):
    """Return (value, first derivative) of a coefficient at time(s) t.

    Both are exact analytic expressions of the declared kind; t may be a
    scalar or an array.
    """
    value, deriv = fn.eval(t)
    if np.ndim(np.asarray(t)) == 0:
        return float(value), float(deriv)
    return value, deriv


def integrate_coefficient(fn: CoefficientFn, t_lo, t_hi):
    """Exact integral of a coefficient over [t_lo, t_hi] (signed).

    The limits may be scalars or arrays of one shape; the result is a float or
    an array of that shape. Each kind's `integral` holds its closed form.
    """
    scalar = isinstance(t_lo, (int, float)) and isinstance(t_hi, (int, float))
    if scalar:
        total = fn.integral(float(t_lo), float(t_hi))
    else:
        total = fn.integral(np.asarray(t_lo, dtype=float), np.asarray(t_hi, dtype=float))
    return float(total) if scalar or np.ndim(total) == 0 else total


def _number(value, what) -> float:
    """A JSON number (an int or a float, not a bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{what} overflows a float") from None


def _coefficient_from_dict(name, spec) -> CoefficientFn:
    if not isinstance(spec, dict):
        return Constant(_number(spec, f"coefficient '{name}', if not a kind block,"))
    try:
        kind = spec["kind"]
    except KeyError:
        raise ParseError(f"coefficient '{name}': missing 'kind'") from None
    if kind not in _KINDS:
        raise ParseError(f"coefficient '{name}': unknown kind '{kind}'")
    cls = _KINDS[kind]
    fields = dataclasses.fields(cls)
    kwargs = {}
    for field in fields:
        if field.name in spec:
            raw, what = spec[field.name], f"coefficient '{name}' ({kind}) '{field.name}'"
            if field.type != "tuple":  # a string, under `from __future__ import annotations`
                kwargs[field.name] = _number(raw, what)
            elif isinstance(raw, (list, tuple)):
                kwargs[field.name] = tuple(_number(x, f"each of {what}") for x in raw)
            else:
                raise ParseError(f"{what} must be a list of numbers")
        elif field.default is dataclasses.MISSING:
            raise ParseError(
                f"coefficient '{name}' ({kind}): missing parameter '{field.name}'")
    extra = set(spec) - {"kind", *(field.name for field in fields)}
    if extra:
        raise ParseError(f"coefficient '{name}': unexpected parameters {sorted(extra)}")
    try:
        return cls(**kwargs)
    except ValidationError:
        raise
    except Exception as exc:  # tuple length mismatch etc.
        raise ParseError(f"coefficient '{name}': {exc}") from exc


class HamiltonianCoeffs(NamedTuple):
    """H's coefficients at a time (floats) or times (arrays); see hamiltonian_coefficients."""

    mass: float
    a: float
    b: float
    v2: float
    v1: float
    v0: float


def _jumps(fn: CoefficientFn, t0: float, t1: float) -> list:
    """Breakpoints inside (t0, t1) where a piecewise-constant fn changes value."""
    if not isinstance(fn, PiecewiseConstant):
        return []
    return [t for t, lo, hi in zip(fn.breakpoints, fn.values[:-1], fn.values[1:])
            if t0 < t < t1 and lo != hi]


_COEFF_DEFAULTS = {
    "mass": 1.0, "frequency": 1.0, "force": 0.0, "a": 0.0, "b": 0.0, "f": 0.0,
}


@dataclass(frozen=True)
class Scenario:
    """One generalized-oscillator configuration over a working interval."""

    mass: CoefficientFn
    frequency: CoefficientFn
    force: CoefficientFn
    a: CoefficientFn
    b: CoefficientFn
    f: CoefficientFn
    t0: float = 0.0
    t1: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("t0", "t1", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, not {getattr(self, name)}")
        if not self.hbar > 0:
            raise ValidationError("hbar must be positive")
        if not self.t0 < self.t1:
            raise ValidationError(f"need t0 < t1, got [{self.t0}, {self.t1}]")
        samples = np.linspace(self.t0, self.t1, 257)
        self._reject_non_finite(samples)
        self.check_mass_positive(samples)
        self._reject_derivative_deltas()

    def _reject_non_finite(self, times):
        """A coefficient, or M w^2, that overflows on the interval leaves the
        classical solve nothing finite to integrate; a Hamiltonian coefficient
        v2, v1 or v0, or the kinetic hbar^2 / (2M), that overflows leaves the
        evolver nothing finite to step. hbar * hbar, not hbar ** 2, which
        raises OverflowError on a float past about 1.34e154."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = {name: getattr(self, name).eval(times)[0] for name in _COEFF_DEFAULTS}
            values["M w^2"] = values["mass"] * values["frequency"] ** 2
            if np.all(values["mass"] > 0):  # else check_mass_positive says why
                *_, v2, v1, v0 = hamiltonian_coefficients(self, times)
                values.update({"Hamiltonian v2": v2, "Hamiltonian v1": v1, "Hamiltonian v0": v0,
                               "kinetic hbar^2 / (2M)": self.hbar * self.hbar
                               / (2.0 * values["mass"])})
        for name, value in values.items():
            if not np.all(np.isfinite(value)):
                raise ValidationError(
                    f"'{name}' is not finite on [{self.t0}, {self.t1}]")

    def _reject_derivative_deltas(self):
        """A jump in a or b puts a delta into da/dt or db/dt, a jump in M puts
        one into (dM/dt / M) a wherever a != 0; H(t) and the evolver see
        coefficients only between breakpoints and would drop the kick."""
        for name in ("a", "b"):
            jumps = _jumps(getattr(self, name), self.t0, self.t1)
            if jumps:
                raise ValidationError(
                    f"piecewise '{name}' jumps at t = {jumps[0]:g}: d{name}/dt holds a "
                    f"delta there that the Hamiltonian coefficients and the evolver drop")
        for t in _jumps(self.mass, self.t0, self.t1):
            a_t = float(self.a.eval(t)[0])
            if a_t != 0.0:
                raise ValidationError(
                    f"piecewise 'mass' jumps at t = {t:g} where a = {a_t:g}: "
                    f"(dM/dt / M) a holds a delta there that the Hamiltonian "
                    f"coefficients and the evolver drop")

    def check_mass_positive(self, times):
        m, _ = self.mass.eval(times)
        if not np.all(m > 0):
            bad = np.asarray(times)[np.asarray(m) <= 0]
            raise ValidationError(f"mass must stay positive on the interval; "
                                  f"M({float(bad.flat[0]):g}) <= 0")


def hamiltonian_coefficients(s: Scenario, t) -> HamiltonianCoeffs:
    """The one definition of the Hamiltonian, at time(s) t:
    H = p^2 / (2M) - a (xp + px) - (b / M) p + v2 x^2 + v1 x + v0, with
    v2 = M (w^2 + 4a^2 - 2 da/dt - 2 (dM/dt / M) a) / 2, v1 = 2ab - db/dt - F
    and v0 = b^2 / (2M) - f. Each of the scenario's six coefficients (M, w, F,
    a, b, f) is evaluated once, for all of t's times."""
    m, m_dot = s.mass.eval(t)
    w, _ = s.frequency.eval(t)
    force, _ = s.force.eval(t)
    a, a_dot = s.a.eval(t)
    b, b_dot = s.b.eval(t)
    f, _ = s.f.eval(t)
    v2 = 0.5 * m * (w * w + 4.0 * a * a - 2.0 * a_dot - 2.0 * (m_dot / m) * a)
    v1 = 2.0 * a * b - b_dot - force
    v0 = b * b / (2.0 * m) - f
    if np.ndim(np.asarray(t)) == 0:
        return HamiltonianCoeffs(*map(float, (m, a, b, v2, v1, v0)))
    return HamiltonianCoeffs(m, a, b, v2, v1, v0)


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("scenario must be a mapping")
    known = {"dimension", "hbar", "interval", *(_COEFF_DEFAULTS)}
    extra = set(data) - known
    if extra:
        raise ParseError(f"unknown scenario keys {sorted(extra)}")
    dimension = _number(data.get("dimension", 1), "'dimension'")
    if dimension != 1:
        raise ValidationError(f"gho is one-dimensional: 'dimension' must be 1, not {dimension:g}")
    interval = data.get("interval", [0.0, 1.0])
    if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
        raise ParseError("'interval' must be [t0, t1]")
    coeffs = {}
    for name, default in _COEFF_DEFAULTS.items():
        if name in data:
            coeffs[name] = _coefficient_from_dict(name, data[name])
        else:
            coeffs[name] = Constant(default)
    t0, t1 = (_number(t, "each end of 'interval'") for t in interval)
    return Scenario(t0=t0, t1=t1, hbar=_number(data.get("hbar", 1.0), "'hbar'"), **coeffs)


def load_scenario(config_text: str) -> Scenario:
    """Parse a JSON scenario description and validate all invariants."""
    try:
        data = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def scenario_to_dict(s: Scenario) -> dict:
    data = {"dimension": 1, "hbar": s.hbar, "interval": [s.t0, s.t1]}
    for name in _COEFF_DEFAULTS:
        fn = getattr(s, name)
        data[name] = {"kind": fn.kind}
        for field in dataclasses.fields(fn):
            value = getattr(fn, field.name)
            data[name][field.name] = list(value) if field.type == "tuple" else value
    return data


def serialize_scenario(s: Scenario) -> str:
    """Inverse of load_scenario up to formatting; round-trips all fields."""
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True)

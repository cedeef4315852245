"""Time-dependent coefficient functions and the scenario that bundles them.

A scenario is the full description of one generalized (driven, time-dependent)
quadratic oscillator: mass M(t), frequency w(t), force F(t), the
total-derivative couplings a(t), b(t) and the pure time term f(t), together
with hbar, the spatial dimension and the working time interval.

Coefficients are restricted to a closed set of analytic kinds so that exact
first derivatives are always available (they enter the Hamiltonian
coefficients and the accumulated-phase integrals).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

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


@dataclass(frozen=True)
class Constant:
    value: float

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(np.float64(self.value), t.shape).copy(), np.zeros(t.shape)

    def to_dict(self):
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class Polynomial:
    """c0 + c1 t + c2 t^2 + ...  (ascending coefficients)."""

    coefficients: tuple

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        c = np.asarray(self.coefficients, dtype=float)
        value = np.polynomial.polynomial.polyval(t, c)
        deriv = np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyder(c)) \
            if len(c) > 1 else np.zeros(t.shape)
        return value, deriv

    def to_dict(self):
        return {"kind": "polynomial", "coefficients": list(self.coefficients)}


@dataclass(frozen=True)
class Sinusoidal:
    """amplitude * cos(omega t + phase) + offset."""

    amplitude: float
    omega: float
    phase: float = 0.0
    offset: float = 0.0

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        arg = self.omega * t + self.phase
        value = self.amplitude * np.cos(arg) + self.offset
        deriv = -self.amplitude * self.omega * np.sin(arg)
        return value, np.broadcast_to(deriv, t.shape).copy() if np.ndim(deriv) == 0 else deriv

    def to_dict(self):
        return {"kind": "sinusoidal", "amplitude": self.amplitude, "omega": self.omega,
                "phase": self.phase, "offset": self.offset}


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step function: values[i] on [breakpoints[i-1], breakpoints[i]).

    Evaluation exactly at a breakpoint takes the right-limit value, so an ODE
    integration restarted on a breakpoint sees the new plateau. The derivative
    is 0 away from breakpoints and reported as 0 on them as well, so a
    `Scenario` rejects jumps in a and b, and jumps in M where a != 0.
    """

    breakpoints: tuple
    values: tuple  # len(values) == len(breakpoints) + 1

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValidationError("piecewise-constant needs len(values) == len(breakpoints) + 1")
        if len(self.breakpoints) > 1 and np.any(np.diff(self.breakpoints) <= 0):
            raise ValidationError("piecewise-constant breakpoints must be strictly increasing")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(np.asarray(self.breakpoints, dtype=float), t, side="right")
        return np.asarray(self.values, dtype=float)[idx], np.zeros(t.shape)

    def to_dict(self):
        return {"kind": "piecewise", "breakpoints": list(self.breakpoints),
                "values": list(self.values)}


@dataclass(frozen=True)
class Exponential:
    """amplitude * exp(rate * t)."""

    amplitude: float
    rate: float

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        value = self.amplitude * np.exp(self.rate * t)
        return value, self.rate * value

    def to_dict(self):
        return {"kind": "exponential", "amplitude": self.amplitude, "rate": self.rate}


CoefficientFn = Union[Constant, Polynomial, Sinusoidal, PiecewiseConstant, Exponential]


def eval_coefficient(fn: CoefficientFn, t):
    """Return (value, first derivative) of a coefficient at time(s) t.

    Both are exact analytic expressions of the declared kind; t may be a
    scalar or an array.
    """
    value, deriv = fn.eval(t)
    if np.ndim(np.asarray(t)) == 0:
        return float(value), float(deriv)
    return value, deriv


def integrate_coefficient(fn: CoefficientFn, t_lo: float, t_hi: float) -> float:
    """Exact integral of a coefficient over [t_lo, t_hi] (signed)."""
    if t_lo == t_hi:
        return 0.0
    if t_hi < t_lo:
        return -integrate_coefficient(fn, t_hi, t_lo)
    if isinstance(fn, Constant):
        return fn.value * (t_hi - t_lo)
    if isinstance(fn, Polynomial):
        anti = np.polynomial.polynomial.polyint(np.asarray(fn.coefficients, dtype=float))
        poly = np.polynomial.polynomial.polyval
        return float(poly(t_hi, anti) - poly(t_lo, anti))
    if isinstance(fn, Sinusoidal):
        if fn.omega == 0.0:
            return (fn.amplitude * math.cos(fn.phase) + fn.offset) * (t_hi - t_lo)
        osc = (math.sin(fn.omega * t_hi + fn.phase)
               - math.sin(fn.omega * t_lo + fn.phase)) * fn.amplitude / fn.omega
        return osc + fn.offset * (t_hi - t_lo)
    if isinstance(fn, Exponential):
        if fn.rate == 0.0:
            return fn.amplitude * (t_hi - t_lo)
        return fn.amplitude * (math.exp(fn.rate * t_hi) - math.exp(fn.rate * t_lo)) / fn.rate
    if isinstance(fn, PiecewiseConstant):
        edges = np.concatenate([[t_lo], np.clip(np.asarray(fn.breakpoints, float), t_lo, t_hi),
                                [t_hi]])
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi > lo:
                total += fn.eval(0.5 * (lo + hi))[0] * (hi - lo)
        return float(total)
    raise TypeError(f"unknown coefficient kind {type(fn).__name__}")


_KINDS = {
    "constant": (Constant, ("value",)),
    "polynomial": (Polynomial, ("coefficients",)),
    "sinusoidal": (Sinusoidal, ("amplitude", "omega", "phase", "offset")),
    "piecewise": (PiecewiseConstant, ("breakpoints", "values")),
    "exponential": (Exponential, ("amplitude", "rate")),
}

_OPTIONAL_FIELDS = {"phase": 0.0, "offset": 0.0}


def _coefficient_from_dict(name, spec) -> CoefficientFn:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return Constant(float(spec))
    if not isinstance(spec, dict):
        raise ParseError(f"coefficient '{name}': expected a number or a kind block")
    try:
        kind = spec["kind"]
    except KeyError:
        raise ParseError(f"coefficient '{name}': missing 'kind'") from None
    if kind not in _KINDS:
        raise ParseError(f"coefficient '{name}': unknown kind '{kind}'")
    cls, fields = _KINDS[kind]
    kwargs = {}
    for field in fields:
        if field in spec:
            raw = spec[field]
            kwargs[field] = tuple(float(x) for x in raw) if isinstance(raw, (list, tuple)) \
                else float(raw)
        elif field in _OPTIONAL_FIELDS:
            kwargs[field] = _OPTIONAL_FIELDS[field]
        else:
            raise ParseError(f"coefficient '{name}' ({kind}): missing parameter '{field}'")
    extra = set(spec) - {"kind", *fields}
    if extra:
        raise ParseError(f"coefficient '{name}': unexpected parameters {sorted(extra)}")
    try:
        return cls(**kwargs)
    except ValidationError:
        raise
    except Exception as exc:  # tuple length mismatch etc.
        raise ParseError(f"coefficient '{name}': {exc}") from exc


@dataclass(frozen=True)
class HamiltonianCoeffs:
    """c(t) = w^2 + 4a^2 - 2 da/dt - 2 (dM/dt / M) a   and   d(t) = 2ab - db/dt - F."""

    c: float
    d: float


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
    dimension: int = 1

    def __post_init__(self):
        if self.dimension < 1 or int(self.dimension) != self.dimension:
            raise ValidationError("dimension must be a positive integer")
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
        classical solve nothing finite to integrate."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = {name: getattr(self, name).eval(times)[0] for name in _COEFF_DEFAULTS}
            values["M w^2"] = values["mass"] * values["frequency"] ** 2
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

    @property
    def interval(self):
        return (self.t0, self.t1)


def hamiltonian_coefficients(s: Scenario, t) -> HamiltonianCoeffs:
    """Coefficients of the x^2 and x terms of the Hamiltonian at time t.

    c = w^2 + 4a^2 - 2 da/dt - 2 (dM/dt / M) a,  d = 2ab - db/dt - F.
    """
    w, _ = s.frequency.eval(t)
    m, m_dot = s.mass.eval(t)
    a, a_dot = s.a.eval(t)
    b, b_dot = s.b.eval(t)
    force, _ = s.force.eval(t)
    c = w * w + 4.0 * a * a - 2.0 * a_dot - 2.0 * (m_dot / m) * a
    d = 2.0 * a * b - b_dot - force
    if np.ndim(np.asarray(t)) == 0:
        return HamiltonianCoeffs(float(c), float(d))
    return HamiltonianCoeffs(c, d)


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("scenario must be a mapping")
    known = {"dimension", "hbar", "interval", *(_COEFF_DEFAULTS)}
    extra = set(data) - known
    if extra:
        raise ParseError(f"unknown scenario keys {sorted(extra)}")
    interval = data.get("interval", [0.0, 1.0])
    if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
        raise ParseError("'interval' must be [t0, t1]")
    coeffs = {}
    for name, default in _COEFF_DEFAULTS.items():
        if name in data:
            coeffs[name] = _coefficient_from_dict(name, data[name])
        else:
            coeffs[name] = Constant(default)
    try:
        t0, t1 = float(interval[0]), float(interval[1])
        hbar = float(data.get("hbar", 1.0))
        dim = int(data.get("dimension", 1))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad scalar field: {exc}") from exc
    return Scenario(t0=t0, t1=t1, hbar=hbar, dimension=dim, **coeffs)


def load_scenario(config_text: str) -> Scenario:
    """Parse a JSON scenario description and validate all invariants."""
    try:
        data = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "dimension": s.dimension,
        "hbar": s.hbar,
        "interval": [s.t0, s.t1],
        "mass": s.mass.to_dict(),
        "frequency": s.frequency.to_dict(),
        "force": s.force.to_dict(),
        "a": s.a.to_dict(),
        "b": s.b.to_dict(),
        "f": s.f.to_dict(),
    }


def serialize_scenario(s: Scenario) -> str:
    """Inverse of load_scenario up to formatting; round-trips all fields."""
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True)

"""References computed apart from gho, and the checkers that compare against them.

Nothing here imports gho. The closed forms (Mehler and free kernels, Hermite
functions) are written out from their textbook formulas, the classical data
used to place queries away from focal times comes from a separate ODE solve,
and the `verify` report is parsed from the text the CLI prints.
"""

from __future__ import annotations

import math
import re

import numpy as np

# -- classical data for input generation ------------------------------------


def frequency_fn(spec):
    """omega(t) of a scenario JSON block; the benchmark uses two kinds."""
    if isinstance(spec, (int, float)):
        return lambda t: float(spec)
    if spec["kind"] == "constant":
        value = float(spec["value"])
        return lambda t: value
    if spec["kind"] == "sinusoidal":
        amp, om = float(spec["amplitude"]), float(spec["omega"])
        phase, offset = float(spec.get("phase", 0.0)), float(spec.get("offset", 0.0))
        return lambda t: amp * math.cos(om * t + phase) + offset
    raise ValueError(f"benchmark scenarios use constant or sinusoidal frequency, "
                     f"not {spec['kind']}")


class ClassicalTrack:
    """u, v with u(t0)=1, u'(t0)=0, v(t0)=0, v'(t0)=1 for unit mass, plus
    rho = |u - iv| and tau = integral of 1/rho^2.

    Focal times of the kernel from t_a are where tau(t) - tau(t_a) is a
    multiple of pi, so tau places queries a known angle away from them.
    """

    def __init__(self, data: dict):
        from scipy.integrate import solve_ivp  # after the timed set-up, not before

        unit_mass = {"kind": "constant", "value": 1.0}
        if data.get("mass", unit_mass) != unit_mass:
            raise ValueError("benchmark scenarios have unit mass")
        self.t0, self.t1 = (float(v) for v in data["interval"])
        omega = frequency_fn(data.get("frequency", 1.0))

        def rhs(t, y):
            w2 = omega(t) ** 2
            u, du, v, dv, _ = y
            return [du, -w2 * u, dv, -w2 * v, 1.0 / (u * u + v * v)]

        sol = solve_ivp(rhs, (self.t0, self.t1), [1.0, 0.0, 0.0, 1.0, 0.0],
                        method="DOP853", dense_output=True, rtol=1e-11, atol=1e-13)
        if not sol.success:
            raise RuntimeError(sol.message)
        self._dense = sol.sol

    def tau(self, t):
        return self._dense(t)[4]

    def rho(self, t):
        y = self._dense(t)
        return np.hypot(y[0], y[2])

    def crossings(self, t_a, t_b):
        """(focal times crossed, angle in tau to the nearest focal time)."""
        dtau = abs(float(self.tau(t_b) - self.tau(t_a)))
        k = int(dtau // math.pi)
        to_next = (k + 1) * math.pi - dtau
        # dtau = 0 is t_a itself, not a focal time
        return k, to_next if k == 0 else min(dtau - k * math.pi, to_next)

    def focal_time(self, t_a, k):
        """The k-th focal time after t_a, or None if it lies past t1."""
        target = float(self.tau(t_a)) + k * math.pi
        if float(self.tau(self.t1)) < target:
            return None
        lo, hi = t_a, self.t1
        for _ in range(200):  # bisection on the monotone tau, to ~1e-15
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if float(self.tau(mid)) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


# -- closed-form kernels -----------------------------------------------------


def mehler_kernel(t_a, t_b, x_a, x_b, omega, hbar, mass=1.0):
    """Oscillator kernel with the Morse phase exp(-i pi/2) per focal crossing."""
    wt = omega * (t_b - t_a)
    s = math.sin(wt)
    crossings = math.floor(wt / math.pi)
    modulus = math.sqrt(mass * omega / (2.0 * math.pi * hbar * abs(s)))
    action = mass * omega * ((x_a ** 2 + x_b ** 2) * math.cos(wt) - 2.0 * x_a * x_b) / (2.0 * s)
    return modulus * np.exp(1j * (action / hbar - 0.25 * math.pi - 0.5 * math.pi * crossings))


def free_kernel(t_a, t_b, x_a, x_b, hbar, mass=1.0):
    big_t = t_b - t_a
    modulus = math.sqrt(mass / (2.0 * math.pi * hbar * big_t))
    return modulus * np.exp(1j * (mass * (x_b - x_a) ** 2 / (2.0 * hbar * big_t) - 0.25 * math.pi))


def relative_error(value, reference):
    return abs(complex(value) - complex(reference)) / abs(complex(reference))


# -- oscillator eigenstates ---------------------------------------------------

_HERMITE = (
    lambda y: np.ones_like(y),
    lambda y: 2.0 * y,
    lambda y: 4.0 * y * y - 2.0,
    lambda y: 8.0 * y ** 3 - 12.0 * y,
)


def hermite_function(n, x, hbar=1.0):
    """hbar^-1/4 h_n(x / sqrt(hbar)), normalized on the real line, n <= 3."""
    y = np.asarray(x, dtype=float) / math.sqrt(hbar)
    norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    return hbar ** -0.25 * _HERMITE[n](y) * np.exp(-0.5 * y * y) / norm


def sho_mode(n, t, x, t0=0.0):
    """Mode n of the unit oscillator with u = cos, v = sin from t0: the
    Hermite function with phase exp(-i (n + 1/2)(t - t0))."""
    return hermite_function(n, x) * np.exp(-1j * (n + 0.5) * (t - t0))


def l2_error(samples, reference, dx):
    """L2 norm of the difference, trapezoid weights (edges are dark)."""
    diff = np.abs(np.asarray(samples) - np.asarray(reference)) ** 2
    return float(math.sqrt(dx * (diff.sum() - 0.5 * (diff[0] + diff[-1]))))


def l2_norm(samples, dx):
    return l2_error(samples, np.zeros_like(samples), dx)


# -- the verify report ----------------------------------------------------------

VERIFY_CHECKS = (
    "wronskian_constancy", "basis_residual", "xi_consistency", "tau_monotone",
    "kernel_conjugation", "kernel_closed_form", "kernel_composition",
    "schrodinger_residual_kernel", "schrodinger_residual_modes",
    "mode_orthonormality", "unitary_norms", "coherent_tracking",
    "squeezed_variance", "invariant_eigenmode", "invariant_drift_tdse",
    "evolver_vs_kernel", "path_integral", "delta_limit",
)

# (scenario, check) -> status other than PASS that the report may show
VERIFY_EXPECTED = {
    ("parametric", "kernel_closed_form"): "SKIP(not applicable)",
    ("driven_sho", "kernel_closed_form"): "SKIP(not applicable)",
    # known fault: oracle.schrodinger_residual_map divides by max|H psi|,
    # which vanishes for the zero-energy n = 0 mode at x_p = F/(M w^2)
    ("driven_sho", "schrodinger_residual_modes"): "FAIL",
}
KNOWN_FAULT = ("driven_sho", "schrodinger_residual_modes")


_CHECK_LINE = re.compile(r"^CHECK (\S+) value=(\S+) tol=\S+ (PASS|FAIL|SKIP\(.*\))$")


def parse_verify(text):
    """{check: (value, status)} from the CHECK lines of a verify report."""
    checks = {}
    for line in text.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            checks[match[1]] = (float(match[2]), match[3])
    return checks


def judge_verify(scenario, exit_code, text):
    """Judge one `gho verify` call.

    Returns (problems, known_fault, values). A report is accepted when every
    one of the 18 checks is present and reads PASS, apart from the statuses
    in VERIFY_EXPECTED. The known fault is the FAIL named in KNOWN_FAULT (a
    PASS there is the fault mended); any other FAIL, an unexpected SKIP
    (which would make the call faster without doing the check's work) or a
    missing check is a problem.
    """
    checks = parse_verify(text)
    problems = []
    for name in VERIFY_CHECKS:
        if name not in checks:
            problems.append(f"{scenario}: check {name} missing")
            continue
        expected = VERIFY_EXPECTED.get((scenario, name), "PASS")
        status = checks[name][1]
        mended = (scenario, name) == KNOWN_FAULT and status == "PASS"
        if status != expected and not mended:
            problems.append(f"{scenario}: {name} reads {status}, expected {expected}")
    extra = sorted(set(checks) - set(VERIFY_CHECKS))
    if extra:
        problems.append(f"{scenario}: unexpected checks {extra}")
    known = (scenario == KNOWN_FAULT[0] and not problems
             and checks[KNOWN_FAULT[1]][1] == "FAIL")
    expected_code = 1 if known else 0
    if not problems and exit_code != expected_code:
        problems.append(f"{scenario}: exit code {exit_code}, expected {expected_code}")
    values = {name: value for name, (value, status) in checks.items()
              if status in ("PASS", "FAIL")}
    return problems, known, values

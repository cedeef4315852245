"""Classical layer: homogeneous basis, particular solution and derived quantities.

Everything quantum in this package is assembled from two independent solutions
u, v of

    d/dt ( M(t) dx/dt ) + M(t) w(t)^2 x = 0,

a particular solution x_p of the driven equation, and the scalars built from
them: the conserved Wronskian combination Omega = M (u v' - v u'), the
amplitude rho = sqrt(u^2 + v^2), the action-like phase xi with
xi' = (M w^2 x_p^2 - M x_p'^2) / 2, and the rescaled time tau with
tau' = Omega / (M rho^2).

The equations are integrated in (x, M x') form so the analytic derivative of
M is never needed, and xi / tau ride along as extra components so they inherit
the solver's accuracy. Integration constants are fixed as xi(t0) = 0 and
tau(t0) = 0; both only shift global phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp

from .coefficients import PiecewiseConstant, Scenario
from .errors import DegenerateBasis, IntegrationFailure, ZeroRho

__all__ = [
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
    "ClassicalBasis",
    "ParticularSolution",
    "RhoValue",
    "solve_homogeneous_basis",
    "solve_particular",
    "default_basis_ics",
    "wronskian",
    "rho",
    "tau_map",
    "classical_invariant",
    "trajectory_columns",
    "trajectory_table",
]

# Tight enough that the dense-output interpolant stays ~1e-12 accurate; the
# kernel prefactor amplifies basis error near caustics.
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14


def _coefficient_breakpoints(scenario):
    points = set()
    for name in ("mass", "frequency", "force", "a", "b", "f"):
        fn = getattr(scenario, name)
        if isinstance(fn, PiecewiseConstant):
            points.update(t for t in fn.breakpoints if scenario.t0 < t < scenario.t1)
    return sorted(points)


def _solve(scenario, rhs, y0, rtol, atol):
    """Integrate over [t0, t1], restarting at piecewise-coefficient breakpoints.

    Restarting keeps the right-limit plateau semantics exact; the per-segment
    dense outputs are stitched into one OdeSolution.
    """
    edges = [scenario.t0, *_coefficient_breakpoints(scenario), scenario.t1]
    interpolants = []
    ts = [edges[0]]
    nodes = [np.array([edges[0]])]
    y = list(y0)
    for lo, hi in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853",
                        dense_output=True, rtol=rtol, atol=atol)
        if not sol.success:
            raise IntegrationFailure(sol.message)
        interpolants.extend(sol.sol.interpolants)
        ts.extend(sol.sol.ts[1:])
        nodes.append(sol.t[1:])
        y = sol.y[:, -1]
    stitched = OdeSolution(np.asarray(ts), interpolants)
    all_nodes = np.concatenate(nodes)
    scenario.check_mass_positive(all_nodes)
    return stitched, all_nodes


@dataclass(frozen=True)
class RhoValue:
    rho: float
    rho_dot: float


@dataclass(frozen=True)
class ClassicalBasis:
    """Two independent homogeneous solutions with dense output over [t0, t1].

    State components of the underlying solve: (u, M u', v, M v', tau).
    Immutable; evaluation at a time point is pure and thread-safe.
    """

    scenario: Scenario
    omega: float
    rtol: float
    atol: float
    _dense: object = field(repr=False)
    _nodes: object = field(repr=False)

    @property
    def nodes(self):
        return self._nodes

    def _mass(self, t):
        m, _ = self.scenario.mass.eval(t)
        return m

    def u(self, t):
        return self._dense(t)[0]

    def u_dot(self, t):
        return self._dense(t)[1] / self._mass(t)

    def v(self, t):
        return self._dense(t)[2]

    def v_dot(self, t):
        return self._dense(t)[3] / self._mass(t)

    def tau(self, t):
        return self._dense(t)[4]

    def uv(self, t):
        """(u, u', v, v') in one dense-output evaluation."""
        y = self._dense(t)
        m = self._mass(t)
        return y[0], y[1] / m, y[2], y[3] / m

    def wronskian_at(self, t):
        y = self._dense(t)
        return y[0] * y[3] - y[2] * y[1]

    def rho_at(self, t) -> "RhoValue":
        u, u_dot, v, v_dot = self.uv(t)
        r = np.hypot(u, v)
        if np.any(r == 0.0):
            raise ZeroRho(f"u and v vanish together at t={t}")
        rd = (u * u_dot + v * v_dot) / r
        if np.ndim(np.asarray(t)) == 0:
            return RhoValue(float(r), float(rd))
        return RhoValue(r, rd)

    def phase_angle(self, t):
        """Continuously unwrapped angle of u - i v.

        d/dt arg(u - iv) = -Omega / (M rho^2) = -tau', so the unwrapped angle
        is the t0 principal value minus tau(t); no pointwise atan2 jumps.
        """
        y0 = self._dense(self.scenario.t0)
        theta0 = math.atan2(-y0[2], y0[0])
        return theta0 - self.tau(t)


@dataclass(frozen=True)
class ParticularSolution:
    """Driven solution x_p with its accumulated phase integral xi.

    State components: (x_p, M x_p', xi), with xi(t0) = 0.
    """

    scenario: Scenario
    rtol: float
    atol: float
    _dense: object = field(repr=False)
    _nodes: object = field(repr=False)

    def x(self, t):
        return self._dense(t)[0]

    def x_dot(self, t):
        m, _ = self.scenario.mass.eval(t)
        return self._dense(t)[1] / m

    def momentum(self, t):
        """M x_p' without the extra mass evaluation."""
        return self._dense(t)[1]

    def xi(self, t):
        return self._dense(t)[2]


def default_basis_ics(s: Scenario):
    """u(t0)=1, u'(t0)=0, v(t0)=0, v'(t0)=1/M(t0): Omega = 1, SHO gives cos/sin."""
    m0, _ = s.mass.eval(s.t0)
    return (1.0, 0.0), (0.0, 1.0 / m0)


def solve_homogeneous_basis(s: Scenario, ics=None, rtol=DEFAULT_RTOL,
                            atol=DEFAULT_ATOL) -> ClassicalBasis:
    """Integrate two homogeneous solutions (plus tau) over the working interval.

    ics is ((u0, u0_dot), (v0, v0_dot)); defaults to the Omega = 1 convention.
    Raises DegenerateBasis when the initial Wronskian vanishes and
    IntegrationFailure when the solver cannot meet the tolerance.
    """
    if ics is None:
        ics = default_basis_ics(s)
    (u0, u0_dot), (v0, v0_dot) = ics
    m0, _ = s.mass.eval(s.t0)
    pu0 = m0 * u0_dot
    pv0 = m0 * v0_dot
    omega = u0 * pv0 - v0 * pu0
    scale = (abs(u0) + abs(pu0)) * (abs(v0) + abs(pv0))
    if abs(omega) <= 1e-14 * max(scale, 1e-300):
        raise DegenerateBasis("initial conditions are linearly dependent (Wronskian = 0)")

    def rhs(t, y):
        m, _ = s.mass.eval(t)
        w, _ = s.frequency.eval(t)
        u, pu, v, pv, _tau = y
        return [pu / m, -m * w * w * u, pv / m, -m * w * w * v,
                omega / (m * (u * u + v * v))]

    dense, nodes = _solve(s, rhs, [u0, pu0, v0, pv0, 0.0], rtol, atol)
    basis = ClassicalBasis(scenario=s, omega=omega, rtol=rtol, atol=atol,
                           _dense=dense, _nodes=nodes)
    drift = np.abs(basis.wronskian_at(nodes) - omega) / abs(omega)
    if np.max(drift) > max(10.0 * rtol, 1e-12):
        raise IntegrationFailure(
            f"Wronskian drifted by {np.max(drift):.2e} (> 10x solver tolerance)")
    return basis


def solve_particular(s: Scenario, ics=(0.0, 0.0), rtol=DEFAULT_RTOL,
                     atol=DEFAULT_ATOL) -> ParticularSolution:
    """Integrate the driven equation from (x_p(t0), x_p'(t0)) = ics, with xi(t0)=0.

    Any solution of the driven equation is a valid x_p; for F = 0 a nonzero
    choice is still legitimate and produces coherent states downstream.
    """
    x0, xdot0 = ics
    m0, _ = s.mass.eval(s.t0)

    def rhs(t, y):
        m, _ = s.mass.eval(t)
        w, _ = s.frequency.eval(t)
        force, _ = s.force.eval(t)
        x, pi, _xi = y
        x_dot = pi / m
        return [x_dot, force - m * w * w * x,
                0.5 * (m * w * w * x * x - m * x_dot * x_dot)]

    dense, nodes = _solve(s, rhs, [x0, m0 * xdot0, 0.0], rtol, atol)
    return ParticularSolution(scenario=s, rtol=rtol, atol=atol,
                              _dense=dense, _nodes=nodes)


def wronskian(basis: ClassicalBasis, s: Scenario, t) -> float:
    """M(t) (u v' - v u') evaluated from the dense solution; constant in t."""
    w = basis.wronskian_at(t)
    return float(w) if np.ndim(np.asarray(t)) == 0 else w


def rho(basis: ClassicalBasis, t) -> RhoValue:
    """rho = sqrt(u^2 + v^2) and rho' = (u u' + v v') / rho."""
    return basis.rho_at(t)


def tau_map(basis: ClassicalBasis, s: Scenario, t) -> float:
    """Rescaled unit-oscillator time: integral of Omega / (M rho^2) from t0."""
    tau = basis.tau(t)
    return float(tau) if np.ndim(np.asarray(t)) == 0 else tau


def classical_invariant(basis: ClassicalBasis, part, s: Scenario, x, p, t) -> float:
    """Action-variable invariant evaluated on classical phase-space data.

    I = [ (Omega^2/rho^2) (x - x_p)^2 + (M rho' (x - x_p) - rho (M x' - M x_p'))^2 ]
        / (2 Omega),
    where p is the canonical momentum of the Hamiltonian (the one -i hbar d/dx
    represents) and M x' = p - 2 M a x - b is the kinetic momentum; for
    a = b = 0 the two coincide. part may be None for x_p = 0.
    """
    rv = basis.rho_at(t)
    m, _ = s.mass.eval(t)
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    if part is None:
        xp = 0.0
        mxp_dot = 0.0
    else:
        xp = part.x(t)
        mxp_dot = part.momentum(t)
    dx = x - xp
    dp = p - 2.0 * m * a_c * x - b_c - mxp_dot
    omega = basis.omega
    value = ((omega * omega / rv.rho ** 2) * dx * dx
             + (m * rv.rho_dot * dx - rv.rho * dp) ** 2) / (2.0 * omega)
    return float(value) if np.ndim(np.asarray(value)) == 0 else value


trajectory_columns = ("t", "u", "u_dot", "v", "v_dot", "x_p", "x_p_dot",
                      "xi", "rho", "rho_dot", "tau")


def trajectory_table(basis: ClassicalBasis, part, times) -> np.ndarray:
    """Dense trajectory export: one row per time, columns trajectory_columns."""
    times = np.asarray(times, dtype=float)
    u, u_dot, v, v_dot = basis.uv(times)
    rv = basis.rho_at(times)
    tau = basis.tau(times)
    if part is None:
        xp = np.zeros_like(times)
        xp_dot = np.zeros_like(times)
        xi = np.zeros_like(times)
    else:
        xp = part.x(times)
        xp_dot = part.x_dot(times)
        xi = part.xi(times)
    return np.column_stack([times, u, u_dot, v, v_dot, xp, xp_dot, xi,
                            rv.rho, rv.rho_dot, tau])

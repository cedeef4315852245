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

Every consumer reads a solution through its `at(t)` method, which returns all
of the solution's per-time data from one dense-output evaluation, for a scalar
or an array t: `ClassicalBasis.at` gives u, u', v, v', rho, rho', tau, the
unwrapped angle theta = theta(t0) - tau of u - i v, and M;
`ParticularSolution.at` gives x_p, M x_p' and xi. `particular_or_zero` is the
one place that turns `part=None` into the zero particular solution, which
solves the driven equation only when the force is the default constant 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp

from .coefficients import Constant, PiecewiseConstant, Scenario
from .errors import DegenerateBasis, IntegrationFailure, ValidationError, ZeroRho

__all__ = [
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
    "MAX_RHS_CALLS",
    "BasisSnapshot",
    "ParticularSnapshot",
    "ClassicalBasis",
    "ParticularSolution",
    "solve_homogeneous_basis",
    "solve_particular",
    "particular_or_zero",
    "default_basis_ics",
    "classical_invariant",
    "trajectory_columns",
    "trajectory_table",
]

# Tight enough that the dense-output interpolant stays ~1e-12 accurate; the
# kernel prefactor amplifies basis error near caustics.
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
# Right-hand-side evaluations allowed per solve. The bundled scenarios use
# 0.4k-2k and w = 30 over 12 time units about 111k; a coefficient that makes
# the solver crawl fails with IntegrationFailure instead of running on.
MAX_RHS_CALLS = 500_000


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
    dense outputs are stitched into one OdeSolution. Raises IntegrationFailure
    once rhs has been called MAX_RHS_CALLS times.
    """
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        if calls > MAX_RHS_CALLS:
            raise IntegrationFailure(
                f"classical solve exceeded {MAX_RHS_CALLS} right-hand-side "
                f"evaluations near t={t:g}")
        return rhs(t, y)

    edges = [scenario.t0, *_coefficient_breakpoints(scenario), scenario.t1]
    interpolants = []
    ts = [edges[0]]
    nodes = [np.array([edges[0]])]
    y = list(y0)
    for lo, hi in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(counted, (lo, hi), y, method="DOP853",
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
class BasisSnapshot:
    """Per-time data of a ClassicalBasis: scalars at a scalar time, arrays at
    an array of times."""

    u: object
    u_dot: object
    v: object
    v_dot: object
    rho: object
    rho_dot: object
    tau: object
    theta: object
    mass: object


@dataclass(frozen=True)
class ParticularSnapshot:
    """Per-time data of a ParticularSolution: x_p, M x_p' and xi."""

    x: object
    momentum: object
    xi: object


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
    _theta0: float = field(init=False, repr=False)

    def __post_init__(self):
        y0 = self._dense(self.scenario.t0)
        object.__setattr__(self, "_theta0", math.atan2(-y0[2], y0[0]))

    @property
    def nodes(self):
        return self._nodes

    def at(self, t) -> BasisSnapshot:
        """Everything the basis knows at time(s) t, from one dense evaluation.

        theta is the continuously unwrapped angle of u - i v: since
        d/dt arg(u - iv) = -Omega / (M rho^2) = -tau', it is the t0 principal
        value minus tau(t), with no pointwise atan2 jumps. Raises ZeroRho
        where u and v vanish together.
        """
        u, pu, v, pv, tau = self._dense(t)
        m, _ = self.scenario.mass.eval(t)
        u_dot = pu / m
        v_dot = pv / m
        r = np.hypot(u, v)
        if np.any(r == 0.0):
            raise ZeroRho(f"u and v vanish together at t={t}")
        return BasisSnapshot(u=u, u_dot=u_dot, v=v, v_dot=v_dot, rho=r,
                             rho_dot=(u * u_dot + v * v_dot) / r, tau=tau,
                             theta=self._theta0 - tau, mass=m[()])  # 0-d -> scalar

    def wronskian_at(self, t):
        """M (u v' - v u') at time(s) t; constant in t up to solver error."""
        y = self._dense(t)
        return y[0] * y[3] - y[2] * y[1]


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

    def at(self, t) -> ParticularSnapshot:
        """x_p, M x_p' and xi at time(s) t from one dense evaluation."""
        x, momentum, xi = self._dense(t)
        return ParticularSnapshot(x=x, momentum=momentum, xi=xi)


def _zero_dense(t):
    return np.zeros((3,) + np.shape(t))


def particular_or_zero(s: Scenario, part) -> ParticularSolution:
    """part itself, or for part=None the zero particular solution x_p = 0.

    x_p = 0 solves the driven equation only without a force, so None is
    accepted only when the force is the default constant 0.
    """
    if part is not None:
        return part
    if not (isinstance(s.force, Constant) and s.force.value == 0.0):
        raise ValidationError(
            "part=None means x_p = 0, which needs force 0; pass solve_particular(s)")
    return ParticularSolution(scenario=s, rtol=0.0, atol=0.0, _dense=_zero_dense,
                              _nodes=np.array([s.t0, s.t1]))


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


def classical_invariant(basis: ClassicalBasis, part, s: Scenario, x, p, t) -> float:
    """Action-variable invariant evaluated on classical phase-space data.

    I = [ (Omega^2/rho^2) (x - x_p)^2 + (M rho' (x - x_p) - rho (M x' - M x_p'))^2 ]
        / (2 Omega),
    where p is the canonical momentum of the Hamiltonian (the one -i hbar d/dx
    represents) and M x' = p - 2 M a x - b is the kinetic momentum; for
    a = b = 0 the two coincide. part=None stands for x_p = 0.
    """
    bs = basis.at(t)
    ps = particular_or_zero(s, part).at(t)
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    dx = x - ps.x
    dp = p - 2.0 * bs.mass * a_c * x - b_c - ps.momentum
    omega = basis.omega
    value = ((omega * omega / bs.rho ** 2) * dx * dx
             + (bs.mass * bs.rho_dot * dx - bs.rho * dp) ** 2) / (2.0 * omega)
    return float(value) if np.ndim(np.asarray(value)) == 0 else value


trajectory_columns = ("t", "u", "u_dot", "v", "v_dot", "x_p", "x_p_dot",
                      "xi", "rho", "rho_dot", "tau")


def trajectory_table(basis: ClassicalBasis, part, times) -> np.ndarray:
    """Dense trajectory export: one row per time, columns trajectory_columns."""
    times = np.asarray(times, dtype=float)
    bs = basis.at(times)
    ps = particular_or_zero(basis.scenario, part).at(times)
    return np.column_stack([times, bs.u, bs.u_dot, bs.v, bs.v_dot, ps.x,
                            ps.momentum / bs.mass, ps.xi, bs.rho, bs.rho_dot, bs.tau])

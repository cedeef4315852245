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
M is never needed. The homogeneous equation is solved once per scenario object
and tolerance pair, for the fundamental pair (c, s) with (c, M c') = (1, 0) and
(s, M s') = (0, 1) at t0: every basis is the linear image of (c, s) fixed by
its initial data, so further bases of the same scenario cost no integration.
tau is not integrated: theta, the angle of u - i v, is read off the solutions
themselves (atan2) and lifted continuously through a table sampled finely
enough that it turns by less than pi/2 per entry, and tau = theta(t0) - theta.
xi rides along as an extra component of the particular solve so it inherits
the solver's accuracy. Integration constants are fixed as xi(t0) = 0 and
tau(t0) = 0; both only shift global phases.

Every consumer reads a solution through its `at(t)` method, which returns all
of the solution's per-time data from one dense-output evaluation, for a scalar
or an array t: `ClassicalBasis.at` gives u, u', v, v', rho, rho', tau, the
continuously lifted angle theta = theta(t0) - tau of u - i v, and M;
`ParticularSolution.at` gives x_p, M x_p' and xi. `particular_or_zero` is the
one place that turns `part=None` into the zero particular solution, which
solves the driven equation only when the force is the default constant 0.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp

from .coefficients import Constant, PiecewiseConstant, Scenario
from .errors import DegenerateBasis, IntegrationFailure, ValidationError, ZeroRho

_log = logging.getLogger(__name__)

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
    "gauge_phase",
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
# 0.1k-2.3k (the fundamental pair 92-1703, x_p 107-2309) and the pair for
# w = 30 over 12 time units about 30k; a coefficient that makes the solver
# crawl fails with IntegrationFailure instead of running on.
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
    once rhs has been called MAX_RHS_CALLS times. Returns the solution, its
    nodes and the number of rhs calls.
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
    return stitched, all_nodes, calls


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


def _wrap(angle):
    """angle reduced into (-pi, pi]."""
    return math.pi - np.mod(math.pi - angle, 2.0 * math.pi)


@dataclass(frozen=True)
class ClassicalBasis:
    """Two independent homogeneous solutions with dense output over [t0, t1].

    The basis is the linear image of the scenario's fundamental pair (c, s):
    (u, M u') = u0 (c, M c') + M u0' (s, M s'), and likewise for v, with
    _state0 = (u0, M u0', v0, M v0') and _fundamental the dense output of
    (c, M c', s, M s'). Immutable; evaluation at a time point is pure and
    thread-safe.
    """

    scenario: Scenario
    omega: float
    rtol: float
    atol: float
    _fundamental: object = field(repr=False)
    _state0: tuple = field(repr=False)
    _nodes: object = field(repr=False)
    _lift: tuple = field(init=False, repr=False)
    _theta0: float = field(init=False, repr=False)
    _drift: float = field(init=False, repr=False)

    def __post_init__(self):
        # one dense evaluation at the nodes and their midpoints gives both the
        # Wronskian drift at the nodes and the lift table's first samples
        nodes = np.asarray(self._nodes, dtype=float)
        times = np.empty(2 * nodes.size - 1)
        times[::2] = nodes
        times[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        u, pu, v, pv = self._state(times)
        wronskian = (u * pv - v * pu)[::2]
        object.__setattr__(self, "_drift",
                           float(np.max(np.abs(wronskian - self.omega))) / abs(self.omega))
        edges, lifted = self._lift_table(times, np.arctan2(-v, u))
        # the table as arrays, and as lists for the scalar path of _theta
        object.__setattr__(self, "_lift", (edges, lifted, edges.tolist(), lifted.tolist()))
        object.__setattr__(self, "_theta0", float(lifted[0]))

    @property
    def nodes(self):
        return self._nodes

    def _state(self, t):
        """(u, M u', v, M v') at time(s) t from one dense evaluation."""
        c, pc, sn, ps = self._fundamental(t)
        u0, pu0, v0, pv0 = self._state0
        return u0 * c + pu0 * sn, u0 * pc + pu0 * ps, v0 * c + pv0 * sn, v0 * pc + pv0 * ps

    def _lift_table(self, times, angle):
        """The continuous angle of u - i v, from its principal values at
        increasing times, bisected until it turns by less than pi/2 between
        neighbours, and the times that separate the entries (all but the
        first). theta is monotone (theta' = -Omega / (M rho^2)), so between
        two entries it stays within that turn of the left one."""
        while True:
            coarse = np.abs(_wrap(np.diff(angle))) >= 0.5 * math.pi
            mid = 0.5 * (times[:-1] + times[1:])[coarse]
            mid = mid[(mid > times[:-1][coarse]) & (mid < times[1:][coarse])]
            if mid.size == 0:
                break
            u, _, v, _ = self._state(mid)
            times = np.concatenate([times, mid])
            order = np.argsort(times, kind="stable")
            times = times[order]
            angle = np.concatenate([angle, np.arctan2(-v, u)])[order]
        return times[1:], np.unwrap(angle)

    def at(self, t) -> BasisSnapshot:
        """Everything the basis knows at time(s) t, from one dense evaluation.

        theta is the continuously lifted angle of u - i v: atan2(-v, u) taken
        onto the branch of the lift table entry that opens t's interval, by
        the wrap into (-pi, pi] of their difference. Since
        d/dt arg(u - iv) = -Omega / (M rho^2), tau = theta(t0) - theta
        increases for Omega > 0. Raises ZeroRho where u and v vanish together.
        """
        u, pu, v, pv = self._state(t)
        m, _ = self.scenario.mass.eval(t)
        u_dot = pu / m
        v_dot = pv / m
        r = np.hypot(u, v)
        if not r.all():
            raise ZeroRho(f"u and v vanish together at t={t}")
        theta = self._theta(t, u, v)
        return BasisSnapshot(u=u, u_dot=u_dot, v=v, v_dot=v_dot, rho=r,
                             rho_dot=(u * u_dot + v * v_dot) / r, tau=self._theta0 - theta,
                             theta=theta, mass=m[()])  # 0-d -> scalar

    def _theta(self, t, u, v):
        """theta at time(s) t from u, v there: the lift table entry that opens
        t's interval plus the wrap into (-pi, pi] of atan2(-v, u) less it.
        A scalar t takes the same steps in math and bisect on lists, which
        saves a few microseconds of numpy call overhead on every scalar `at`."""
        edges, lifted, edge_list, lifted_list = self._lift
        if isinstance(u, np.ndarray):
            ref = lifted[np.searchsorted(edges, t, side="right")]
            return ref + _wrap(np.arctan2(-v, u) - ref)
        ref = lifted_list[bisect.bisect_right(edge_list, t)]
        return ref + (math.pi - (math.pi - (math.atan2(-v, u) - ref)) % (2.0 * math.pi))

    def wronskian_at(self, t):
        """M (u v' - v u') at time(s) t; constant in t up to solver error."""
        u, pu, v, pv = self._state(t)
        return u * pv - v * pu


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


def gauge_phase(s: Scenario, mass, ps: ParticularSnapshot, t, x):
    """G(t, x) = (xi + M a x^2 + (M x_p' + b) x) / hbar, the phase the couplings
    a, b and x_p put on every mode; M and ps are the mass and snapshot at t."""
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    return (ps.xi + mass * a_c * x * x + (ps.momentum + b_c) * x) / s.hbar


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


def _fundamental_solve(s: Scenario, rtol, atol):
    """Dense output, nodes and right-hand-side calls of the fundamental pair
    (c, M c', s, M s') with (1, 0, 0, 1) at t0.

    Solved once per scenario object and (rtol, atol), and kept on that object
    (outside its dataclass fields, so equality and hashing ignore it): an
    equal scenario loaded again solves afresh.
    """
    solves = vars(s).setdefault("_fundamental_solves", {})
    if (rtol, atol) not in solves:
        def rhs(t, y):
            m, _ = s.mass.eval(t)
            w, _ = s.frequency.eval(t)
            c, pc, sn, ps = y
            return [pc / m, -m * w * w * c, ps / m, -m * w * w * sn]

        solves[rtol, atol] = _solve(s, rhs, [1.0, 0.0, 0.0, 1.0], rtol, atol)
    return solves[rtol, atol]


def solve_homogeneous_basis(s: Scenario, ics=None, rtol=DEFAULT_RTOL,
                            atol=DEFAULT_ATOL) -> ClassicalBasis:
    """Two homogeneous solutions over the working interval, as the linear
    image of the scenario's fundamental pair (solved on the first call for
    this scenario object and tolerance pair).

    ics is ((u0, u0_dot), (v0, v0_dot)); defaults to the Omega = 1 convention.
    Raises DegenerateBasis when the initial Wronskian vanishes and
    IntegrationFailure when the solver cannot meet the tolerance. Logs the
    fundamental solve's ODE nodes and right-hand-side calls, also when the
    solve is reused, and this basis's largest relative Wronskian drift at the
    nodes at DEBUG level on "gho.classical".
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

    dense, nodes, calls = _fundamental_solve(s, rtol, atol)
    basis = ClassicalBasis(scenario=s, omega=omega, rtol=rtol, atol=atol,
                           _fundamental=dense, _state0=(u0, pu0, v0, pv0), _nodes=nodes)
    drift = basis._drift
    _log.debug("solve_homogeneous_basis: %d nodes, %d rhs calls, Wronskian drift %.3e",
               len(nodes), calls, drift)
    if drift > max(10.0 * rtol, 1e-12):
        raise IntegrationFailure(
            f"Wronskian drifted by {drift:.2e} (> 10x solver tolerance)")
    return basis


def solve_particular(s: Scenario, ics=(0.0, 0.0), rtol=DEFAULT_RTOL,
                     atol=DEFAULT_ATOL) -> ParticularSolution:
    """Integrate the driven equation from (x_p(t0), x_p'(t0)) = ics, with xi(t0)=0.

    Any solution of the driven equation is a valid x_p; for F = 0 a nonzero
    choice is still legitimate and produces coherent states downstream. Logs
    the ODE nodes and the right-hand-side calls at DEBUG level on
    "gho.classical".
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

    dense, nodes, calls = _solve(s, rhs, [x0, m0 * xdot0, 0.0], rtol, atol)
    _log.debug("solve_particular: %d nodes, %d rhs calls", len(nodes), calls)
    return ParticularSolution(scenario=s, rtol=rtol, atol=atol,
                              _dense=dense, _nodes=nodes)


def classical_invariant(basis: ClassicalBasis, part, s: Scenario, x, p, t) -> float:
    """Action-variable invariant evaluated on classical phase-space data.

    I = [ (Omega^2/rho^2) (x - x_p)^2 + (M rho' (x - x_p) - rho (M x' - M x_p'))^2 ]
        / (2 |Omega|),
    where p is the canonical momentum of the Hamiltonian (the one -i hbar d/dx
    represents) and M x' = p - 2 M a x - b is the kinetic momentum; for
    a = b = 0 the two coincide. part=None stands for x_p = 0. With |Omega|, I
    is non-negative for either sign of Omega.
    """
    bs = basis.at(t)
    ps = particular_or_zero(s, part).at(t)
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    dx = x - ps.x
    dp = p - 2.0 * bs.mass * a_c * x - b_c - ps.momentum
    omega = abs(basis.omega)
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

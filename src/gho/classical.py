"""Classical layer: homogeneous basis, particular solution and derived quantities.

Everything quantum in this package is assembled from two independent solutions
u, v of

    d/dt ( M(t) dx/dt ) + M(t) w(t)^2 x = 0,

a particular solution x_p of the driven equation, and the scalars built from
them: the conserved Wronskian combination Omega = M (u v' - v u'), the
amplitude rho = sqrt(u^2 + v^2), the action-like phase xi with
xi' = (M w^2 x_p^2 - M x_p'^2) / 2, and the rescaled time tau with
tau' = Omega / (M rho^2).

In y = (x, M x') the equations are linear, y' = A(t) y + g(t) with
A = [[0, 1/M], [-M w^2, 0]] and g = (0, F), so the analytic derivative of M is
never needed. They are solved once per scenario object by 4-stage (order 8)
Gauss-Legendre collocation (Hairer, Lubich & Wanner, Geometric Numerical
Integration, II.1.3 and VI.4). On a linear equation each step is a fixed
affine map of y, so one array coefficient evaluation at every step's Gauss
nodes and one batched linear solve give all the maps, and their
running product gives, at every step edge, the fundamental pair (c, s) with
(c, M c') = (1, 0) and (s, M s') = (0, 1) at t0, and the particular solution
that starts from x_p(t0) = x_p'(t0) = 0. Every basis is the linear image of
(c, s) fixed by its initial data, and every x_p that image plus the zero-start
solution, so further bases and particular solutions of the same scenario
integrate nothing. xi is the extra collocation component, the Gauss
quadrature of its rate at the stage values, so it keeps order 8. Each smooth
piece between jumps of a piecewise mass, frequency or force takes uniform
steps, doubled until two step counts agree at every edge to
DEFAULT_ATOL + DEFAULT_RTOL times each entry's size, so step edges land on
the jumps.

Dense output is one degree-7 polynomial per step, built at solve time from
the values and exact derivatives at the step's ends and at a third and two
thirds of it (each the end of one more, shorter collocation step): an
evaluation is a bisection and one polynomial.

tau is not integrated: theta, the angle of u - i v, is read off the solutions
themselves (atan2) and lifted continuously through a table sampled finely
enough that it turns by less than pi/2 per entry, and tau = theta(t0) - theta.
Integration constants are fixed as xi(t0) = 0 and tau(t0) = 0; both only
shift global phases.

Every consumer reads a solution through its `at(t)` method, which returns all
of the solution's per-time data from one dense-output evaluation, for a scalar
or an array t: `ClassicalBasis.at` gives u, u', v, v', rho, rho', tau, the
continuously lifted angle theta = theta(t0) - tau of u - i v, and M;
`ParticularSolution.at` gives x_p, M x_p' and xi. Whatever needs both (the
kernel, the hop, the modes, both invariants, the trajectory table, the path
integral's classical path) reads them through `_snapshots(s, basis, part,
t, name)`, for a scalar or an array t, from one evaluation of the joint
dense output that a particular solution keeps of the fundamental pair and
itself (its `at` reads the last three components): the two share the
solve's step edges, and each component keeps its own polynomial, so the
snapshots have the bits of the two separate calls.

`_snapshots` is also the one gate before every answer. `at` does not check
and extrapolates past the ends, so the gate raises ValidationError naming
`name`: first unless the time(s) lie in the working interval (`_check_time`:
to 1e-9 of its length, nan outside), then unless both solutions solve s
(`particular_or_zero`). `_read(s, solution, t, name)`, its one-solution
sibling, gates `apply_U_F`, `apply_U_S` and `caustic_times`; the evolver,
which reads no solution, calls `_check_time` itself. `particular_or_zero` is
also the one place that turns `part=None` into the zero particular
solution, `solve_particular(s)`, which solves the driven equation only when
the force is the default constant 0.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .coefficients import Constant, Scenario, _jumps
from .errors import DegenerateBasis, IntegrationFailure, ValidationError, ZeroRho

_log = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
    "MAX_STEPS",
    "BasisSnapshot",
    "ParticularSnapshot",
    "ClassicalBasis",
    "ParticularSolution",
    "solve_homogeneous_basis",
    "solve_particular",
    "particular_or_zero",
    "gauge_coefficients",
    "default_basis_ics",
    "classical_invariant",
    "trajectory_columns",
    "trajectory_table",
]

# Tight enough that the dense output stays ~1e-12 accurate; the kernel
# prefactor amplifies basis error near caustics.
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
# Collocation steps allowed per solve, summed over its trial step counts. The
# bundled scenarios try 24-504 steps and keep 8-128; w = 5 over 12 time units
# tries 2,040 and w = 30 16,376. A coefficient that needs more fails with
# IntegrationFailure instead of running on; a kept step holds about 0.8 kB.
MAX_STEPS = 100_000

# 4-stage Gauss-Legendre collocation on [0, 1]: nodes _C, weights _B, and
# _A[i, j], the integral from 0 to c_i of the j-th Lagrange polynomial on _C
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(4)
_C, _B = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS
_A = (_C[:, None] ** np.arange(1, 5) / np.arange(1, 5)) @ np.linalg.inv(
    _C[:, None] ** np.arange(4))
# Dense output: per step the degree-7 polynomial y_k + (sigma + 1) q(sigma) in
# sigma = 2 (t - t_k) / h - 1 with given values and sigma-derivatives at
# _SIGMA. _HERMITE maps the values less y_k at the last three nodes and the
# four derivatives to the monomial coefficients of q, lowest degree first.
# In the centred variable the map's rows sum to at most 23 in absolute value
# (to 9.1e3 for monomials in (t - t_k) / h), so it loses only a few ulps of the
# data, and the data of a constant give q = 0 exactly.
_SIGMA = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
_DEGREES = np.arange(7)
_HERMITE = np.linalg.inv(np.vstack([
    (_SIGMA[1:, None] + 1.0) * _SIGMA[1:, None] ** _DEGREES,
    _SIGMA[:, None] ** _DEGREES
    + (_SIGMA[:, None] + 1.0) * _DEGREES * _SIGMA[:, None] ** np.maximum(_DEGREES - 1, 0)]))


def _coefficients(s: Scenario, t):
    """1/M, M w^2 and F at times t, from one evaluation of each coefficient."""
    m, _ = s.mass.eval(t)
    if not np.all(m > 0):
        s.check_mass_positive(t)
    w, _ = s.frequency.eval(t)
    force, _ = s.force.eval(t)
    return 1.0 / m, m * w * w, force


def _gauss_steps(s: Scenario, start, h):
    """Collocation steps of lengths h from times start (arrays of N steps).

    y' = A y + g is linear, so a step is the affine map
    y(start + h) = maps[:, :, :2] y(start) + maps[:, :, 2] and so is every
    stage value. xi's increment over the step, the Gauss quadrature
    h sum_i b_i (M w^2 x_i^2 - (M x_i')^2 / M) / 2 at the stage values, is
    then the quadratic form (y(start), 1) . forms (y(start), 1). Returns maps
    (N, 2, 3) and forms (N, 3, 3).
    """
    inv_m, k, force = _coefficients(s, start[:, None] + h[:, None] * _C)
    ha = h[:, None, None] * _A
    # the stage positions X = x0 + h A (P / M), put into the stage momenta
    # P = p0 + h A (F - M w^2 X), leave a 4 x 4 system for P, solved at once
    # for the coefficients of x0, p0 and 1
    lhs = np.eye(4) + (ha * k[:, None, :]) @ (ha * inv_m[:, None, :])
    rhs = np.stack([-(ha @ k[..., None])[..., 0], np.ones_like(k),
                    (ha @ force[..., None])[..., 0]], axis=-1)
    p = np.linalg.solve(lhs, rhs)
    x = ha @ (inv_m[..., None] * p)
    x[..., 0] += 1.0
    hb = h[:, None] * _B
    maps = np.stack([np.einsum("ni,nic->nc", hb * inv_m, p),
                     -np.einsum("ni,nic->nc", hb * k, x)], axis=1)
    maps[:, 1, 2] += np.sum(hb * force, axis=1)
    maps[:, 0, 0] += 1.0
    maps[:, 1, 1] += 1.0
    forms = (np.einsum("ni,nia,nib->nab", 0.5 * hb * k, x, x)
             - np.einsum("ni,nia,nib->nab", 0.5 * hb * inv_m, p, p))
    return maps, forms


def _running_maps(maps):
    """The affine maps (N + 1, 2, 3) from the first step's start to every
    step edge, for steps maps (N, 2, 3): a log-depth scan of 3 x 3 products."""
    scan = np.zeros((len(maps) + 1, 3, 3))
    scan[0, :2, :2] = np.eye(2)
    scan[1:, :2] = maps
    scan[:, 2, 2] = 1.0
    shift = 1
    while shift < len(scan):
        scan[shift:] = scan[shift:] @ scan[:-shift]
        shift *= 2
    return scan[:, :2]


def _piece_steps(s: Scenario, lo, hi, tried):
    """Uniform steps on [lo, hi], doubled until the maps from lo to every
    edge of a step count agree with those of twice the count, entry by
    entry, to DEFAULT_ATOL + DEFAULT_RTOL times the entry's largest size;
    the difference estimates the error of the smaller count, which is kept.
    tried counts steps over all trials against MAX_STEPS. Returns the edges,
    the steps and the new count."""
    n, coarse = 8, None
    while True:
        tried += n
        if tried > MAX_STEPS:
            raise IntegrationFailure(
                f"classical solve exceeded {MAX_STEPS} collocation steps "
                f"on [{lo:g}, {hi:g}]")
        edges = np.linspace(lo, hi, n + 1)
        steps = _gauss_steps(s, edges[:-1], np.diff(edges))
        path = _running_maps(steps[0])
        if coarse is not None and np.all(
                np.abs(path[::2] - coarse[2])
                <= DEFAULT_ATOL + DEFAULT_RTOL * np.max(np.abs(path), axis=0)):
            return coarse[0], coarse[1], tried
        coarse, n = (edges, steps, path), 2 * n


class _DenseOutput:
    """Piecewise-polynomial dense output: the components at time(s) t from the
    step that holds t (the first or the last step beyond the ends), as a list
    of n_components Python floats at a scalar t (an int or a float) and an
    array (n_components,) + shape(t) at an array of times, 0-d included.

    On step k the polynomial is y_k + (sigma + 1) q(sigma) in
    sigma = 2 (t - edges[k]) / (edges[k + 1] - edges[k]) - 1, so it returns
    the step's start value y_k exactly; horner (N, n_components, 8) holds,
    per step and component, q's monomial coefficients from the highest
    degree down and then y_k. Both paths run Horner's rule with the same
    roundings, so a scalar t and the same t inside an array give the same
    bits; a scalar t runs it on Python floats, which saves numpy's per-call
    overhead.

    _rows holds one row per step for the scalar path: step k's horner[k] as
    Python floats, filled on the first scalar read that lands in step k
    (the same floats horner[k].tolist() gives on every read) and reused by
    every later one. It grows only with the steps scalar reads touch, to at
    most about five times those steps' share of horner. A row is written
    whole, and two threads that fill one row write equal lists, so reads stay
    thread-safe.
    """

    def __init__(self, edges, horner):
        self._horner = horner
        self._edges = edges
        self._scale = 2.0 / np.diff(edges)
        self._starts = edges[:-1].tolist()
        self._scale_list = self._scale.tolist()
        self._rows = [None] * len(self._starts)

    def __call__(self, t):
        if isinstance(t, (int, float)):
            k = max(bisect.bisect_right(self._starts, t) - 1, 0)
            row = self._rows[k]
            if row is None:
                row = self._rows[k] = self._horner[k].tolist()
            rise = float((t - self._starts[k]) * self._scale_list[k])
            sigma = rise - 1.0
            return [start + rise * ((((((q6 * sigma + q5) * sigma + q4) * sigma + q3)
                                       * sigma + q2) * sigma + q1) * sigma + q0)
                    for q6, q5, q4, q3, q2, q1, q0, start in row]
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self._edges, t, side="right") - 1, 0, len(self._scale) - 1)
        rise = ((t - self._edges[k]) * self._scale[k])[..., None]
        sigma = rise - 1.0
        horner = self._horner[k]
        acc = horner[..., 0]
        for j in range(1, 7):
            acc = acc * sigma + horner[..., j]
        return np.moveaxis(horner[..., 7] + rise * acc, -1, 0)


def _node_states(thirds, start):
    """(x, M x') at the dense-output nodes of every step (N, 4, 2, m), for
    solutions with augmented states start (N + 1, 3, m) at the step edges
    and thirds, the maps of the steps to a third and to two thirds of each."""
    n = len(start) - 1
    return np.stack([start[:-1, :2], thirds[:n] @ start[:-1], thirds[n:] @ start[:-1],
                     start[1:, :2]], axis=1)


def _horner_table(edges, values, slopes):
    """The Horner table (N, n_components, 8) of values and t-derivatives
    (N, 4, n_components) at the nodes of the steps between edges."""
    half = 0.5 * np.diff(edges)[:, None, None]
    data = np.concatenate([values[:, 1:] - values[:, :1], half * slopes], axis=1)
    quotient = _HERMITE @ data
    return np.concatenate([quotient[:, ::-1], values[:, :1]], axis=1).transpose(0, 2, 1)


def _joined(first: _DenseOutput, edges, values, slopes) -> _DenseOutput:
    """One dense output of the components of first and then of those of
    values and slopes at the nodes of first's steps between edges: each
    component keeps its polynomial, so it takes the same bits as from a
    dense output of its own."""
    return _DenseOutput(edges, np.concatenate(
        [first._horner, _horner_table(edges, values, slopes)], axis=1))


class _Collocation(NamedTuple):
    """One scenario's collocation solve over [t0, t1].

    path (N + 1, 2, 3) holds the affine maps from t0 to every step edge: the
    fundamental matrix and the zero-start particular solution. forms (N, 3, 3)
    are the steps' xi quadratic forms; thirds holds the maps and forms of the
    2N shorter steps to a third and to two thirds of each step; at_nodes
    holds 1/M, M w^2 and F at the dense-output nodes (N, 4), the last just
    before the step's end, so a jump there takes the step's own value.
    fundamental is the dense output of (c, M c', s, M s').
    """

    edges: np.ndarray
    path: np.ndarray
    forms: np.ndarray
    thirds: tuple
    at_nodes: tuple
    tried: int
    fundamental: _DenseOutput


def _collocation_solve(s: Scenario) -> _Collocation:
    """The collocation solve of s: uniform steps per smooth piece (between
    jumps of M, w or F), the running maps, the steps to the dense-output
    nodes, and the fundamental pair's dense output."""
    cuts = {t for name in ("mass", "frequency", "force")
            for t in _jumps(getattr(s, name), s.t0, s.t1)}
    bounds = [s.t0, *sorted(cuts), s.t1]
    edges, steps, tried = [np.array([s.t0])], [], 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        piece, piece_steps, tried = _piece_steps(s, lo, hi, tried)
        edges.append(piece[1:])
        steps.append(piece_steps)
    edges = np.concatenate(edges)
    maps, forms = (np.concatenate(parts) for parts in zip(*steps))
    start, h = edges[:-1], np.diff(edges)
    thirds = _gauss_steps(s, np.concatenate([start, start]), np.concatenate([h, 2.0 * h]) / 3.0)
    nodes = start[:, None] + h[:, None] * (0.5 * _SIGMA + 0.5)
    nodes[:, -1] = np.nextafter(edges[1:], start)
    inv_m, k, force = _coefficients(s, nodes)
    path = _running_maps(maps)
    # the pair as the columns (c, s) of augmented states with no affine part
    pair = np.zeros((len(edges), 3, 2))
    pair[:, :2] = path[:, :, :2]
    states = _node_states(thirds[0], pair)
    slopes = np.stack([inv_m[..., None] * states[:, :, 1], -k[..., None] * states[:, :, 0]],
                      axis=2)
    # components (c, M c', s, M s'): column by column
    flat = [a.swapaxes(2, 3).reshape(len(h), 4, 4) for a in (states, slopes)]
    return _Collocation(edges=edges, path=path, forms=forms, thirds=thirds,
                        at_nodes=(inv_m, k, force), tried=tried,
                        fundamental=_DenseOutput(edges, _horner_table(edges, *flat).copy()))


class BasisSnapshot(NamedTuple):
    """Per-time data of a ClassicalBasis: Python floats at a scalar time (an
    int or a float, np.float64 included), numpy scalars at a 0-d array time,
    arrays at an array of times."""

    u: object
    u_dot: object
    v: object
    v_dot: object
    rho: object
    rho_dot: object
    tau: object
    theta: object
    mass: object


class ParticularSnapshot(NamedTuple):
    """Per-time data of a ParticularSolution: x_p, M x_p' and xi, of the
    types a BasisSnapshot has at the same time."""

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
    thread-safe: the only state it writes is _fundamental's per-step rows,
    each written whole, and two threads that fill one row write equal lists.
    """

    scenario: Scenario
    omega: float
    _fundamental: object = field(repr=False)
    _state0: tuple = field(repr=False)
    _lift: tuple = field(init=False, repr=False)
    _theta0: float = field(init=False, repr=False)
    _drift: float = field(init=False, repr=False)

    def __post_init__(self):
        # one dense evaluation at the solve's step edges gives both the
        # Wronskian drift and the lift table's first samples
        nodes = self.nodes
        u, pu, v, pv = self._state(nodes)
        object.__setattr__(self, "_drift",
                           float(np.max(_wronskian_drift(u, pu, v, pv, self.omega))))
        edges, lifted = self._lift_table(nodes, np.arctan2(-v, u))
        # the table as arrays, and as lists for the scalar path of _theta
        object.__setattr__(self, "_lift", (edges, lifted, edges.tolist(), lifted.tolist()))
        object.__setattr__(self, "_theta0", float(lifted[0]))

    @property
    def nodes(self):
        """The step edges of the scenario's collocation solve."""
        return _collocation(self.scenario).edges

    def _state(self, t):
        """(u, M u', v, M v') at time(s) t from one dense evaluation."""
        return self._image(self._fundamental(t))

    def _image(self, fundamental):
        """(u, M u', v, M v') from the fundamental pair's (c, M c', s, M s')."""
        c, pc, sn, ps = fundamental
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
        return self._snapshot(t, self._fundamental(t), isinstance(t, (int, float)))

    def _snapshot(self, t, fundamental, scalar) -> BasisSnapshot:
        """The snapshot at time(s) t from the fundamental pair's
        (c, M c', s, M s') there; scalar says whether t is an int or a
        float."""
        u, pu, v, pv = self._image(fundamental)
        m, _ = self.scenario.mass.eval(t)
        u_dot = pu / m
        v_dot = pv / m
        if scalar:
            r = math.hypot(u, v)
            vanishes = r == 0.0
        else:
            r, m = np.hypot(u, v), m[()]  # 0-d -> scalar
            vanishes = not r.all()
        if vanishes:
            raise ZeroRho(f"u and v vanish together at t={t}")
        theta = self._theta(t, u, v)
        return BasisSnapshot(u, u_dot, v, v_dot, r, (u * u_dot + v * v_dot) / r,
                             self._theta0 - theta, theta, m)

    def _theta(self, t, u, v):
        """theta at time(s) t from u, v there: the lift table entry that opens
        t's interval plus the wrap into (-pi, pi] of atan2(-v, u) less it.
        Where u and v are scalars (Python floats at a scalar t, numpy scalars
        at a 0-d array t) it takes the same steps in math and bisect on
        lists, which saves numpy's per-call overhead on every scalar `at`."""
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

    def wronskian_drift_at(self, t):
        """|M (u v' - v u') - Omega| at time(s) t, relative to the larger of
        |Omega| and the products |u M v'| + |v M u'| that cancel to it."""
        return _wronskian_drift(*self._state(t), self.omega)


def _wronskian_drift(u, pu, v, pv, omega):
    """The Wronskian's drift from omega relative to the products u M v' and
    v M u' that cancel to it, whose rounding grows with the solutions."""
    u_pv, v_pu = u * pv, v * pu
    return np.abs(u_pv - v_pu - omega) / np.maximum(np.abs(u_pv) + np.abs(v_pu), abs(omega))


@dataclass(frozen=True)
class ParticularSolution:
    """Driven solution x_p with its accumulated phase integral xi.

    State components: (x_p, M x_p', xi), with xi(t0) = 0, the last three
    components of _dense, after the four of the fundamental pair it was
    solved with, (c, M c', s, M s'), on the same step edges.
    """

    scenario: Scenario
    _dense: object = field(repr=False)

    def at(self, t) -> ParticularSnapshot:
        """x_p, M x_p' and xi at time(s) t from one dense evaluation."""
        return ParticularSnapshot(*self._dense(t)[-3:])


def _snapshots(s: Scenario, basis: ClassicalBasis, part, t, name):
    """(basis.at(t), part.at(t)) for solutions of s, part=None standing for
    x_p = 0, after the gate: ValidationError naming name unless time(s) t
    lie in the working interval, and then unless both solve s (checked by
    particular_or_zero unless both are solutions of s itself). One dense
    evaluation of part: the fundamental pair it keeps has the bits of
    basis's own, since a scenario and an equal one solve to the same bits."""
    scalar = isinstance(t, (int, float))
    _check_time(s, t, name, scalar)
    if basis.scenario is not s or part is None or part.scenario is not s:
        basis, part = particular_or_zero(s, basis), particular_or_zero(s, part)
    c, pc, sn, ps, x, momentum, xi = part._dense(t)
    return basis._snapshot(t, (c, pc, sn, ps), scalar), ParticularSnapshot(x, momentum, xi)


def _read(s: Scenario, solution, t, name):
    """solution.at(t) for one solution of s (a basis, or a particular
    solution with None for x_p = 0) after _snapshots' gate: the time(s)
    first, then the solution."""
    _check_time(s, t, name)
    return particular_or_zero(s, solution).at(t)


def gauge_coefficients(s: Scenario, mass, ps: ParticularSnapshot, t):
    """(alpha, beta, gamma) of the gauge phase G(t, x) = alpha x^2 + beta x +
    gamma = (xi + M a x^2 + (M x_p' + b) x) / hbar, the phase the couplings
    a, b and x_p put on every mode; M and ps are the mass and snapshot at t.
    Its callers: propagator._coefficients (the kernel at both ends),
    propagator.propagate (the hop strips G(t_a), puts on G(t_b)) and
    states._modes_1d, each of which adds int f / hbar once itself.
    Grids multiply exp(i G) in place (packets._times_grid_phase), scattered
    points take it from exp."""
    a_c, _ = s.a.eval(t)
    b_c, _ = s.b.eval(t)
    return mass * a_c / s.hbar, (ps.momentum + b_c) / s.hbar, ps.xi / s.hbar


def _check_time(s: Scenario, t, name, scalar=None):
    """Raise ValidationError unless time(s) t lie in the working interval
    [t0, t1], to 1e-9 of its length; nan is outside. scalar says whether t
    is an int or a float (found from t when None)."""
    slack = 1e-9 * (s.t1 - s.t0)
    lo, hi = s.t0 - slack, s.t1 + slack
    if isinstance(t, (int, float)) if scalar is None else scalar:
        if not lo <= t <= hi:
            raise ValidationError(f"{name}={t} outside working interval [{s.t0}, {s.t1}]")
        return
    times = np.asarray(t)
    outside = ~((times >= lo) & (times <= hi))
    if outside.any():
        bad = t if times.ndim == 0 else times[outside].flat[0]
        raise ValidationError(f"{name}={bad} outside working interval [{s.t0}, {s.t1}]")


def particular_or_zero(s: Scenario, part):
    """part, a solution of s, or for part=None the zero particular solution.

    Raises ValidationError unless part.scenario is s or equal to it; a basis
    passed as part is checked alike. x_p = 0 solves the driven equation only
    without a force, so None is accepted only when the force is the default
    constant 0; it is solve_particular(s), whose x_p, M x_p' and xi are then
    +0.0, solved once per scenario object and kept beside its collocation
    solve.
    """
    if part is None:
        if not (isinstance(s.force, Constant) and s.force.value == 0.0):
            raise ValidationError(
                "part=None means x_p = 0, which needs force 0; pass solve_particular(s)")
        cached = vars(s)
        if "_zero_particular" not in cached:
            cached["_zero_particular"] = solve_particular(s)
        return cached["_zero_particular"]
    if part.scenario is not s and part.scenario != s:
        raise ValidationError(
            f"the {type(part).__name__} was solved for another scenario than the one passed")
    return part


def default_basis_ics(s: Scenario):
    """u(t0)=1, u'(t0)=0, v(t0)=0, v'(t0)=1/M(t0): Omega = 1, SHO gives cos/sin."""
    m0, _ = s.mass.eval(s.t0)
    return (1.0, 0.0), (0.0, 1.0 / m0)


def _collocation(s: Scenario) -> _Collocation:
    """The collocation solve of s, solved once per scenario object and kept
    on that object (outside its dataclass fields, so equality and hashing
    ignore it): an equal scenario loaded again solves afresh."""
    cached = vars(s)
    if "_collocation" not in cached:
        cached["_collocation"] = _collocation_solve(s)
    return cached["_collocation"]


def solve_homogeneous_basis(s: Scenario, ics=None) -> ClassicalBasis:
    """Two homogeneous solutions over the working interval, as the linear
    image of the scenario's fundamental pair (solved on the first call for
    this scenario object).

    ics is ((u0, u0_dot), (v0, v0_dot)); defaults to the Omega = 1 convention.
    Raises DegenerateBasis when the initial Wronskian vanishes and
    IntegrationFailure when the solve exceeds MAX_STEPS. Logs the solve's
    steps and the steps it tried, also when the solve is reused, and this
    basis's largest Wronskian drift at the step edges, relative to
    |u M v'| + |v M u'| there (at least |Omega|), at DEBUG level on
    "gho.classical".
    """
    if ics is None:
        ics = default_basis_ics(s)
    (u0, u0_dot), (v0, v0_dot) = ics
    m0, _ = s.mass.eval(s.t0)
    pu0 = m0 * u0_dot
    pv0 = m0 * v0_dot
    omega = u0 * pv0 - v0 * pu0
    if not math.isfinite(omega):  # as it is not when an initial value is not
        raise ValidationError(f"basis initial data {ics} give Omega = {omega}, not finite")
    scale = (abs(u0) + abs(pu0)) * (abs(v0) + abs(pv0))
    if abs(omega) <= 1e-14 * max(scale, 1e-300):
        raise DegenerateBasis("initial conditions are linearly dependent (Wronskian = 0)")

    sol = _collocation(s)
    basis = ClassicalBasis(scenario=s, omega=omega, _fundamental=sol.fundamental,
                           _state0=(u0, pu0, v0, pv0))
    drift = basis._drift
    _log.debug("solve_homogeneous_basis: %d steps, %d steps tried, Wronskian drift %.3e",
               len(sol.edges) - 1, sol.tried, drift)
    if drift > 10.0 * DEFAULT_RTOL:
        raise IntegrationFailure(
            f"Wronskian drifted by {drift:.2e} (> 10x solver tolerance)")
    return basis


def solve_particular(s: Scenario, ics=(0.0, 0.0)) -> ParticularSolution:
    """The driven solution from (x_p(t0), x_p'(t0)) = ics, with xi(t0) = 0.

    Any solution of the driven equation is a valid x_p; for F = 0 a nonzero
    choice is still legitimate and produces coherent states downstream. x_p
    is the scenario's zero-start solution plus the fundamental pair's image
    of ics, at the edges of the shared solve's steps; xi sums the steps'
    quadratic forms of x_p there. Logs the solve's steps and the steps it
    tried at DEBUG level on "gho.classical".
    """
    x0, xdot0 = ics
    if not np.isfinite(ics).all():
        raise ValidationError(f"particular initial data must be finite, not {ics}")
    m0, _ = s.mass.eval(s.t0)
    sol = _collocation(s)
    n = len(sol.edges) - 1
    edge = np.ones((n + 1, 3))  # (x_p, M x_p', 1) at the step edges
    edge[:, :2] = sol.path @ np.array([x0, m0 * xdot0, 1.0])
    start = edge[:-1]
    xi = np.concatenate([[0.0], np.cumsum(np.einsum("na,nab,nb->n", start, sol.forms, start))])
    twice = np.concatenate([start, start])
    xi_thirds = np.einsum("na,nab,nb->n", twice, sol.thirds[1], twice)
    x, p = np.moveaxis(_node_states(sol.thirds[0], edge[..., None])[..., 0], -1, 0)
    values = np.stack([x, p, np.stack([xi[:-1], xi[:-1] + xi_thirds[:n],
                                       xi[:-1] + xi_thirds[n:], xi[1:]], axis=1)], axis=-1)
    if not np.isfinite(values).all():
        raise ValidationError(f"particular solution from {ics} overflows on the interval")
    inv_m, k, force = sol.at_nodes
    slopes = np.stack([inv_m * p, force - k * x, 0.5 * (k * x * x - inv_m * p * p)], axis=-1)
    _log.debug("solve_particular: %d steps, %d steps tried", n, sol.tried)
    dense = _joined(sol.fundamental, sol.edges, values, slopes)
    return ParticularSolution(scenario=s, _dense=dense)


def classical_invariant(basis: ClassicalBasis, part, s: Scenario, x, p, t) -> float:
    """Action-variable invariant evaluated on classical phase-space data.

    I = [ (Omega^2/rho^2) (x - x_p)^2 + (M rho' (x - x_p) - rho (M x' - M x_p'))^2 ]
        / (2 |Omega|),
    where p is the canonical momentum of the Hamiltonian (the one -i hbar d/dx
    represents) and M x' = p - 2 M a x - b is the kinetic momentum; for
    a = b = 0 the two coincide. part=None stands for x_p = 0. With |Omega|, I
    is non-negative for either sign of Omega. Times outside the working
    interval (nan included) raise ValidationError.
    """
    bs, ps = _snapshots(s, basis, part, t, "t")
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
    """Dense trajectory export: one row per time, columns trajectory_columns.
    Times outside the working interval (nan included) raise ValidationError."""
    times = np.asarray(times, dtype=float)
    bs, ps = _snapshots(basis.scenario, basis, part, times, "times")
    return np.column_stack([times, bs.u, bs.u_dot, bs.v, bs.v_dot, ps.x,
                            ps.momentum / bs.mass, ps.xi, bs.rho, bs.rho_dot, bs.tau])

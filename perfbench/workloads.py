"""The benchmark's workloads: program set-up, seeded inputs, one timed
operation and the checks on its output.

A workload's operations come in rounds. Every round holds the same kinds of
operation in the same numbers, so a run of whole rounds has the same mix,
and the same share of failed operations, whatever the seed.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import references as ref
from pace import LARGE, SMALL

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ("sho", "free_particle", "parametric", "driven_sho")

# queries and hops keep this angle in tau from every focal time
FOCAL_MARGIN = 0.1


class Checks:
    """Worst error per check, and every output that missed its tolerance."""

    def __init__(self):
        self.worst = {}
        self.tolerance = {}
        self.wrong = []

    def error(self, name, value, tol, what):
        value = float(value)
        self.tolerance[name] = tol
        if not value <= tol:  # also catches nan
            self.wrong.append(f"{name} = {value:.3e} > {tol:g} ({what})")
            value = math.inf if math.isnan(value) else value
        self.worst[name] = max(self.worst.get(name, 0.0), value)

    def value(self, name, value):
        """An accuracy figure with no tolerance of its own (verify values)."""
        self.worst[name] = max(self.worst.get(name, -math.inf), float(value))


def _read_bundled():
    return {name: (ROOT / "scenarios" / f"{name}.json").read_text() for name in BUNDLED}


class Draws:
    """Seeded draws in [0, 1) that cover every parameter's range evenly.

    Stream `key` gives, in round r of a run of R rounds, a point in stratum
    perm[r] of R equal strata, perm being a seeded permutation per stream.
    Pairs drawn together by `sample` lie on a rank-1 lattice of R points,
    shifted by a seeded offset. Whatever the seed, a run then meets every
    part of each range once, and pairs in the same pattern, so the mix of
    cheap and costly operations hardly varies between seeds.
    """

    def __init__(self, seed, n_rounds):
        self.rng = np.random.default_rng(seed)
        self.n_rounds = n_rounds
        self._perms = {}
        self._lattices = {}
        generator = max(1, round(0.618034 * n_rounds))
        while math.gcd(generator, n_rounds) != 1:
            generator += 1
        self._generator = generator

    def __call__(self, key, index):
        if key not in self._perms:
            self._perms[key] = self.rng.permutation(self.n_rounds)
        return float(self._perms[key][index] + self.rng.uniform()) / self.n_rounds

    def choice(self, key, index, options):
        return options[int(len(options) * self(key, index))]

    def sample(self, key, index, make):
        """make(u, w) at this round's lattice point until it accepts.

        A point inside an excluded band, such as the margin around a focal
        time, is nudged within its strata, and past 20 nudges replaced by
        free draws.
        """
        if key not in self._lattices:
            self._lattices[key] = (self.rng.permutation(self.n_rounds),
                                   self.rng.uniform(size=2))
        order, shift = self._lattices[key]
        k = int(order[index])
        for attempt in range(1000):
            if attempt < 20:
                nudge = (attempt * 0.618034) % 1.0
                u = ((k + nudge) / self.n_rounds + shift[0]) % 1.0
                w = ((k * self._generator + nudge) / self.n_rounds + shift[1]) % 1.0
            else:
                u, w = self.rng.uniform(size=2)
            found = make(float(u), float(w))
            if found is not None:
                return found
        raise RuntimeError(f"no admissible input for {key}")


def _within(u, lo, hi):
    return lo + u * (hi - lo)


# -- verify ---------------------------------------------------------------------


class Verify:
    """`gho verify --xp 1.0,0.0` on each bundled scenario; one call is one op."""

    name = "verify"
    round_s = 17.5
    yardstick = LARGE

    def setup(self):
        from gho import cli

        self.main = cli.main
        self.paths = {name: str(ROOT / "scenarios" / f"{name}.json") for name in BUNDLED}

    def prepare(self, draw):
        pass

    def round_ops(self, draw, index):
        return [str(name) for name in draw.rng.permutation(BUNDLED)]

    def run(self, scenario):
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.main(["verify", "--scenario", self.paths[scenario], "--xp", "1.0,0.0"])
        return code, out.getvalue()

    def check(self, scenario, result, checks):
        code, text = result
        problems, known, values = ref.judge_verify(scenario, code, text)
        for check, value in values.items():
            checks.value(f"verify.{scenario}.{check}", value)
        if problems:
            checks.wrong.extend(problems)
            return "verify report rejected"
        if known:
            return f"known fault: {'/'.join(ref.KNOWN_FAULT)} FAIL"
        return None


# -- kernel-queries -------------------------------------------------------------

FAST_OSCILLATOR = {"hbar": 0.5, "interval": [0.0, 12.0],
                   "frequency": {"kind": "constant", "value": 5.0}}
# default (Omega = 1), custom:0,1,1,0 (Omega = -1), a rotated non-orthogonal pair
BASES = (None, ((0.0, 1.0), (1.0, 0.0)), ((0.8, 0.3), (0.4, 1.1)))
# (short groups, long groups) per round; one group is 3 bases x 2 directions
KERNEL_MIX = {"sho": (3, 2), "free_particle": (3, 2), "parametric": (3, 2),
              "driven_sho": (3, 2), "fast": (3, 1)}
SHORT_SPAN = (0.05, 0.5)
LONG_SPAN = {"sho": (math.pi + 0.2, 11.9), "parametric": (math.pi + 0.2, 11.9),
             "driven_sho": (math.pi + 0.2, 7.9), "free_particle": (1.5, 4.9),
             "fast": (0.7, 11.9)}
KERNEL_TOL = {"conjugation": 1e-12, "basis_invariance": 1e-6, "closed_form": 1e-6}


@dataclass
class QueryGroup:
    scenario: str
    span: str
    t_a: float
    t_b: float
    x_a: float
    x_b: float
    values: dict = field(default_factory=dict)


class KernelQueries:
    """Scalar gho.kernel queries: five scenarios, three bases, short and long spans."""

    name = "kernel-queries"
    round_s = 0.32
    yardstick = SMALL

    def setup(self):
        import gho

        self.gho = gho
        self.data = {name: json.loads(text) for name, text in _read_bundled().items()}
        self.data["fast"] = FAST_OSCILLATOR
        self.scenarios = {name: gho.load_scenario(json.dumps(data))
                          for name, data in self.data.items()}
        self.solved = {}
        for name, s in self.scenarios.items():
            bases = [gho.solve_homogeneous_basis(s, ics) for ics in BASES]
            self.solved[name] = (bases, gho.solve_particular(s))

    def prepare(self, draw):
        self.tracks = {name: ref.ClassicalTrack(data) for name, data in self.data.items()}

    def _group(self, draw, key, index):
        name, span = key[:2]
        track = self.tracks[name]
        lo, hi = SHORT_SPAN if span == "short" else LONG_SPAN[name]
        crossing = span == "long" and name != "free_particle"

        def make(u, w):
            length = _within(u, lo, hi)
            t_a = _within(w, track.t0, track.t1 - length)
            crossed, margin = track.crossings(t_a, t_a + length)
            if margin >= FOCAL_MARGIN and (crossed >= 1) == crossing:
                return t_a, t_a + length

        t_a, t_b = draw.sample(key, index, make)
        x_a, x_b = (_within(draw(key + (x,), index), -2.0, 2.0) for x in ("x_a", "x_b"))
        return QueryGroup(name, span, t_a, t_b, x_a, x_b)

    def round_ops(self, draw, index):
        ops = []
        for name, (n_short, n_long) in KERNEL_MIX.items():
            for span, count in (("short", n_short), ("long", n_long)):
                for slot in range(count):
                    group = self._group(draw, (name, span, slot), index)
                    ops.extend((group, basis, backward)
                               for basis in range(len(BASES)) for backward in (False, True))
        return [ops[i] for i in draw.rng.permutation(len(ops))]

    def run(self, op):
        group, basis, backward = op
        bases, part = self.solved[group.scenario]
        if backward:
            q = self.gho.KernelQuery(group.t_b, group.t_a, group.x_b, group.x_a)
        else:
            q = self.gho.KernelQuery(group.t_a, group.t_b, group.x_a, group.x_b)
        return self.gho.kernel(self.scenarios[group.scenario], bases[basis], part, q)

    def check(self, op, value, checks):
        group, basis, backward = op
        group.values[(basis, backward)] = value
        if len(group.values) < 2 * len(BASES):
            return None
        what = (f"{group.scenario} {group.span} t_a={group.t_a!r} t_b={group.t_b!r} "
                f"x_a={group.x_a!r} x_b={group.x_b!r}")
        forward = [group.values[(b, False)] for b in range(len(BASES))]
        for b, value in enumerate(forward):
            checks.error("kernel.conjugation",
                         ref.relative_error(np.conj(value), group.values[(b, True)]),
                         KERNEL_TOL["conjugation"], f"{what} basis {b}")
            if b:
                checks.error("kernel.basis_invariance", ref.relative_error(value, forward[0]),
                             KERNEL_TOL["basis_invariance"], f"{what} basis {b}")
        args = (group.t_a, group.t_b, group.x_a, group.x_b)
        if group.scenario == "sho":
            exact = ref.mehler_kernel(*args, omega=1.0, hbar=1.0)
        elif group.scenario == "fast":
            exact = ref.mehler_kernel(*args, omega=5.0, hbar=0.5)
        elif group.scenario == "free_particle":
            exact = ref.free_kernel(*args, hbar=1.0)
        else:
            return None
        for b, value in enumerate(forward):
            checks.error("kernel.closed_form", ref.relative_error(value, exact),
                         KERNEL_TOL["closed_form"], f"{what} basis {b}")
        return None


# -- packet-hops ----------------------------------------------------------------

# hop classes per scenario and round; "landing" ends on the first focal time
# after t_a (landing on a later one can split next to an earlier one)
HOP_MIX = {"sho": ("short", "short", "medium", "medium", "long", "landing"),
           "free_particle": ("short", "short", "medium", "medium", "long", "long"),
           "parametric": ("short", "short", "medium", "medium", "long", "landing"),
           "driven_sho": ("short", "short", "medium", "medium", "long", "landing")}
HOP_SPAN = {"short": (0.02, 0.1), "medium": (0.2, 1.0)}
LONG_HOP = {"sho": (math.pi + 0.2, 7.0), "parametric": (math.pi + 0.2, 7.0),
            "driven_sho": (math.pi + 0.2, 7.0), "free_particle": (1.5, 4.5)}
GRID_SIZES = (2048, 4096)
BASE_HALF_WIDTH = 10.0
SQUEEZE_WINDOW = 1.0  # squeezes at t0 .. t0 + 1, where rho stays below 1.5
PACKET_TOL = {"mode_fidelity": 1e-5, "sho_reference": 1e-6, "norm": 1e-6,
              "invariant": 1e-5, "squeeze_modulus": 1e-10}


@dataclass(frozen=True)
class Hop:
    scenario: str
    kind: str
    n: int
    t_a: float
    t_b: float
    grid: object


@dataclass(frozen=True)
class Squeeze:
    scenario: str
    n: int
    t: float
    grid: object


class PacketHops:
    """Packet operations at N = 2048 and 4096: hops through gho.propagate and
    one squeeze, apply_U_F(apply_U_S(phi_n)), per round."""

    name = "packet-hops"
    round_s = 0.75
    yardstick = SMALL

    def setup(self):
        import gho

        self.gho = gho
        texts = _read_bundled()
        self.data = {name: json.loads(text) for name, text in texts.items()}
        self.scenarios = {name: gho.load_scenario(text) for name, text in texts.items()}
        self.solved = {name: (gho.solve_homogeneous_basis(s), gho.solve_particular(s))
                       for name, s in self.scenarios.items()}

    def prepare(self, draw):
        self.tracks = {name: ref.ClassicalTrack(data) for name, data in self.data.items()}
        self.squeeze_offset = int(draw.rng.integers(len(BUNDLED)))

    def _grid(self, name, t_lo, t_hi, n_points):
        """(-10, 10, N) widened by the packet width rho sqrt(hbar/Omega) over the hop."""
        hbar = self.scenarios[name].hbar
        widest = float(np.max(self.tracks[name].rho(np.linspace(t_lo, t_hi, 33))))
        factor = widest * math.sqrt(hbar)  # Omega = 1 for the default basis
        if factor <= 1.0 + 1e-6:
            factor = 1.0
        else:
            n_points = int(math.ceil(n_points * factor / 256.0)) * 256
        half = BASE_HALF_WIDTH * factor
        return self.gho.GridSpec(-half, half, n_points)

    def _hop(self, draw, key, index):
        name, kind = key[:2]
        track = self.tracks[name]
        n = draw.choice(key + ("n",), index, range(4))
        size = draw.choice(key + ("N",), index, GRID_SIZES)

        def make(u, w):
            if kind == "landing":
                t_a = _within(w, track.t0, track.t1 - math.pi - 0.2)
                t_b = track.focal_time(t_a, 1)
                return None if t_b is None else (t_a, t_b)
            length = _within(u, *(HOP_SPAN.get(kind) or LONG_HOP[name]))
            t_a = _within(w, track.t0, track.t1 - length)
            crossed, margin = track.crossings(t_a, t_a + length)
            crossing = kind == "long" and name != "free_particle"
            if margin >= FOCAL_MARGIN and (crossed >= 1) == crossing:
                return t_a, t_a + length

        t_a, t_b = draw.sample(key, index, make)
        return Hop(name, kind, n, t_a, t_b, self._grid(name, t_a, t_b, size))

    def round_ops(self, draw, index):
        ops = [self._hop(draw, (name, kind, slot), index)
               for name, kinds in HOP_MIX.items() for slot, kind in enumerate(kinds)]
        name = BUNDLED[(self.squeeze_offset + index) % len(BUNDLED)]
        t0 = self.tracks[name].t0
        t = _within(draw(("squeeze", "t"), index), t0, t0 + SQUEEZE_WINDOW)
        ops.append(Squeeze(name, draw.choice(("squeeze", "n"), index, range(4)), t,
                           self._grid(name, t, t, GRID_SIZES[0])))
        return [ops[i] for i in draw.rng.permutation(len(ops))]

    def run(self, op):
        gho = self.gho
        s = self.scenarios[op.scenario]
        basis, part = self.solved[op.scenario]
        if isinstance(op, Squeeze):
            phi = gho.sho_eigenstate(op.n, op.grid, s.hbar)
            return gho.apply_U_F(gho.apply_U_S(phi, basis, s, op.t), part, s, op.t)
        start = gho.eigenmode_packet(s, basis, part, op.n, op.t_a, op.grid)
        moved = gho.propagate(start, s, basis, part, op.t_b)
        return moved, gho.invariant_expectation(moved, basis, part, s)

    def check(self, op, result, checks):
        gho = self.gho
        s = self.scenarios[op.scenario]
        basis, part = self.solved[op.scenario]
        x, dx = op.grid.points, op.grid.dx
        if isinstance(op, Squeeze):
            what = f"squeeze {op.scenario} n={op.n} t={op.t!r} N={op.grid.n_points}"
            closed = np.abs(gho.build_generalized_coherent_state(
                s, basis, part, op.n, op.t, op.grid).samples)
            checks.error("squeeze.modulus",
                         np.max(np.abs(np.abs(result.samples) - closed)) / np.max(closed),
                         PACKET_TOL["squeeze_modulus"], what)
            return None
        moved, invariant = result
        what = (f"{op.kind} hop {op.scenario} n={op.n} {op.t_a!r}->{op.t_b!r} "
                f"N={op.grid.n_points}")
        target = gho.eigenmode_packet(s, basis, part, op.n, op.t_b, op.grid).samples
        checks.error("packet.mode_fidelity", ref.l2_error(moved.samples, target, dx),
                     PACKET_TOL["mode_fidelity"], what)
        if op.scenario == "sho":
            exact = ref.sho_mode(op.n, op.t_b, x, t0=s.t0)
            checks.error("packet.sho_reference",
                         max(ref.l2_error(moved.samples, exact, dx),
                             ref.l2_error(target, exact, dx)),
                         PACKET_TOL["sho_reference"], what)
        checks.error("packet.norm", abs(ref.l2_norm(moved.samples, dx) - 1.0),
                     PACKET_TOL["norm"], what)
        checks.error("packet.invariant", abs(invariant - s.hbar * (op.n + 0.5)),
                     PACKET_TOL["invariant"], what)
        return None


WORKLOADS = {cls.name: cls for cls in (Verify, KernelQueries, PacketHops)}

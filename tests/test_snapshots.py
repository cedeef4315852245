"""One dense-output evaluation per solution and time, and the part=None rule."""

import math
from pathlib import Path

import numpy as np
import pytest

import gho
from gho import KernelQuery, ValidationError

ROOT = Path(__file__).resolve().parents[1]
QUERY = KernelQuery(0.2, 1.4, 0.3, -0.4)


@pytest.fixture(scope="module")
def driven_sho():
    s = gho.load_scenario((ROOT / "scenarios" / "driven_sho.json").read_text())
    return s, gho.solve_homogeneous_basis(s), gho.solve_particular(s)


PART_NONE_CALLS = {
    "kernel": lambda s, basis, packet: gho.kernel(s, basis, None, QUERY),
    "propagate": lambda s, basis, packet: gho.propagate(packet, s, basis, None, 1.5),
    "eigenmode_packet": lambda s, basis, packet: gho.eigenmode_packet(
        s, basis, None, 0, 1.0, packet.grid),
    "apply_U_F": lambda s, basis, packet: gho.apply_U_F(packet, None, s, 1.0),
    "invariant_expectation": lambda s, basis, packet: gho.invariant_expectation(
        packet, basis, None, s),
}


@pytest.mark.parametrize("name", sorted(PART_NONE_CALLS))
def test_part_none_rejected_under_a_force(driven_sho, grid, name):
    # x_p = 0 does not solve the driven equation; None must not stand for it
    s, basis, part = driven_sho
    packet = gho.eigenmode_packet(s, basis, part, 0, 1.0, grid)
    with pytest.raises(ValidationError, match="solve_particular"):
        PART_NONE_CALLS[name](s, basis, packet)


def test_part_none_is_the_zero_solution_without_force(sho, sho_basis, sho_part_zero, grid):
    assert gho.kernel(sho, sho_basis, None, QUERY) == gho.kernel(sho, sho_basis,
                                                                 sho_part_zero, QUERY)
    with_none = gho.eigenmode_packet(sho, sho_basis, None, 2, 0.7, grid)
    solved = gho.eigenmode_packet(sho, sho_basis, sho_part_zero, 2, 0.7, grid)
    assert np.array_equal(with_none.samples, solved.samples)


def test_snapshot_agrees_for_scalar_and_array_times(parametric_basis, parametric_part):
    ts = np.array([0.3, 2.9, 7.1])
    together = parametric_basis.at(ts)
    for k, t in enumerate(ts):
        alone = parametric_basis.at(t)
        for name in ("u", "u_dot", "v", "v_dot", "rho", "rho_dot", "tau", "theta", "mass"):
            assert getattr(alone, name) == pytest.approx(getattr(together, name)[k],
                                                         rel=1e-14, abs=1e-15)
    assert parametric_part.at(ts).xi[1] == pytest.approx(parametric_part.at(2.9).xi)


def test_dense_evaluations_per_operation(monkeypatch, parametric, parametric_basis, grid):
    s, basis = parametric, parametric_basis
    part = gho.solve_particular(s, (1.0, 0.0))
    packet = gho.eigenmode_packet(s, basis, part, 1, 1.1, grid)
    sizes = []
    original = gho.classical._DenseOutput.__call__

    def counting(self, t):
        sizes.append(int(np.size(t)))
        return original(self, t)

    monkeypatch.setattr(gho.classical._DenseOutput, "__call__", counting)

    def evaluations(operation):
        sizes.clear()
        operation()
        return list(sizes)

    # u, v and x_p share the step edges: one evaluation of all three per endpoint
    kernel_calls = evaluations(lambda: gho.kernel(s, basis, part, QUERY))
    assert kernel_calls == [1, 1]
    # x_p solved on an equal scenario loaded again has a solve of its own:
    # one evaluation of each
    again = gho.scenario_from_dict(gho.scenario_to_dict(s))
    assert again == s
    other = gho.solve_particular(again, (1.0, 0.0))
    assert evaluations(lambda: gho.kernel(s, basis, other, QUERY)) == [1, 1, 1, 1]
    assert evaluations(lambda: gho.eigenmode_packet(s, basis, part, 1, 1.1, grid)) == [1]
    assert evaluations(lambda: gho.build_generalized_coherent_state(
        s, basis, part, 1, 1.1, grid)) == [1]
    assert len(evaluations(lambda: gho.invariant_expectation(packet, basis, part, s))) <= 2


def test_joint_snapshots_are_the_separate_ones_to_the_bit(driven_sho):
    s, basis, _ = driven_sho
    part = gho.solve_particular(s, (1.0, 0.0))
    other = gho.solve_particular(
        gho.load_scenario((ROOT / "scenarios" / "driven_sho.json").read_text()), (1.0, 0.0))
    sho = gho.load_scenario((ROOT / "scenarios" / "sho.json").read_text())
    sho_basis = gho.solve_homogeneous_basis(sho)
    zero = gho.classical.particular_or_zero(sho, None)
    times = np.linspace(s.t0, s.t1, 37)
    # part shares basis's solve; other, solved on an equal scenario loaded
    # again, has its own
    assert part._fundamental is basis._fundamental
    assert other._fundamental is not basis._fundamental
    # part=None on a force-free scenario reads the zero solution
    for b, p, given in ((basis, part, part), (basis, other, other), (sho_basis, zero, None)):
        for t in [*times.tolist(), times, np.array(1.3)]:
            joint = gho.classical._snapshots(b, given, t)
            for got, alone in zip(joint, (b.at(t), p.at(t))):
                assert type(got) is type(alone)
                for name in alone._fields:
                    assert np.array_equal(getattr(got, name), getattr(alone, name))
                    assert type(getattr(got, name)) is type(getattr(alone, name))
    assert zero._fundamental is None


def _records(s, basis, part):
    bs, ps = basis.at(1.3), part.at(1.3)
    fwd = gho.kernel_coefficients(s, basis, part, 0.4, 1.3)
    bwd = gho.kernel_coefficients(s, basis, part, 1.3, 0.4)
    pairs = gho.kernel_coefficients(s, basis, part, np.array([0.4, 1.3]), np.array([1.3, 0.4]))
    return bs, ps, fwd, bwd, pairs.pair(0), pairs.pair(1)


RECORD_FIELDS = {
    gho.classical.BasisSnapshot: ("u", "u_dot", "v", "v_dot", "rho", "rho_dot", "tau",
                                  "theta", "mass"),
    gho.classical.ParticularSnapshot: ("x", "momentum", "xi"),
    gho.propagator.KernelCoefficients: ("t_a", "t_b", "prefactor", "q_aa", "q_bb", "q_ab",
                                        "l_a", "l_b", "denominator", "caustic"),
    KernelQuery: ("t_a", "t_b", "r_a", "r_b"),
    gho.CausticReport: ("t_a", "t_end", "times"),
    gho.classical._Collocation: ("edges", "path", "forms", "thirds", "at_nodes", "tried",
                                 "fundamental"),
}


def test_records_built_in_one_step_behave_as_dataclasses(driven_sho):
    # the records are NamedTuples; each keeps what its frozen dataclass gave
    # (equality, repr, hash, _replace for replace, no assignment) and adds
    # the tuple protocol
    s, basis, part = driven_sho
    bs, ps, fwd, bwd, first, second = _records(s, basis, part)
    scalar = [bs, ps, fwd, bwd, first, second, QUERY, gho.caustic_times(basis, 0.4)]
    records = [*scalar, gho.classical._collocation(s)]
    assert {type(record) for record in records} == set(RECORD_FIELDS)
    for record in records:
        cls = type(record)
        names = cls._fields
        assert names == RECORD_FIELDS[cls]
        assert cls(*record) == cls(**record._asdict()) == record == tuple(record)
        changed = record._replace(**{names[0]: 2.5})
        assert type(changed) is cls and changed[0] == 2.5 and changed[1:] == record[1:]
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, record))
        assert repr(record) == f"{cls.__name__}({shown})"
        with pytest.raises(AttributeError):
            setattr(record, names[0], 0.0)
        with pytest.raises(AttributeError):
            setattr(record, "extra", 1)
        with pytest.raises(AttributeError):
            delattr(record, names[0])
    for record in scalar:
        assert hash(record) == hash(type(record)(*record))
    assert (first, second) == (fwd, bwd)
    assert first.value(0.3, -0.4) == fwd.value(0.3, -0.4)
    assert gho.propagator.KernelCoefficients(*fwd[:-1]).caustic is False


def test_kernel_query_keeps_its_dataclass_behaviour():
    q = KernelQuery(0.2, 1.4, 0.3, -0.4)
    assert q == KernelQuery(t_a=0.2, t_b=1.4, r_a=0.3, r_b=-0.4)
    assert hash(q) == hash(KernelQuery(0.2, 1.4, 0.3, -0.4))
    assert repr(q) == "KernelQuery(t_a=0.2, t_b=1.4, r_a=0.3, r_b=-0.4)"
    assert list(q._fields) == ["t_a", "t_b", "r_a", "r_b"]
    assert q._replace(t_b=2.0) == KernelQuery(0.2, 2.0, 0.3, -0.4)
    assert tuple(q) == (0.2, 1.4, 0.3, -0.4)
    with pytest.raises(AttributeError):
        q.t_a = 0.0
    with pytest.raises(TypeError):
        KernelQuery(0.2, 1.4, 0.3)


def test_backward_scalar_query_is_the_conjugate_to_the_bit(driven_sho):
    s, _, _ = driven_sho
    part = gho.solve_particular(s, (1.0, 0.0))
    rng = np.random.default_rng(1701)
    checked = 0
    for ics in (None, ((0.0, 1.0), (1.0, 0.0)), ((0.8, 0.3), (0.4, 1.1))):
        basis = gho.solve_homogeneous_basis(s, ics)
        draws = rng.uniform([s.t0, s.t0, -2.0, -2.0], [s.t1, s.t1, 2.0, 2.0], (200, 4))
        for t_a, t_b, x_a, x_b in draws.tolist():
            try:
                forward = gho.kernel(s, basis, part, KernelQuery(t_a, t_b, x_a, x_b))
            except gho.CausticEncountered:
                continue
            backward = gho.kernel(s, basis, part, KernelQuery(t_b, t_a, x_b, x_a))
            assert math.isfinite(abs(forward))
            assert backward.real == forward.real and backward.imag == -forward.imag
            checked += 1
        # the same pairs, each drawn in either order, then each reversed,
        # in one array call
        t_a, t_b, x_a, x_b = draws.T
        co = gho.kernel_coefficients(s, basis, part, np.concatenate([t_a, t_b]),
                                     np.concatenate([t_b, t_a]))
        values = co.value(np.concatenate([x_a, x_b]), np.concatenate([x_b, x_a]))
        assert np.any(t_a < t_b) and np.any(t_a > t_b)
        assert np.array_equal(co.caustic[:200], co.caustic[200:])
        kept = ~co.caustic[:200]
        forward, backward = values[:200][kept], values[200:][kept]
        assert np.all(np.isfinite(forward)) and kept.sum() >= 190
        assert np.array_equal(backward.real, forward.real)
        assert np.array_equal(backward.imag, -forward.imag)
    assert checked >= 590

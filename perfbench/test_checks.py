"""Self-tests of the benchmark's checkers: each one rejects a wrong output.

    python3 -m pytest perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import references as ref  # noqa: E402
import workloads  # noqa: E402


def kernel_group(scenario, t_a, t_b, forward):
    """A finished query group whose three bases all return `forward`."""
    group = workloads.QueryGroup(scenario, "long", t_a, t_b, 0.7, -1.1)
    for basis in range(len(workloads.BASES)):
        group.values[(basis, False)] = forward
        group.values[(basis, True)] = np.conj(forward)
    return group


def judge_group(group):
    checks = workloads.Checks()
    workloads.KernelQueries().check((group, 0, False), group.values[(0, False)], checks)
    return checks


def test_mehler_reference_tends_to_free_kernel():
    free = ref.free_kernel(0.0, 0.8, 0.3, -0.5, hbar=0.7)
    slow = ref.mehler_kernel(0.0, 0.8, 0.3, -0.5, omega=1e-5, hbar=0.7)
    assert ref.relative_error(slow, free) < 1e-9


def test_closed_form_check_accepts_the_reference():
    t_a, t_b = 0.4, 0.4 + math.pi + 0.9  # one focal crossing
    exact = ref.mehler_kernel(t_a, t_b, 0.7, -1.1, omega=1.0, hbar=1.0)
    assert judge_group(kernel_group("sho", t_a, t_b, exact)).wrong == []


@pytest.mark.parametrize("scenario,omega,hbar", [("sho", 1.0, 1.0), ("fast", 5.0, 0.5)])
def test_closed_form_check_rejects_a_morse_phase_off_by_one(scenario, omega, hbar):
    t_a = 0.4
    t_b = t_a + (math.pi + 0.9) / omega
    exact = ref.mehler_kernel(t_a, t_b, 0.7, -1.1, omega=omega, hbar=hbar)
    checks = judge_group(kernel_group(scenario, t_a, t_b, -1j * exact))  # one crossing too many
    assert checks.wrong and all(w.startswith("kernel.closed_form") for w in checks.wrong)


def test_basis_and_conjugation_checks_reject_disagreement():
    exact = ref.free_kernel(0.2, 1.9, 0.7, -1.1, hbar=1.0)
    group = kernel_group("free_particle", 0.2, 1.9, exact)
    group.values[(2, False)] = exact * (1 + 1e-4)
    group.values[(1, True)] = exact
    wrong = judge_group(group).wrong
    assert any(w.startswith("kernel.basis_invariance") for w in wrong)
    assert any(w.startswith("kernel.conjugation") for w in wrong)


@pytest.fixture(scope="module")
def hops():
    bench = workloads.PacketHops()
    bench.setup()
    bench.prepare(workloads.Draws(0, 1))
    return bench


def sho_hop(hops, n=2, t_b=1.3):
    grid = hops.gho.GridSpec(-10.0, 10.0, 2048)
    op = workloads.Hop("sho", "medium", n, 0.5, t_b, grid)
    exact = ref.sho_mode(n, t_b, grid.points)
    return op, grid, exact


def judge_hop(hops, op, samples, invariant):
    checks = workloads.Checks()
    moved = hops.gho.WavePacket(op.grid, samples, op.t_b)
    hops.check(op, (moved, invariant), checks)
    return checks.wrong


def test_mode_check_accepts_the_reference(hops):
    op, grid, exact = sho_hop(hops)
    assert judge_hop(hops, op, exact, 2.5) == []


def test_mode_check_rejects_a_dropped_mode_phase(hops):
    op, grid, exact = sho_hop(hops)
    dropped = ref.hermite_function(op.n, grid.points)  # no exp(-i (n + 1/2) theta)
    wrong = judge_hop(hops, op, dropped.astype(complex), 2.5)
    assert any(w.startswith("packet.sho_reference") for w in wrong)
    assert any(w.startswith("packet.mode_fidelity") for w in wrong)


def test_norm_and_invariant_checks_reject_drift(hops):
    op, grid, exact = sho_hop(hops)
    wrong = judge_hop(hops, op, exact * (1 + 1e-5), 2.5 + 1e-4)
    assert any(w.startswith("packet.norm") for w in wrong)
    assert any(w.startswith("packet.invariant") for w in wrong)


def test_squeeze_check_rejects_a_wrong_width(hops):
    grid = hops.gho.GridSpec(-10.0, 10.0, 2048)
    op = workloads.Squeeze("sho", 1, 0.3, grid)
    state = hops.gho.WavePacket(grid, ref.hermite_function(1, 1.01 * grid.points), 0.3)
    checks = workloads.Checks()
    hops.check(op, state, checks)
    assert any(w.startswith("squeeze.modulus") for w in checks.wrong)


def verify_report(scenario, status=None):
    """A report as gho verify prints it, with chosen check statuses."""
    status = dict(status or {})
    lines = []
    for name in ref.VERIFY_CHECKS:
        state = status.get(name, ref.VERIFY_EXPECTED.get((scenario, name), "PASS"))
        value = "nan" if state.startswith("SKIP") else "1e-12"
        lines.append(f"CHECK {name} value={value} tol=1e-06 {state}")
    return "\n".join(lines) + "\n"


def test_verify_judge_accepts_expected_reports():
    for scenario in workloads.BUNDLED:
        problems, known, _ = ref.judge_verify(
            scenario, 1 if scenario == "driven_sho" else 0, verify_report(scenario))
        assert problems == []
        assert known == (scenario == "driven_sho")


def test_verify_judge_accepts_the_known_fault_mended():
    problems, known, _ = ref.judge_verify(
        "driven_sho", 0, verify_report("driven_sho", {"schrodinger_residual_modes": "PASS"}))
    assert problems == [] and not known


def test_verify_judge_rejects_a_missing_check():
    text = verify_report("sho").replace("CHECK path_integral", "NOTE path_integral")
    problems, known, _ = ref.judge_verify("sho", 0, text)
    assert problems and "path_integral" in problems[0]


@pytest.mark.parametrize("skip", ["SKIP(CausticEncountered)", "SKIP(GridTooNarrow)"])
def test_verify_judge_rejects_an_unexpected_skip(skip):
    for scenario in ("parametric", "driven_sho"):
        problems, known, _ = ref.judge_verify(
            scenario, 0, verify_report(scenario, {"kernel_composition": skip}))
        assert problems and not known


@pytest.mark.parametrize("scenario", ["sho", "free_particle", "parametric"])
def test_verify_judge_rejects_a_fail_off_the_known_fault(scenario):
    problems, _, _ = ref.judge_verify(
        scenario, 1, verify_report(scenario, {"schrodinger_residual_modes": "FAIL"}))
    assert problems


def test_verify_judge_rejects_another_fail_on_driven_sho():
    problems, known, _ = ref.judge_verify(
        "driven_sho", 1, verify_report("driven_sho", {"path_integral": "FAIL"}))
    assert problems and not known

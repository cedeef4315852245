"""A mutation table for `gho verify`: each row breaks one piece of the
program in process and names the checks that must FAIL on it.

A row is a named `monkeypatch` mutation, one in-process `main(["verify",
...])` per scenario, and the exit code and the exact set of checks that
print FAIL. A mutation that no check catches is pinned `xfail(strict=True)`
with its reason, so that the check which closes the gap flips the test.
"""

import json
import sys
from pathlib import Path

import pytest

from gho import classical, oracle, packets, propagator, states
from gho.cli import main

from conftest import COUPLED

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _failed_checks(capsys, scenario, *options):
    """verify's exit code on a scenario, a bundled one by name or a file by
    path, and the checks that FAIL."""
    path = scenario if isinstance(scenario, Path) else SCENARIOS / f"{scenario}.json"
    code = main(["verify", "--scenario", str(path), *options])
    lines = capsys.readouterr().out.splitlines()
    return code, {ln.split()[1] for ln in lines if ln.endswith(" FAIL")}


def _scale_coefficient(monkeypatch, name, factor):
    """Every kernel coefficient record with the field name scaled by factor."""
    coefficients = propagator._coefficients

    def mutated(*args):
        co = coefficients(*args)
        return co._replace(**{name: getattr(co, name) * factor})

    monkeypatch.setattr(propagator, "_coefficients", mutated)


def _shift_gauge_beta(monkeypatch, shift):
    """gauge_coefficients' beta moved by shift / hbar, in every module that
    imports the function by name."""
    gauge = classical.gauge_coefficients

    def mutated(s, mass, ps, t):
        alpha, beta, gamma = gauge(s, mass, ps, t)
        return alpha, beta + shift / s.hbar, gamma

    for module in (classical, propagator, states):
        monkeypatch.setattr(module, "gauge_coefficients", mutated)


def _scale_wavenumbers(monkeypatch, factor):
    """The spectral derivatives' wavenumbers scaled by factor: their spacing
    dx divided by it."""
    derivatives = packets._derivatives

    def mutated(samples, dx, order):
        return derivatives(samples, dx / factor, order)

    monkeypatch.setattr(packets, "_derivatives", mutated)


def _drop_gauge_rate(monkeypatch):
    """W's x^2 coefficient without d(aM)/dt = a'M + aM', in the gauge frame
    that the evolver and the Schrodinger residual both read."""
    frame = oracle._gauge_frame

    def mutated(s, t):
        m, w2, w1, w0, chi2, chi1 = frame(s, t)
        (a_c, a_dot), (_, m_dot) = s.a.eval(t), s.mass.eval(t)
        return m, w2 - (a_dot * m + a_c * m_dot), w1, w0, chi2, chi1

    monkeypatch.setattr(oracle, "_gauge_frame", mutated)


# a row's runs: a bundled scenario's name, or a tuple of a scenario's name
# and verify's options, where the name may be one of these, written out first
WRITTEN = {"coupled": COUPLED}

# K(b, a) and K(a, b) come from the one formula with the endpoints exchanged,
# so an error in l_a alone breaks K(b, a) = conj K(a, b). l_a is 0 on sho,
# free_particle and parametric without x_p or b, so the row shows on
# driven_sho only.
ROWS = {
    "l_a-scaled-1e-9": (lambda mp: _scale_coefficient(mp, "l_a", 1.0 + 1e-9), {
        "driven_sho": {"kernel_conjugation"},
    }),
    "q_bb-scaled-1e-3": (lambda mp: _scale_coefficient(mp, "q_bb", 1.0 + 1e-3), {
        "sho": {"kernel_conjugation", "kernel_closed_form", "kernel_composition",
                "schrodinger_residual_kernel", "evolver_vs_kernel", "path_integral"},
    }),
    # the kernel slice's residual reads the shift at 1.2e-4 (sho) and 1.1e-4
    # (driven_sho), against 1e-4, where the window is flat
    "gauge-beta-shifted-1e-3": (lambda mp: _shift_gauge_beta(mp, 1e-3), {
        "sho": {"kernel_closed_form", "schrodinger_residual_kernel",
                "schrodinger_residual_modes", "evolver_vs_kernel"},
        "driven_sho": {"schrodinger_residual_kernel", "schrodinger_residual_modes",
                       "evolver_vs_kernel"},
    }),
    # the residual and <I> differentiate spectrally; the evolver's kinetic
    # step and propagate's Fresnel phase keep their own wavenumbers
    "spectral-wavenumbers-scaled-1e-3": (lambda mp: _scale_wavenumbers(mp, 1.0 + 1e-3), {
        "sho": {"invariant_eigenmode", "schrodinger_residual_kernel",
                "schrodinger_residual_modes"},
    }),
    # a = 0 on every bundled scenario; a wrong W fails in both oracles
    "d(aM)/dt-dropped-from-W": (_drop_gauge_rate, {
        ("coupled", "--xp", "0.4,-0.2"): {"schrodinger_residual_kernel",
                                          "schrodinger_residual_modes",
                                          "invariant_drift_tdse", "evolver_vs_kernel"},
    }),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_mutation_fails_exactly_its_checks(row, monkeypatch, capsys, tmp_path):
    mutate, expected = ROWS[row]
    mutate(monkeypatch)
    for run, checks in expected.items():
        scenario, *options = (run,) if isinstance(run, str) else run
        if scenario in WRITTEN:
            path = tmp_path / f"{scenario}.json"
            path.write_text(json.dumps(WRITTEN[scenario]))
            scenario = path
        assert _failed_checks(capsys, scenario, *options) == (1, checks), run


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no verify check propagates a packet across a focal time "
                          "(ROADMAP item 2)")
def test_morse_count_zero_in_the_factored_hop_is_caught(monkeypatch, capsys):
    # the Morse count of propagate's factored form only; the kernel
    # coefficients (and the chirp-z form, which reads them) keep theirs
    count = propagator._morse_count

    def mutated(at_a, at_b, big_b, ops):
        if sys._getframe(1).f_code.co_name == "propagate":
            return 0
        return count(at_a, at_b, big_b, ops)

    monkeypatch.setattr(propagator, "_morse_count", mutated)
    runs = [_failed_checks(capsys, name, "--xp", "1.0,0.0")
            for name in ("sho", "free_particle", "parametric", "driven_sho")]
    runs.append(_failed_checks(capsys, "sho", "--basis", "custom:0,1,1,0"))
    assert any(code == 1 for code, _ in runs)

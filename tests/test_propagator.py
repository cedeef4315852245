import functools
import logging
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gho
from gho import (CausticEncountered, GridTooNarrow, KernelQuery, ValidationError,
                 caustic_times, green_function, inner_product, kernel, kernel_delta_check,
                 l2_distance, mean_x, packet_norm, propagate, sho_eigenstate, var_x)
from gho.packets import (WavePacket, _read_interpolant, czt, evaluate_trig_interpolant,
                         upsample_periodic)
from gho.propagator import (CAUSTIC_RTOL, _hop_matrix, _lct_apply, _morse_count,
                            _quadrature_size, kernel_coefficients)

from conftest import COUPLED, free_kernel, mehler_kernel


def test_free_kernel_closed_form(free, free_basis):
    value = kernel(free, free_basis, None, KernelQuery(0.0, 1.0, 0.0, 0.0))
    assert abs(value) == pytest.approx((2 * np.pi) ** -0.5, rel=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(50):
        t_a = rng.uniform(0.0, 2.0)
        t_b = t_a + rng.uniform(0.05, 2.5)
        x_a, x_b = rng.uniform(-3.0, 3.0, 2)
        val = kernel(free, free_basis, None, KernelQuery(t_a, t_b, x_a, x_b))
        ref = free_kernel(t_a, t_b, x_a, x_b)
        assert abs(val - ref) / abs(ref) < 1e-10


def test_sho_kernel_quarter_period(sho, sho_basis):
    value = kernel(sho, sho_basis, None, KernelQuery(0.0, np.pi / 2, 0.0, 0.0))
    assert abs(value) == pytest.approx((2 * np.pi) ** -0.5, rel=1e-12)
    assert np.angle(value) == pytest.approx(-np.pi / 4, abs=1e-12)


def test_sho_kernel_matches_mehler(sho, sho_basis):
    rng = np.random.default_rng(6)
    for _ in range(100):
        t_a = rng.uniform(0.0, 3.0)
        t_b = t_a + rng.uniform(0.2, np.pi - 0.2)
        x_a, x_b = rng.uniform(-3.0, 3.0, 2)
        val = kernel(sho, sho_basis, None, KernelQuery(t_a, t_b, x_a, x_b))
        ref = mehler_kernel(t_a, t_b, x_a, x_b)
        assert abs(val - ref) / abs(ref) < 1e-10


def test_caustic_raises(sho, sho_basis):
    with pytest.raises(CausticEncountered):
        kernel(sho, sho_basis, None, KernelQuery(0.0, np.pi, 0.1, 0.2))


def test_equal_time_rejected(sho, sho_basis):
    with pytest.raises(ValidationError):
        kernel(sho, sho_basis, None, KernelQuery(1.0, 1.0, 0.1, 0.2))


def test_morse_phase_after_first_caustic(sho, sho_basis):
    # Feynman-Soriau continuation: extra exp(-i pi/2) past the focus at pi
    big_t = 5 * np.pi / 4
    x_a, x_b = 0.3, -0.2
    val = kernel(sho, sho_basis, None, KernelQuery(0.0, big_t, x_a, x_b))
    ref = ((2 * np.pi * abs(np.sin(big_t))) ** -0.5
           * np.exp(-1j * (np.pi / 4 + np.pi / 2))
           * np.exp(1j * ((x_a ** 2 + x_b ** 2) * np.cos(big_t) - 2 * x_a * x_b)
                    / (2 * np.sin(big_t))))
    assert abs(val - ref) / abs(ref) < 1e-10


def test_conjugation_symmetry(sho, sho_basis, sho_part_cos):
    rng = np.random.default_rng(7)
    for _ in range(100):
        t_a, t_b = np.sort(rng.uniform(0.0, 11.0, 2))
        if t_b - t_a < 0.05:
            continue
        x_a, x_b = rng.uniform(-2.0, 2.0, 2)
        try:
            forward = kernel(sho, sho_basis, sho_part_cos,
                             KernelQuery(t_a, t_b, x_a, x_b))
            backward = kernel(sho, sho_basis, sho_part_cos,
                              KernelQuery(t_b, t_a, x_b, x_a))
        except CausticEncountered:
            continue
        assert abs(np.conj(forward) - backward) / abs(forward) < 1e-12


def ramp_kernel(t_a, t_b, x_a, x_b, kappa):
    """Kernel of x'' + x = kappa t (unit mass, frequency and hbar) for
    t_b > t_a off the focal times: the forced-oscillator action (Feynman and
    Hibbs, problem 3-10) with its force integrals in closed form, and the
    Morse phase exp(-i pi/2) per focal time crossed."""
    big_t = t_b - t_a
    sin_t, cos_t = np.sin(big_t), np.cos(big_t)
    # int f(t) sin(t - t_a) dt and int f(t) sin(t_b - t) dt over [t_a, t_b]
    force_b = kappa * (sin_t - big_t * cos_t + t_a * (1.0 - cos_t))
    force_a = kappa * (t_b * (1.0 - cos_t) - sin_t + big_t * cos_t)
    # the double integral of f(t) f(s) sin(t_b - t) sin(s - t_a), s < t, over sin T
    double = kappa ** 2 * (big_t / 2 - (t_b ** 3 - t_a ** 3) / 6
                           + (big_t * t_a + t_a ** 2 - (t_a ** 2 + t_b ** 2) * cos_t / 2) / sin_t)
    action = ((((x_a ** 2 + x_b ** 2) * cos_t - 2 * x_a * x_b) / 2
               + x_b * force_b + x_a * force_a) / sin_t - double)
    morse = np.floor(big_t / np.pi)
    return ((2 * np.pi * abs(sin_t)) ** -0.5
            * np.exp(-1j * (np.pi / 4 + morse * np.pi / 2) + 1j * action))


def test_backward_kernel_is_conjugate_closed_form():
    # a time-dependent force breaks the symmetry K(b, a) = K(a, b) of a
    # time-independent H, so l_a != l_b and a swap that mixes them up cannot
    # go unseen; the reference is computed apart from gho
    kappa = 0.4
    s = gho.scenario_from_dict({"force": {"kind": "polynomial", "coefficients": [0.0, kappa]},
                                "interval": [0.0, 12.0]})
    basis = gho.solve_homogeneous_basis(s)
    part = gho.solve_particular(s, (1.0, 0.3))
    rng = np.random.default_rng(31)
    crossed = set()
    for _ in range(120):
        t_early, t_late = np.sort(rng.uniform(0.0, 12.0, 2))
        if abs(np.sin(t_late - t_early)) < 0.05:
            continue
        x_early, x_late = rng.uniform(-2.0, 2.0, 2)
        value = kernel(s, basis, part, KernelQuery(t_late, t_early, x_late, x_early))
        ref = np.conj(ramp_kernel(t_early, t_late, x_early, x_late, kappa))
        assert abs(value - ref) / abs(ref) < 1e-9
        crossed.add(int((t_late - t_early) // np.pi))
    assert crossed == {0, 1, 2, 3}


def test_basis_choice_invariance(sho, sho_basis, sho_basis_squeezed,
                                 sho_basis_rotated, sho_part_zero, sho_part_cos):
    rng = np.random.default_rng(8)
    for _ in range(40):
        t_a = rng.uniform(0.0, 3.0)
        t_b = t_a + rng.uniform(0.2, np.pi - 0.2)
        x_a, x_b = rng.uniform(-2.5, 2.5, 2)
        q = KernelQuery(t_a, t_b, x_a, x_b)
        reference = kernel(sho, sho_basis, sho_part_zero, q)
        for basis in (sho_basis_squeezed, sho_basis_rotated):
            other = kernel(sho, basis, sho_part_zero, q)
            assert abs(other - reference) / abs(reference) < 1e-10
        with_xp = kernel(sho, sho_basis, sho_part_cos, q)
        assert abs(with_xp - reference) / abs(reference) < 1e-10


def test_green_function_step(sho, sho_basis, free, free_basis):
    assert green_function(sho, sho_basis, None, KernelQuery(2.0, 1.0, 0.1, 0.3)) == 0j
    forward = green_function(sho, sho_basis, None, KernelQuery(1.0, 2.0, 0.1, 0.3))
    assert forward == kernel(sho, sho_basis, None, KernelQuery(1.0, 2.0, 0.1, 0.3))
    # swapped-role kernel is nonzero while the Green function vanishes
    assert green_function(free, free_basis, None, KernelQuery(1.0, 0.0, 0.0, 0.0)) == 0j
    assert abs(kernel(free, free_basis, None, KernelQuery(1.0, 0.0, 0.0, 0.0))) > 0.1
    with pytest.raises(ValidationError):
        green_function(sho, sho_basis, None, KernelQuery(1.0, 1.0, 0.0, 0.0))


def test_caustic_times_sho(sho, sho_basis):
    report = caustic_times(sho_basis, 0.0)
    expected = np.pi * np.arange(1, 4)
    assert len(report.times) == 3
    assert np.max(np.abs(np.asarray(report.times) - expected)) < 1e-10
    assert report.morse_index(1.0) == 0
    assert report.morse_index(4.0) == 1
    assert report.morse_index(7.0) == 2


@pytest.mark.parametrize("ics", [None, ((1.0, 0.0), (0.0, 5.0)), ((0.1, 0.0), (0.0, -2.0))],
                         ids=["default", "round", "squeezed_negative_omega"])
def test_caustic_times_fast_oscillator_to_rounding(ics):
    # w = 5: D(t; t_a) is proportional to sin(5 (t - t_a)) in every basis, so
    # the k-th focal time is t_a + k pi / 5, whichever way rho varies
    s = gho.scenario_from_dict({"hbar": 0.5, "interval": [0.0, 12.0], "frequency": 5.0})
    basis = gho.solve_homogeneous_basis(s, ics)
    rng = np.random.default_rng(5)
    for t_a in (0.0, 0.37, 2.9):
        report = caustic_times(basis, t_a)
        count = int((s.t1 - t_a) * 5.0 / np.pi)
        expected = t_a + np.pi * np.arange(1, count + 1) / 5.0
        assert len(report.times) == count
        assert np.max(np.abs(np.asarray(report.times) - expected)) <= 1e-13
        # the Morse count of the kernel agrees with the report and the closed form
        t_b = rng.uniform(t_a + 0.01, s.t1, 200)
        at_a, at_b = basis.at(t_a), basis.at(t_b)
        morse = _morse_count(at_a, at_b, _hop_matrix(basis.omega, at_a, at_b)[1], np)
        assert np.array_equal(morse, np.floor((t_b - t_a) * 5.0 / np.pi))
        assert [report.morse_index(t) for t in t_b] == list(morse)


def test_caustic_times_free(free, free_basis):
    assert caustic_times(free_basis, 0.0).times == ()


@pytest.mark.parametrize("t_end", [100.0, -1.0, math.nan])
def test_caustic_times_rejects_an_end_outside_the_interval(sho, sho_basis, t_end):
    # past t1 the report would claim t_end = 100 but list the focal times before 12
    with pytest.raises(ValidationError, match="t_end=.* outside working interval"):
        caustic_times(sho_basis, 0.5, t_end)
    assert caustic_times(sho_basis, 0.5, sho.t1).times == caustic_times(sho_basis, 0.5).times


def test_caustic_times_squeezed(sho, sho_basis_squeezed):
    report = caustic_times(sho_basis_squeezed, 0.0)
    expected = np.pi * np.arange(1, 4)
    assert np.max(np.abs(np.asarray(report.times) - expected)) < 1e-10


def test_propagate_full_period_revival(sho, sho_basis, grid):
    packet = sho_eigenstate(0, grid)
    out = propagate(packet, sho, sho_basis, None, 2 * np.pi)
    overlap = inner_product(out, packet)
    assert abs(overlap) > 1 - 1e-6
    assert abs(packet_norm(out) - 1.0) < 1e-6


def test_propagate_free_spreading(free, free_basis, grid):
    packet = sho_eigenstate(0, grid)
    assert var_x(packet) == pytest.approx(0.5, abs=1e-10)
    out = propagate(packet, free, free_basis, None, 1.0)
    assert var_x(out) == pytest.approx(1.0, abs=1e-8)
    assert abs(packet_norm(out) - 1.0) < 1e-6


def test_propagate_roundtrip(free, free_basis, grid):
    packet = sho_eigenstate(0, grid)
    there = propagate(packet, free, free_basis, None, 1.0)
    back = propagate(there, free, free_basis, None, 0.0)
    assert l2_distance(back, packet) < 1e-6


def test_kernel_delta_check_is_the_distance_moved(sho, sho_basis, sho_part_cos, grid):
    # the packet is read as a state at t_a, whatever its own time
    packet = sho_eigenstate(1, grid)
    start = packet.with_samples(packet.samples, t=0.3)
    moved = propagate(start, sho, sho_basis, sho_part_cos, 0.3 + 1e-3)
    assert (kernel_delta_check(sho, sho_basis, sho_part_cos, 0.3, 1e-3, packet)
            == l2_distance(moved, start))


def test_propagate_requires_dark_edges(free, free_basis):
    narrow = gho.GridSpec(-2.0, 2.0, 64)
    x = narrow.points
    samples = np.exp(-x ** 2 / 2).astype(complex)
    packet = gho.WavePacket(narrow, samples, 0.0)
    with pytest.raises(gho.GridTooNarrow):
        propagate(packet, free, free_basis, None, 0.5)


def test_delta_limit(sho, sho_basis, grid):
    packet = sho_eigenstate(0, grid)
    d1 = kernel_delta_check(sho, sho_basis, None, 0.0, 1e-3, packet)
    d2 = kernel_delta_check(sho, sho_basis, None, 0.0, 5e-4, packet)
    assert d1 < 1e-2
    assert d1 / d2 == pytest.approx(2.0, rel=0.15)


def test_composition_identity_quadrature(sho, sho_basis, free, free_basis,
                                         parametric, parametric_basis):
    from gho.oracle import compose_kernels

    cases = [
        (free, free_basis, 0.0, 0.7, 2.0),
        (sho, sho_basis, 0.2, 0.8, 1.5),          # t_c - t_a < pi
        (parametric, parametric_basis, 0.2, 0.9, 1.6),
    ]
    for s, basis, t_a, t_b, t_c in cases:
        x_a, x_c = 0.3, -0.5
        direct = kernel(s, basis, None, KernelQuery(t_a, t_c, x_a, x_c))
        composed = compose_kernels(s, basis, None, t_a, t_b, t_c, x_a, x_c)
        assert abs(composed - direct) / abs(direct) < 1e-6


def test_norm_preserved_by_propagation(parametric, parametric_basis, grid):
    packet = sho_eigenstate(0, grid)
    out = propagate(packet, parametric, parametric_basis, None, 1.0)
    assert abs(packet_norm(out) - 1.0) < 1e-6


def test_kernel_positions_dimension_checked(sho, sho_basis):
    with pytest.raises(ValidationError):
        kernel(sho, sho_basis, None, KernelQuery(0.0, 1.0, (0.0, 0.0), (1.0, 1.0)))


def test_time_outside_interval_rejected(sho, sho_basis):
    with pytest.raises(ValidationError):
        kernel(sho, sho_basis, None, KernelQuery(0.0, 20.0, 0.0, 0.0))


@pytest.mark.parametrize("t_a, count", [(2.5, 0), (4.5, 1), (7.5, 2)])
def test_both_forms_read_one_morse_count_on_a_backward_factored_hop(
        sho, sho_basis, monkeypatch, caplog, t_a, count):
    # _morse_count takes the forward hop's B; given the backward hop's own,
    # the factored form counted 1, 0 and 1 (its phase came out the same)
    counts = {}

    def spy(*args):
        caller = sys._getframe(1).f_code.co_name
        counts[caller] = _morse_count(*args)
        return counts[caller]

    monkeypatch.setattr(gho.propagator, "_morse_count", spy)
    packet = gho.eigenmode_packet(sho, sho_basis, None, 0, t_a, gho.GridSpec(-30.0, 30.0, 300))
    with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
        propagate(packet, sho, sho_basis, None, 0.5)
    assert "factored form" in caplog.records[-1].getMessage()
    kernel_coefficients(sho, sho_basis, None, t_a, 0.5)
    assert counts == {"propagate": count, "_coefficients": count}


def test_array_pairs_with_a_nan_time_rejected(sho, sho_basis):
    # a nan pair is not marked caustic and would come back as nan
    with pytest.raises(ValidationError, match="t_b=nan outside working interval"):
        kernel_coefficients(sho, sho_basis, None, 0.5, np.array([1.0, math.nan]))
    with pytest.raises(ValidationError, match="t_a=nan outside working interval"):
        kernel_coefficients(sho, sho_basis, None, np.array([math.nan, 2.0]),
                            np.array([1.0, 1.5]))


def test_green_function_propagates_caustic(sho, sho_basis):
    with pytest.raises(CausticEncountered):
        green_function(sho, sho_basis, None, KernelQuery(0.0, np.pi, 0.1, 0.2))


def test_propagate_through_repeated_caustics():
    # t_b = 4 pi is the fourth focal time: one factored hop with B = 0 and
    # three focal times crossed on the way
    s = gho.scenario_from_dict({"interval": [0.0, 14.0]})
    basis = gho.solve_homogeneous_basis(s)
    grid = gho.GridSpec(-10.0, 10.0, 2048)
    packet = sho_eigenstate(0, grid)
    out = propagate(packet, s, basis, None, 4 * np.pi)
    overlap = inner_product(out, packet)
    assert abs(overlap) > 1 - 1e-6
    assert np.angle(overlap) == pytest.approx(0.0, abs=1e-6)


def test_propagate_just_outside_caustic_tolerance(sho, sho_basis, grid):
    # |sin T| ~ 1e-9 is outside the kernel's caustic trigger, where the
    # kernel's chirp is far beyond any quadrature; the factored form must
    # take it, not the chirp-z sum
    packet = sho_eigenstate(0, grid)
    out = propagate(packet, sho, sho_basis, None, np.pi - 1e-9)
    assert abs(packet_norm(out) - 1.0) < 1e-6


def test_pathologically_short_step_is_near_identity(sho, sho_basis, grid):
    # the factored form takes a 1e-9 hop as a Fresnel multiply, with no
    # quadrature to refine; the packet moves by O(epsilon)
    packet = sho_eigenstate(0, grid)
    assert kernel_delta_check(sho, sho_basis, None, 0.0, 1e-9, packet) < 1e-8


def test_propagate_split_avoids_earlier_focal_time(parametric, parametric_basis,
                                                   parametric_part):
    # t_b is the second focal time after t_a and the midpoint of the hop lies
    # 3.6e-4 from the first; the single factored hop never visits it
    s, basis, part = parametric, parametric_basis, parametric_part
    grid = gho.GridSpec(-15.37, 15.37, 6400)
    t_a, t_b = 3.860832683236491, 10.14868524627105
    start = gho.eigenmode_packet(s, basis, part, 2, t_a, grid)
    moved = propagate(start, s, basis, part, t_b)
    target = gho.eigenmode_packet(s, basis, part, 2, t_b, grid)
    assert l2_distance(moved, target) < 1e-8


@pytest.mark.parametrize("ics, t_b, morse", [
    (None, 2 * np.pi - 2e-12, 1),
    (None, 3 * np.pi - 5e-12, 2),
    (((1.0, 0.0), (0.0, 2.0)), 2 * np.pi + 2e-12, 2),
    (((1.0, 0.0), (0.0, 2.0)), 3 * np.pi + 5e-12, 3),
    (((0.0, 1.0), (1.0, 0.0)), 2 * np.pi - 2e-12, 1),  # Omega = -1
])
def test_morse_index_next_to_focal_time(sho, ics, t_b, morse):
    # t_b sits within the solver error of tau from a focal time but outside
    # the caustic band; floor(|tau_b - tau_a| / pi) alone miscounts here, the
    # sign of D pins the parity
    basis = gho.solve_homogeneous_basis(sho, ics)
    co = gho.kernel_coefficients(sho, basis, None, 0.0, t_b)
    phase = co.prefactor / abs(co.prefactor)
    assert abs(phase - np.exp(-1j * (np.pi / 4 + np.pi / 2 * morse))) < 1e-9


PIECEWISE_MASS = {"mass": {"kind": "piecewise", "breakpoints": [2.0, 5.0],
                           "values": [1.0, 2.5, 0.7]},
                  "interval": [0.0, 12.0]}
TAU_CASES = [({"interval": [0.0, 12.0]}, None),
             (PIECEWISE_MASS, None),
             ({"interval": [0.0, 12.0]}, ((0.0, 1.0), (1.0, 0.0))),
             (PIECEWISE_MASS, ((0.0, 1.0), (1.0, 0.5)))]


@pytest.mark.parametrize("spec, ics", TAU_CASES)
def test_denominator_is_rho_rho_sin_tau(spec, ics):
    s = gho.scenario_from_dict(spec)
    basis = gho.solve_homogeneous_basis(s, ics)
    rng = np.random.default_rng(12)
    checked = 0
    for t_a, t_b in rng.uniform(s.t0, s.t1, (60, 2)):
        at_a, at_b = basis.at(t_a), basis.at(t_b)
        expected = at_a.rho * at_b.rho * np.sin(at_b.tau - at_a.tau)
        if abs(t_b - t_a) < 1e-3 or abs(expected) < 1e-3:
            continue
        co = gho.kernel_coefficients(s, basis, None, t_a, t_b)
        assert abs(co.denominator - expected) < 1e-8 * abs(expected)
        checked += 1
    assert checked > 40


# a fast oscillator: ten focal times after t0, each on a sign change of D
FAST_SHO = ({"frequency": 3.0, "interval": [0.0, 12.0]}, None)


@pytest.mark.parametrize("spec, ics", TAU_CASES + [FAST_SHO])
def test_caustic_times_match_denominator_sign_changes(spec, ics):
    s = gho.scenario_from_dict(spec)
    basis = gho.solve_homogeneous_basis(s, ics)
    for t_a in (s.t0, 1.3, 4.2):
        report = caustic_times(basis, t_a)
        ts = np.linspace(t_a, s.t1, 6001)
        at = basis.at(ts)
        u, v = at.u, at.v
        d = v * u[0] - u * v[0]
        changes = np.nonzero(np.sign(d[1:-1]) * np.sign(d[2:]) < 0)[0] + 1
        assert len(report.times) == len(changes) > 0
        for k, i in enumerate(changes):
            assert ts[i] < report.times[k] < ts[i + 1]
            at_k = basis.at(report.times[k])
            assert abs(at_k.v * u[0] - at_k.u * v[0]) < 1e-11
        t_mid = 0.5 * (report.times[0] + report.times[1]) if len(changes) > 1 else s.t1
        assert report.morse_index(t_mid) == 1


HOP_SCENARIOS = {
    "sho": {"interval": [0.0, 12.0]},
    "parametric": {"frequency": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 2.0,
                                 "offset": 1.0}, "interval": [0.0, 12.0]},
    "coupled": COUPLED,
    # strong pumping: |A| is far from 1 at the focal times
    "pumped": {"frequency": {"kind": "sinusoidal", "amplitude": 0.6, "omega": 2.0,
                             "offset": 1.0}, "interval": [0.0, 12.0]},
}


@functools.cache
def _solved(name, xp=None):
    """Scenario, default basis and x_p (from the initial data xp, if given)."""
    s = gho.scenario_from_dict(HOP_SCENARIOS[name])
    part = gho.solve_particular(s) if xp is None else gho.solve_particular(s, xp)
    return s, gho.solve_homogeneous_basis(s), part


def _hop_error(name, n, t_a, t_b, grid, xp=None):
    """L2 distance of mode n hopped t_a -> t_b from mode n built at t_b."""
    s, basis, part = _solved(name, xp)
    moved = propagate(gho.eigenmode_packet(s, basis, part, n, t_a, grid), s, basis, part, t_b)
    return l2_distance(moved, gho.eigenmode_packet(s, basis, part, n, t_b, grid))


@pytest.mark.parametrize("name", ["sho", "parametric", "coupled"])
def test_propagate_short_hop(name, grid):
    # a 1e-3 hop is one Fresnel multiply; a quadrature would need ~0.5M points
    assert _hop_error(name, 2, 1.0, 1.001, grid) < 1e-10
    assert _hop_error(name, 2, 1.0, 0.999, grid) < 1e-10
    # x_p moves over the hop: the dilation reads x_p(t_a) + (x - x_p(t_b)) / A
    assert _hop_error(name, 2, 1.0, 1.001, grid, (0.5, 0.3)) < 1e-10
    assert _hop_error(name, 2, 1.0, 0.999, grid, (0.5, 0.3)) < 1e-10


def test_resampled_hop_reads_one_spectrum(grid, monkeypatch, caplog):
    # a short hop and a focal landing, A != 1 on both: one forward FFT of the
    # gauge-reduced packet, whose Fresnel-multiplied spectrum one read of
    # _read_interpolant reads at the dilated points by one chirp-z; no
    # inverse FFT
    real = gho.packets._scipy_fft()
    transforms, interpolants, reads, sums = [], [], [], []

    def counted(name):
        def call(*args, **kwargs):
            transforms.append(name)
            return getattr(real, name)(*args, **kwargs)
        return call

    def read(*args):
        reads.append(args)
        return _read_interpolant(*args)

    monkeypatch.setattr(gho.propagator, "_scipy_fft", lambda: SimpleNamespace(
        fft=counted("fft"), ifft=counted("ifft"), next_fast_len=real.next_fast_len))
    monkeypatch.setattr(gho.packets, "evaluate_trig_interpolant",
                        lambda *args: interpolants.append(args))
    monkeypatch.setattr(gho.propagator, "_read_interpolant", read)
    monkeypatch.setattr(gho.packets, "czt", lambda *args: sums.append(args) or czt(*args))
    _, basis, _ = _solved("coupled", (0.5, 0.3))
    for t_a, t_b in ((1.0, 1.001), (0.7, caustic_times(basis, 0.7).times[0])):
        transforms.clear()
        reads.clear()
        sums.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
            error = _hop_error("coupled", 2, t_a, t_b, grid, (0.5, 0.3))
        assert caplog.records[-1].getMessage().endswith("dilation resampled")
        assert transforms == ["fft"] and len(reads) == len(sums) == 1 and interpolants == []
        assert error < 1e-9


@pytest.mark.parametrize("name", ["sho", "parametric", "coupled"])
@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("k", [0, 1])
def test_propagate_lands_on_focal_time(name, n, k, grid):
    # B = 0 at t_f: the kernel is singular, the metaplectic hop is not; the
    # Morse term of the phase is what tells the two focal times apart
    _, basis, _ = _solved(name)
    t_a = 0.7
    t_f = caustic_times(basis, t_a).times[k]
    assert _hop_error(name, n, t_a, t_f, grid) < 1e-9
    assert _hop_error(name, n, t_f, t_a, grid) < 1e-9


def test_propagate_focal_landing_with_strong_dilation(grid):
    s, basis, _ = _solved("pumped")
    t_a = 0.6
    t_f = caustic_times(basis, t_a).times[1]
    big_a = _hop_matrix(basis.omega, basis.at(t_a), basis.at(t_f))[0]
    assert abs(big_a) == pytest.approx(0.19, abs=0.02)
    for n in (0, 2):
        assert _hop_error("pumped", n, t_a, t_f, grid) < 1e-9
        assert _hop_error("pumped", n, t_f, t_a, grid) < 1e-9


def _propagate_records(caplog):
    """(form, the test that chose it, A, B, quadrature points or None) of
    each propagate record."""
    pattern = (r"(\S+) form \((.+)\), A (\S+), B (\S+)"
               r"(?:, (\d+) quadrature points|, dilation (?:resampled|is the identity))$")
    out = []
    for record in caplog.records:
        if record.name == "gho.propagator" and record.getMessage().startswith("propagate"):
            form, test, big_a, big_b, points = re.search(pattern, record.getMessage()).groups()
            out.append((form, test, float(big_a), float(big_b), points and int(points)))
    return out


def test_propagate_logs_form_and_hop_matrix(sho, sho_basis, free, free_basis, grid, caplog):
    packet = sho_eigenstate(0, grid)
    wide, narrow = gho.GridSpec(-30.0, 30.0, 2048), gho.GridSpec(-10.0, 10.0, 512)
    with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
        propagate(packet, sho, sho_basis, None, 1e-3)
        propagate(packet, sho, sho_basis, None, 1.0)
        # free hops (A = 1) with B = 2 > N dx^2 / (hbar pi), past the Nyquist
        # band on both grids: the packet's box decides all the same
        propagate(sho_eigenstate(0, wide), free, free_basis, None, 2.0)
        propagate(sho_eigenstate(0, narrow).with_samples(
            sho_eigenstate(0, narrow).samples * np.exp(4j * narrow.points)),
            free, free_basis, None, 2.0)
    (short, long, fits, leaves) = _propagate_records(caplog)
    box = r"packet box \[(\S+), (\S+)\] "
    assert short[0] == "factored" and short[4] is None
    assert short[2:4] == pytest.approx((np.cos(1e-3), np.sin(1e-3)), rel=1e-6)
    lo, hi = map(float, re.fullmatch(box + "fits", short[1]).groups())
    # the ground state's support above 1e-13 of its peak (|x| < 7.7) widens
    # by its band (|k| < 7.7) times hbar B / A = 1e-3
    assert lo == pytest.approx(-hi) and 7.7 < hi < 7.8
    # A != 1 past the Nyquist band: chirp-z by the shortcut, under its label
    assert long[:2] == ("chirp-z", "past the Nyquist band") and long[4] >= grid.n_points
    assert long[2:4] == pytest.approx((np.cos(1.0), np.sin(1.0)), rel=1e-6)
    assert fits[0] == "factored" and fits[2:4] == (1.0, 2.0)
    lo, hi = map(float, re.fullmatch(box + "fits", fits[1]).groups())
    # the same box widens by the band times hbar B = 2
    assert wide.x_min < lo < -20.0 and 20.0 < hi < wide.x_max and lo == pytest.approx(-hi)
    assert leaves[0] == "chirp-z" and leaves[4] == narrow.n_points
    lo, hi = map(float, re.fullmatch(box + "leaves the grid", leaves[1]).groups())
    # boosted to k = 4: the box's middle moves right by hbar B 4 = 8, and
    # it leaves past x_max
    assert (lo + hi) / 2.0 == pytest.approx(8.0, abs=0.5) and hi > narrow.x_max


def test_propagate_quarter_period_takes_chirp_z(sho, sho_basis, grid, caplog):
    # A = cos(pi/2) = 0: the dilation is singular, the kernel quadrature is not
    with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
        error = _hop_error("sho", 2, 0.3, 0.3 + np.pi / 2, grid)
    ((form, _, big_a, _, _),) = _propagate_records(caplog)
    assert form == "chirp-z" and abs(big_a) < 1e-9
    assert error < 1e-8


def _free_half_hbar(ics, xp=(0.0, 0.0)):
    """The free particle at hbar = 0.5 on [0, 5], with the basis ics (None:
    u = 1, v = t, narrowest at t = 0) and x_p from the initial data xp."""
    s = gho.scenario_from_dict({"frequency": 0.0, "hbar": 0.5, "interval": [0.0, 5.0]})
    return s, gho.solve_homogeneous_basis(s, ics), gho.solve_particular(s, xp)


def _widened_grid(s, basis, t_a, t_b):
    """(-10, 10, 2048) widened by rho sqrt(hbar) over the hop, as packet-hops
    widens it."""
    rho = max(float(basis.at(t).rho) for t in np.linspace(min(t_a, t_b), max(t_a, t_b), 33))
    factor = rho * math.sqrt(s.hbar)
    return gho.GridSpec(-10.0 * factor, 10.0 * factor, math.ceil(2048 * factor / 256) * 256)


def _boosted_mode(s, basis, part, n, t, grid, boost):
    return gho.eigenmode_packet(s, basis, part, n, t, grid).samples * np.exp(
        1j * boost * grid.points / s.hbar)


# forward from the default basis's narrowest time; backward from that of
# u = 1, v = t - 5 (narrowest at t = 5): B = +-4.5, far past the Nyquist band.
# The third hop's x_p moves by -0.9, which the spectrum's ramp shifts
@pytest.mark.parametrize("t_a, t_b, ics, xp", [
    pytest.param(0.3, 4.8, None, (0.0, 0.0), id="0.3-4.8-None"),
    pytest.param(4.8, 0.3, ((1.0, 0.0), (-5.0, 1.0)), (0.0, 0.0), id="4.8-0.3-ics1"),
    pytest.param(0.3, 4.8, None, (0.0, -0.2), id="0.3-4.8-moving-xp")])
def test_free_hop_at_large_b_takes_the_factored_form(t_a, t_b, ics, xp, monkeypatch, caplog):
    s, basis, part = _free_half_hbar(ics, xp)
    grid = _widened_grid(s, basis, t_a, t_b)
    boost, big_t = 0.1, t_b - t_a
    packet = WavePacket(grid, _boosted_mode(s, basis, part, 3, t_a, grid, boost), t_a)
    with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
        moved = propagate(packet, s, basis, part, t_b)
        # a zero threshold puts every sample and mode in the box, which
        # then leaves the grid: the chirp-z form of the same hop
        monkeypatch.setattr(gho.propagator, "PACKET_BOX_RTOL", 0.0)
        chirp_z = propagate(packet, s, basis, part, t_b)
    (factored, fallback) = _propagate_records(caplog)
    assert factored[0] == "factored" and factored[1].endswith(" fits")
    assert factored[2:4] == (1.0, big_t)
    assert fallback[0] == "chirp-z" and fallback[1].endswith(" leaves the grid")
    # the mode spreads about x = boost T and picks up the boost's phase
    shifted = gho.GridSpec(grid.x_min - boost * big_t, grid.x_max - boost * big_t,
                           grid.n_points)
    exact = _boosted_mode(s, basis, part, 3, t_b, shifted, 0.0) * np.exp(
        1j * boost * grid.points / s.hbar - 0.5j * boost * boost * big_t / s.hbar)
    assert np.max(np.abs(moved.samples - exact)) <= 1e-11
    assert np.max(np.abs(moved.samples - chirp_z.samples)) <= 1e-11


def test_free_hop_whose_box_leaves_the_grid_takes_chirp_z(monkeypatch, caplog):
    # the boosted mode moves by 2.4 and spreads by a factor of 4.2 on a grid
    # that is not widened; or, on the grid widened for the hop, it starts at
    # x_p(t_a) = 1.2 rather than 0, and its box sheared by hbar B k leaves
    # past x_max, while the same hop with x_p = 0 fits (see the test above):
    # the Fresnel FFT multiply would wrap the packet around
    for t_a, t_b, boost, xp in ((0.3, 4.3, 0.6, (0.0, 0.0)), (0.3, 4.8, 0.1, (0.0, 4.0))):
        s, basis, part = _free_half_hbar(None, xp)
        grid = gho.GridSpec(-10.0, 10.0, 2048) if xp == (0.0, 0.0) else _widened_grid(
            s, basis, t_a, t_b)
        packet = WavePacket(grid, _boosted_mode(s, basis, part, 3, t_a, grid, boost), t_a)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="gho.propagator"), monkeypatch.context() as m:
            moved = propagate(packet, s, basis, part, t_b)
            m.setattr(gho.propagator, "PACKET_BOX_RTOL", 0.0)
            chirp_z = propagate(packet, s, basis, part, t_b)
        ((form, test, _, _, _), _) = _propagate_records(caplog)
        assert form == "chirp-z" and test.endswith(" leaves the grid")
        assert np.max(np.abs(moved.samples - chirp_z.samples)) <= 1e-15
        big_t = t_b - t_a
        shifted = gho.GridSpec(grid.x_min - boost * big_t, grid.x_max - boost * big_t,
                               grid.n_points)
        exact = _boosted_mode(s, basis, part, 3, t_b, shifted, 0.0) * np.exp(
            1j * boost * grid.points / s.hbar - 0.5j * boost * boost * big_t / s.hbar)
        assert np.max(np.abs(moved.samples - exact)) <= 1e-11
        # the periodic Fresnel pair on the same grid (A = 1, no gauge phase)
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, grid.dx)
        wrapped = np.fft.ifft(np.fft.fft(packet.samples) * np.exp(-0.5j * s.hbar * big_t * k * k))
        assert np.max(np.abs(wrapped - exact)) > 1e-3


# x_p moves by v t_b (12, 7.2 and 7.5) across [-10, 10]: the packet, or its
# tails, leave past x_max, where the factored form reads 0. Only the Fresnel
# multiply could wrap them around, and the box it shears stays on the grid
@pytest.mark.parametrize("v, n, t_b", [(120.0, 1024, 0.1), (60.0, 512, 0.12),
                                       (150.0, 2048, 0.05)])
def test_unit_hop_inside_the_nyquist_band_reads_the_box(v, n, t_b, caplog):
    s = gho.scenario_from_dict({"interval": [0.0, 1.0], "frequency": 0.0})
    basis, part = gho.solve_homogeneous_basis(s, None), gho.solve_particular(s, (0.0, v))
    grid = gho.GridSpec(-10.0, 10.0, n)
    packet = gho.eigenmode_packet(s, basis, part, 0, 0.0, grid)
    with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
        moved = propagate(packet, s, basis, part, t_b)
    ((form, test, big_a, big_b, _),) = _propagate_records(caplog)
    assert big_a == 1.0 and s.hbar * abs(big_b) * np.pi / grid.dx <= n * grid.dx
    assert form == "factored" and test.endswith(" fits")
    exact = gho.eigenmode_packet(s, basis, part, 0, t_b, grid)
    assert gho.l2_distance(moved, exact) <= 1e-9


# the box of mode 0 at t = 0 on (-10, 10, 2048), dark at both ends, sheared
# by hbar (B/A) k, not moved by x_p: with x_p from (9, -100) and a basis
# narrow at t0, A = 0.999 inside the Nyquist band; with x_p from
# (7.5, -25.862) on the free particle, A = 1 and the box x_p moves back
# onto the grid crosses x_max before the move. The Fresnel multiply wraps
# either one: the factored form would land 5e-2 and 2e-2 off
@pytest.mark.parametrize("spec, ics, xp, t_b", [
    ({"interval": [0.0, 5.0]}, ((0.1, 0.0), (0.0, 10.0)), (9.0, -100.0), 0.05),
    ({"frequency": 0.0, "interval": [0.0, 5.0]}, ((0.29, 0.0), (0.0, 1.0 / 0.29)),
     (7.5, -25.862), 0.29)], ids=["sho-dilated", "free-unit"])
def test_hop_whose_sheared_box_leaves_the_period_takes_chirp_z(spec, ics, xp, t_b, caplog):
    s = gho.scenario_from_dict(spec)
    basis, part = gho.solve_homogeneous_basis(s, ics), gho.solve_particular(s, xp)
    grid = gho.GridSpec(-10.0, 10.0, 2048)
    with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
        moved = propagate(gho.eigenmode_packet(s, basis, part, 0, 0.0, grid), s, basis, part, t_b)
    ((form, test, _, _, _),) = _propagate_records(caplog)
    assert form == "chirp-z" and test.endswith(" leaves the grid")
    assert l2_distance(moved, gho.eigenmode_packet(s, basis, part, 0, t_b, grid)) <= 1e-9


@pytest.mark.parametrize("big_t", [1e-6, 1e-3])
def test_short_free_hop_of_faint_tails_is_factored(big_t, caplog):
    # edges 1.4e-13 of the peak: the box fits the period cell, half a
    # spacing past each end, though not [x_min, x_max]; the chirp-z sum
    # would ask for 6.4e7 points at 1e-6, and for 64,512 at 1e-3
    s = gho.scenario_from_dict({"frequency": 0.0, "interval": [0.0, 1.0]})
    grid = gho.GridSpec(-10.0, 10.0, 1024)
    x = grid.points
    packet = WavePacket(grid, np.exp(-x ** 2 / (2.0 * 1.3 ** 2)), 0.5)
    with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
        moved = propagate(packet, s, gho.solve_homogeneous_basis(s), None, 0.5 + big_t)
    ((form, test, _, _, _),) = _propagate_records(caplog)
    assert form == "factored" and test.endswith(" fits")
    assert abs(packet_norm(moved) - packet_norm(packet)) <= 1e-14
    width = 1.3 ** 2 + 1j * big_t
    exact = (1.3 ** 2 / width) ** 0.5 * np.exp(-x ** 2 / (2.0 * width))
    assert np.max(np.abs(moved.samples - exact)) <= 1e-13


def test_free_particle_hop_resamples_nothing(free, monkeypatch, caplog):
    # A free hop's dilation is a unit one: with A = 1 and x_p = 0 at both ends
    # it maps the grid onto itself, a moving x_p makes it a shift (the ramp
    # on the spectrum), and the rotated pair's A is 1 only to rounding
    grid = gho.GridSpec(-10.0, 10.0, 512)
    x = grid.points
    x0, p, big_t = 0.5, 1.3, 0.05
    calls = []

    def spy(*args):
        calls.append(args)
        return czt(*args)

    for ics, xp, t_a in ((None, None, 0.4), (None, (0.5, 0.1), 0.4),
                         (((0.8, 0.3), (0.4, 1.1)), None, 0.3)):
        basis = gho.solve_homogeneous_basis(free, ics)
        part = None if xp is None else gho.solve_particular(free, xp)
        packet = WavePacket(grid, np.pi ** -0.25 * np.exp(-(x - x0) ** 2 / 2 + 1j * p * x), t_a)
        # what resampling at the grid's own nodes would have handed the hop
        resampled = propagate(packet.with_samples(evaluate_trig_interpolant(packet, x)),
                              free, basis, part, t_a + big_t)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="gho.propagator"), monkeypatch.context() as m:
            m.setattr(gho.packets, "czt", spy)
            moved = propagate(packet, free, basis, part, t_a + big_t)
        assert calls == []
        ((form, _, _, _, _),) = _propagate_records(caplog)
        big_a = _hop_matrix(basis.omega, basis.at(t_a), basis.at(t_a + big_t))[0]
        assert form == "factored" and abs(big_a - 1.0) <= 4.0 * np.finfo(float).eps
        assert (big_a != 1.0) == (ics is not None)
        assert caplog.records[-1].getMessage().endswith("dilation is the identity")
        assert np.max(np.abs(moved.samples - resampled.samples)) <= 1e-13
        width = 1.0 + 1j * big_t
        exact = (np.pi ** -0.25 * width ** -0.5 * np.exp(
            -(x - x0 - p * big_t) ** 2 / (2.0 * width) + 1j * p * x - 0.5j * p * p * big_t))
        assert np.max(np.abs(moved.samples - exact)) <= 1e-13


def test_unit_hop_reads_0_on_the_side_the_packet_left(caplog):
    # x_p moves from -1 to 0: the factored form reads the packet at x - 1, so
    # every sample with x - 1 < x_min, 52 of them, is exactly 0
    s = gho.scenario_from_dict({"interval": [0.0, 1.0], "frequency": 0.0})
    basis, part = gho.solve_homogeneous_basis(s), gho.solve_particular(s, (-1.0, 10.0))
    grid = gho.GridSpec(-10.0, 10.0, 1024)
    with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
        moved = propagate(gho.eigenmode_packet(s, basis, part, 0, 0.0, grid), s, basis, part,
                          0.1)
    ((form, test, _, _, _),) = _propagate_records(caplog)
    assert form == "factored" and test.endswith(" fits")
    left = moved.samples[grid.points < -9.0]
    assert len(left) == 52 and not np.any(left)
    assert l2_distance(moved, gho.eigenmode_packet(s, basis, part, 0, 0.1, grid)) <= 1e-13


# (scenario, basis initial data, x_p initial data); hbar != 1 and Omega = -1
# in the second, every coupling with a drive in the third
ARRAY_CASES = {
    "sho": ({"interval": [0.0, 12.0]}, None, (0.0, 0.0)),
    "negative_omega": ({"hbar": 0.6, "interval": [0.0, 12.0]}, ((0.0, 1.0), (1.0, 0.0)),
                       (0.5, 0.0)),
    "coupled": (COUPLED, ((0.8, 0.3), (0.4, 1.1)), (0.4, -0.2)),
}
_FIELDS = ("t_a", "t_b", "prefactor", "q_aa", "q_bb", "q_ab", "l_a", "l_b", "denominator")


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_array_coefficients_match_scalar_calls(name):
    spec, ics, xp = ARRAY_CASES[name]
    s = gho.scenario_from_dict(spec)
    basis = gho.solve_homogeneous_basis(s, ics)
    part = gho.solve_particular(s, xp)
    t_a, t_b = np.random.default_rng(21).uniform(s.t0, s.t1, (2, 120))
    focal = caustic_times(basis, 1.0).times
    # the last two pairs sit on focal times, one forward and one backward
    t_a = np.append(t_a, [1.0, focal[1]])
    t_b = np.append(t_b, [focal[0], 1.0])
    turns = np.abs(basis.at(t_b).tau - basis.at(t_a).tau) // np.pi
    assert np.any((turns >= 2) & (t_b > t_a)) and np.any((turns >= 2) & (t_b < t_a))
    co = kernel_coefficients(s, basis, part, t_a, t_b)
    assert list(np.flatnonzero(co.caustic)) == [120, 121]
    for i in range(len(t_a)):
        if co.caustic[i]:
            assert all(np.isnan(getattr(co, field)[i]) for field in _FIELDS[2:-1])
            assert abs(co.denominator[i]) <= 1e-12
            with pytest.raises(CausticEncountered):
                kernel_coefficients(s, basis, part, float(t_a[i]), float(t_b[i]))
            continue
        one = kernel_coefficients(s, basis, part, float(t_a[i]), float(t_b[i]))
        for field in _FIELDS:
            assert getattr(co, field)[i] == pytest.approx(getattr(one, field), rel=1e-14,
                                                          abs=0.0), (i, field)


def test_array_coefficients_broadcast_and_validate(sho, sho_basis):
    co = kernel_coefficients(sho, sho_basis, None, 0.5, np.array([1.0, 2.0, 3.0, 0.1]))
    assert co.q_ab.shape == co.caustic.shape == (4,)
    assert co.q_ab[3] == kernel_coefficients(sho, sho_basis, None, 0.5, 0.1).q_ab
    with pytest.raises(ValidationError):
        kernel_coefficients(sho, sho_basis, None, 0.5, np.array([[1.0, 2.0]]))
    with pytest.raises(ValidationError):  # equal times are a delta, not a caustic
        kernel_coefficients(sho, sho_basis, None, np.array([0.5, 1.0]), np.array([0.7, 1.0]))
    with pytest.raises(ValidationError):
        kernel_coefficients(sho, sho_basis, None, np.array([0.5, 13.0]), 1.0)


def _coefficient_records(caplog):
    """(pairs, largest Morse index, min |D|/scale over CAUSTIC_RTOL) per call."""
    pattern = r"(\d+) pairs, Morse index <= (\d+), min \|D\|/scale (\S+) x CAUSTIC_RTOL"
    return [tuple(f(g) for f, g in zip((int, int, float), re.search(pattern, r.getMessage()).groups()))
            for r in caplog.records
            if r.name == "gho.propagator" and r.getMessage().startswith("kernel_coefficients")]


def test_kernel_coefficients_logs_pairs_morse_and_caustic_margin(sho, sho_basis, caplog):
    focal = caustic_times(sho_basis, 0.5).times[0]
    with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
        kernel(sho, sho_basis, None, KernelQuery(0.3, 0.3 + np.pi + 1.0, 0.1, 0.2))
        kernel_coefficients(sho, sho_basis, None, np.array([0.5, 0.5, 2.0]),
                            np.array([focal, 9.0, 1.0]))
    (one, three) = _coefficient_records(caplog)
    # u = cos, v = sin: |D| = |sin(t_b - t_a)|, scale (|u_a| + |v_a|) (|u_b| + |v_b|)
    t_b = 0.3 + np.pi + 1.0
    scale = (np.cos(0.3) + np.sin(0.3)) * (abs(np.cos(t_b)) + abs(np.sin(t_b)))
    assert one[:2] == (1, 1)
    assert one[2] == pytest.approx(np.sin(1.0) / scale / CAUSTIC_RTOL, rel=1e-3)
    assert three[:2] == (3, 2) and three[2] <= 1.0


BUNDLED = Path(__file__).resolve().parents[1] / "scenarios"
# the default basis, custom:0,1,1,0 (Omega < 0) and a rotated non-orthogonal pair
SCALAR_BASES = (None, ((0.0, 1.0), (1.0, 0.0)), ((0.8, 0.3), (0.4, 1.1)))
_COEFFICIENTS = ("prefactor", "q_aa", "q_bb", "q_ab", "l_a", "l_b", "denominator")


@pytest.mark.parametrize("name", ["sho", "driven_sho", "parametric", "free_particle"])
def test_scalar_coefficients_match_array_pairs(name):
    # a scalar pair runs the kernel formulas on Python floats, an array of
    # pairs on numpy; both must give the same coefficients and caustics
    s = gho.load_scenario((BUNDLED / f"{name}.json").read_text())
    part = gho.solve_particular(s)
    t_a, t_b = np.random.default_rng(16).uniform(s.t0, s.t1, (2, 200))
    caustics = 0
    for ics in SCALAR_BASES:
        basis = gho.solve_homogeneous_basis(s, ics)
        # the first two focal times after t0 + 0.5, where there are any
        focal = caustic_times(basis, s.t0 + 0.5).times[:2]
        starts = np.append(t_a, [s.t0 + 0.5] * len(focal))
        ends = np.append(t_b, focal)
        for firsts, seconds in ((starts, ends), (ends, starts)):
            co = kernel_coefficients(s, basis, part, firsts, seconds)
            for k, (first, second) in enumerate(zip(firsts.tolist(), seconds.tolist())):
                if co.caustic[k]:
                    caustics += 1
                    with pytest.raises(CausticEncountered):
                        kernel_coefficients(s, basis, part, first, second)
                    continue
                one, pair = kernel_coefficients(s, basis, part, first, second), co.pair(k)
                for field in _COEFFICIENTS:
                    expected = getattr(pair, field)
                    assert abs(getattr(one, field) - expected) <= 1e-15 * abs(expected), \
                        (name, ics, k, field)
    assert caustics == (0 if name == "free_particle" else 12)


def test_scalar_query_types():
    s = gho.load_scenario((BUNDLED / "driven_sho.json").read_text())
    basis, part = gho.solve_homogeneous_basis(s), gho.solve_particular(s)
    for t_a, t_b in ((0.7, 2.0), (1, 2), (np.float64(0.7), np.float64(2.0))):
        co = kernel_coefficients(s, basis, part, t_a, t_b)
        assert all(type(getattr(co, field)) is float for field in _COEFFICIENTS[1:])
        assert type(co.prefactor) is complex
        assert type(kernel(s, basis, part, KernelQuery(t_a, t_b, 0.3, -0.4))) is complex
        assert type(kernel(s, basis, part, KernelQuery(t_b, t_a, 0.3, -0.4))) is complex


def test_zero_dimensional_times_take_the_array_path():
    s = gho.load_scenario((BUNDLED / "parametric.json").read_text())
    basis, part = gho.solve_homogeneous_basis(s, SCALAR_BASES[2]), gho.solve_particular(s)
    for t_a, t_b in ((0.7, 2.0), (5.5, 0.25)):
        floats = kernel_coefficients(s, basis, part, t_a, t_b)
        arrays = kernel_coefficients(s, basis, part, np.array(t_a), np.array(t_b))
        assert isinstance(arrays.q_aa, np.floating)
        for field in _COEFFICIENTS:
            assert getattr(floats, field) == pytest.approx(getattr(arrays, field), rel=1e-15)
        q = KernelQuery(np.array(t_a), np.array(t_b), 0.3, -0.4)
        assert kernel(s, basis, part, q) == pytest.approx(
            kernel(s, basis, part, KernelQuery(t_a, t_b, 0.3, -0.4)), rel=1e-14)
    # a float or an int paired with a 0-d array or a numpy scalar takes
    # numpy's path, both ways round
    for pair in ((0.5, np.array(1.0)), (0.5, np.float32(1.0)), (1, np.int64(3))):
        for t_a, t_b in (pair, pair[::-1]):
            floats = kernel_coefficients(s, basis, part, float(t_a), float(t_b))
            mixed = kernel_coefficients(s, basis, part, t_a, t_b)
            for field in _COEFFICIENTS:
                assert getattr(floats, field) == pytest.approx(getattr(mixed, field), rel=1e-15)
            assert kernel(s, basis, part, KernelQuery(t_a, t_b, 0.3, -0.4)) == pytest.approx(
                kernel(s, basis, part, KernelQuery(float(t_a), float(t_b), 0.3, -0.4)),
                rel=1e-14)


@pytest.mark.parametrize("scalar", [float, np.array])
def test_scalar_query_exceptions(sho, sho_basis, scalar):
    def query(t_a, t_b):
        return kernel(sho, sho_basis, None, KernelQuery(scalar(t_a), scalar(t_b), 0.3, -0.4))

    with pytest.raises(ValidationError, match="outside working interval"):
        query(-0.5, 1.0)
    with pytest.raises(ValidationError, match="outside working interval"):
        query(1.0, 12.5)
    for t_a, t_b in ((math.nan, 1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValidationError, match="outside working interval"):
            query(t_a, t_b)
    with pytest.raises(ValidationError, match="equal-time"):
        query(1.0, 1.0)
    with pytest.raises(CausticEncountered):
        query(0.0, math.pi)
    with pytest.raises(CausticEncountered):
        query(math.pi, 0.0)
    # next to the caustic band B is tiny: values or CausticEncountered, never
    # ZeroDivisionError or OverflowError
    for t_a in (0.0, 1.3, 2.9):
        for offset in (0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-11, -1e-11, 1e-8):
            for t_b in (t_a + math.pi + offset, t_a + 2.0 * math.pi + offset):
                for first, second in ((t_a, t_b), (t_b, t_a)):
                    try:
                        value = query(first, second)
                    except CausticEncountered:
                        continue
                    assert math.isfinite(abs(value))


def test_chirp_z_quadrature_past_the_cap_raises_before_it_allocates():
    # b / hbar is the kernel's phase rate in x: past the Nyquist band the
    # trapezoid sum would take about 3.2 b points, several GB at b = 1e8 and
    # more than a C size at b = 1e154 (v0 = b^2 / 2M = 5e307 still loads);
    # the hop raises before any RuntimeWarning, which pytest makes an error
    grid = gho.GridSpec(-10.0, 10.0, 341)
    for b, count in ((1e8, "3.19e+08"), (1e154, "3.19e+154")):
        s = gho.scenario_from_dict({"b": b, "interval": [0.0, 2.0]})
        basis, part = gho.solve_homogeneous_basis(s), gho.solve_particular(s)
        co = kernel_coefficients(s, basis, part, 0.0, 1.0)
        message = (rf"the chirp-z quadrature asks for {re.escape(count)} points, "
                   r"more than MAX_POINTS = 2097152")
        with pytest.raises(GridTooNarrow, match=message):
            _quadrature_size(co, grid)
    packet = gho.eigenmode_packet(s, basis, part, 0, 0.0, grid)
    with pytest.raises(GridTooNarrow, match=message):
        propagate(packet, s, basis, part, 1.0)


@pytest.mark.parametrize("name, t_a, t_b, n_points, size", [
    ("sho", 0.3, 1.0, 4096, 4096), ("sho", 1.0, 4.5, 4096, 4096),
    ("parametric", 0.5, 1.2, 4096, 4096), ("parametric", 1.0, 5.0, 4096, 4096),
    ("driven_sho", 0.5, 1.3, 4096, 4096), ("driven_sho", 1.0, 5.5, 4096, 4096),
    # a coarse grid, where the aliasing bound asks for more than N points
    ("sho", 1.0, 1.7, 160, 168)])
def test_chirp_z_quadrature_size_has_converged(name, t_a, t_b, n_points, size, caplog):
    # the trapezoid sum on the points the aliasing bound asks for agrees
    # with the same sum on four times as many, and with the mode at t_b
    s = gho.load_scenario((BUNDLED / f"{name}.json").read_text())
    basis, part = gho.solve_homogeneous_basis(s), gho.solve_particular(s)
    grid = gho.GridSpec(-10.0, 10.0, n_points)
    packet = gho.eigenmode_packet(s, basis, part, 2, t_a, grid)
    co = kernel_coefficients(s, basis, part, t_a, t_b)
    with caplog.at_level(logging.DEBUG, logger="gho.propagator"):
        moved = propagate(packet, s, basis, part, t_b)
    ((form, _, _, _, points),) = _propagate_records(caplog)
    assert form == "chirp-z" and points == size
    assert _quadrature_size(co, grid) == size
    ys, g = upsample_periodic(packet, 4 * size)
    finer = _lct_apply(co, ys, g, ys[1] - ys[0], grid.points)
    exact = gho.eigenmode_packet(s, basis, part, 2, t_b, grid).samples
    assert np.max(np.abs(moved.samples - finer)) < 1e-10
    assert np.max(np.abs(moved.samples - exact)) < 1e-10

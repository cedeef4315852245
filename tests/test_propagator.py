import numpy as np
import pytest

import gho
from gho import (CausticEncountered, KernelQuery, ValidationError, caustic_times,
                 green_function, inner_product, kernel, kernel_delta_check,
                 l2_distance, mean_x, packet_norm, propagate, sho_eigenstate, var_x)

from conftest import free_kernel, mehler_kernel


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


def test_caustic_times_free(free, free_basis):
    assert caustic_times(free_basis, 0.0).times == ()


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


def test_kernel_two_dimensional_factorizes():
    s2 = gho.scenario_from_dict({"dimension": 2, "interval": [0.0, 6.0]})
    basis = gho.solve_homogeneous_basis(s2)
    s1 = gho.scenario_from_dict({"dimension": 1, "interval": [0.0, 6.0]})
    basis1 = gho.solve_homogeneous_basis(s1)
    q2 = KernelQuery(0.0, 1.1, (0.3, -0.2), (0.5, 0.9))
    val = kernel(s2, basis, None, q2)
    parts = [kernel(s1, basis1, None, KernelQuery(0.0, 1.1, a, b))
             for a, b in ((0.3, 0.5), (-0.2, 0.9))]
    assert abs(val - parts[0] * parts[1]) / abs(val) < 1e-10


def test_time_outside_interval_rejected(sho, sho_basis):
    with pytest.raises(ValidationError):
        kernel(sho, sho_basis, None, KernelQuery(0.0, 20.0, 0.0, 0.0))


def test_green_function_propagates_caustic(sho, sho_basis):
    with pytest.raises(CausticEncountered):
        green_function(sho, sho_basis, None, KernelQuery(0.0, np.pi, 0.1, 0.2))


def test_eigenmode_two_dimensional_factorizes():
    s2 = gho.scenario_from_dict({"dimension": 2, "interval": [0.0, 6.0]})
    b2 = gho.solve_homogeneous_basis(s2)
    s1 = gho.scenario_from_dict({"dimension": 1, "interval": [0.0, 6.0]})
    b1 = gho.solve_homogeneous_basis(s1)
    val = gho.eigenmode(s2, b2, None, (0, 2), 1.1, (0.3, -0.4))
    parts = [gho.eigenmode(s1, b1, None, n, 1.1, x)
             for n, x in ((0, 0.3), (2, -0.4))]
    assert abs(val - parts[0] * parts[1]) / abs(val) < 1e-12


def test_propagate_through_repeated_caustics():
    # t_b = 4 pi is focal and so is the naive midpoint 2 pi; the split search
    # must find an intermediate time that actually reduces the chirp
    s = gho.scenario_from_dict({"interval": [0.0, 14.0]})
    basis = gho.solve_homogeneous_basis(s)
    grid = gho.GridSpec(-10.0, 10.0, 2048)
    packet = sho_eigenstate(0, grid)
    out = propagate(packet, s, basis, None, 4 * np.pi)
    overlap = inner_product(out, packet)
    assert abs(overlap) > 1 - 1e-6
    assert np.angle(overlap) == pytest.approx(0.0, abs=1e-6)


def test_propagate_just_outside_caustic_tolerance(sho, sho_basis, grid):
    # |sin T| ~ 1e-9 is outside the kernel's caustic trigger but far beyond
    # any quadrature budget; propagation must compose around it, not alias
    packet = sho_eigenstate(0, grid)
    out = propagate(packet, sho, sho_basis, None, np.pi - 1e-9)
    assert abs(packet_norm(out) - 1.0) < 1e-6


def test_pathologically_short_step_rejected(sho, sho_basis, grid):
    packet = sho_eigenstate(0, grid)
    with pytest.raises(gho.GridTooNarrow):
        kernel_delta_check(sho, sho_basis, None, 0.0, 1e-9, packet)


def test_propagate_split_avoids_earlier_focal_time(parametric, parametric_basis,
                                                   parametric_part):
    # t_b is the second focal time after t_a; the midpoint of the hop lies
    # 3.6e-4 from the first, so the split must take another fraction
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


# tau drifts by ~5e-10 over this span; the focal times must not inherit it
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

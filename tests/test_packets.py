import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gho
from gho import GridSpec, ValidationError, WavePacket, sho_eigenstate
from gho.packets import czt, evaluate_trig_interpolant


def _direct_czt(h, m, angle):
    return np.exp(1j * angle * np.outer(np.arange(m), np.arange(len(h)))) @ h


def _dense_interpolant(p, points):
    """Reference: the interpolant as a dense (points x modes) phase matrix."""
    n = p.grid.n_points
    coeffs = np.fft.fft(p.samples) / n
    freqs = np.fft.fftfreq(n, d=p.grid.dx)
    rel = points - p.grid.x_min
    out = np.exp(2j * np.pi * rel[:, None] * freqs[None, :]) @ coeffs
    out[(points < p.grid.x_min) | (points > p.grid.x_max)] = 0.0
    return out


@pytest.mark.parametrize("n, m", [(64, 24), (24, 64), (40, 1)])
def test_czt_matches_direct_sum(n, m):
    rng = np.random.default_rng(n + m)
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    for angle in (0.37, -2.1e-4):
        ref = _direct_czt(h, m, angle)
        assert np.max(np.abs(czt(h, m, angle) - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_points", [2048, 4096])
@pytest.mark.parametrize("scale", [0.7, 1.3])
def test_trig_interpolant_matches_dense_sum(n_points, scale):
    grid = GridSpec(-10.0, 10.0, n_points)
    x = grid.points
    packet = WavePacket(grid, sho_eigenstate(3, grid).samples * np.exp(0.8j * x))
    points = scale * x
    ref = _dense_interpolant(packet, points)
    got = evaluate_trig_interpolant(packet, points)
    assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref))


def test_trig_interpolant_rejects_uneven_points(grid):
    packet = sho_eigenstate(0, grid)
    with pytest.raises(ValidationError):
        evaluate_trig_interpolant(packet, np.array([0.0, 0.1, 0.3]))
    with pytest.raises(ValidationError):
        evaluate_trig_interpolant(packet, np.zeros((2, 2)))


def test_import_does_not_load_scipy_signal():
    # nor scipy.integrate or scipy.optimize, whose imports cost more than
    # numpy's; the classical solve and the focal-time search need neither
    src = str(Path(gho.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, gho; print([m for m in ('scipy.signal', 'scipy.integrate', "
            "'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"

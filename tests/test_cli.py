import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gho.cli import main

SHO_TEXT = json.dumps({"interval": [0.0, 12.0]})
FREE_TEXT = json.dumps({"frequency": {"kind": "constant", "value": 0.0},
                        "interval": [0.0, 5.0]})


@pytest.fixture()
def sho_file(tmp_path):
    path = tmp_path / "sho.json"
    path.write_text(SHO_TEXT)
    return path


@pytest.fixture()
def free_file(tmp_path):
    path = tmp_path / "free.json"
    path.write_text(FREE_TEXT)
    return path


def test_verify_sho_passes(sho_file, tmp_path, capsys):
    code = main(["verify", "--scenario", str(sho_file), "--xp", "1.0,0.0",
                 "--out", str(tmp_path / "rep")])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("CHECK ")]
    assert len(lines) >= 15
    assert all(" PASS" in ln or " SKIP(" in ln for ln in lines)
    report = (tmp_path / "rep" / "verify_report.txt").read_text()
    assert report.strip() == out.strip()


def test_verify_exit_two_on_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mass": {"kind": "constant", "value": -1.0}}')
    assert main(["verify", "--scenario", str(bad)]) == 2
    assert main(["verify", "--scenario", str(tmp_path / "missing.json")]) == 2


def test_verify_exit_two_on_coefficient_jump(tmp_path, capsys):
    bad = tmp_path / "a_step.json"
    bad.write_text(json.dumps({"a": {"kind": "piecewise", "breakpoints": [0.5],
                                     "values": [0.0, 0.2]},
                               "interval": [0.0, 4.0]}))
    assert main(["verify", "--scenario", str(bad)]) == 2
    assert "piecewise 'a' jumps at t = 0.5" in capsys.readouterr().err


def test_verify_tolerance_override_can_fail(sho_file, capsys):
    code = main(["verify", "--scenario", str(sho_file),
                 "--tol", "wronskian_constancy=1e-16"])
    out = capsys.readouterr().out
    assert code == 1
    assert "CHECK wronskian_constancy" in out
    assert "FAIL" in out


def test_verify_unknown_tolerance_rejected(sho_file, capsys):
    assert main(["verify", "--scenario", str(sho_file),
                 "--tol", "no_such_check=1.0"]) == 2


def test_kernel_scan_row_count(free_file, tmp_path, capsys):
    out_dir = tmp_path / "scan"
    code = main(["kernel-scan", "--scenario", str(free_file), "--out", str(out_dir),
                 "--grid=-2,2,21", "--times", "0.0,1.0"])
    assert code == 0
    rows = (out_dir / "kernel_scan.csv").read_text().splitlines()
    assert rows[0] == "t_a,x_a,t_b,x_b,re,im,modulus,phase"
    assert len(rows) - 1 == 441


def test_kernel_scan_deterministic(free_file, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["kernel-scan", "--scenario", str(free_file), "--out", str(d),
                     "--grid=-2,2,21", "--times", "0.0,1.0"]) == 0
    assert (dirs[0] / "kernel_scan.csv").read_bytes() \
        == (dirs[1] / "kernel_scan.csv").read_bytes()


def test_modes_outputs_normalized_packets(sho_file, tmp_path):
    out_dir = tmp_path / "modes"
    assert main(["modes", "--scenario", str(sho_file), "--out", str(out_dir),
                 "--modes", "0..3", "--times", "0.0"]) == 0
    files = sorted(out_dir.glob("mode_n*_t0.csv"))
    assert len(files) == 4
    for path in files:
        rows = [ln for ln in path.read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("x,")]
        data = np.array([[float(v) for v in ln.split(",")] for ln in rows])
        norm = np.sqrt(np.trapezoid(data[:, 3], data[:, 0]))
        assert norm == pytest.approx(1.0, abs=1e-8)


def test_packet_csv_metadata_headers(sho_file, tmp_path):
    out_dir = tmp_path / "modes2"
    assert main(["modes", "--scenario", str(sho_file), "--out", str(out_dir),
                 "--modes", "0..0", "--times", "0.5"]) == 0
    head = (out_dir / "mode_n0_t0.csv").read_text().splitlines()[:4]
    assert head[0].startswith("# t=0.5")
    assert head[1].startswith("# grid=")
    assert head[2].startswith("# scenario_sha256=")
    assert head[3] == "x,re,im,modulus2"


def test_coherent_moments_table(sho_file, tmp_path):
    out_dir = tmp_path / "coh"
    assert main(["coherent", "--scenario", str(sho_file), "--xp", "1.0,0.0",
                 "--out", str(out_dir), "--times", "0.0,0.5,1.0",
                 "--modes", "0..0"]) == 0
    rows = (out_dir / "coherent_moments.csv").read_text().splitlines()
    assert rows[0] == "t,mean_x,x_p,var_x,expected_var"
    for line in rows[1:]:
        t, mx, xp, vx, ev = (float(v) for v in line.split(","))
        assert mx == pytest.approx(np.cos(t), abs=1e-8)
        assert vx == pytest.approx(ev, rel=1e-6)


def test_invariant_time_series_is_flat(sho_file, tmp_path):
    out_dir = tmp_path / "inv"
    assert main(["invariant", "--scenario", str(sho_file), "--out", str(out_dir),
                 "--times", "0.0,0.5,1.0,1.5,2.0"]) == 0
    rows = (out_dir / "invariant.csv").read_text().splitlines()[1:]
    values = np.array([float(r.split(",")[1]) for r in rows])
    assert (values.max() - values.min()) / abs(values.mean()) < 1e-5


def test_evolve_writes_packets_and_trajectory(sho_file, tmp_path):
    out_dir = tmp_path / "ev"
    assert main(["evolve", "--scenario", str(sho_file), "--out", str(out_dir),
                 "--times", "0.0,0.5"]) == 0
    assert (out_dir / "packet_0000.csv").exists()
    assert (out_dir / "packet_0001.csv").exists()
    header = (out_dir / "classical.csv").read_text().splitlines()[0]
    assert header == "t,u,u_dot,v,v_dot,x_p,x_p_dot,xi,rho,rho_dot,tau"


def test_bad_flags_exit_two(sho_file):
    assert main(["kernel-scan", "--scenario", str(sho_file),
                 "--grid", "nonsense"]) == 2
    assert main(["modes", "--scenario", str(sho_file), "--modes", "x..y"]) == 2
    assert main(["verify", "--scenario", str(sho_file), "--basis", "bogus"]) == 2


def test_verify_with_custom_basis_and_xp(sho_file, capsys):
    code = main(["verify", "--scenario", str(sho_file),
                 "--basis", "custom:1.0,0.0,0.0,2.0", "--xp", "1.0,0.0"])
    out = capsys.readouterr().out
    assert code == 0
    line = next(ln for ln in out.splitlines() if "squeezed_variance" in ln)
    assert "PASS" in line


def test_modes_deterministic(sho_file, tmp_path):
    dirs = [tmp_path / "m1", tmp_path / "m2"]
    for d in dirs:
        assert main(["modes", "--scenario", str(sho_file), "--out", str(d),
                     "--modes", "0..1", "--times", "0.0,1.0"]) == 0
    for name in ("mode_n0_t0.csv", "mode_n1_t1.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_kernel_scan_matches_scalar_kernel(sho_file, tmp_path):
    import gho

    out_dir = tmp_path / "scan"
    assert main(["kernel-scan", "--scenario", str(sho_file), "--out", str(out_dir),
                 "--times", "0.4,5.1", "--xp", "1.0,0.5"]) == 0
    rows = np.loadtxt(out_dir / "kernel_scan.csv", delimiter=",", skiprows=1)
    s = gho.scenario_from_dict(json.loads(SHO_TEXT))
    basis = gho.solve_homogeneous_basis(s)
    part = gho.solve_particular(s, (1.0, 0.5))
    for t_a, x_a, t_b, x_b, re, im, _, _ in rows[::37]:
        ref = gho.kernel(s, basis, part, gho.KernelQuery(t_a, t_b, x_a, x_b))
        assert abs(complex(re, im) - ref) < 1e-12 * abs(ref)


def test_kernel_scan_exit_codes(sho_file, tmp_path):
    dim2 = tmp_path / "dim2.json"
    dim2.write_text(json.dumps({"dimension": 2, "interval": [0.0, 6.0]}))
    assert main(["kernel-scan", "--scenario", str(dim2), "--out", str(tmp_path / "a"),
                 "--times", "0.0,1.0"]) == 2
    assert main(["kernel-scan", "--scenario", str(sho_file), "--out", str(tmp_path / "b"),
                 "--times", f"0.0,{np.pi!r}"]) == 1


def test_verify_overflowing_coefficient_exits_two_in_time(tmp_path):
    # w = 1 + 1e200 t^2 used to send the classical solve into an endless crawl
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"frequency": {"kind": "polynomial",
                                              "coefficients": [1, 0, 1e200]}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "gho", "verify", "--scenario", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "not finite" in done.stderr


def test_verify_negative_omega_basis(capsys):
    # Omega = -1: kernel checks use this basis, mode checks the swapped pair
    sho = Path(__file__).resolve().parents[1] / "scenarios" / "sho.json"
    code = main(["verify", "--scenario", str(sho), "--basis", "custom:0,1,1,0"])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CHECK ")]
    assert code == 0
    assert len(lines) == 18
    assert all(ln.endswith(" PASS") or "SKIP(not applicable)" in ln for ln in lines)

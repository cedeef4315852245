import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.fft import next_fast_len

from gho import (GridSpec, WavePacket, classical, cli, l2_distance, load_scenario, oracle,
                 packets, propagator)
from gho.cli import main
from gho.errors import GridTooNarrow, ParseError

from test_coefficients import ALL_KINDS, NON_FINITE_OR_EMPTY
from test_oracle import COUPLED

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
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


def test_verify_exits_one_on_a_failing_check(sho_file, monkeypatch, capsys):
    # one check made to read a value over its tolerance, wrapped the way
    # perfbench's tracer wraps each check
    checks = cli._verify_checks

    def one_failing(ctx):
        for name, tol, fn in checks(ctx):
            yield name, tol, (lambda: 1.0) if name == "wronskian_constancy" else fn

    monkeypatch.setattr(cli, "_verify_checks", one_failing)
    code = main(["verify", "--scenario", str(sho_file)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "CHECK wronskian_constancy value=1.0 tol=1e-06 FAIL" in lines
    assert sum(line.endswith(" FAIL") for line in lines) == 1


def test_parser_built_once_keeps_no_state_between_calls(sho_file, monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda args: seen.append(vars(args)) or 0)
    assert main(["verify", "--scenario", str(sho_file), "--xp", "1.0,0.0"]) == 0
    assert main(["verify", "--scenario", str(sho_file)]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert seen[0]["xp"] == "1.0,0.0"
    assert seen[1] == dict(seen[0], xp="0.0,0.0")


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


def test_invariant_default_times(sho_file, tmp_path):
    # the default times are numpy floats; the evolver once failed on their
    # numpy-bool comparison
    out_dir = tmp_path / "inv"
    assert main(["invariant", "--scenario", str(sho_file), "--out", str(out_dir),
                 "--grid=-10,10,256"]) == 0
    assert len((out_dir / "invariant.csv").read_text().splitlines()) == 12


def test_invariant_on_a_grid_too_coarse_for_the_start_mode_exits_one(sho_file, tmp_path,
                                                                      capsys):
    # on 20 points, dx = 1.05, the grid's band misses part of the start
    # mode's and its <I> reads 8.58e-4 of hbar/2 off before any step; the
    # run once wrote that and exited 0. 48 points resolve the mode for the
    # spectral derivative (the 7-point stencils missed by 4.75e-4 there)
    out_dir = tmp_path / "inv"
    assert main(["invariant", "--scenario", str(sho_file), "--out", str(out_dir),
                 "--grid=-10,10,20", "--times", "0,1,2"]) == 1
    assert capsys.readouterr().err == ("error: <I> of the start mode misses hbar/2 by 8.58e-04 "
                                       "of it (limit 1e-04) on 20 points\n")
    assert not any(out_dir.iterdir())
    assert main(["invariant", "--scenario", str(sho_file), "--out", str(out_dir),
                 "--grid=-10,10,48", "--times", "0,1,2"]) == 0


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


# the options past --scenario, --out, --grid, --basis and --xp that each
# command reads, and a valid value of each; no command reads --tol or --dt
READS = {"verify": set(), "kernel-scan": {"--times"}, "evolve": {"--times"},
         "modes": {"--times", "--modes"}, "invariant": {"--times"},
         "coherent": {"--times", "--modes"}}
VALUES = {"--times": "0.0,0.5", "--dt": "1e-3", "--modes": "0", "--tol": "path_integral=1"}


@pytest.mark.parametrize("command,option", [(command, option) for command in sorted(READS)
                                            for option in sorted(set(VALUES) - READS[command])])
def test_commands_reject_the_options_they_do_not_read(command, option, sho_file, tmp_path,
                                                      capsys):
    # verify --dt once ran exactly as without it
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main([command, "--scenario", str(sho_file), "--out", str(out), option, VALUES[option]])
    assert exited.value.code == 2
    assert f"unrecognized arguments: {option} " in capsys.readouterr().err
    assert not out.exists()


def test_coherent_takes_one_mode(sho_file, tmp_path, capsys):
    # a range once ran on its first mode alone
    out = tmp_path / "out"
    assert main(["coherent", "--scenario", str(sho_file), "--out", str(out),
                 "--modes", "0..3"]) == 2
    assert capsys.readouterr().err == "error: coherent takes one mode, not --modes '0..3'\n"
    assert not out.exists()


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines()]
    assert sorted(words[1] for words in lines) == sorted(cli._COMMANDS)
    for words in lines:
        assert words[0] == "gho"
        cli.build_parser().parse_args(words[1:])


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


# an infinite evolve or invariant stop once also printed numpy's warning
# from the fitted grid's linspace ahead of the error line
@pytest.mark.parametrize("argv", [
    ["kernel-scan", "--times", "nan,1"],
    ["kernel-scan", "--times", "1,nan"],
    ["kernel-scan", "--times", "1,inf"],
    ["evolve", "--times", "0,nan"],
    ["evolve", "--times", "0,inf"],
    ["invariant", "--times", "0,nan"],
    ["modes", "--times", "40", "--modes", "0"],
    ["modes", "--times", "nan", "--modes", "0"],
    ["coherent", "--times", "40"],
    ["invariant", "--times", "40"],
    ["modes", "--times", "0,40"],
    ["coherent", "--times", "0,40"],
])
def test_non_finite_or_outside_times_and_steps_exit_two(sho_file, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--scenario", str(sho_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(out.iterdir())  # rejected before any file is written


def test_evolve_rejects_a_stop_past_the_interval(sho_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["evolve", "--times", "0,14", "--scenario", str(sho_file), "--grid=-10,10,256",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: t_end=14.0 outside working interval [0.0, 12.0]\n"
    assert not any(out.iterdir())


@pytest.mark.parametrize("scenario", ["free_particle", "parametric"])
def test_coherent_writes_no_file_when_a_packet_fails(scenario, tmp_path, capsys):
    # on the default grid taken as given a late coherent state reaches its
    # edge; the earlier ones are built but not written
    out = tmp_path / "out"
    assert main(["coherent", "--scenario", str(SCENARIOS / f"{scenario}.json"),
                 "--grid=-10,10,2048", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: build_generalized_coherent_state: "
                                              "edge amplitude")
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_rejects_dimension_two_after_load(command, tmp_path, capsys,
                                                        monkeypatch):
    # rejected at load, before any solve: gho is one-dimensional, and a
    # dimension that is not a JSON number does not parse
    monkeypatch.setattr(cli.classical, "solve_homogeneous_basis", None)
    path = tmp_path / "sho_2d.json"
    for dimension, message in [
            (2, "gho is one-dimensional: 'dimension' must be 1, not 2"),
            (0, "gho is one-dimensional: 'dimension' must be 1, not 0"),
            (1.5, "gho is one-dimensional: 'dimension' must be 1, not 1.5"),
            ("1", "'dimension' must be a number, not '1'"),
            (True, "'dimension' must be a number, not True")]:
        path.write_text(json.dumps({"dimension": dimension, "interval": [0.0, 12.0]}))
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_rejects_non_finite_or_empty_fields_after_load(command, tmp_path,
                                                                    capsys, monkeypatch):
    # an infinite interval once ran the classical solve for 100,000 steps, an
    # empty polynomial ended in a traceback and an infinite hbar in an
    # all-zero kernel; each is rejected at load, before any solve
    monkeypatch.setattr(cli.classical, "solve_homogeneous_basis", None)
    path = tmp_path / "bad.json"
    for text, message in NON_FINITE_OR_EMPTY:
        path.write_text(text)
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("options, message", [
    (["kernel-scan", "--xp", "nan,0"], "particular initial data must be finite, not (nan, 0.0)"),
    (["kernel-scan", "--xp", "0,nan"], "particular initial data must be finite, not (0.0, nan)"),
    (["kernel-scan", "--xp", "1e308,0"],
     "particular solution from (1e+308, 0.0) overflows on the interval"),
    (["verify", "--xp", "inf,0"], "particular initial data must be finite, not (inf, 0.0)"),
    (["kernel-scan", "--grid=-inf,10,2048"], "grid needs finite ends and span, not -inf, 10.0"),
    (["kernel-scan", "--grid=-1e308,1e308,32"],
     "grid needs finite ends and span, not -1e+308, 1e+308"),
    (["kernel-scan", "--basis", "custom:nan,0,0,1"],
     "basis initial data ((nan, 0.0), (0.0, 1.0)) give Omega = nan, not finite"),
    (["kernel-scan", "--basis", "custom:0,inf,1,0"],
     "basis initial data ((0.0, inf), (1.0, 0.0)) give Omega = -inf, not finite"),
    (["kernel-scan", "--basis", "custom:1e200,0,0,1e200"],
     "basis initial data ((1e+200, 0.0), (0.0, 1e+200)) give Omega = inf, not finite"),
    (["modes", "--grid=-10,10,1000000000000"],
     "--grid has 1000000000000 points, more than MAX_POINTS = 2097152"),
    (["verify", "--grid=-10,10,2097153"],
     "--grid has 2097153 points, more than MAX_POINTS = 2097152"),
    (["kernel-scan", "--basis", "custom:1,0,0,0"],
     "initial conditions are linearly dependent (Wronskian = 0)"),
    (["verify", "--basis", "custom:1,0,1,0"],
     "initial conditions are linearly dependent (Wronskian = 0)"),
], ids=["xp-nan-x", "xp-nan-xdot", "xp-overflows", "verify-xp-inf", "grid-inf-end",
        "grid-span-overflows", "basis-nan", "basis-inf", "basis-omega-overflows",
        "grid-too-many-points", "verify-grid-too-many-points", "basis-dependent",
        "verify-basis-dependent"])
def test_non_finite_options_rejected_before_any_file(options, message, tmp_path, capsys):
    # each once wrote an all-nan table with exit 0, ended in a traceback or
    # called a basis with an infinite Wronskian linearly dependent; a grid of
    # 1e12 points ended in a MemoryError traceback, and a linearly dependent
    # basis exited 1, the status of a failed check
    out = tmp_path / "out"
    code = main([*options, "--scenario", str(SCENARIOS / "sho.json"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("options, message", [
    (["kernel-scan", "--times", "1.0,x"], "bad --times '1.0,x'"),
    (["kernel-scan", "--times", ","], "--times must contain at least one value"),
    (["kernel-scan", "--times", ""], "--times must contain at least one value"),
    (["modes", "--times", ""], "--times must contain at least one value"),
    (["kernel-scan", "--times", "0.5"], "kernel-scan needs two --times values"),
    (["modes", "--modes", "3..1"],
     "--modes must be a non-empty range of non-negative integers"),
    (["modes", "--modes", "-1"], "--modes must be a non-empty range of non-negative integers"),
    (["modes", "--basis", "custom:1,2"], "bad --basis 'custom:1,2'"),
    (["modes", "--xp", "1"], "bad --xp '1': expected x0,xdot0"),
    (["kernel-scan", "--xp", "1e154,0", "--grid=-1,1,16"],
     "kernel from t_a=0.0 to t_b=6.0 overflows: its constant phase is not finite"),
], ids=["times-not-a-number", "times-empty", "times-blank", "modes-times-blank",
        "times-one-value", "modes-reversed",
        "modes-negative", "basis-short", "xp-one-value", "xp-constant-phase-overflows"])
def test_bad_option_values_exit_two_with_one_line(options, message, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([*options, "--scenario", str(SCENARIOS / "sho.json"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


def test_verify_overflowing_xp_exits_two_without_numpy_warnings(capsys):
    # x_p(0) = 1e154 squares past the largest float in the kernel's constant
    # term: the run ends in its one error line, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--scenario", str(SCENARIOS / "sho.json"), "--xp", "1e154,0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: packet is zero at every point")


# the runs whose grid the fit moves: with no --grid each packet command fits
# the default grid to the modes over its times, as verify does; with that grid
# as given the first three and parametric's coherent fail on its edge
@pytest.mark.parametrize("scenario, command", [
    *((name, command) for name in ("free_particle", "parametric")
      for command in ("coherent", "evolve", "invariant")),
    *(("coupled", command) for command in ("modes", "coherent", "evolve", "invariant"))])
def test_packet_commands_pass_with_default_options(scenario, command, tmp_path, capsys):
    path = SCENARIOS / f"{scenario}.json"
    if scenario == "coupled":
        path = tmp_path / "coupled.json"
        path.write_text(COUPLED_TEXT)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert any(out.iterdir())


def _read_packet(path: Path) -> WavePacket:
    """A packet CSV as _write_packet_csv wrote it: reprs, so to the bit."""
    t_line, grid_line, _, _, *rows = path.read_text().splitlines()
    x_min, x_max, n = grid_line.removeprefix("# grid=").split(",")
    samples = [complex(float(re_), float(im)) for _, re_, im, _ in
               (row.split(",") for row in rows)]
    return WavePacket(GridSpec(float(x_min), float(x_max), int(n)), np.array(samples),
                      t=float(t_line.removeprefix("# t=")))


@pytest.mark.parametrize("scenario, xp", [("parametric", "0.0,0.0"), ("parametric", "1.0,0.0"),
                                          ("coupled", "0.0,0.0")])
def test_evolve_stops_match_propagate_with_default_options(scenario, xp, tmp_path):
    # every stop of evolve's file lies within 2e-9 of propagate from its start
    # packet: measured 3.3e-11 and 1.7e-10 on parametric, 5.7e-11 and 6.3e-11
    # with x_p = (1, 0), and 4.5e-11 and 1.2e-10 on the coupled scenario
    path = SCENARIOS / f"{scenario}.json"
    if scenario == "coupled":
        path = tmp_path / "coupled.json"
        path.write_text(COUPLED_TEXT)
    argv = ["evolve", "--scenario", str(path), "--xp", xp]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    ctx = cli._Context(cli.build_parser().parse_args(argv))
    start, *stops = (_read_packet(p) for p in sorted(out.glob("packet_*.csv")))
    assert len(stops) == 2
    for stop in stops:
        exact = propagator.propagate(start, ctx.scenario, ctx.basis, ctx.part, stop.t)
        assert l2_distance(stop, exact) <= 2e-9


def test_fit_grid_widens_and_refines_only_where_the_modes_ask():
    base = GridSpec(-10.0, 10.0, 2048)
    sho = load_scenario((SCENARIOS / "sho.json").read_text())
    sho_basis = classical.solve_homogeneous_basis(sho)
    assert cli._fit_grid(sho, sho_basis, base, np.linspace(0.0, 12.0, 201)) is base
    # the free mode's width rho(t) = sqrt(1 + t^2) (hbar = M = 1) peaks at
    # t = 5; its momentum spread stays 1, so N grows only with the extent
    free = load_scenario((SCENARIOS / "free_particle.json").read_text())
    fitted = cli._fit_grid(free, classical.solve_homogeneous_basis(free), base,
                           np.linspace(0.0, 5.0, 201))
    assert (fitted.x_min, fitted.x_max) == pytest.approx(
        (-10.0 * math.sqrt(26.0), 10.0 * math.sqrt(26.0)), rel=1e-12)
    # 2048 sqrt(26) rounded up to a multiple of 256, 10496 = 2^8 41, and
    # then to the FFT-friendly 10500 = 2^2 3 5^3 7
    assert math.ceil(2048 * math.sqrt(26.0) / 256) * 256 == 10496
    assert fitted.n_points == next_fast_len(10496) == 10500


@pytest.mark.parametrize("command", ["invariant", "coherent", "modes"])
def test_a_packet_wholly_off_the_grid_exits_two(command, tmp_path, capsys):
    # x_p(t) = 60 cos t keeps sho's packets far off (-10, 10), so their
    # samples underflow to zero: invariant once ended in a ZeroDivisionError,
    # coherent wrote nan moments and modes an all-zero packet, each with exit 0.
    # invariant builds its packet on the evolver's grid, a sixth of 2048
    # points rounded up to 343
    out = tmp_path / "out"
    assert main([command, "--scenario", str(SCENARIOS / "sho.json"), "--xp", "60,0",
                 "--out", str(out)]) == 2
    n = 343 if command == "invariant" else 2048
    assert capsys.readouterr().err == ("error: packet is zero at every point of "
                                       f"GridSpec(x_min=-10.0, x_max=10.0, n_points={n})\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["modes", "coherent", "evolve", "invariant"])
def test_a_bright_edged_packet_exits_one(command, tmp_path, capsys):
    # x_p(t0) = 8 puts driven_sho's packet at the edge of the grid fitted to
    # the modes' widths alone: every packet command rejects it (modes once
    # wrote it, edge amplitude and all, and exited 0)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(SCENARIOS / "driven_sho.json"), "--xp", "8,0",
                 "--out", str(out)]) == 1
    assert re.fullmatch(r"error: \w+: edge amplitude 1\.35e-01 of peak \(limit 1e-08\)\n",
                        capsys.readouterr().err)
    assert not any(out.iterdir())


def test_verify_caps_the_kernel_slice_refinement(tmp_path, capsys, monkeypatch):
    # x_p = 1e154 leaves a rounding residue in the kernel's l_b for which the
    # slice asked for 1.9e137 times the grid's points, and the run ended in a
    # ValueError traceback; past the one cap of every scaled grid the check
    # skips, and the packet wholly off the grid ends the run
    sho = str(SCENARIOS / "sho.json")
    assert main(["verify", "--scenario", sho, "--xp", "1e154,0",
                 "--out", str(tmp_path / "far")]) == 2
    # the grid is read off an array, and its ends print as plain floats
    assert capsys.readouterr().err == ("error: packet is zero at every point of GridSpec("
                                       "x_min=-10.0, x_max=10.0, n_points=2048)\n")
    # at hbar = 0.1 the modes' fits ask sqrt(10) = 3.16 times the grid's
    # points and the slice 4.82: under a cap of 4 times them only the slice
    # skips, and the run passes
    monkeypatch.setattr(cli, "MAX_POINTS", 4 * 2048)
    path = tmp_path / "sho_tenth.json"
    path.write_text(json.dumps({"hbar": 0.1, "interval": [0.0, 12.0]}))
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path / "capped")]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CHECK ")]
    assert len(lines) == 18
    assert [ln for ln in lines if not ln.endswith(" PASS")] == [
        "CHECK schrodinger_residual_kernel value=nan tol=0.0001 SKIP(GridTooNarrow)"]
    ctx = cli._Context(cli.build_parser().parse_args(["verify", "--scenario", str(path)]))
    checks = {name: check for name, _, check in cli._verify_checks(ctx)}
    with pytest.raises(GridTooNarrow, match=r"^the kernel slice's wavenumbers ask for "
                       r"9\.88e\+03 points, more than MAX_POINTS = 8192$"):
        checks["schrodinger_residual_kernel"]()


@pytest.mark.parametrize("n", [256, 512])
def test_verify_resolves_the_kernel_slices_window_ramp(n, tmp_path, monkeypatch):
    # sho at hbar = 2 from --grid=-10,10,256 or 512: the slice's wavenumbers
    # ask 512 points, over which the residual's window ramps in 43, and the
    # check read 3.1e-6, 100 times its 2.9e-8 from 2048. With 100 points per
    # ramp it takes 1280 and reads 2.9e-8
    path = tmp_path / "sho_hbar2.json"
    path.write_text(json.dumps({"hbar": 2.0, "interval": [0.0, 12.0]}))
    grids, residual = [], oracle.schrodinger_residual

    def spy(field, s, t, grid):
        grids.append(grid.n_points)
        return residual(field, s, t, grid)

    monkeypatch.setattr(oracle, "schrodinger_residual", spy)
    ctx = cli._Context(cli.build_parser().parse_args(
        ["verify", "--scenario", str(path), f"--grid=-10,10,{n}"]))
    checks = {name: check for name, _, check in cli._verify_checks(ctx)}
    assert checks["schrodinger_residual_kernel"]() <= 1e-7
    assert grids == [1280]


def test_verify_resolves_the_kernel_slice_at_small_hbar(tmp_path, capsys):
    # at hbar = 0.01 the slice asks about 48 times the base grid's points,
    # under MAX_POINTS, 1024 times them (80 with the 7-point stencils; the
    # check once skipped past a cap of its own of 64).
    # The run exits 1 on checks that do not hold at this hbar yet
    path = tmp_path / "sho_small.json"
    path.write_text(json.dumps({"hbar": 0.01, "interval": [0.0, 12.0]}))
    assert main(["verify", "--scenario", str(path)]) == 1
    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("CHECK schrodinger_residual_kernel ")]
    assert line.endswith(" PASS")


def test_verify_skips_a_composition_just_past_a_focal_time(tmp_path, capsys):
    # on this interval the first candidate triple's composite spans
    # pi + 3e-11: caustic-free, but its window would take 1.4e7 points
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"interval": [0, 7.853981634053023]}))
    assert main(["verify", "--scenario", str(path)]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("CHECK kernel_composition ")]
    assert line == "CHECK kernel_composition value=nan tol=1e-06 SKIP(GridTooNarrow)"


def test_verify_on_a_grid_too_coarse_for_the_evolver_skips_its_two_checks(capsys):
    # the evolver takes a sixth of the grid's points: 15 of 95, under a
    # GridSpec's 16. The run once exited 2 on that grid, which the user did
    # not give, and reported no check. Every other check passes: on the
    # 7-point stencils invariant_eigenmode FAILed here at 1.7e-4
    assert main(["verify", "--scenario", str(SCENARIOS / "sho.json"),
                 "--grid=-10,10,95"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = [ln for ln in captured.out.splitlines() if ln.startswith("CHECK ")]
    assert len(lines) == 18
    assert [ln for ln in lines if "SKIP" in ln] == [
        f"CHECK {name} value=nan tol={tol} SKIP(GridTooNarrow)"
        for name, tol in (("invariant_drift_tdse", "1e-05"), ("evolver_vs_kernel", "0.0001"))]


@pytest.mark.parametrize("command", ["evolve", "invariant"])
def test_evolver_step_count_is_capped_before_any_allocation(command, tmp_path, capsys,
                                                            monkeypatch):
    # a leg past the step budget is a resolution cap, as a grid past
    # MAX_POINTS is: one line, exit 1 and no file. (A --dt of 1e-300 once
    # asked for about 1e299 steps, and the step table's size overflowed into
    # a ValueError traceback.) The leg from 0 to 0.1 takes 7 steps at its
    # first try
    monkeypatch.setattr(oracle, "MAX_STEPS", 6)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(SCENARIOS / "sho.json"),
                 "--times", "0,0.1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: evolve_tdse from t=0 to t_end=0.1 reaches 7 "
                                       "steps at try 1, more than MAX_STEPS = 6\n")
    assert not any(out.iterdir())


# the checks that read a grid fitted to the modes
FITTED_CHECKS = ("schrodinger_residual_modes", "mode_orthonormality", "unitary_norms",
                 "coherent_tracking", "squeezed_variance", "invariant_eigenmode",
                 "invariant_drift_tdse", "evolver_vs_kernel", "delta_limit")


def test_fitted_grids_are_capped(tmp_path, capsys):
    # Omega = 1e-300: the modes' width and momentum spread are about 1e150
    # each, and a fitted grid asked for 1e300 times the base grid's points;
    # verify ended in a ValueError traceback before its first CHECK line, and
    # modes, coherent, evolve and invariant the same way
    argv = ["--scenario", str(SCENARIOS / "sho.json"), "--basis", "custom:1,0,0,1e-300"]
    assert main(["verify", *argv]) == 1  # tau_monotone: tau is flat to rounding
    lines = {ln.split()[1]: ln for ln in capsys.readouterr().out.splitlines()}
    assert len(lines) == 18 and lines["tau_monotone"].endswith(" FAIL")
    assert all(lines[name].endswith(" SKIP(GridTooNarrow)") for name in FITTED_CHECKS)
    for command in ("modes", "coherent", "evolve", "invariant"):
        out = tmp_path / command
        assert main([command, *argv, "--out", str(out)]) == 1
        assert re.fullmatch(r"error: the modes ask for \S+ points, more than "
                            r"MAX_POINTS = 2097152\n", capsys.readouterr().err)
        assert not any(out.iterdir())


def test_scaled_grids_are_capped_at_the_largest_fit():
    # an explicit grid of 4096 points, fitted 600 times, asked for 2.46e6
    # points, more than MAX_POINTS, the default grid's largest fit of 1024
    # times 2048
    base = GridSpec(-10.0, 10.0, 4096)
    with pytest.raises(GridTooNarrow, match=r"^the modes ask for 2\.46e\+06 points, "
                       r"more than MAX_POINTS = 2097152$"):
        cli._scaled_grid(base, 1.0, 600.0, "the modes ask for")
    assert cli._scaled_grid(cli._BASE_GRID, 1.0, 1024.0, "").n_points == 2097152


def test_every_grid_and_grid_sum_is_capped_by_max_points(sho, sho_basis, sho_part_cos,
                                                         monkeypatch):
    # one cap bounds an explicit --grid, a scaled grid, propagate's chirp-z
    # sum and compose_kernels' window: each takes MAX_POINTS points and
    # refuses more, naming the cap, before it allocates anything
    cap = packets.MAX_POINTS
    assert cap == 2 ** 21
    assert cli.MAX_POINTS is propagator.MAX_POINTS is oracle.MAX_POINTS is cap
    tail = rf"points, more than MAX_POINTS = {cap}$"
    assert cli._parse_grid(f"-10,10,{cap}").n_points == cap
    with pytest.raises(ParseError, match=rf"^--grid has {cap + 1} {tail}"):
        cli._parse_grid(f"-10,10,{cap + 1}")
    for widen, refine, count in ((1.0, 1024.0 + 1e-9, r"2\.1e\+06"), (math.inf, 1.0, "inf")):
        with pytest.raises(GridTooNarrow, match=rf"^the modes ask for {count} {tail}"):
            cli._scaled_grid(cli._BASE_GRID, widen, refine, "the modes ask for")
    # a kernel phase rate l_a whose trapezoid sum on this grid asks cap -/+ 0.5
    grid = GridSpec(-10.0, 10.0, 341)
    period = grid.n_points * grid.dx

    def rate(points):
        return SimpleNamespace(q_aa=0.0, q_ab=0.0,
                               l_a=2.0 * math.pi * points / period - math.pi / grid.dx)

    assert propagator._quadrature_size(rate(cap - 0.5), grid) == cap
    with pytest.raises(GridTooNarrow, match=rf"^the chirp-z quadrature asks for 2\.1e\+06 "
                       rf"{tail}"):
        propagator._quadrature_size(rate(cap + 0.5), grid)
    # sho's first composition triple with x_p = cos t takes 4,609 points
    times = 12.0 * np.array([0.05, 0.25, 0.45])
    monkeypatch.setattr(oracle, "MAX_POINTS", 4608)
    with pytest.raises(GridTooNarrow, match=r"^the composition's window asks for 4609 points, "
                       r"more than MAX_POINTS = 4608$"):
        oracle.compose_kernels(sho, sho_basis, sho_part_cos, *times, 0.3, -0.4)
    monkeypatch.setattr(oracle, "MAX_POINTS", 4609)
    oracle.compose_kernels(sho, sho_basis, sho_part_cos, *times, 0.3, -0.4)


def test_bundled_scenario_hashes_are_pinned():
    # the CSV headers' scenario_sha256 is over the serialized scenario, which
    # still writes "dimension": 1 and every parameter of every kind
    expected = {"sho": "ab8d64ee882a464d", "free_particle": "5f22a3d29e611b14",
                "parametric": "9baeaf67623271f3", "driven_sho": "b23c8319cd3e5408",
                "all_kinds": "0be7192851219518"}
    texts = {name: (SCENARIOS / f"{name}.json").read_text() for name in expected
             if name != "all_kinds"}
    texts["all_kinds"] = json.dumps(ALL_KINDS)
    for name, digest in expected.items():
        assert cli._scenario_hash(load_scenario(texts[name])) == digest


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


@pytest.mark.parametrize("spec, option, message", [
    (None, "--grid=-1e200,1e200,32",
     "to t_b=6.0 overflows: its phase at |x| up to 1e+200 is not finite"),
    (None, "--xp=1e154,0", "to t_b=6.0 overflows: its constant phase is not finite"),
    ({"b": 1e154, "interval": [0, 2]}, "--times=0,1",
     "to t_b=1.0 keeps no digit of its phase: a term of its exponent at |x| up to 10 "
     "is 1e+155 rad, at least 2^52"),
    (None, "--grid=-1e10,1e10,32",
     "to t_b=6.0 keeps no digit of its phase: a term of its exponent at |x| up to 1e+10 "
     "is 3.58e+20 rad, at least 2^52"),
], ids=["grid-squares-overflow", "xp-squares-overflow", "gauge-phase-past-2^52",
        "grid-squares-past-2^52"])
def test_kernel_scan_rejects_a_kernel_that_overflows(spec, option, message, tmp_path):
    # finite inputs whose squares overflow the kernel's phase: the table was
    # all nan, with exit 0 and numpy's overflow warnings on stderr; and finite
    # phases from 2^52 rad on, where a double keeps no digit after the point:
    # the table was noise, with exit 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    scenario = SCENARIOS / "sho.json"
    if spec is not None:
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(spec))
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "gho", "kernel-scan", option, "--scenario",
                           str(scenario), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: kernel from t_a=0.0 {message}\n"
    assert not any(out.iterdir())


def test_verify_overflowing_hamiltonian_exits_two(tmp_path, capsys):
    # a = 1e154 is finite, the x^2 coefficient v2 = M (w^2 + 4 a^2 - ...) / 2
    # of H is not
    path = tmp_path / "a_huge.json"
    path.write_text(json.dumps({"a": 1e154}))
    assert main(["verify", "--scenario", str(path)]) == 2
    assert "'Hamiltonian v2' is not finite" in capsys.readouterr().err


def test_verify_past_the_quadrature_cap_skips_without_a_traceback(tmp_path):
    # b = 1e154 loads (v0 = 5e307 is finite); propagate's chirp-z hop in
    # evolver_vs_kernel once asked next_fast_len for about 3e154 points and
    # ended verify in an OverflowError traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "b_huge.json"
    path.write_text(json.dumps({"b": 1e154, "interval": [0, 2]}))
    done = subprocess.run([sys.executable, "-m", "gho", "verify", "--scenario", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    lines = [ln for ln in done.stdout.splitlines() if ln.startswith("CHECK ")]
    assert done.returncode == 1 and "Traceback" not in done.stderr
    assert len(lines) == 18
    assert "CHECK evolver_vs_kernel value=nan tol=0.0001 SKIP(GridTooNarrow)" in lines


# hbar != 1, M != 1 and every gauge coupling; a and the force are cosines
COUPLED_TEXT = json.dumps({
    "hbar": 0.7, "mass": 1.3, "b": 0.3, "f": 0.2, "interval": [0.0, 12.0],
    "a": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 1.0, "phase": 0.5},
    "force": {"kind": "sinusoidal", "amplitude": 0.5, "omega": 1.3}})


def test_verify_coupled_scenario_passes(tmp_path, capsys):
    path = tmp_path / "coupled.json"
    path.write_text(COUPLED_TEXT)
    code = main(["verify", "--scenario", str(path), "--xp", "0.4,-0.2"])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CHECK ")]
    assert code == 0
    assert sum(ln.endswith(" PASS") for ln in lines) == 17
    (skipped,) = [ln for ln in lines if not ln.endswith(" PASS")]
    assert skipped.startswith("CHECK kernel_closed_form ") and "SKIP(" in skipped


@pytest.mark.parametrize("hbar", [2.0, 3.0])
def test_verify_sho_passes_at_large_hbar(hbar, tmp_path, capsys):
    # the path-integral oracle's slice grid widens and refines with hbar; on
    # the fixed grid of hbar = 1 it read 3.6e-5 against 1e-5 at hbar = 2
    data = json.loads((SCENARIOS / "sho.json").read_text())
    data["hbar"] = hbar
    path = tmp_path / "sho.json"
    path.write_text(json.dumps(data))
    code = main(["verify", "--scenario", str(path)])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CHECK ")]
    assert code == 0
    assert len(lines) == 18 and all(ln.endswith(" PASS") for ln in lines)


@pytest.mark.parametrize("spec", [{"hbar": 0.25}, {"hbar": 0.5, "a": 0.47}])
def test_verify_sho_passes_at_small_hbar(spec, tmp_path, capsys):
    # the kernel slice's wavenumber grows as 1 / hbar and with the chirp a:
    # on the base grid schrodinger_residual_kernel read 3.5e-4 at hbar = 0.25
    # and 5.5e-4 at hbar = 0.5, a = 0.47, against 1e-4
    path = tmp_path / "sho.json"
    path.write_text(json.dumps({"interval": [0.0, 12.0], **spec}))
    code = main(["verify", "--scenario", str(path)])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CHECK ")]
    assert code == 0
    assert len(lines) == 18
    assert all(ln.endswith(" PASS") or "SKIP(not applicable)" in ln for ln in lines)
    (residual,) = [ln for ln in lines if ln.startswith("CHECK schrodinger_residual_kernel ")]
    assert float(re.search(r"value=(\S+)", residual)[1]) < 1e-5


@pytest.mark.parametrize("name", ["sho", "driven_sho"])
def test_residual_kernel_step_follows_hbar(name, tmp_path):
    # the residual's time step is 1e-5 min(1, hbar): at a fixed 1e-5 its
    # truncation error grew as 1 / hbar^2, and at hbar = 0.05 the check read
    # 1.06e-4 (sho) and 1.15e-4 (driven_sho) against a tolerance of 1e-4
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**json.loads((SCENARIOS / f"{name}.json").read_text()),
                                "hbar": 0.05}))
    args = cli.build_parser().parse_args(
        ["verify", "--scenario", str(path), "--xp", "1.0,0.0"])
    checks = {check_name: check for check_name, _, check in
              cli._verify_checks(cli._Context(args))}
    assert checks["schrodinger_residual_kernel"]() <= 1e-5


def test_verify_negative_omega_basis(monkeypatch, capsys):
    # Omega = -1: every check, modes and squeezes included, takes this one basis
    import gho.classical

    solves = []
    solve = gho.classical.solve_homogeneous_basis

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(gho.classical, "solve_homogeneous_basis", counted)
    sho = Path(__file__).resolve().parents[1] / "scenarios" / "sho.json"
    code = main(["verify", "--scenario", str(sho), "--basis", "custom:0,1,1,0"])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CHECK ")]
    assert code == 0
    assert len(lines) == 18
    assert all(ln.endswith(" PASS") or "SKIP(not applicable)" in ln for ln in lines)
    assert len(solves) == 1


@pytest.mark.parametrize("command", ["modes", "coherent", "invariant", "evolve"])
def test_commands_take_a_negative_omega_basis(sho_file, tmp_path, command):
    out = tmp_path / command
    assert main([command, "--scenario", str(sho_file), "--basis", "custom:0,1,1,0",
                 "--times", "0.0,0.5", "--out", str(out)]) == 0
    if command == "invariant":  # I = hbar (n + 1/2) on the ground mode
        rows = np.loadtxt(out / "invariant.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 1] - 0.5)) < 1e-6
    if command == "coherent":  # var_x follows hbar rho^2 / (2 |Omega|)
        rows = np.loadtxt(out / "coherent_moments.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 3] / rows[:, 4] - 1.0)) < 1e-6


def test_verify_evolves_the_ground_mode_once(caplog, capsys):
    # invariant_drift_tdse and evolver_vs_kernel share one evolution: four legs
    # of 0.5, each three runs of 28, 14 and 7 steps (1.8e-2 asks 0.5 / 0.072
    # coarse steps, rounded)
    sho = str(SCENARIOS / "sho.json")
    assert main(["verify", "--scenario", sho]) == 0
    quiet = capsys.readouterr().out
    with caplog.at_level(logging.DEBUG, logger="gho"):
        assert main(["verify", "--scenario", sho]) == 0
    assert capsys.readouterr().out == quiet  # diagnostics never reach stdout
    records = [r.getMessage() for r in caplog.records if r.name == "gho.oracle"]
    steps = [re.search(r"fine run (\d+) steps.*middle run (\d+) steps.*coarse run (\d+) steps",
                       m) for m in records]
    assert [sum(int(m[k]) for m in steps) for k in (1, 2, 3)] == [112, 56, 28]
    # on a sixth of the 2048-point base grid's points, 341, rounded up to
    # the FFT-friendly 343 = 7^3: dx = 20 / 342
    grids = [re.search(r"grid (\d+) points, dx (\S+);", m).groups() for m in records]
    assert all(int(n) == 343 and float(dx) == pytest.approx(20.0 / 342, rel=1e-5)
               for n, dx in grids)
    # |R_dt - R_2dt| / (15 |psi|) per leg, the fourth-order pair's error:
    # measured 3.2e-9, about 400 times the sixth-order result's 8e-12 from
    # propagate, and under the target of 1e-7 at each leg's first try
    estimates = [float(re.search(r"Romberg error estimate (\S+)", m)[1]) for m in records]
    assert len(estimates) == 4 and all(0.0 < e < 1e-8 for e in estimates)
    assert [re.search(r"try (\d+):", m)[1] for m in records] == ["1"] * 4


@pytest.mark.parametrize("scenario", ["sho", "free_particle"])
def test_kernel_checks_take_array_coefficient_calls(scenario, monkeypatch):
    calls = []
    coefficients = propagator.kernel_coefficients

    def counted(*args, **kwargs):
        calls.append(args[3:5])
        return coefficients(*args, **kwargs)

    monkeypatch.setattr(propagator, "kernel_coefficients", counted)
    args = cli.build_parser().parse_args(
        ["verify", "--scenario", str(SCENARIOS / f"{scenario}.json")])
    for name, tol, check in cli._verify_checks(cli._Context(args)):
        if name in ("kernel_conjugation", "kernel_closed_form"):
            calls.clear()
            assert check() <= tol
            assert 1 <= len(calls) <= 2
            assert all(np.size(t_a) >= 90 for t_a, _ in calls)


def test_composition_triple_takes_one_coefficient_call(tmp_path, monkeypatch):
    # on [0, 2.5 pi] the first candidate's outer pair spans 0.4 x 2.5 pi = pi,
    # a focal time, so the second candidate (0.1, 0.2, 0.3) x 2.5 pi is taken
    path = tmp_path / "sho.json"
    path.write_text(json.dumps({"interval": [0.0, 2.5 * np.pi]}))
    calls = []
    coefficients = propagator.kernel_coefficients

    def counted(*args, **kwargs):
        calls.append(args[3:5])
        return coefficients(*args, **kwargs)

    monkeypatch.setattr(propagator, "kernel_coefficients", counted)
    ctx = cli._Context(cli.build_parser().parse_args(["verify", "--scenario", str(path)]))
    triple = cli._find_composition_triple(ctx)
    assert len(calls) == 1 and np.size(calls[0][0]) == 12
    assert triple == tuple(f * 2.5 * np.pi for f in (0.1, 0.2, 0.3))


@pytest.mark.parametrize("ics", ["0.14,0,0,1.5", "-0.5414,0.4926,0.9182,-0.5404",
                                 "0.1,0,0,2"])
def test_verify_strongly_squeezed_bases_pass(ics, capsys):
    # modes about 3.3 (and, on custom:0.1,0,0,2, 4.5) times narrower in
    # momentum than the base grid expects: verify refines its grids by the
    # momentum spread
    code = main(["verify", "--scenario", str(SCENARIOS / "sho.json"),
                 "--basis", f"custom:{ics}"])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CHECK ")]
    assert code == 0
    assert len(lines) == 18 and all(ln.endswith(" PASS") for ln in lines)


@pytest.mark.parametrize("basis", ["default", "custom:-0.5414,0.4926,0.9182,-0.5404"])
def test_evolver_grid_keeps_a_sixth_of_the_fitted_points(basis):
    # the extent of _fit_grid over 201 times across the span of the times
    # (0 to 2 here: only the first and the last time count) and a sixth of
    # its points, rounded up to an FFT-friendly count
    args = cli.build_parser().parse_args(
        ["verify", "--scenario", str(SCENARIOS / "sho.json"), "--basis", basis])
    ctx = cli._Context(args)
    s, base = ctx.scenario, ctx.grid
    evolved = cli._evolver_grid(s, ctx.basis, base, [0.0, 1.5, 2.0])
    # _fit_grid: the base grid (-10, 10, 2048) widened by the largest mode
    # width rho / sqrt|Omega| and with N refined by the largest momentum
    # spread M |(u', v')| / sqrt|Omega| (hbar = M = 1), rounded up to a
    # multiple of 256 and then to next_fast_len; factors within one spacing
    # of 1 read 1
    bs = ctx.basis.at(np.linspace(0.0, 2.0, 201))
    root = math.sqrt(abs(ctx.basis.omega))
    widen, refine = (f if (f - 1.0) * 2048 >= 1.0 else 1.0 for f in (
        max(1.0, float(np.max(bs.rho)) / root),
        max(1.0, float(np.max(np.hypot(bs.u_dot, bs.v_dot))) / root)))
    n = next_fast_len(int(math.ceil(2048 * widen * refine / 256.0)) * 256)
    assert (evolved.x_min, evolved.x_max) == pytest.approx((-10.0 * widen, 10.0 * widen),
                                                           rel=1e-12)
    assert evolved.n_points == next_fast_len(n // 6)
    if basis == "default":  # 341 points, rounded up to 7^3
        assert evolved == GridSpec(-10.0, 10.0, 343)
        # the default mode keeps a base grid of 95 points, a sixth of which
        # is under a GridSpec's 16
        with pytest.raises(GridTooNarrow,
                           match="^the evolver's sixth of 95 points is under 16$"):
            cli._evolver_grid(s, ctx.basis, GridSpec(-10.0, 10.0, 95), [0.0, 2.0])
    else:  # squeezed: widened and refined to 18432 = 2^11 3^2 points, a sixth 3072
        assert widen > 1.0 and refine > 1.0
        assert (n, evolved.n_points) == (18432, 3072)


@pytest.mark.parametrize("command", ["verify", "evolve", "invariant"])
def test_every_evolution_runs_on_the_evolver_grid(command, tmp_path, monkeypatch):
    # verify's drift check, evolve and invariant each hand the evolver a
    # packet on _evolver_grid over the span of their stops: free_particle's
    # mode widens fivefold by t = 5, so each span asks its own grid
    path = str(SCENARIOS / "free_particle.json")
    grids, stops_asked = [], []

    def recorded(s, packet, stops):
        grids.append(packet.grid)
        stops_asked.append([packet.t, *stops])
        return (packet.with_samples(packet.samples, t=t_end) for t_end in stops)

    monkeypatch.setattr(cli.oracle, "evolve_tdse_stops", recorded)
    if command == "verify":
        ctx = cli._Context(cli.build_parser().parse_args(["verify", "--scenario", path]))
        {name: check for name, _, check in cli._verify_checks(ctx)}["invariant_drift_tdse"]()
    else:
        assert main([command, "--scenario", path, "--out", str(tmp_path / "out")]) == 0
        ctx = cli._Context(cli.build_parser().parse_args([command, "--scenario", path]))
    (times,) = stops_asked
    assert grids == [cli._evolver_grid(ctx.scenario, ctx.basis, cli._BASE_GRID, times)]
    assert grids[0].n_points == {"verify": 768, "evolve": 1750, "invariant": 1750}[command]


def test_verify_reads_the_drift_on_the_evolvers_grid(monkeypatch):
    # each of the five states is read on the grid it was evolved on,
    # _evolver_grid over the drift check's five times
    evolved, read = [], []
    evolve, expectation = cli.oracle.evolve_tdse_stops, cli.states.invariant_expectation

    def spy_evolve(s, packet, stops):
        evolved.append(packet.grid)
        return evolve(s, packet, stops)

    def spy_expectation(packet, *args):
        read.append(packet.grid)
        return expectation(packet, *args)

    monkeypatch.setattr(cli.oracle, "evolve_tdse_stops", spy_evolve)
    monkeypatch.setattr(cli.states, "invariant_expectation", spy_expectation)
    args = cli.build_parser().parse_args(
        ["verify", "--scenario", str(SCENARIOS / "sho.json"), "--xp", "1.0,0.0"])
    ctx = cli._Context(args)
    checks = {name: check for name, _, check in cli._verify_checks(ctx)}
    assert checks["invariant_drift_tdse"]() <= 1e-5
    grid = cli._evolver_grid(ctx.scenario, ctx.basis, ctx.grid, [0.0, 2.0])
    assert evolved == [grid]
    assert read == [grid] * 5


def test_verify_evolves_through_its_four_legs_only(tmp_path, monkeypatch):
    # on a span of 2.2 the legs end at t0 + 0.8 span = 1.76, and
    # evolver_vs_kernel reads the one nearest t0 + 1: the evolution once
    # took 1.0 as a fifth stop of its own
    calls, hops = [], []
    evolve, propagate = cli.oracle.evolve_tdse_stops, cli.propagator.propagate

    def spy_evolve(s, packet, stops):
        calls.append(list(stops))
        return evolve(s, packet, stops)

    def spy_propagate(packet, s, basis, part, t):
        hops.append(t)
        return propagate(packet, s, basis, part, t)

    monkeypatch.setattr(cli.oracle, "evolve_tdse_stops", spy_evolve)
    monkeypatch.setattr(cli.propagator, "propagate", spy_propagate)
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"interval": [0, 2.2]}))
    ctx = cli._Context(cli.build_parser().parse_args(["verify", "--scenario", str(path)]))
    checks = {name: check for name, _, check in cli._verify_checks(ctx)}
    assert checks["invariant_drift_tdse"]() <= 1e-5
    assert checks["evolver_vs_kernel"]() <= cli._EVOLVER_TOL
    (stops,) = calls
    assert stops == pytest.approx([0.44, 0.88, 1.32, 1.76], rel=1e-15)
    assert hops == [stops[1]]


def test_verify_passes_with_a_fast_turning_a(tmp_path, capsys):
    # a = sin 3t over [0, 1]: propagate takes the n = 0 mode to within 6e-14
    # of the exact one. The evolver's gauge takes a out of H exactly, and at
    # verify's step evolver_vs_kernel reads 3.3e-12 (4.2e-12 with --xp, where
    # invariant_drift_tdse reads 2.2e-16; on the 7-point stencils it read
    # 4.1e-6, their error in <I>)
    path = tmp_path / "fast_a.json"
    path.write_text(json.dumps({"a": {"kind": "sinusoidal", "amplitude": 1.0, "omega": 3.0}}))
    codes = [main(["verify", "--scenario", str(path), *xp]) for xp in ([], ["--xp", "1.0,0.0"])]
    assert codes == [0, 0]


def test_verify_evolver_cross_check_fails_on_a_wrong_coupling(tmp_path, monkeypatch,
                                                              capsys):
    # the evolver with the mixed a (xp + px) term's sign flipped: on the
    # coarser evolver grid evolver_vs_kernel still reads about 0.2, far over
    # its tolerance of 1e-4
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps(COUPLED))
    assert main(["verify", "--scenario", str(path)]) == 0
    capsys.readouterr()
    coefficients = oracle.hamiltonian_coefficients

    def mutated(s, t):
        m, a_c, *rest = coefficients(s, t)
        return (m, -a_c, *rest)

    monkeypatch.setattr(oracle, "hamiltonian_coefficients", mutated)
    assert main(["verify", "--scenario", str(path)]) == 1
    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("CHECK evolver_vs_kernel ")]
    assert line.endswith(" FAIL") and float(re.search(r"value=(\S+)", line)[1]) > 1e-2


def test_verify_parametric_resonance_passes(tmp_path, capsys):
    # the solutions grow to about 7e2 and the products u M v', v M u' that
    # cancel to Omega reach 4.5e5, so their rounding alone moves the
    # Wronskian by about 5e-11 of Omega; the basis's drift test and verify's
    # wronskian_constancy weigh it against the products
    path = tmp_path / "resonance.json"
    path.write_text(json.dumps({
        "frequency": {"kind": "sinusoidal", "amplitude": 0.5, "omega": 2.0, "offset": 1.0},
        "interval": [0.0, 30.0]}))
    code = main(["verify", "--scenario", str(path)])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CHECK ")]
    assert code == 0
    assert sum(ln.endswith(" PASS") for ln in lines) == 17
    (skipped,) = [ln for ln in lines if not ln.endswith(" PASS")]
    assert skipped.startswith("CHECK kernel_closed_form ") and "SKIP(not applicable)" in skipped
    (wronskian,) = [ln for ln in lines if ln.startswith("CHECK wronskian_constancy ")]
    assert float(wronskian.split()[2].removeprefix("value=")) < 1e-13


def test_verify_sho_on_a_short_interval_passes(tmp_path, capsys):
    # shorter than the closed-form draws' 0.5 / w: their time unit 1/w is
    # clamped to twice the interval
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"interval": [0.0, 0.3]}))
    code = main(["verify", "--scenario", str(path)])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CHECK ")]
    assert code == 0 and len(lines) == 18 and all(ln.endswith(" PASS") for ln in lines)


@pytest.mark.parametrize("interval", [[0.0, 5e-4], [0.0, 1e-9]], ids=["5e-4", "1e-9"])
def test_verify_runs_every_check_on_a_very_short_interval(interval, tmp_path, capsys):
    # delta_limit's epsilon of 1e-3 once left [0, 5e-4], and xi_consistency's
    # difference step of 1e-5 left [0, 1e-9]: verify exited 2 on an interval
    # it had loaded. Every step in t now scales with the span. Some checks
    # still FAIL here, for want of resolution
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"interval": interval}))
    assert main(["verify", "--scenario", str(path)]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len([ln for ln in captured.out.splitlines() if ln.startswith("CHECK ")]) == 18


@pytest.mark.parametrize("spec", [{"mass": 2.0, "frequency": 3.0},
                                  {"hbar": 0.5, "frequency": 5.0}, {"frequency": -1.0},
                                  {"interval": [0.0, 0.05]}])
def test_kernel_closed_form_is_mehlers_kernel(spec, tmp_path):
    # any constant M and w with no force, a, b or f, whatever the interval
    path = tmp_path / "mehler.json"
    path.write_text(json.dumps(spec))
    ctx = cli._Context(cli.build_parser().parse_args(["verify", "--scenario", str(path)]))
    checks = {name: (tol, check) for name, tol, check in cli._verify_checks(ctx)}
    tol, check = checks["kernel_closed_form"]
    assert check() <= tol


def test_verify_evolver_checks_pass_at_momentum_spread_eleven():
    # momentum spread 11.2, on 42,592 evolver points: at one fixed fine step
    # of 1.8e-2 evolver_vs_kernel read 4.4e-7, and past a spread cap of 10
    # both checks skipped. Each leg halves its step two or three times to
    # meet the error target: measured 1.9e-15 and 5.5e-10
    args = cli.build_parser().parse_args(
        ["verify", "--scenario", str(SCENARIOS / "sho.json"), "--basis", "custom:0.04,0,0,5"])
    checks = {name: (tol, check) for name, tol, check in cli._verify_checks(cli._Context(args))}
    for name in ("invariant_drift_tdse", "evolver_vs_kernel"):
        tol, check = checks[name]
        assert check() <= tol


def test_verify_halves_the_step_where_the_estimate_asks(caplog):
    # momentum spread 4.5: the first leg's estimate reads 2.9e-7 at the start
    # step, over the target of 1e-7, and 1.8e-8 at half of it; the other
    # three legs read 4e-8 to 7e-8 at their first try. At the fixed start
    # step evolver_vs_kernel read 1.9e-9, and now 1.3e-10
    args = cli.build_parser().parse_args(
        ["verify", "--scenario", str(SCENARIOS / "sho.json"), "--basis", "custom:0.1,0,0,2"])
    checks = {name: check for name, _, check in cli._verify_checks(cli._Context(args))}
    with caplog.at_level(logging.DEBUG, logger="gho.oracle"):
        value = checks["evolver_vs_kernel"]()
    records = [r.getMessage() for r in caplog.records if r.name == "gho.oracle"]
    assert [re.search(r"try (\d+):", m)[1] for m in records] == ["2", "1", "1", "1"]
    assert value < 1e-9


@pytest.mark.parametrize("scenario", ["sho", "parametric", "driven_sho"])
def test_verify_evolver_checks_pass_at_small_hbar(scenario, tmp_path):
    # hbar = 0.05 spreads the modes' momentum to 4.5 times the base grid's:
    # measured 6.0e-12, 8.1e-12 and 7.5e-11 (evolver_vs_kernel), 4.2e-16,
    # 1.6e-9 and 1.8e-15 (invariant_drift_tdse). On the 7-point stencils
    # driven_sho's drift read 2.1e-5, over its 1e-5, the stencils' error in
    # <I> on the evolver's grid
    path = tmp_path / f"{scenario}.json"
    path.write_text(json.dumps({**json.loads((SCENARIOS / f"{scenario}.json").read_text()),
                                "hbar": 0.05}))
    ctx = cli._Context(cli.build_parser().parse_args(["verify", "--scenario", str(path)]))
    checks = {name: (tol, check) for name, tol, check in cli._verify_checks(ctx)}
    for name in ("invariant_drift_tdse", "evolver_vs_kernel"):
        tol, check = checks[name]
        assert check() <= tol


@pytest.mark.parametrize("scenario", ["parametric", "driven_sho"])
def test_verify_passes_on_a_coarse_explicit_grid(scenario, capsys):
    # on 256 points, dx = 0.078, and the evolver's 42: the spectral
    # derivatives hold the modes' band, where the 7-point stencils read
    # invariant_drift_tdse 1.5e-5 (parametric) and 9.1e-3 (driven_sho), and
    # driven_sho's invariant_eigenmode 2.6e-6, each a FAIL
    assert main(["verify", "--scenario", str(SCENARIOS / f"{scenario}.json"),
                 "--grid=-10,10,256"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("CHECK ")]
    assert len(lines) == 18
    assert [ln for ln in lines if not ln.endswith(" PASS")] == [
        "CHECK kernel_closed_form value=nan tol=1e-10 SKIP(not applicable)"]

"""tools/compare_outputs.py's verdict on two runs of one command line, on
run dicts written out here: no command is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

ERROR = "error: GridTooNarrow: evolve_tdse: edge amplitude {} of peak (limit 1e-08)\n"
CHECK = "CHECK invariant_drift_tdse value={} tol=1e-05 {}\n"


def _run(stdout="", stderr="", code=0, files=None):
    return {"exit code": code, "stdout": stdout, "stderr": stderr, "files": files or {}}


def test_identical_runs_report_nothing():
    run = _run(CHECK.format("4.04e-08", "PASS"), "", 0, {"invariant.csv": "t,invariant\n0.0,0.5\n"})
    assert compare_outputs.compare("verify sho", run, dict(run)) == ([], False)


def test_a_number_moved_in_the_same_message_is_not_grave():
    old = _run(stderr=ERROR.format("6.73e-05"), code=2)
    new = _run(stderr=ERROR.format("6.57e-05"), code=2)
    lines, grave = compare_outputs.compare("evolve free_particle", old, new)
    assert not grave
    assert lines == ["evolve free_particle: stderr differs in numbers only, "
                     "largest absolute difference 1.6e-06"]


@pytest.mark.parametrize("old, new, line", [
    (_run(stderr=ERROR.format("6.73e-05"), code=2),
     _run(stderr="error: LinearSolveFailure: singular step matrix\n", code=2), "stderr '"),
    (_run(stderr=ERROR.format("6.73e-05"), code=2), _run(stderr=ERROR.format("6.73e-05"), code=1),
     "exit code 2 -> 1"),
    (_run(CHECK.format("4.04e-08", "PASS")), _run(CHECK.format("4.04e-04", "FAIL"), code=0),
     "CHECK statuses differ")])
def test_a_changed_message_exit_code_or_status_is_grave(old, new, line):
    lines, grave = compare_outputs.compare("run", old, new)
    assert grave
    assert any(text.startswith(f"run: {line}") for text in lines)


def test_moved_values_in_stdout_and_files_are_reported_not_grave():
    old = _run(CHECK.format("9.68e-08", "PASS"), files={"invariant.csv": "0.0,0.5\n"})
    new = _run(CHECK.format("4.04e-08", "PASS"), files={"invariant.csv": "0.0,0.25\n"})
    lines, grave = compare_outputs.compare("verify sho", old, new)
    assert not grave
    assert lines == [
        "verify sho: stdout differs in numbers only, largest absolute difference 5.64e-08",
        "verify sho: file invariant.csv differs in numbers only, largest absolute "
        "difference 0.25"]


def test_a_packet_csv_on_a_new_grid_names_both_grids():
    # every sample moves with the grid, so the grid is the difference to show
    packet = "# t=0.0\n# grid=-10.0,10.0,{}\n# scenario_sha256=0\nx,re,im,modulus2\n"
    old = _run(files={"packet_0000.csv": packet.format(2048)})
    new = _run(files={"packet_0000.csv": packet.format(343)})
    lines, grave = compare_outputs.compare("evolve sho", old, new)
    assert not grave
    assert lines == ["evolve sho: file packet_0000.csv moves from grid -10.0,10.0,2048 "
                     "to -10.0,10.0,343"]

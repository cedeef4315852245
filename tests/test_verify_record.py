"""An accuracy ratchet: every `gho verify` value on the bundled scenarios,
with and without `--xp 1.0,0.0`, against the record in verify_record.json.

Write a fresh record with

    PYTHONPATH=src python tests/test_verify_record.py > tests/verify_record.json
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy
import scipy

from gho.cli import main

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("verify_record.json")
SCENARIOS = ("sho", "free_particle", "parametric", "driven_sho")
OPTIONS = ((), ("--xp", "1.0,0.0"))
# a value at rounding level may move this far under another BLAS or libm
FLOOR = 1e-14


def verify_values() -> dict:
    """{scenario and options: {check: [status, value or None]}} of the eight
    verify calls, run in process."""
    runs = {}
    for name in SCENARIOS:
        for options in OPTIONS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["verify", "--scenario", str(ROOT / "scenarios" / f"{name}.json"),
                      *options])
            checks = {}
            for line in out.getvalue().splitlines():
                _, check, value, _, status = line.split(maxsplit=4)
                value = float(value.removeprefix("value="))
                checks[check] = [status, None if status.startswith("SKIP") else value]
            runs[" ".join((name, *options))] = checks
    return runs


def test_verify_values_keep_their_record():
    """Each check keeps its recorded status, and its value rises no further
    than 4 times its record, or FLOOR where that is larger; tau_monotone,
    which must stay above 0, falls no further than a quarter of its record.

    Re-pin rule: a value that falls is re-pinned (rewrite the record, see the
    module docstring) with one line in CHANGES.md. A value that rises past
    its bound is re-pinned only with its reason in CHANGES.md, such as a
    check moved to another time.
    """
    record = json.loads(RECORD.read_text())
    runs = verify_values()
    assert list(runs) == list(record["runs"])
    for run, checks in runs.items():
        recorded = record["runs"][run]
        assert {check: status for check, (status, _) in checks.items()} == \
            {check: status for check, (status, _) in recorded.items()}, run
        for check, (_, value) in checks.items():
            old = recorded[check][1]
            if old is None:
                continue
            if check == "tau_monotone":
                assert value >= 0.25 * old, (run, check, value, old)
            else:
                assert value <= max(4.0 * old, FLOOR), (run, check, value, old)


if __name__ == "__main__":
    json.dump({"numpy": numpy.__version__, "scipy": scipy.__version__,
               "runs": verify_values()}, sys.stdout, indent=1)
    sys.stdout.write("\n")

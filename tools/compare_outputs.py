"""Compare what gho prints and writes at a git revision with this working tree.

    python tools/compare_outputs.py PARENT_REV

Runs 136 command lines in each tree: the six commands with their default
options, `verify --xp 1.0,0.0`, `verify --xp 1.0,0.5` (a moving x_p, which a
free-particle hop reads as a shift), `verify --basis custom:0,1.4,0.7,0
--xp 1.0,0.0` (Omega = -0.98 and rho(t0) = 0.7, so U_S dilates on every
scenario), `verify --grid=-10,10,256` (a coarse base grid: every grid
verify fits, the evolver's included, scales from it), `kernel-scan --times
4.0,0.5` (a backward kernel), the four
packet commands (modes, coherent, evolve,
invariant) with the default grid given as `--grid=-10,10,2048`, which they
run as given rather than fit to the modes, and two `python -c` snippets:
`kernel-values` (KERNEL_VALUES) prints the repr of seeded scalar gho.kernel
values, the path no command reads, and `hop-values` (HOP_VALUES) the reprs
of every sample of seeded gho.propagate hops, which verify reaches only
twice. Each runs on the four bundled
scenarios, on the coupled scenario of tests/conftest.py (a, b and f nonzero,
M = 1.3, hbar = 0.7), the one that reaches the gauge phase, on an
all-kinds scenario that loads each of the five coefficient kinds, on sho
at hbar = 2, where verify's path-integral grid grows and the modes' momentum
spread falls below 1, and on a scenario whose mass, frequency, force and f
each jump, so that the evolver's coefficient table crosses a jump of every
coefficient that may jump (a and b may not). The revision is exported with `git archive` into a
temporary directory. Both trees read the working tree's scenario files, and
the coupled, all-kinds, hbar = 2 and jumps ones are written into the
temporary directory. Each run is `python -m gho` with that tree's `src` on
PYTHONPATH, in a fresh temporary directory.

Prints every exit code, stdout, stderr or output file that differs. When two
packet CSVs differ in their `# grid=` line, it prints the old and the new
grid; when two texts differ only in their numbers, it prints the largest
absolute difference between them. Exits 1 when an exit code, the text of a stderr
(more than its numbers) or the status of a verify CHECK line differs, and 0
otherwise: a numerical change may move the amplitude an error message
quotes, but not the message.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("sho", "free_particle", "parametric", "driven_sho", "coupled", "all_kinds",
             "sho_hbar2", "jumps")
# tests/conftest.py's COUPLED: no bundled scenario sets a, b or f
COUPLED = {"hbar": 0.7, "mass": 1.3, "b": 0.3, "f": 0.2, "interval": [0.0, 12.0],
           "a": {"kind": "sinusoidal", "amplitude": 0.1, "omega": 1.0, "phase": 0.5},
           "force": {"kind": "sinusoidal", "amplitude": 0.5, "omega": 1.3}}
# no other scenario loads a polynomial, piecewise or exponential coefficient
ALL_KINDS = {"hbar": 0.8, "interval": [0, 6],
             "mass": {"kind": "exponential", "amplitude": 1.0, "rate": 0.05},
             "frequency": {"kind": "polynomial", "coefficients": [1.0, 0.02]},
             "force": {"kind": "piecewise", "breakpoints": [3.0], "values": [0.0, 0.3]},
             "a": {"kind": "sinusoidal", "amplitude": 0.05, "omega": 1.0},
             "b": 0.1, "f": 0.2}
SHO_HBAR2 = {"hbar": 2.0, "interval": [0.0, 12.0]}
# H jumps at a breakpoint of each of M, w, F and f; a = 0, so M may jump
JUMPS = {"hbar": 0.9, "interval": [0, 8],
         "mass": {"kind": "piecewise", "breakpoints": [5], "values": [1, 1.2]},
         "frequency": {"kind": "piecewise", "breakpoints": [2.5, 6], "values": [1, 1.3, 0.8]},
         "force": {"kind": "piecewise", "breakpoints": [1.5], "values": [0, 0.4]},
         "f": {"kind": "piecewise", "breakpoints": [3.5], "values": [0.1, -0.2]}}
PACKET_COMMANDS = ("evolve", "modes", "invariant", "coherent")
# scalar gho.kernel values, which no command reads (kernel-scan evaluates
# arrays): 100 seeded time pairs and the first focal time after t0, each in
# both directions, over the benchmark's three bases (default, Omega = -1 and a
# rotated non-orthogonal pair); the name of the exception where one is raised
KERNEL_VALUES = """
import random, sys
import gho
s = gho.load_scenario(open(sys.argv[1]).read())
part = gho.solve_particular(s)
bases = [gho.solve_homogeneous_basis(s, ics)
         for ics in (None, ((0.0, 1.0), (1.0, 0.0)), ((0.8, 0.3), (0.4, 1.1)))]
draw = random.Random(4242)
pairs = [(draw.uniform(s.t0, s.t1), draw.uniform(s.t0, s.t1)) for _ in range(100)]
pairs += [(s.t0, t) for t in gho.caustic_times(bases[0], s.t0).times[:1]]
for t_a, t_b in pairs:
    x_a, x_b = draw.uniform(-2.0, 2.0), draw.uniform(-2.0, 2.0)
    for basis in bases:
        for q in (gho.KernelQuery(t_a, t_b, x_a, x_b), gho.KernelQuery(t_b, t_a, x_b, x_a)):
            try:
                print(repr(gho.kernel(s, basis, part, q)))
            except gho.GhoError as exc:
                print(type(exc).__name__)
"""
# seeded gho.propagate hops of a mode from one t_a in the interval's first
# half: a short hop, a medium one and a landing on the first focal time
# after t_a (where there is one), with the default basis and x_p, and a
# medium hop whose x_p starts from (1, 0.5), a moving x_p (a shift on the
# free particle), on (-10, 10, 512) widened by the modes' width
# rho sqrt(hbar) at the widest end; the reprs of each sample's real and
# imaginary parts, or the name of the exception raised
HOP_VALUES = """
import math, random, sys
import gho
s = gho.load_scenario(open(sys.argv[1]).read())
basis = gho.solve_homogeneous_basis(s)
still, moving = gho.solve_particular(s), gho.solve_particular(s, (1.0, 0.5))
draw = random.Random(4242)
t_a = draw.uniform(s.t0, 0.5 * (s.t0 + s.t1))
hops = [(still, t_a + draw.uniform(0.02, 0.1)), (still, t_a + draw.uniform(0.2, 1.0))]
hops += [(still, t) for t in gho.caustic_times(basis, t_a).times[:1]]
hops.append((moving, t_a + draw.uniform(0.2, 1.0)))
rho = max(float(basis.at(t).rho) for t in (t_a, *(t_b for _, t_b in hops)))
widen = max(1.0, rho * math.sqrt(s.hbar) - 1e-6)
grid = gho.GridSpec(-10.0 * widen, 10.0 * widen, 64 * math.ceil(8.0 * widen))
for part, t_b in hops:
    packet = gho.eigenmode_packet(s, basis, part, draw.randrange(4), t_a, grid)
    try:
        for value in gho.propagate(packet, s, basis, part, t_b).samples.tolist():
            print(repr(value.real), repr(value.imag))
    except gho.GhoError as exc:
        print(type(exc).__name__)
"""
SNIPPETS = {"kernel-values": KERNEL_VALUES, "hop-values": HOP_VALUES}
COMMANDS = (("verify",), ("kernel-scan",), *((name,) for name in PACKET_COMMANDS),
            ("verify", "--xp", "1.0,0.0"), ("verify", "--xp", "1.0,0.5"),
            ("verify", "--basis", "custom:0,1.4,0.7,0", "--xp", "1.0,0.0"),
            ("verify", "--grid=-10,10,256"), ("kernel-scan", "--times", "4.0,0.5"),
            *((name, "--grid=-10,10,2048") for name in PACKET_COMMANDS), ("kernel-values",),
            ("hop-values",))
# a packet CSV's grid line, written by gho.cli's _write_packet_csv
GRID = re.compile(r"^# grid=(.*)$", re.MULTILINE)
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf))")


def export(rev: str, into: Path) -> Path:
    """The tree of rev, unpacked by git archive under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def interpreter_args(command, scenario: Path) -> list:
    """The Python arguments of one command line: gho's, or a snippet's."""
    if command[0] in SNIPPETS:
        return ["-c", SNIPPETS[command[0]], str(scenario)]
    return ["-m", "gho", *command, "--scenario", str(scenario), "--out", "out"]


def run(tree: Path, command, scenario: Path, workdir: Path) -> dict:
    """Exit code, stdout, stderr and every written file of one command line."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, *interpreter_args(command, scenario)],
                          cwd=workdir, env=env, capture_output=True, text=True)
    out = workdir / "out"
    files = {str(p.relative_to(out)): p.read_text() for p in sorted(out.rglob("*"))
             if p.is_file()} if out.exists() else {}
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
            "files": files}


def number_difference(old: str, new: str):
    """The largest absolute difference between the numbers of two texts that
    differ in nothing else (nan against nan counts as equal), or None."""
    old_parts, new_parts = NUMBER.split(old), NUMBER.split(new)
    if len(old_parts) != len(new_parts) or old_parts[::2] != new_parts[::2]:
        return None
    largest = 0.0
    for a, b in zip(old_parts[1::2], new_parts[1::2]):
        a, b = float(a), float(b)
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        largest = max(largest, abs(a - b))
    return largest


def describe(what: str, old: str, new: str) -> str:
    old_grid, new_grid = GRID.search(old), GRID.search(new)
    if old_grid and new_grid and old_grid[1] != new_grid[1]:
        return f"{what} moves from grid {old_grid[1]} to {new_grid[1]}"
    largest = number_difference(old, new)
    if largest is None:
        return f"{what} differs in text"
    return f"{what} differs in numbers only, largest absolute difference {largest:.3g}"


def check_statuses(stdout: str) -> dict:
    return {line.split()[1]: line.split()[-1] for line in stdout.splitlines()
            if line.startswith("CHECK ")}


def compare(label: str, old: dict, new: dict):
    """Lines describing each difference, and whether one of them is grave."""
    lines, grave = [], False
    if old["exit code"] != new["exit code"]:
        lines.append(f"exit code {old['exit code']} -> {new['exit code']}")
        grave = True
    if old["stderr"] != new["stderr"]:
        if number_difference(old["stderr"], new["stderr"]) is None:
            lines.append(f"stderr {old['stderr']!r} -> {new['stderr']!r}")
            grave = True
        else:
            lines.append(describe("stderr", old["stderr"], new["stderr"]))
    if check_statuses(old["stdout"]) != check_statuses(new["stdout"]):
        lines.append("CHECK statuses differ")
        grave = True
    if old["stdout"] != new["stdout"]:
        lines.append(describe("stdout", old["stdout"], new["stdout"]))
    for name in sorted(old["files"].keys() | new["files"].keys()):
        if name not in new["files"] or name not in old["files"]:
            lines.append(f"file {name} written by one tree only")
        elif old["files"][name] != new["files"][name]:
            lines.append(describe(f"file {name}", old["files"][name], new["files"][name]))
    return [f"{label}: {line}" for line in lines], grave


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", metavar="PARENT_REV", help="git revision to compare against")
    args = parser.parse_args(argv)
    differing, grave = 0, False
    with tempfile.TemporaryDirectory() as tmp:
        parent = export(args.rev, Path(tmp) / "parent")
        paths = {name: ROOT / "scenarios" / f"{name}.json" for name in SCENARIOS}
        for name, data in (("coupled", COUPLED), ("all_kinds", ALL_KINDS),
                           ("sho_hbar2", SHO_HBAR2), ("jumps", JUMPS)):
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(data))
        for command in COMMANDS:
            for scenario in SCENARIOS:
                label = f"{' '.join(command)} {scenario}"
                runs = [run(tree, command, paths[scenario],
                            Path(tmp) / side / label.replace(" ", "_"))
                        for tree, side in ((parent, "old"), (ROOT, "new"))]
                lines, serious = compare(label, *runs)
                differing += bool(lines)
                grave = grave or serious
                for line in lines:
                    print(line, flush=True)
    runs = len(COMMANDS) * len(SCENARIOS)
    print(f"{runs} runs, {differing} differ; exit codes, stderr and CHECK statuses "
          f"{'differ' if grave else 'all match'}")
    return 1 if grave else 0


if __name__ == "__main__":
    sys.exit(main())

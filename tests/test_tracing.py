"""The benchmark's tracer wraps gho functions by name and argument position;
installing it fails as soon as one of them is renamed or deleted."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import tracing
import gho

tracer = tracing.Tracer()
tracing.install(tracer)
tracer.phase = "ops"
s = gho.scenario_from_dict({"interval": [0.0, 2.0]})
basis = gho.solve_homogeneous_basis(s)
gho.kernel(s, basis, None, gho.KernelQuery(0.1, 1.2, 0.3, -0.4))
metrics = tracer.metrics()
for name in ("propagator.kernel.calls", "propagator.kernel_coefficients.calls",
             "classical.dense_eval.calls", "classical.solve_homogeneous_basis.calls"):
    assert metrics[name] >= 1, name
print("installed")
"""


def test_tracer_installs_on_gho():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed"

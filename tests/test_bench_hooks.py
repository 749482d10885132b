"""The benchmark's traced pass finds every function it hooks by name.

``bench/layers.py`` reads cProfile entries of named functions
(``EvolutionAlgebra._closure``, ``nilpotency._witness_for_pair``,
``natural._char2_completable`` and others), so renaming one breaks
``bench/run.py --trace 1``.  This runs the hooks in a subprocess, which keeps
their monkeypatching out of the test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import cProfile
import json
import sys

from evoalg import cli
import layers

argv, positive = json.loads(sys.argv[1]), json.loads(sys.argv[2])
counts = layers.install()
profiler = cProfile.Profile()
profiler.enable()
rc = cli.main(argv)
profiler.disable()
out = layers.metrics(profiler, counts, [{"argv": argv}], [{"stdout": None}])
assert rc == 0, rc
for name in positive:
    assert out[name] > 0, (name, out[name])
print("hooks ok")
"""


def run_hooks(argv, positive):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv),
                           json.dumps(positive)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("hooks ok")


def test_layers_metrics_on_classify(tmp_path):
    # The closure of e_1 is the whole algebra, so classify decides its basic
    # simplicity, which starts with a determinant (is it perfect?).
    for field in ("gf 5", "q"):
        path = tmp_path / "ex59.alg"
        path.write_text(f"field {field}\ndim 3\n1 1 1\n1 1 1\n1 1 0\n")
        run_hooks(["classify", str(path)],
                  ["algebra.closure.calls", "linalg.det.calls", "adjoint.classify.s"])


def test_layers_metrics_on_natural_vector(tmp_path):
    path = tmp_path / "ones.alg"
    path.write_text("field gf 2\ndim 3\n1 1 1\n1 1 1\n1 1 1\n")
    run_hooks(["natural", str(path), "--vector", "1 0 0"],
              ["natural.is_natural_vector.s"])

"""Every benchmark workload's seed-1 outputs match the committed digests.

``bench/run.py`` checks its outputs against ``bench/expected/`` only when
the benchmark runs.  This replays each workload's seed-1 request list once,
as one ``bench/pass_runner.py pass`` interpreter with ``PYTHONHASHSEED=0``
(as ``run.py`` starts it), so byte-identical reports are checked here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return run, workloads


@pytest.mark.parametrize("workload", ["structure-gfp", "structure-q", "search",
                                      "oracle-sweep"])
def test_seed_one_digests(bench_modules, tmp_path, workload):
    run, workloads = bench_modules
    assert workload in workloads.WORKLOADS
    _, req_file = run._write_fixtures(workloads.build(workload, 1), str(tmp_path / "work"))
    res_file = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(BENCH / "pass_runner.py"), "pass",
                           req_file, str(res_file)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(res_file.read_text())["results"]
    assert [(r["id"], r["rc"], r["error"]) for r in results if r["rc"] != 0 or r["error"]] == []
    expected = json.loads((BENCH / "expected" / f"{workload}.json").read_text())
    assert {r["id"]: r["digest"] for r in results} == expected

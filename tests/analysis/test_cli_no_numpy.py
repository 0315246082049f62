"""The CLI without numpy: numpy is an optional dependency.

A directory whose ``numpy/__init__.py`` raises ``ImportError`` goes first
on ``PYTHONPATH``, so every ``import numpy`` in the child fails as it
would on an interpreter without numpy.  The smoke campaign must still run
and reproduce its frozen baseline exactly.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SMOKE_BASELINE = ROOT / "benchmarks" / "baselines" / "smoke.json"


def _repro(args, shim, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(shim), str(ROOT / "src")]))
    return subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_smoke_campaign_matches_its_baseline_without_numpy(tmp_path):
    shim = tmp_path / "shim"
    (shim / "numpy").mkdir(parents=True)
    (shim / "numpy" / "__init__.py").write_text(
        'raise ImportError("numpy is blocked for this test")\n')
    results = tmp_path / "results"

    blocked = subprocess.run(
        [sys.executable, "-c", "import numpy"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(shim)))
    assert blocked.returncode != 0 and "blocked" in blocked.stderr

    run = _repro(["campaign", "smoke", "--no-cache", "--results-dir", str(results)],
                 shim, tmp_path)
    assert run.returncode == 0, run.stderr
    check = _repro(["baseline", "check", str(results / "smoke.jsonl"),
                    str(SMOKE_BASELINE)], shim, tmp_path)
    assert check.returncode == 0, check.stdout + check.stderr

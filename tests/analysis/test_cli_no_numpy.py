"""The CLI without numpy or networkx: both are optional at runtime.

A directory whose ``numpy/__init__.py`` and ``networkx/__init__.py`` raise
``ImportError`` goes first on ``PYTHONPATH``, so every ``import numpy`` and
``import networkx`` in the child fails as it would on an interpreter
without them.  The smoke campaign must still run and reproduce its frozen
baseline exactly, ``report`` must still read every record, and the one
networkx-only method must say what is missing.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SMOKE_BASELINE = ROOT / "benchmarks" / "baselines" / "smoke.json"
BLOCKED = ("numpy", "networkx")


@pytest.fixture(scope="module")
def shim(tmp_path_factory):
    """A ``PYTHONPATH`` entry that blocks numpy and networkx."""
    shim = tmp_path_factory.mktemp("shim")
    for name in BLOCKED:
        (shim / name).mkdir()
        (shim / name / "__init__.py").write_text(
            f'raise ImportError("{name} is blocked for this test")\n')
    return shim


def _env(shim):
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(shim), str(ROOT / "src")]))


def _repro(args, shim, cwd):
    return subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd, env=_env(shim),
                          capture_output=True, text=True, timeout=300)


def _python(code, shim):
    return subprocess.run([sys.executable, "-c", code], env=_env(shim),
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", BLOCKED)
def test_shim_blocks_the_import(shim, name):
    blocked = _python(f"import {name}", shim)
    assert blocked.returncode != 0 and "blocked" in blocked.stderr


def test_smoke_campaign_matches_its_baseline_without_numpy(shim, tmp_path):
    results = tmp_path / "results"
    run = _repro(["campaign", "smoke", "--no-cache", "--results-dir", str(results)],
                 shim, tmp_path)
    assert run.returncode == 0, run.stderr
    check = _repro(["baseline", "check", str(results / "smoke.jsonl"),
                    str(SMOKE_BASELINE)], shim, tmp_path)
    assert check.returncode == 0, check.stdout + check.stderr

    report = _repro(["report", str(results / "smoke.jsonl"), "--json"], shim, tmp_path)
    assert report.returncode == 0, report.stderr
    lines = [ln for ln in (results / "smoke.jsonl").read_text().splitlines() if ln]
    assert json.loads(report.stdout)["records"] == len(lines) > 0


def test_to_networkx_names_the_missing_dependency(shim):
    code = ("from repro.graphs.labeled import LabeledGraph\n"
            "try:\n"
            "    LabeledGraph(2, [(1, 2)]).to_networkx()\n"
            "except ImportError as exc:\n"
            "    print(exc)\n")
    run = _python(code, shim)
    assert run.returncode == 0, run.stderr
    assert "networkx" in run.stdout

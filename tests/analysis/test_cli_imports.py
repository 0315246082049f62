"""Each CLI verb imports only what it runs.

Every verb is run as a user runs it, ``python -m repro …`` in a fresh
interpreter, under ``-X importtime``, which lists every module the process
imported.  The budget is a set of modules a verb must not load, not a wall
time: module sets are exact, timings on a shared host are not.

* No verb below needs networkx or numpy: ``LabeledGraph.to_networkx()`` and
  the experiment harness are the only code that does.
* ``report`` reads records, so it must not load the engine or its process
  and thread pools either.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

NO_GRAPH_LIBS = {"networkx", "numpy"}
NO_ENGINE = NO_GRAPH_LIBS | {"repro.engine", "multiprocessing", "concurrent.futures"}


def _imported(args, cwd) -> set[str]:
    """Run ``python -X importtime -m repro *args``; return the modules it imported."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "repro", *args],
                         cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The smoke campaign's records, and the modules its run imported."""
    work = tmp_path_factory.mktemp("imports")
    modules = _imported(["campaign", "smoke", "--no-cache",
                         "--results-dir", str(work / "results")], work)
    return work / "results" / "smoke.jsonl", modules


def test_version_loads_neither_networkx_nor_numpy(tmp_path):
    modules = _imported(["--version"], tmp_path)
    assert "repro.cli" in modules
    assert not modules & NO_GRAPH_LIBS, sorted(modules & NO_GRAPH_LIBS)


def test_smoke_campaign_loads_neither_networkx_nor_numpy(smoke):
    _, modules = smoke
    assert "repro.engine" in modules  # the listing sees what the verb runs
    assert not modules & NO_GRAPH_LIBS, sorted(modules & NO_GRAPH_LIBS)


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["table", "json"])
def test_report_loads_no_engine(smoke, tmp_path, fmt):
    records, _ = smoke
    modules = _imported(["report", str(records), *fmt], tmp_path)
    assert "repro.results" in modules
    assert not modules & NO_ENGINE, sorted(modules & NO_ENGINE)

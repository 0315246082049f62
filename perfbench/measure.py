"""Timing primitives: timed subprocesses, percentiles, summaries.

Every end-to-end timing goes through :func:`spawn`, which measures wall
time from spawn to exit on :func:`time.perf_counter` and takes the
child's own peak RSS from :func:`os.wait4`, so imports and interpreter
start-up count exactly as a user pays them.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field

#: The percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class Result:
    """One finished child process."""

    argv: list[str]
    returncode: int
    seconds: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def spawn(argv: list[str], *, cwd: str, env: dict[str, str],
          timeout: float = 120.0, log_dir: str) -> Result:
    """Run ``argv`` to completion; wall time, exit code, peak RSS, output.

    Output goes to files under ``log_dir`` rather than pipes, so a chatty
    child never blocks on a full pipe while we wait on it.
    """
    os.makedirs(log_dir, exist_ok=True)
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        # A blocking wait4 in a helper thread stamps the exit exactly and
        # costs no CPU; the main thread only enforces the timeout.
        reaped: list = []
        waiter = threading.Thread(
            target=lambda: reaped.append((os.wait4(proc.pid, 0), time.perf_counter())))
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        (_, status, usage), t1 = reaped[0]
        seconds = t1 - t0
    # wait4 reaped the child; tell Popen so it never waits again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        stdout, stderr = out.read(), err.read()
    return Result(argv, proc.returncode, seconds, usage.ru_maxrss / 1024.0,
                  stdout, stderr)


def _rank(q: float, count: int) -> int:
    """Nearest rank ``ceil(q/100 · count)``, exact for q in tenths of a percent."""
    return -(-round(q * 10) * count // 1000)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0–100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, _rank(q, len(ordered))) - 1]


#: What :func:`host_probe` takes when the host runs at full speed (a
#: 2-vCPU VM on a shared host, Python 3.11.7).  A run's timings are scaled
#: by this over the run's mean probe; see :func:`speed_factor`.
PROBE_REFERENCE_S = 0.035


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the host runs now.

    Dict stores, integer arithmetic and a string sort, the bytecode mix
    the program spends its time in.  It runs in the benchmark's process
    between the program's runs, never alongside them: on a 2-core host a
    concurrent probe slows the campaign it watches by ~17%.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(120_000):
        table[i & 1023] = (acc ^ i) * 3 + len(table)
        acc = (acc + table[i & 1023]) & 0xFFFFFFFF
    sorted(str(x) for x in range(20_000))
    return time.perf_counter() - t0


def speed_factor(probes: list[float]) -> float:
    """:data:`PROBE_REFERENCE_S` over the mean of ``probes``.

    A shared host's speed swings by up to ~1.7× for seconds to minutes at
    a time, and the same program code reads that much slower or faster.
    Multiplying a run's timings by this factor restates them at the
    reference speed; a change to the program leaves the probe alone, so
    it still moves the scaled timings in full.
    """
    return PROBE_REFERENCE_S / statistics.fmean(probes)


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least ten samples beyond it, or ``None``.

    Samples *beyond* the nearest-rank ``q`` percentile are the ones
    ranked strictly above it: ``count - ceil(q/100 · count)``.
    """
    for q in TAIL_CANDIDATES:
        if count - _rank(q, count) >= 10:
            return q
    return None


@dataclass
class Series:
    """Samples of one metric, in its unit."""

    name: str
    unit: str
    values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(value)

    def median(self) -> float:
        return statistics.median(self.values)

    def line(self) -> str:
        """``name  median unit  [pXX tail]  (n=count)`` for the human table."""
        n = len(self.values)
        text = f"{self.name:<24} p50 {self.median():.6g} {self.unit}"
        q = tail_percentile(n)
        if q is not None:
            text += f"  p{q:g} {percentile(self.values, q):.6g} {self.unit}"
        return text + f"  (n={n})"


class Daemon:
    """A long-running child (``repro serve``) and its peak RSS."""

    _BANNER = "listening on "

    def __init__(self, argv: list[str], *, cwd: str, env: dict[str, str],
                 log_dir: str) -> None:
        os.makedirs(log_dir, exist_ok=True)
        self._out_path = os.path.join(log_dir, "stdout.txt")
        self._err_path = os.path.join(log_dir, "stderr.txt")
        self.url = ""
        self._t0 = time.perf_counter()
        with open(self._out_path, "w") as out, open(self._err_path, "w") as err:
            self._proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                          stderr=err, stdin=subprocess.DEVNULL)

    def stderr_tail(self) -> str:
        with open(self._err_path) as fh:
            return fh.read().strip()[-300:]

    def wait_ready(self, *, timeout: float) -> float | None:
        """Seconds from spawn until ``/healthz`` answers, or ``None``.

        The bound port comes from the daemon's banner line on stdout.
        """
        from repro.errors import ReproError
        from repro.serve.client import ServeClient

        deadline = self._t0 + timeout
        while time.perf_counter() < deadline and self._proc.poll() is None:
            if not self.url:
                with open(self._out_path) as fh:
                    for line in fh:
                        if self._BANNER in line:
                            self.url = line.split(self._BANNER, 1)[1].split()[0]
            if self.url:
                try:
                    if ServeClient(self.url, timeout=5.0).health()["status"] == "ok":
                        return time.perf_counter() - self._t0
                except ReproError:
                    pass
            time.sleep(0.001)
        return None

    def peak_rss_mb(self) -> float:
        """The daemon's peak RSS so far (``VmHWM``), in MB."""
        with open(f"/proc/{self._proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self._proc.pid}")

    def stop(self, *, timeout: float = 30.0) -> None:
        """SIGTERM and wait; SIGKILL if it has not exited after ``timeout``."""
        self._proc.terminate()
        try:
            self._proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

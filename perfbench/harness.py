"""Running operations, checking their outputs, and summarising timings.

Load is a closed loop with one client: each operation starts only after
the previous one has finished, and CLI commands run as subprocesses one
at a time.
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time
from typing import Callable, NamedTuple

#: Single-threaded numeric libraries in this process and every child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


@dataclass
class Op:
    """One operation of a workload pass.

    ``run(runner)`` returns (seconds, output bytes); ``check`` raises
    :class:`CheckFailed` on wrong output.  ``units`` > 0 makes the metric
    a rate (units per second) instead of a duration.
    """

    label: str
    metric: str
    run: Callable[["Runner"], tuple[float, bytes]]
    check: Callable[[bytes], None]
    units: int = 0


@dataclass
class Ledger:
    """Attempts, failures and the first output digest of every operation."""

    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)

    def record(self, op: Op, runner: "Runner") -> float | None:
        """Run ``op`` once; its duration, or None if it failed."""
        self.attempted += 1
        try:
            seconds, output = op.run(runner)
            op.check(output)
            digest = hashlib.sha256(output).hexdigest()
            first = self.digests.setdefault(op.label, digest)
            if digest != first:
                raise CheckFailed(f"output differs from the first run ({digest[:12]} != {first[:12]})")
        except (CheckFailed, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            print(f"FAILED {op.label}: {exc}", file=sys.stderr)
            return None
        return seconds


#: What :func:`probe_seconds` returns at the reference speed.  Timed
#: values are scaled by REFERENCE_PROBE_S / (the probe's time while or
#: around the sample): on a shared host the same code runs up to twice
#: as slowly when neighbours are busy, and the probe sees that slowdown.
REFERENCE_PROBE_S = 0.025

#: Seconds between probes taken while a CLI command runs.
PROBE_INTERVAL_S = 0.2


def probe_seconds(work: float = 1.0) -> float:
    """CPU seconds per unit of a fixed loop of tiny numpy calls and small objects.

    The host's current speed, for code like chshkit's: per-call numpy
    overhead and per-row Python objects tracked its slowdowns more closely,
    for the CLI commands and the tiny cascades alike, than a pure-Python
    arithmetic loop or a large memory-bound sort did.  The loop is timed in
    this thread's CPU time, so sharing the CPU with a running command does
    not count, only how fast the CPU runs.
    """
    import numpy as np

    values = np.tile(np.array([1, -1, -1, 1, 1], dtype=np.int8), 8)
    start = thread_time()
    for _ in range(int(3000 * work)):
        int(values[np.argsort(values, kind="stable")].sum())
    rows = {}
    for i in range(int(25_000 * work)):
        rows[str(i)] = (i, str(3 * i))
    return (thread_time() - start) / work


class SpeedSampler:
    """Takes a small probe every PROBE_INTERVAL_S while a command runs.

    A command of several seconds spans several of the host's speed phases,
    which probes taken only before and after it miss.  The probes share the
    pinned CPU with the command and take about 3 % of it, the same share in
    every run.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.probes.append(probe_seconds(work=0.2))
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def probe_s(self) -> float:
        return statistics.mean(self.probes)


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU; returns that CPU.

    The host's two CPUs slow down independently, so the probe has to run
    on the CPU the timed work runs on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Runner:
    """How CLI commands run: as subprocesses, or by calling ``cli.main``."""

    def __init__(self, root: Path, workdir: Path, in_process: bool = False) -> None:
        self.root = root
        self.workdir = workdir
        self.in_process = in_process
        self.env = child_env(root)
        #: Probe time measured while the last subprocess ran, else None.
        self.probe_s: float | None = None

    def cli(self, argv: list[str]) -> tuple[float, bytes]:
        if self.in_process:
            from chshkit import cli

            buffer = io.StringIO()
            with redirect_stdout(buffer):
                start = perf_counter()
                code = cli.main(argv)
                seconds = perf_counter() - start
            stdout = buffer.getvalue().encode("utf-8")
        else:
            with SpeedSampler() as sampler:
                start = perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "chshkit", *argv], cwd=self.workdir, env=self.env,
                    stdin=subprocess.DEVNULL, capture_output=True, timeout=170,
                )
                seconds = perf_counter() - start
            self.probe_s = sampler.probe_s
            code, stdout = proc.returncode, proc.stdout
            if code:
                sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
        if code:
            raise CheckFailed(f"exit code {code}")
        return seconds, stdout


def child_env(root: Path) -> dict[str, str]:
    src = str(root / "src")
    old = os.environ.get("PYTHONPATH")
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": src + (os.pathsep + old if old else "")}


def fresh_import_seconds(root: Path) -> tuple[float, float]:
    """(wall time of a fresh interpreter importing chshkit, the import alone)."""
    code = "import time; t = time.perf_counter(); import chshkit; print(time.perf_counter() - t)"
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(root), cwd=root,
                          stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=60)
    return perf_counter() - start, float(proc.stdout)


class Sample(NamedTuple):
    seconds: float
    units: int
    scale: float  # REFERENCE_PROBE_S over the probe time of this sample

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale

    @classmethod
    def scaled(cls, seconds: float, units: int, probe_s: float) -> "Sample":
        return cls(seconds, units, REFERENCE_PROBE_S / probe_s)


def run_pass(ops: list[Op], runner: Runner, ledger: Ledger, samples: dict | None = None,
             tracer=None) -> float:
    """Run every operation once, in order; the pass's total op time.

    Samples are keyed by operation label.  A subprocess is scaled by the probes taken while it ran, an in-process
    operation (short) by the mean of the probes before and after it.
    With a tracer, each operation's spans carry its index as their op id.
    """
    total = 0.0
    before = probe_seconds()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        runner.probe_s = None
        seconds = ledger.record(op, runner)
        after = probe_seconds()
        if seconds is not None:
            total += seconds
            if samples is not None:
                probe = runner.probe_s or (before + after) / 2.0
                samples.setdefault(op.label, []).append(Sample.scaled(seconds, op.units, probe))
        before = after
    return total


def metric_value(values: list[Sample], scaled: bool = True) -> float:
    """Median seconds, or for a rate the median of units per second."""
    seconds = [v.scaled_seconds if scaled else v.seconds for v in values]
    if values[0].units:
        return statistics.median(v.units / s for v, s in zip(values, seconds))
    return statistics.median(seconds)


def pass_seconds(samples: dict[str, list], scaled: bool = True) -> float:
    """One pass of the workload: each distinct operation once, at its median time."""
    return sum(statistics.median(v.scaled_seconds if scaled else v.seconds for v in values)
               for values in samples.values())


def timing_summary(seconds: list[float]) -> dict:
    """Median, sample count, and the highest percentile with 10 samples beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    summary = {"median_s": statistics.median(ordered), "samples": n,
               "tail_percentile": None, "tail_s": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            summary["tail_percentile"] = p
            summary["tail_s"] = ordered[min(n - 1, int(p / 100.0 * n))]
            break
    return summary


def provenance(root: Path, seed: int, workload: str, sizes: dict) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "chshkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"

"""Closed-loop task runner and the end-to-end metrics.

A workload hands the runner a list of :class:`Task`.  The runner calls
them one after another (each starts when the previous one ended), times
only the call, and then checks the output outside the timed region.  A
task fails when it raises or when its output misses the check; the run
goes on either way.
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy
import scipy

from heatlab import HeatlabError

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("task_p50_ms", "ms"),
              ("task_tail_ms", "ms"), ("pass_ratio", "ratio"),
              ("peak_rss_mb", "MB"))
TAIL_BEYOND = 10


class DeclaredFailure(Exception):
    """A failure the program reported itself, e.g. a CLI error exit.

    ``kind`` names its cause (the error class from the CLI's stderr JSON).
    """

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


@dataclass
class Task:
    """One public call a user makes to get an answer, and its output check."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Outcome:
    label: str
    seconds: float
    error: str | None = None     # exception class, or "check" for a miss
    declared: bool = True        # raised error is one the program declares

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_pass(tasks: list[Task], tracer=None) -> list[Outcome]:
    """Run every task once, closed loop, and check each output untimed."""
    outcomes = []
    for task in tasks:
        if tracer is not None:
            tracer.task = task.label
        start = time.perf_counter()
        try:
            out = task.call()
        except Exception as exc:  # a failed task is counted, not fatal
            seconds = time.perf_counter() - start
            declared = isinstance(exc, (HeatlabError, DeclaredFailure))
            kind = exc.kind if isinstance(exc, DeclaredFailure) \
                else type(exc).__name__
            outcomes.append(Outcome(task.label, seconds, kind, declared))
            continue
        finally:
            if tracer is not None:
                tracer.task = None
        seconds = time.perf_counter() - start
        try:
            ok = bool(task.check(out))
        except Exception:  # a check that cannot read the output is a miss
            ok = False
        outcomes.append(Outcome(task.label, seconds,
                                None if ok else "check"))
    return outcomes


def measure(make_tasks: Callable[[], list[Task]], seconds: float
            ) -> list[list[Outcome]]:
    """Repeat passes while the next one is expected to end within
    ``seconds``; at least one pass runs."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(make_tasks()))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return passes


def per_task(passes: list[list[Outcome]]) -> list[list[Outcome]]:
    """The outcomes of each task of the list, one per pass."""
    return [list(runs) for runs in zip(*passes)]


def typical_wall(passes: list[list[Outcome]]) -> float:
    """Time of a typical pass: each task at its median time across passes."""
    return sum(statistics.median(o.seconds for o in runs)
               for runs in per_task(passes))


def latency_summary(passes: list[list[Outcome]]) -> dict:
    """Median and tail over the tasks of a pass, each task taken at its
    median latency across passes.

    Taking each task at its median makes the figures those of a typical
    pass, so that a stall of the machine during one pass does not move
    them.  A failed task misses any latency limit and ranks above all
    others; if the percentile lands on one, the longest pass stands in,
    since no task can have taken longer.
    """
    cap = max(sum(o.seconds for o in p) for p in passes)
    lat = sorted(statistics.median(math.inf if o.failed else o.seconds
                                   for o in runs)
                 for runs in per_task(passes))
    # the highest percentile with TAIL_BEYOND tasks of a pass beyond it
    tail = max(len(lat) - TAIL_BEYOND, 1)

    def ms(value):
        return 1000.0 * (cap if math.isinf(value) else value)

    return {"task_p50_ms": ms(statistics.median(lat)),
            "task_tail_ms": ms(lat[tail - 1]),
            "tail_percentile": 100.0 * tail / len(lat), "tasks": len(lat)}


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of the largest child it waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pythonpath_env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not old else src + os.pathsep + old)


def sample_setup(workload: str, seed: int, samples: int) -> list[float]:
    """Set-up time of fresh processes: spawn to inputs generated,
    validated and assembled (``import heatlab`` included)."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code})")
    return times


def sample_import(samples: int) -> list[float]:
    """Wall time of a fresh ``python -c 'import heatlab'``."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import heatlab"], check=True,
                       env=pythonpath_env(), cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def end_to_end(passes: list[list[Outcome]], setup_times: list[float],
               rss_mb: float) -> tuple[dict, dict]:
    """The END_TO_END metrics, and the details printed next to them."""
    lat = latency_summary(passes)
    attempted = sum(len(p) for p in passes)
    failed = sum(o.failed for p in passes for o in p)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": typical_wall(passes),
        "task_p50_ms": lat["task_p50_ms"],
        "task_tail_ms": lat["task_tail_ms"],
        "pass_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": rss_mb,
    }
    details = {"fail_ratio": failed / attempted,
               "tail_percentile": lat["tail_percentile"],
               "tasks_per_pass": lat["tasks"],
               "pass_wall_s": [sum(o.seconds for o in p) for p in passes],
               "setup_samples_s": setup_times}
    return metrics, details


def failures_by_task(passes: list[list[Outcome]]) -> dict[str, dict[str, int]]:
    """Exception class (or "check" for a missed check) counts per task."""
    out: dict[str, dict[str, int]] = {}
    for o in (o for p in passes for o in p if o.failed):
        counts = out.setdefault(o.label, {})
        counts[o.error] = counts.get(o.error, 0) + 1
    return dict(sorted(out.items()))


def environment(seed: int) -> dict:
    """CPU, core count, BLAS, library versions and source identity."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count of numpy's OpenBLAS, or the environment's setting."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
        "OMP_NUM_THREADS") or "default"

"""Shared plumbing of the benchmark: paths, child processes, timing, checks.

Every workload records its operations in an `Ops` object (attempted, failed,
per-part program time) and its verdicts in a `Checker`. Program time is the
time spent inside calls into paybid; the checks that follow each call run
outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

# One thread everywhere: the in-process numpy and every child interpreter.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def prepare_process() -> None:
    """Pin this process to one thread and to the checkout's own sources."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def median(values) -> float:
    return float(statistics.median(values))


def run_child(args: list, timeout: float = 170.0) -> tuple:
    """Run one fresh interpreter to completion; returns (wall seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc.stdout


# A fresh interpreter that prints the monotonic clock once `import paybid` is
# done; the parent subtracts its own clock at spawn. CLOCK_MONOTONIC is shared
# by all processes of the machine, so the two readings are comparable.
_IMPORT_DONE = "import time, paybid; print(repr(time.perf_counter()))"


def setup_seconds(repeats: int = 5) -> float:
    """Median time from spawning an interpreter to `import paybid` done."""
    run_child(["-c", _IMPORT_DONE])  # fills the bytecode and file caches
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _, out = run_child(["-c", _IMPORT_DONE])
        samples.append(float(out.strip()) - start)
    return median(samples)


def paybid_command(argv: list, timeout: float = 170.0) -> tuple:
    """Run the `paybid` console entry point in a fresh process."""
    code = "import sys; from paybid.cli import main; sys.exit(main())"
    return run_child(["-c", code, *argv], timeout=timeout)


class Ops:
    """Attempted and failed operations, and the program time of each one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: list = []  # (part, seconds) of each call, in call order
        self.tags: dict = {}   # index of a call in `times` -> its input's tag

    def call(self, part: int, fn, *args, expect=None, tag=None, **kwargs):
        """Time one call into the program; returns (ok, result).

        expect names an exception type the call must raise (an inconsistent
        input); raising it is the correct result and is returned as such.
        tag marks the call's input (a long trace, say), so its share of the
        round can be reported; every round makes its calls in the same order.
        """
        self.attempted += 1
        if tag is not None:
            self.tags[len(self.times)] = tag
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps running and counts it
            self.times.append((part, time.perf_counter() - start))
            if expect is not None and isinstance(exc, expect):
                return True, exc
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None
        self.times.append((part, time.perf_counter() - start))
        return True, result


class Checker:
    """Verdicts on the program's outputs.

    Each check compares an observed value with an expected one (a reference
    computation, the generator's ground truth or a bound a property implies).
    With record=True every check is kept so `perturbed_failures` can show
    that it fails once its expected value is moved.
    """

    def __init__(self, record: bool = False):
        self.count = 0
        self.failures: list = []
        self.records = [] if record else None

    @property
    def ok(self) -> bool:
        return not self.failures

    def _check(self, kind: str, name: str, got, expected, tol: float = 0.0) -> bool:
        self.count += 1
        passed = _passes(kind, got, expected, tol)
        if not passed:
            self.failures.append(f"{name}: got {_short(got)}, expected {kind} {_short(expected)}"
                                 + (f" (tol {tol:.3g})" if tol else ""))
        if self.records is not None:
            self.records.append((kind, name, got, expected, tol))
        return passed

    def close(self, name: str, got, expected, rel: float = 0.0, abs_tol: float = 0.0) -> bool:
        return self._check("close", name, got, expected, max(abs_tol, rel * abs(expected)))

    def within_se(self, name: str, mean, se, exact, z: float = 5.0) -> bool:
        """A Monte Carlo mean lies within z standard errors of the exact value."""
        return self._check("close", name, mean, exact, z * se)

    def equal(self, name: str, got, expected) -> bool:
        return self._check("equal", name, got, expected)

    def at_most(self, name: str, got, bound) -> bool:
        return self._check("at_most", name, got, bound)

    def at_least(self, name: str, got, bound) -> bool:
        return self._check("at_least", name, got, bound)

    def fail(self, name: str, message: str) -> None:
        self.count += 1
        self.failures.append(f"{name}: {message}")

    def perturbed_failures(self) -> tuple:
        """(checks that failed when expected moved, checks that still passed)."""
        caught, missed = 0, []
        for kind, name, got, expected, tol in self.records:
            moved = _perturb(kind, got, expected, tol)
            if _passes(kind, got, moved, tol):
                missed.append(name)
            else:
                caught += 1
        return caught, missed


def _passes(kind: str, got, expected, tol: float) -> bool:
    if kind == "close":
        return (got is not None and math.isfinite(got)
                and abs(got - expected) <= tol)
    if kind == "equal":
        return got == expected
    if kind == "at_most":
        return got <= expected
    if kind == "at_least":
        return got >= expected
    raise ValueError(kind)


def _perturb(kind: str, got, expected, tol: float):
    if kind == "close":
        return expected + max(1e-6 * abs(expected), 2.0 * tol + abs(got - expected), 1e-9)
    if kind in ("at_most", "at_least"):
        step = max(1e-6 * abs(got), 1e-9)
        return got - step if kind == "at_most" else got + step
    return _moved(expected)


def _moved(value):
    """The expected value of an equality check, moved by the smallest step."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1 + 1e-6) if value else 1e-9
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, (list, tuple)):
        return value[:-1] if value else type(value)([None])
    if isinstance(value, dict):
        if not value:
            return {None: None}
        moved = dict(value)
        moved.pop(next(iter(moved)))
        return moved
    if value is None:
        return 0
    raise TypeError(f"no perturbation for {type(value).__name__}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")

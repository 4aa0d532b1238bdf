"""Shared pieces of the benchmark: sample statistics, the calibration
probe, the span tracer, the per-call watchdog and process-tree helpers.

Nothing here imports Ray or the engine, so the module loads in a bare
interpreter (the gate test and the argument parser use it too).
"""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------------------
# sample statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def hi_percentile(values) -> tuple[float, str]:
    """The highest whole percentile that still has at least ten samples
    beyond it (nearest-rank), with its label, e.g. ``(812.4, "p75 n=40")``.
    Below twenty samples that percentile would not be above the median,
    so the maximum is reported instead and labelled as such."""
    n = len(values)
    if n == 0:
        return 0.0, "n=0"
    srt = sorted(values)
    if n < 20:
        return float(srt[-1]), f"max n={n}"
    p = math.floor(100 * (1 - 10 / n))
    return float(srt[math.ceil(p / 100 * n) - 1]), f"p{p} n={n}"


# ---------------------------------------------------------------------------
# calibration probe
# ---------------------------------------------------------------------------

CALIB_SORT_N = 2_000_000          # int64 keys sorted per repetition
CALIB_COPY_BYTES = 64 << 20       # bytes copied per repetition


def calibration_probe(reps: int = 3) -> float:
    """Median seconds of a fixed single-process job: sort 2M seeded int64
    keys and copy a 64 MiB buffer four times. It involves no engine code,
    so a rise here between runs is the machine, not the program."""
    keys = np.random.default_rng(0).integers(0, 1 << 62, CALIB_SORT_N)
    src = np.ones(CALIB_COPY_BYTES, dtype=np.uint8)
    dst = np.empty_like(src)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.sort(keys)
        for _ in range(4):
            np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return median(times)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder. A span has a name, start and end (seconds
    on the ``perf_counter`` clock), the index of its parent span, the
    shared run id, and free-form attributes. ``enabled=False`` makes
    :meth:`span` a no-op so untraced runs pay nothing."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        idx = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield attrs
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapped

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def self_times(self, name: str) -> list[float]:
        """Duration minus the part of the interval its children cover."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for i, s in enumerate(self.spans):
            if s["name"] != name or s["end"] is None:
                continue
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(kids.get(i, [])):
                lo, hi = max(lo, s["start"]), min(hi, s["end"])
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((s["end"] - s["start"]) - covered)
        return out

    def attrs(self, name: str) -> list[dict]:
        return [s["attrs"] for s in self.spans if s["name"] == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, default=str))


# ---------------------------------------------------------------------------
# watchdog
# ---------------------------------------------------------------------------

class StallError(RuntimeError):
    """An engine call ran past its deadline."""


class Guard:
    """Counts engine operations and turns a stall into a counted failure.

    ``call`` arms a SIGALRM timer around one engine call; when it fires,
    the main thread raises :class:`StallError` naming the workload and
    the call. A background thread is the backstop for a call that never
    returns to the interpreter: at the hard deadline it runs
    ``on_hard_deadline`` (which prints the result and exits)."""

    def __init__(self, workload: str, call_timeout_s: float,
                 hard_deadline_s: float, on_hard_deadline):
        self.workload = workload
        self.call_timeout_s = call_timeout_s
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.current = "setup"
        self._hard = hard_deadline_s
        self._on_hard = on_hard_deadline
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._backstop, daemon=True)
        self._thread.start()

    def _backstop(self) -> None:
        if not self._done.wait(self._hard):
            self.failed += 1
            self.errors.append(f"{self.workload}: stalled in {self.current} "
                               f"past the {self._hard:.0f} s run deadline")
            self._on_hard(self)

    def stop(self) -> None:
        self._done.set()

    def call(self, name: str, fn, *args, **kwargs):
        """Run one counted engine operation under the per-call deadline."""
        self.attempted += 1
        self.current = name

        def on_alarm(signum, frame):
            raise StallError(f"{self.workload}: {name} stalled for more "
                             f"than {self.call_timeout_s:.0f} s")

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.call_timeout_s)
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            e.counted = True
            self.failed += 1
            self.errors.append(f"{self.workload}: {name}: "
                               f"{type(e).__name__}: {e}")
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self.current = "between calls"


# ---------------------------------------------------------------------------
# process tree
# ---------------------------------------------------------------------------

def _proc_table() -> dict[int, tuple[int, int]]:
    """pid -> (ppid, VmHWM kB) for every readable process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            text = Path(f"/proc/{d}/status").read_text()
        except OSError:
            continue
        ppid, hwm = 0, 0
        for line in text.splitlines():
            if line.startswith("PPid:"):
                ppid = int(line.split()[1])
            elif line.startswith("VmHWM:"):
                hwm = int(line.split()[1])
        out[int(d)] = (ppid, hwm)
    return out


def descendants(root: int | None = None) -> list[int]:
    root = os.getpid() if root is None else root
    table = _proc_table()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def tree_peak_rss_mb() -> float:
    """Sum of per-process peak RSS (VmHWM) over this process and every
    live descendant: the driver plus the Ray daemons and workers."""
    table = _proc_table()
    pids = [os.getpid()] + descendants()
    return sum(table.get(p, (0, 0))[1] for p in pids) / 1024.0


def kill_descendants(timeout_s: float = 10.0) -> None:
    """SIGTERM then SIGKILL every descendant still alive, and wait until
    none is left (they may not be our children, so poll /proc)."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = descendants()
        if not pids:
            return
        for p in pids:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout_s / 2
        while time.monotonic() < deadline and descendants():
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pass
            time.sleep(0.1)

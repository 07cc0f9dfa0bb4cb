"""Timed `python3` child processes that run against the checkout's source.

Every child runs with PYTHONPATH set to `src/` of the checkout, so it uses
that hdshapes and nothing installed, and is reaped with os.wait4 to get
its peak resident memory. Its output goes through files under .bench_work,
not pipes, so a child writing much output cannot block.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 120


@dataclass
class Child:
    wall: float
    code: int
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(args, timeout=CHILD_TIMEOUT_S) -> Child:
    """Run `python3 *args` to completion; wall time and peak RSS of that process."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    with open(tmp / f"out-{os.getpid()}", "w+b") as out, open(tmp / f"err-{os.getpid()}", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen((sys.executable, *args), cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        reaped = threading.Event()
        timer = threading.Timer(timeout, lambda: reaped.is_set() or proc.kill())
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                     out.read().decode(errors="replace"), err.read().decode(errors="replace"))

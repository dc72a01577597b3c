"""Machine fingerprint and process-tree memory sampling."""

from __future__ import annotations

import os
import platform
import resource
import threading
from typing import Dict, List


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> Dict[str, object]:
    """What a number depends on besides the code: cores, CPU, Python, OS."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="utf-8") as fh:
                out.extend(int(child) for child in fh.read().split())
        except OSError:
            continue
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_kb(root: int) -> int:
    """Resident memory of ``root`` plus all its descendants, in KiB."""
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        total += _rss_kb(pid)
        stack.extend(_children(pid))
    return total


class PeakRss:
    """Samples the benchmark's process tree (itself plus pool workers).

    The peak is the largest sampled sum, and never less than this
    process's own kernel-recorded high-water mark.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-rss", daemon=True)

    def _run(self) -> None:
        pid = os.getpid()
        while not self._stop.wait(self.interval):
            self.peak_kb = max(self.peak_kb, tree_rss_kb(pid))

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        # read now: untimed output checks that follow may allocate more
        self.peak_kb = max(self.peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0

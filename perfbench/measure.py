"""Statistics, /proc readings and the host block."""

from __future__ import annotations

import math
import os
import platform
import subprocess
from fractions import Fraction
from typing import Dict, Sequence, Tuple

#: percentiles a latency report may quote, lowest first
LADDER: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)
#: a percentile is quoted only with at least this many samples beyond it
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``count`` values."""
    return max(1, math.ceil(count * Fraction(str(pct)) / 100))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    return sorted(values)[_rank(len(values), pct) - 1]


def tail_percentile(values: Sequence[float]) -> float:
    """The highest percentile of :data:`LADDER` that leaves at least
    :data:`MIN_BEYOND` samples beyond it (0.0 when none does)."""
    best = 0.0
    for pct in LADDER:
        if len(values) - _rank(len(values), pct) >= MIN_BEYOND:
            best = pct
    return best


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle two for even counts)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds the process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set (VmHWM) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise LookupError(f"no VmHWM for pid {pid}")


def cpu_model() -> str:
    """The CPU model string from /proc/cpuinfo."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str:
    """HEAD of the checkout, or a note when it is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def host_block(root: str, backend, kernel_active: bool, seed: int) -> Dict[str, object]:
    """The context a later reader needs to compare this run."""
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": backend.name,
        "backend_detail": backend.availability()[1],
        "backend_flavor": getattr(backend, "flavor", backend.name),
        "kernel_active": kernel_active,
        "network": "loopback",
        "git_commit": git_commit(root),
        "seed": seed,
    }


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, 0.0 for an empty base."""
    return numerator / denominator if denominator else 0.0

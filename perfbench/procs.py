"""Process accounting read from ``/proc``: CPU time, peak RSS, leaks.

Server, replica and pool-worker processes are all descendants of the
benchmark process (it spawns the servers and runs the replica
supervisor in-process), so "every server process" is "every
descendant".
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PROC = Path("/proc")


def _stat_fields(pid: int) -> "list[str] | None":
    """``/proc/PID/stat`` fields after the command name, or None if gone."""
    try:
        text = (_PROC / str(pid) / "stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its parent's wait is dead)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` (0 once it has exited)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # fields[0] is the state (stat field 3): utime and stime are fields 14, 15
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB (0 if gone)."""
    try:
        for line in (_PROC / str(pid) / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _all_pids() -> "list[int]":
    return [int(entry.name) for entry in _PROC.iterdir() if entry.name.isdigit()]


def descendants(root: int) -> "list[int]":
    """Every live process below ``root`` in the process tree."""
    children: "dict[int, list[int]]" = {}
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None and fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(pid)
    found: "list[int]" = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return sorted(found)


def processes_mentioning(text: str) -> "list[int]":
    """Live processes other than this one whose command line contains ``text``.

    Catches servers that outlived their parent and were re-parented, which
    a descendant walk no longer sees.
    """
    found = []
    for pid in _all_pids():
        if pid == os.getpid() or not alive(pid):
            continue
        try:
            cmdline = (_PROC / str(pid) / "cmdline").read_bytes()
        except OSError:
            continue
        if text.encode() in cmdline:
            found.append(pid)
    return found


def command_line(pid: int) -> str:
    """``pid``'s command line, for reports ('' once it has exited)."""
    try:
        return (_PROC / str(pid) / "cmdline").read_bytes().replace(b"\0", b" ").decode(
            errors="replace"
        ).strip()
    except OSError:
        return ""


def cpu_snapshot(pids) -> "dict[int, float]":
    """CPU seconds per pid, for differencing across a window."""
    return {pid: cpu_seconds(pid) for pid in pids}


def cpu_delta(before: "dict[int, float]", after: "dict[int, float]") -> float:
    """CPU spent between two snapshots; pids born in between count from 0."""
    return sum(cpu - before.get(pid, 0.0) for pid, cpu in after.items())


def kill_all(pids, grace_s: float = 3.0) -> None:
    """SIGTERM, wait up to ``grace_s``, then SIGKILL whatever is left."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline and any(alive(pid) for pid in pids):
            time.sleep(0.05)

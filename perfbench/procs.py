"""The service under test as a process tree, and /proc sampling.

The server runs as ``python -m repro serve --async ...`` in its own
process; with ``--replicas N`` it spawns N replica processes.  CPU
time (utime + stime) and peak resident memory (``VmHWM``) are read
from ``/proc`` for the front end and every descendant.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_READY = re.compile(rb"on http://([0-9.]+):([0-9]+)")


def cpu_seconds(pid: int) -> float:
    """CPU time of every live thread of *pid* in seconds (0 once it has
    exited), from the nanosecond run time in ``schedstat`` rather than
    the 10 ms ticks of ``stat``."""
    total = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat", "rb") as handle:
                total += int(handle.read().split()[0])
        except OSError:
            pass
    return total / 1e9


def vm_hwm_mb(pid: int) -> float:
    """``VmHWM`` of *pid* in MiB (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children(pid: int) -> List[int]:
    """Every descendant of *pid*, depth first."""
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                direct = [int(child) for child in handle.read().split()]
        except OSError:
            continue
        for child in direct:
            found.append(child)
            found.extend(children(child))
    return found


class Server:
    """One ``repro serve --async`` process tree."""

    def __init__(
        self,
        root: Path,
        flags: List[str],
        log: Path,
        *,
        pythonpath: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
        cpus: Optional[List[int]] = None,
    ):
        self.root = root
        self.cpus = cpus
        self.flags = flags
        self.log = log
        self.pythonpath = pythonpath or str(root / "src")
        self.extra_env = env or {}
        self.process: Optional[subprocess.Popen] = None
        self.url = ""
        self.launched = 0.0
        #: Descendant pids (replicas and their helpers), read once the
        #: server is ready.
        self.children: List[int] = []
        #: The kernel replica pids among them.
        self.replicas: List[int] = []

    def start(self, timeout: float = 60.0) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = self.pythonpath
        env.update(self.extra_env)
        command = [sys.executable, "-m", "repro", "serve", "--async",
                   "--port", "0", *self.flags]
        offset = self.log.stat().st_size if self.log.exists() else 0
        self.launched = time.perf_counter()
        with open(self.log, "ab") as out:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=out,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                preexec_fn=self._pin if self.cpus else None,
            )
        deadline = self.launched + timeout
        while time.perf_counter() < deadline:
            match = _READY.search(self.log.read_bytes(), offset)
            if match:
                host, port = match.group(1).decode(), match.group(2).decode()
                self.url = f"http://{host}:{port}"
                self.children = children(self.process.pid)
                self.replicas = [pid for pid in self.children if _is_replica(pid)]
                return self
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise RuntimeError(
            f"server did not start: {self.log.read_text(errors='replace')[-2000:]}"
        )

    def _pin(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    @property
    def pids(self) -> List[int]:
        return [self.process.pid, *self.children] if self.process else []

    def cpu(self) -> Dict[int, float]:
        return {pid: cpu_seconds(pid) for pid in self.pids}

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.pids)

    def interrupt(self, timeout: float = 60.0) -> None:
        """SIGINT the front end (its shutdown path takes the final
        snapshot) and wait for the whole tree to exit."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def kill(self) -> None:
        if self.process is None:
            return
        for pid in [*children(self.process.pid), *self.children]:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pid in self.children:
            _reap(pid)
        self.process = None


def _is_replica(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"spawn_main" in handle.read()
    except OSError:
        return False


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except OSError:
        return False


def _reap(pid: int, timeout: float = 5.0) -> None:
    """Wait for a pid that is not our child to exit."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline and _alive(pid):
        time.sleep(0.01)

"""Lifecycle of the ``repro serve`` daemon under test.

Each serve run boots fresh daemons with the throughput configuration,
waits for ``/readyz``, and reaps every daemon and shard worker before it
returns.  Shard workers are forked, so they carry the daemon's command
line; a scan of ``/proc`` for ``repro serve`` finds both kinds, and a
run that finds one before it starts or leaves one behind fails.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

SPEC_FILE = "specs/queue.spec"
#: The daemon's arguments after ``python -m repro``: the optimizing
#: backend with the two-worker shard pool, every other flag at its
#: default.
DAEMON_ARGS = ("serve", SPEC_FILE, "--backend", "codegen", "--workers", "2")
BOOT_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
_BANNER = re.compile(r"serving \S+ on http://([0-9.]+):([0-9]+)")


class DaemonError(RuntimeError):
    """The daemon failed to boot, answer or shut down cleanly."""


def daemon_argv() -> list[str]:
    return [sys.executable, "-m", "repro", *DAEMON_ARGS]


def serve_processes() -> list[int]:
    """Pids of every live ``repro serve`` process: daemons and their
    forked shard workers, whoever started them."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            raw = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        argv = raw.decode(errors="replace").split("\0")
        for a, b in zip(argv, argv[1:]):
            if a == "repro" and b == "serve":
                found.append(int(entry))
                break
    return sorted(found)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid``, in MB."""
    for line in Path("/proc", str(pid), "status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise DaemonError(f"no VmHWM for pid {pid}")


class Daemon:
    """One ``repro serve`` process, booted from the checkout ``root``.

    The daemon gets its own session (process group), so shutdown can
    reach forked workers even if the daemon dies before reaping them.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.setup_s = 0.0
        self.worker_pids: list[int] = []

    def start(self) -> "Daemon":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            daemon_argv(),
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        line = self.proc.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            self.stop()
            raise DaemonError(f"daemon did not announce its port: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        deadline = started + BOOT_TIMEOUT_S
        while True:
            status, body = self.get("/readyz")
            if status == 200 and body.get("ready"):
                break
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.stop()
                raise DaemonError(f"daemon never became ready: {body}")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - started
        self.worker_pids = sorted(
            pid
            for spec in body["specs"].values()
            for pid in spec.get("worker_pids", [])
        )
        if len(self.worker_pids) != 2:
            self.stop()
            raise DaemonError(f"expected 2 shard workers, got {body}")
        return self

    def get(self, path: str) -> tuple[int, dict | str]:
        """One GET on a fresh connection: ``(status, json or text)``."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            raw = response.read().decode()
        except OSError:
            return 0, {}
        finally:
            conn.close()
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the daemon and its shard workers."""
        assert self.proc is not None
        return sum(vm_hwm_mb(p) for p in [self.proc.pid, *self.worker_pids])

    def stop(self) -> list[int]:
        """SIGINT the daemon (its clean shutdown path), wait, then
        SIGKILL whatever of its group is left.  Returns the pids that
        outlived the clean shutdown — a non-empty list is a leak."""
        proc, self.proc = self.proc, None
        if proc is None:
            return []
        group = [proc.pid, *self.worker_pids]
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while time.monotonic() < deadline and _alive(group):
            time.sleep(0.01)
        leaked = _alive(group)
        if leaked or proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            for pid in leaked:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait(timeout=STOP_TIMEOUT_S)
        proc.stdout.close()
        return leaked


def _alive(pids: list[int]) -> list[int]:
    """The pids in ``pids`` that still exist and are not zombies."""
    live = []
    for pid in pids:
        try:
            stat = Path("/proc", str(pid), "stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[0] != "Z":
            live.append(pid)
    return live

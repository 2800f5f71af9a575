"""``repro serve`` shuts down cleanly on SIGTERM as well as SIGINT.

Service managers and ``kill`` send SIGTERM.  The daemon must take the
same path as Ctrl-C: close its sessions and join its shard workers, so
no worker outlives it as an orphan.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import ServeClient
from tests.parallel.test_lifecycle import _assert_all_dead

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_stops_daemon_and_its_workers(signum, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # stderr goes to a file, not a pipe: orphaned workers would hold a
    # pipe open and hang the read that reports the failure.
    stderr = open(tmp_path / "stderr.txt", "w+")
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(ROOT / "specs" / "queue.spec"),
            "--workers",
            "2",
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
        env=env,
    )
    pids: list[int] = []
    try:
        banner = daemon.stdout.readline()
        assert banner.startswith("serving Queue on http://"), banner
        host, port = banner.rsplit("//", 1)[1].strip().rsplit(":", 1)
        with ServeClient(host, int(port), timeout=10.0, retries=0) as client:
            pids = client.readyz()["specs"]["Queue"]["worker_pids"]
        assert len(pids) == 2
        daemon.send_signal(signum)
        returncode = daemon.wait(timeout=30)
        stderr.seek(0)
        assert returncode == 0, stderr.read()
        _assert_all_dead(pids)
    except BaseException:
        for pid in pids:  # a failed run must not leak its orphans
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        raise
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
        stderr.close()

"""The server under test: a ``cpsec serve`` process tree, and HTTP to it.

The server runs in its own process group (its own session), so teardown can
reach pre-forked workers even when the supervising parent is gone.  CPU time
and memory are read from ``/proc`` for every process of that group: the
numbers come from outside the program.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

_SERVING = re.compile(r"serving analysis service on http://([^:/\s]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Bounded waits.  A server that does not announce itself in time, or a
#: drain that does not finish in time, is killed rather than waited on.
START_TIMEOUT_S = 60.0
DRAIN_GRACE_S = 3.0
REQUEST_TIMEOUT_S = 120.0


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes of one process group."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read_stat(int(entry))
        if stat is not None and int(stat[4]) == pgid and stat[2] != "Z":
            pids.append(int(entry))
    return pids


def _read_stat(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields, the command name collapsed to one field."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            raw = handle.read()
    except OSError:
        return None
    head, _, tail = raw.rpartition(")")
    return [head.split(" (", 1)[0], "comm", *tail.split()]


def cpu_seconds(pids: list[int]) -> float:
    """utime + stime (+ reaped children) of the given processes."""
    ticks = 0
    for pid in pids:
        stat = _read_stat(pid)
        if stat is not None:
            ticks += sum(int(value) for value in stat[13:17])
    return ticks / _CLOCK_TICKS


def pss_mb(pids: list[int]) -> tuple[float, int]:
    """Proportional set size of the given processes, in MB, and how many
    of them could be read."""
    total_kb = 0
    read = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        read += 1
                        break
        except OSError:
            continue
    return total_kb / 1024.0, read


class Connection:
    """A client of the server that connects anew for every exchange.

    This is how the project's own ``ServiceClient`` (``urllib``) talks to
    the server.  It also lets every request be accepted by whichever worker
    wins the accept: a keep-alive connection stays with one pre-forked
    worker, and two connections landing on the same worker halved
    ``fresh-platforms`` throughput in half of the runs.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        finally:
            self._conn.close()
        return response.status, data

    def post(self, path: str, payload: dict) -> tuple[int, bytes]:
        return self.request("POST", path, json.dumps(payload).encode("utf-8"))

    def get(self, path: str) -> tuple[int, bytes]:
        return self.request("GET", path)

    def await_job(self, job_id: str) -> str:
        """Follow a job's SSE stream until its terminal state event."""
        stream = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            stream.request("GET", f"/v1/jobs/{job_id}/events")
            response = stream.getresponse()
            if response.status != 200:
                raise RuntimeError(f"job {job_id} events: HTTP {response.status}")
            kind = None
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    kind = line[len("event: "):]
                elif line.startswith("data: ") and kind == "state":
                    state = json.loads(line[len("data: "):]).get("state")
                    if state in ("succeeded", "failed", "cancelled"):
                        return state
            raise RuntimeError(f"job {job_id} event stream ended without a terminal state")
        finally:
            stream.close()

    def close(self) -> None:
        self._conn.close()


class Server:
    """``cpsec serve`` over one artifact, in a process group of its own."""

    def __init__(self, root: Path, run_dir: Path, artifact: Path, *, workers: int, journal: Path | None) -> None:
        self.root = root
        self.run_dir = run_dir
        self.artifact = artifact
        self.workers = workers
        self.journal = journal
        self.process: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        self._lines: list[str] = []
        self._announced = threading.Event()
        self._reader: threading.Thread | None = None

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        # Pre-forked workers share /metrics snapshots through a temporary
        # directory; keep it inside the run directory.
        env["TMPDIR"] = str(self.run_dir)
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--workspace", str(self.artifact),
            "--port", "0",
            "--workers", str(self.workers),
            "--job-journal", str(self.journal) if self.journal else "none",
            "--drain-timeout", "2",
        ]
        stderr = open(self.run_dir / "server.stderr", "ab")
        try:
            self.process = subprocess.Popen(
                command,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
                start_new_session=True,
            )
        finally:
            stderr.close()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        if not self._announced.wait(START_TIMEOUT_S) or not self.port:
            self.stop()
            raise RuntimeError("server did not announce its address: " + " | ".join(self._lines[-5:]))

    def _read_stdout(self) -> None:
        for raw in self.process.stdout:
            line = raw.decode("utf-8", "replace").rstrip("\n")
            self._lines.append(line)
            match = _SERVING.search(line)
            if match and not self._announced.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._announced.set()
        self._announced.set()

    @property
    def pgid(self) -> int:
        return self.process.pid

    def pids(self) -> list[int]:
        return group_pids(self.pgid)

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    def stop(self) -> bool:
        """SIGTERM, a bounded wait for the drain, then SIGKILL the group.

        Returns whether every process of the group ended within the grace
        period on its own.
        """
        if self.process is None:
            return True
        drained = True
        if self.process.poll() is None:
            try:
                self.process.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + DRAIN_GRACE_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None and not group_pids(self.pgid):
                break
            time.sleep(0.02)
        else:
            drained = False
        if not drained or group_pids(self.pgid):
            drained = False
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait(timeout=10)
        deadline = time.monotonic() + 10
        while group_pids(self.pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if self._reader is not None:
            self._reader.join(timeout=5)
        self.process.stdout.close()
        self.process = None
        return drained

"""Server processes and the closed-loop load generator.

:class:`ServerProcess` runs ``perfbench/server.py`` as a child process
and reads its high-water RSS from ``/proc``.  :func:`drive` keeps
``window`` requests outstanding on every connection: each connection
has ``window`` workers, and a worker sends its next request when its
last one returns.  Sending takes the next request from the
connection's :class:`~inputs.Traffic` and writes its frame with no
suspension in between.  So the frames go out in draw order, and
``sent[c]`` is the exact order connection ``c`` fed the server.
"""

from __future__ import annotations

import asyncio
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.errors import ReproError
from repro.server import ReproClient
from repro.service.protocol import ErrorResponse, StreamStatus

HERE = Path(__file__).resolve().parent

#: Seconds to wait for a server to print its port (recovery included).
START_TIMEOUT = 60.0


class ServerProcess:
    """One ``perfbench/server.py`` child process."""

    def __init__(self, journal: Path, *, trace_out: Path | None = None,
                 cpu: int | None = None):
        self.journal, self.trace_out, self.cpu = journal, trace_out, cpu
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> int:
        """Spawn the server and wait until it listens; returns the port."""
        cmd = [sys.executable, str(HERE / "server.py"),
               "--journal", str(self.journal), "--parent", str(os.getpid())]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        if self.cpu is not None:
            cmd += ["--cpu", str(self.cpu)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(START_TIMEOUT):
                self.kill()
                raise RuntimeError("the server did not start in time")
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.kill()
            raise RuntimeError(f"the server failed to start: {line!r}")
        self.port = int(line.split()[1])
        return self.port

    def peak_rss_mb(self) -> float:
        """High-water resident set size (``VmHWM``), read from outside."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def dump_trace(self, timeout: float = 60.0) -> None:
        """Ask the traced server to write its spans; wait for the file."""
        self.trace_out.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = perf_counter() + timeout
        while not self.trace_out.exists():
            if perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("the traced server wrote no spans")
            time.sleep(0.02)

    def kill(self) -> None:
        """SIGKILL (the crash the restart check survives) and reap."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self) -> None:
        """SIGTERM: drain, flush and exit; SIGKILL after 30 s."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        if self.proc is not None:
            self.proc.wait()
            self.proc.stdout.close()


@dataclass
class Connection:
    """One client connection with its traffic and its record of sends."""

    client: ReproClient
    traffic: object
    sent: list = field(default_factory=list)       # requests, send order
    responses: list = field(default_factory=list)  # aligned with sent
    t_send: list = field(default_factory=list)
    t_done: list = field(default_factory=list)


#: Wire-level failures the load generator counts (never a rejection).
def is_failure(response) -> bool:
    return response is None or isinstance(response, ErrorResponse)


async def _worker(conn: Connection, fleet: bool, keep_going) -> None:
    while keep_going(conn):
        request = conn.traffic.next(fleet=fleet)
        index = len(conn.sent)
        conn.sent.append(request)
        conn.responses.append(None)
        conn.t_send.append(perf_counter())
        conn.t_done.append(0.0)
        try:
            response = await conn.client.request(request)
        except (ReproError, ConnectionError, OSError):
            response = None
        conn.t_done[index] = perf_counter()
        conn.responses[index] = response


async def drive(conns: list[Connection], window: int, *, fleet: bool,
                count: int | None = None,
                until: float | None = None) -> None:
    """Closed loop until each connection sent ``count`` more requests,
    or until the clock passes ``until``; then wait for every reply."""
    if count is not None:
        limits = {id(c): len(c.sent) + count for c in conns}

        def keep_going(conn):
            return len(conn.sent) < limits[id(conn)]
    else:
        def keep_going(conn):
            return perf_counter() < until
    await asyncio.gather(*(_worker(conn, fleet, keep_going)
                           for conn in conns for _ in range(window)))


#: Requests one pipelined batch keeps in flight: well under the server's
#: admission limit (256), which refuses the excess.
BATCH_WINDOW = 64


async def pipelined(client: ReproClient, requests) -> list:
    """Send ``requests`` in order, at most BATCH_WINDOW unanswered."""
    futures = []
    for request in requests:
        if len(futures) >= BATCH_WINDOW:
            await futures[-BATCH_WINDOW]
        futures.append(await client.submit(request))
    return [await f for f in futures]


async def statuses(client: ReproClient, documents: list[str]) -> list[dict]:
    """Every document's ``stream-status`` answer."""
    replies = await pipelined(client, [StreamStatus(d) for d in documents])
    return [reply.to_dict() for reply in replies]


async def connect(port: int) -> ReproClient:
    return await ReproClient.connect("127.0.0.1", port)


__all__ = ["ServerProcess", "Connection", "drive", "pipelined", "statuses",
           "connect", "is_failure"]

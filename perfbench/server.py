"""Run one durable ReproServer for the benchmark, traced or not.

    python3 perfbench/server.py --journal DIR --parent PID \\
        [--trace-out FILE] [--cpu N]

Recovers ``DIR`` and serves it with the server defaults: a per-record
``fsync`` and a checkpoint every 256 submissions.  Prints ``PORT <n>``
once it listens.  SIGTERM shuts it down gracefully.  With
``--trace-out``, every layer in :mod:`layers` is wrapped before the
server is built, and SIGUSR1 writes the recorded spans to FILE.  The
server dies with process PID, the run that started it.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from worker import die_with_parent  # noqa: E402


async def serve(journal: str, rec, trace_out: str | None) -> None:
    from repro.server import ReproServer

    server = ReproServer.durable(journal)
    _, port = await server.start()
    print(f"PORT {port}", flush=True)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    if rec is not None:
        loop.add_signal_handler(signal.SIGUSR1, rec.dump, trace_out)
    await stop.wait()
    await server.close()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="perfbench/server.py")
    parser.add_argument("--journal", required=True)
    parser.add_argument("--parent", type=int, required=True,
                        help="die when this process dies")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the process to this CPU")
    args = parser.parse_args(argv)
    die_with_parent(args.parent)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    rec = factory = None
    if args.trace_out is not None:
        from layers import TimedSelector, install_server
        from tracer import Recorder

        rec = Recorder()
        install_server(rec)

        def factory():
            return asyncio.SelectorEventLoop(TimedSelector(rec))

    with asyncio.Runner(loop_factory=factory) as runner:
        runner.run(serve(args.journal, rec, args.trace_out))


if __name__ == "__main__":
    main()

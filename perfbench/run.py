"""The repo's benchmark: socket-server requests end to end, per workload.

    python3 perfbench/run.py --workload big-doc-edits --seed 1 \\
        --seconds 22 --trace 0

Run from anywhere inside a checkout that holds ``src/repro``.  One load
generator process (this one) drives a durable ``ReproServer`` in a
second process over loopback through ``ReproClient``.  A run goes:

1. build the seeded inputs (:mod:`inputs`);
2. set up ``SETUPS`` times, each a fresh server on a fresh journal:
   spawn, register policies and documents, certify templates
   (``setup_s`` is the median);
3. send a prefix of ``PREFIX`` requests per connection, snapshot every
   document's ``stream-status``, then SIGKILL and respawn on the same
   journal ``RESTARTS`` times (``restart_s`` is the median).  Each
   respawn must answer every status exactly as before the kill;
4. warm up for ``WARM_S`` seconds, then measure for ``--seconds``;
5. snapshot the statuses, SIGKILL, respawn, and check them again (every
   acknowledged stream and certified write survived the crash; fleet
   epochs are not journaled by the server, so this check cannot cover
   them);
6. replay each connection's requests in-process through
   ``ConstraintService.handle`` and compare every response checksum.

Every child process (servers, generation and replay jobs) is waited for
on every path out, SIGTERM included, and dies with this process if it is
killed (:mod:`worker`).

``--trace 1`` runs the pipeline twice on the same inputs: once untraced
(the baseline for ``trace.overhead``), and once with the measured server
traced (see :mod:`layers`).  It prints the per-layer metrics.  The span
file stays at ``.perfbench_out/<workload>-trace.json``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print every metric with
its unit and sample count.  The exit code is 1 when the run found a
problem (a checksum mismatch, a failed restart check), after the JSON
line; 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import asyncio
import copy
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run (``setup_s`` is their median).
SETUPS = 3
#: SIGKILL + respawn cycles per run (``restart_s`` is their median).
RESTARTS = 5
#: The window is cut into this many equal slices for the medians.
SLICES = 10
#: Requests per connection sent before the restarts.
PREFIX = 150
#: Untimed closed-loop seconds between the restarts and the window.
WARM_S = 1.0
#: The reference replay takes 5-15 s; past this it counts as a problem,
#: so a run ends within its time limit.
REFERENCE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "setup_s": "s", "restart_s": "s", "journal_bytes_per_op": "B",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end table but left out of the result line and
#: of BENCHMARK.json: over two ten-seed sets its spread (IQR / median) on
#: many-small-docs was 0.32 and 0.26, above the 0.25 cap on any bound.
NOT_GATED = ("latency_p99_ms",)


def _layout_error() -> str | None:
    if not (ROOT / "src" / "repro" / "server").is_dir():
        return (f"perfbench: no repro sources under {ROOT / 'src'}; run "
                f"from a checkout of the repository")
    return None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# One pass: set-up, prefix, restarts, window, crash check
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """Everything one pipeline pass measured."""

    setup_s: list = field(default_factory=list)
    restart_s: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    conns: list = field(default_factory=list)
    t0: float = 0.0          # the window, on the shared monotonic clock
    t1: float = 0.0
    journal_bytes: float = 0.0
    peak_rss_mb: float = 0.0
    trace: dict | None = None         # server spans (traced pass only)
    client_trace: dict | None = None  # load-generator spans


async def _setup(inputs, server, out: Pass) -> None:
    from loadgen import connect, pipelined
    from repro.service.protocol import ErrorResponse

    client = await connect(server.port)
    for request, ack in zip(inputs.setup,
                            await pipelined(client, inputs.setup)):
        if isinstance(ack, ErrorResponse):
            out.problems.append(f"set-up {request.kind} {request.name}: "
                                f"{ack.message}")
        elif request.kind == "register-template" and \
                dict(ack.stats).get("certify.certified") != 1:
            out.problems.append(f"template {request.name} did not certify")
    await client.close()


async def _restart(old, documents, before, out: Pass, **spawn):
    """SIGKILL ``old``, respawn on its journal, wait until every document
    answers ``stream-status``; each answer must equal ``before``."""
    from loadgen import ServerProcess, connect, statuses

    started = perf_counter()
    old.kill()
    server = ServerProcess(old.journal, **spawn)
    try:
        server.start()
        monitor = await connect(server.port)
        after = await statuses(monitor, documents)
        elapsed = perf_counter() - started
        await monitor.close()
    except BaseException:
        server.kill()
        raise
    if after != before:
        bad = [(a, b) for a, b in zip(after, before) if a != b]
        out.problems.append(f"after SIGKILL + restart {len(bad)} document "
                            f"status(es) differ, e.g. {bad[0][0]} != "
                            f"{bad[0][1]}")
    return server, elapsed


async def _snapshot(port: int, documents, out: Pass) -> list[dict]:
    from loadgen import connect, statuses

    monitor = await connect(port)
    replies = await statuses(monitor, documents)
    await monitor.close()
    bad = [r for r in replies if r.get("response") != "ack"]
    if bad:
        out.problems.append(f"{len(bad)} stream-status request(s) failed, "
                            f"e.g. {bad[0]}")
    return replies


async def run_pass(inputs, work: Path, seconds: float, *, setups: int,
                   restarts: int, traced: bool, cpu) -> Pass:
    """Set-ups, prefix, restarts, warm-up + window, crash check."""
    from loadgen import Connection, ServerProcess, connect, drive

    out = Pass()
    server = None
    try:
        for k in range(setups):
            if server is not None:
                server.kill()
                shutil.rmtree(server.journal)
            started = perf_counter()
            server = ServerProcess(work / f"journal{k}", cpu=cpu)
            server.start()
            await _setup(inputs, server, out)
            out.setup_s.append(perf_counter() - started)
        conns = out.conns = [Connection(await connect(server.port), traffic)
                             for traffic in inputs.connections]
        await drive(conns, inputs.window, fleet=False, count=PREFIX)
        for conn in conns:
            await conn.client.close()
        before = await _snapshot(server.port, inputs.documents, out)
        trace_out = work / "spans.json"
        for r in range(restarts):
            traced_now = traced and r == restarts - 1
            server, elapsed = await _restart(
                server, inputs.documents, before, out, cpu=cpu,
                trace_out=trace_out if traced_now else None)
            out.restart_s.append(elapsed)
        for conn in conns:
            conn.client = await connect(server.port)
        monitor = await connect(server.port)
        client_rec = restore = None
        if traced:
            from layers import install_client
            from tracer import Recorder
            client_rec = Recorder()
            restore = install_client(client_rec)
        # The load generator holds every input and reply; a full
        # collection of that heap would stall replies and show up as
        # server latency.  Freeze what exists and collect after the
        # window instead.
        gc.collect()
        gc.freeze()
        gc.disable()
        out.t0 = perf_counter() + WARM_S
        out.t1 = out.t0 + seconds

        async def journal_meter():
            key = "journal.bytes_written_total"
            await asyncio.sleep(max(0.0, out.t0 - perf_counter()))
            first = (await monitor.metrics()).counters.get(key, 0.0)
            await asyncio.sleep(max(0.0, out.t1 - perf_counter()))
            last = (await monitor.metrics()).counters.get(key, 0.0)
            out.journal_bytes = last - first

        try:
            await asyncio.gather(drive(conns, inputs.window, fleet=True,
                                       until=out.t1), journal_meter())
        finally:
            gc.enable()
            gc.unfreeze()
        await monitor.close()
        for conn in conns:
            await conn.client.close()
        if traced:
            restore()
            server.dump_trace()
            out.trace = json.loads(trace_out.read_text())
            out.client_trace = client_rec.as_dict()
        out.peak_rss_mb = server.peak_rss_mb()
        before = await _snapshot(server.port, inputs.documents, out)
        server, _ = await _restart(server, inputs.documents, before, out,
                                   cpu=cpu)
    finally:
        if server is not None:
            server.stop()
    return out


# ----------------------------------------------------------------------
# Reference replay (runs in a fresh process, one per connection)
# ----------------------------------------------------------------------
def reference_checksums(setup, requests, journal: str) -> list[int]:
    """``ConstraintService.handle`` over set-up + one connection's
    requests, in send order.

    Each request goes through its wire form first, as on the server, so
    every registration hands the store a fresh tree.  A journal (no
    fsync) is attached exactly as on the server, so fresh-leaf ids are
    pinned the same way.  It must run in a process that never generated
    inputs (see :func:`check_against_reference`).
    """
    from repro.server import ServerJournal
    from repro.service.protocol import request_from_dict, response_checksum
    from repro.service.service import ConstraintService
    from repro.service.store import DocumentStore

    store = DocumentStore()
    journal = ServerJournal(journal, fsync=False)
    journal.recover(store)
    store.attach_journal(journal)
    service = ConstraintService(store=store)

    def handle(request):
        return service.handle(request_from_dict(request.to_dict()))

    for request in setup:
        handle(request)
    try:
        return [response_checksum(handle(r)) for r in requests]
    finally:
        journal.close()


def check_against_reference(inputs, passes, work: Path) -> list[str]:
    """Compare every reply's checksum with :func:`reference_checksums`
    of its connection.  Each replay runs in a fresh process, never one
    that generated inputs.  Generation jobs call ``reset_ids``, after
    which trees built with explicit ids no longer reserve them in the
    allocator that hands out fresh ids (``repro.trees.tree`` keeps the
    old one).  A replay in such a process drew ids that collide with the
    documents' own; one many-small-docs seed's replay then ran for
    minutes on an instance query the server answered at once."""
    from repro.service.protocol import response_checksum
    from worker import run_jobs

    jobs, observed = [], []
    for p, one in enumerate(passes):
        for c, conn in enumerate(one.conns):
            jobs.append((inputs.setup, conn.sent,
                         str(work / f"reference{p}-{c}")))
            observed.append([None if r is None else response_checksum(r)
                             for r in conn.responses])
    try:
        replies = run_jobs("run:reference_checksums", jobs,
                           timeout=REFERENCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"the in-process reference replay did not finish in "
                f"{REFERENCE_TIMEOUT_S} s"]
    problems = []
    for (_, sent, _), got, want in zip(jobs, observed, replies):
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        if bad:
            problems.append(f"{len(bad)} of {len(sent)} responses differ "
                            f"from the in-process reference (first at "
                            f"request {bad[0]}, a {sent[bad[0]].kind})")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _rejections(response) -> int:
    from repro.service.protocol import FleetDecisions, StreamDecisions

    if isinstance(response, StreamDecisions):
        return sum(not d.accepted for d in response.decisions)
    if isinstance(response, FleetDecisions):
        return sum(len(e.rejected) for e in response.epochs)
    return 0


def _journaled_ops(request, response) -> int:
    """Operations a reply says were applied and journaled (fleet epochs
    are not journaled)."""
    from repro.service.protocol import StreamDecisions

    if request.kind in ("stream-submit", "certified-submit") and \
            isinstance(response, StreamDecisions):
        return len(response.decisions)
    return 0


def _fleet_epochs(passes) -> int:
    from repro.service.protocol import FleetDecisions

    return sum(len(r.epochs) for one in passes for c in one.conns
               for r in c.responses if isinstance(r, FleetDecisions))


def window_samples(one: Pass):
    """``(kind, latency s, response, slice)`` for requests sent in the
    window, the replies landing in each of its SLICES slices, and the
    journaled operations among those replies."""
    width = (one.t1 - one.t0) / SLICES
    samples, landed, ops = [], [0] * SLICES, 0
    for conn in one.conns:
        for request, response, sent, done in zip(
                conn.sent, conn.responses, conn.t_send, conn.t_done):
            if one.t0 <= done < one.t1:
                landed[min(SLICES - 1, int((done - one.t0) / width))] += 1
                ops += _journaled_ops(request, response)
            if one.t0 <= sent < one.t1:
                samples.append((request.kind, done - sent, response, min(
                    SLICES - 1, int((sent - one.t0) / width))))
    return samples, landed, ops


def _slice_median(samples) -> float:
    """Median over slices of each slice's median latency (ms)."""
    per = [[] for _ in range(SLICES)]
    for _, latency, _, at in samples:
        per[at].append(latency)
    return 1e3 * statistics.median(
        statistics.median(lat) for lat in per if lat)


def end_to_end(one: Pass, seconds: float):
    """``{name: (value, unit)}``, ``{name: sample count}`` and the
    failure/rejection figures of the window.

    Throughput and the overall p50 are medians over the window's SLICES
    slices, so a burst of contention from other tenants of the host
    moves them less.  The per-kind p50s (a few samples per slice for the
    probe kinds) and p99 are taken over the whole window.
    """
    from layers import KINDS
    from loadgen import is_failure

    samples, landed, ops = window_samples(one)
    metrics, counts = {}, {}
    metrics["throughput_rps"] = statistics.median(landed) * SLICES / seconds
    counts["throughput_rps"] = sum(landed)
    metrics["latency_p50_ms"] = _slice_median(samples)
    counts["latency_p50_ms"] = len(samples)
    metrics["latency_p99_ms"] = 1e3 * statistics.quantiles(
        [s[1] for s in samples], n=100)[98]
    counts["latency_p99_ms"] = len(samples)
    for kind in KINDS:
        name = f"latency_p50_ms.{kind}"
        mine = [s[1] for s in samples if s[0] == kind]
        metrics[name] = 1e3 * statistics.median(mine)
        counts[name] = len(mine)
    metrics["setup_s"] = statistics.median(one.setup_s)
    counts["setup_s"] = len(one.setup_s)
    metrics["restart_s"] = statistics.median(one.restart_s)
    counts["restart_s"] = len(one.restart_s)
    metrics["journal_bytes_per_op"] = one.journal_bytes / max(1, ops)
    counts["journal_bytes_per_op"] = ops
    metrics["peak_rss_mb"] = one.peak_rss_mb
    counts["peak_rss_mb"] = 1
    units = {name: END_TO_END_UNITS.get(name.split(".")[0], "ms")
             for name in metrics}
    failures = sum(is_failure(s[2]) for s in samples)
    extra = {"error_rate": failures / max(1, len(samples)),
             "rejected_decisions": sum(_rejections(s[2]) for s in samples),
             "reregistrations": sum(s[0] == "register-document"
                                    for s in samples),
             "samples": len(samples)}
    return {k: (v, units[k]) for k, v in metrics.items()}, counts, extra


def _print_table(title: str, metrics: dict, counts: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        n = counts.get(name)
        tail = f"  (n={n})" if n is not None else ""
        print(f"  {name:<44} {value:>14.6g} {unit:<6}{tail}")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _pin_cpus():
    """This process on the first allowed CPU, the server on the second."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return None
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1]


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = _layout_error()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import inputs as inputs_mod
    if args.workload not in inputs_mod.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(inputs_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    clock = _PhaseClock()
    # Unwind (and so stop every child) on SIGTERM as on an error.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        inputs = inputs_mod.build(args.workload, args.seed)
        fingerprint = inputs.fingerprint()
        clock.lap("inputs")
        cpus = os.sched_getaffinity(0)
        server_cpu = _pin_cpus()
        if args.trace:
            passes = [asyncio.run(run_pass(
                copy.deepcopy(inputs), work / "base", args.seconds,
                setups=1, restarts=1, traced=False, cpu=server_cpu))]
            clock.lap("untraced pass")
            passes.append(asyncio.run(run_pass(
                inputs, work / "traced", args.seconds, setups=1,
                restarts=1, traced=True, cpu=server_cpu)))
            clock.lap("traced pass")
        else:
            passes = [asyncio.run(run_pass(
                inputs, work / "run", args.seconds, setups=SETUPS,
                restarts=RESTARTS, traced=False, cpu=server_cpu))]
            clock.lap("pass")
        problems = [p for one in passes for p in one.problems]
        os.sched_setaffinity(0, cpus)
        problems += check_against_reference(inputs, passes, work)
        clock.lap("reference")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, inputs, passes, problems, fingerprint, clock)


class _PhaseClock:
    """Wall time per phase of the run, printed with the report."""

    def __init__(self):
        self.laps: list[tuple[str, float]] = []
        self._last = perf_counter()

    def lap(self, name: str) -> None:
        now = perf_counter()
        self.laps.append((name, now - self._last))
        self._last = now

    def __str__(self) -> str:
        return ", ".join(f"{name} {seconds:.1f} s"
                         for name, seconds in self.laps)


def report(args, inputs, passes, problems, fingerprint, clock) -> int:
    """Print every metric, then the one-line JSON result."""
    from layers import per_layer
    from loadgen import is_failure

    main_pass = passes[-1]
    metrics, counts, _ = end_to_end(passes[0], args.seconds)
    _, _, extra = end_to_end(main_pass, args.seconds)
    attempted = sum(len(c.sent) for one in passes for c in one.conns)
    failed = sum(is_failure(r) for one in passes for c in one.conns
                 for r in c.responses)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  inputs sha256 {fingerprint[:16]}; "
          + "; ".join(f"{k}: {v}" for k, v in inputs.notes.items()))
    print(f"  wall time: {clock}")
    print(f"  closed loop: {len(inputs.connections)} connections x window "
          f"{inputs.window}; flush policy: per-record fsync "
          f"(server default), checkpoint every 256 submits")
    print(f"  window requests {extra['samples']}, error_rate "
          f"{extra['error_rate']:.6f}, rejected decisions "
          f"{extra['rejected_decisions']}, log-cycle re-registrations "
          f"{extra['reregistrations']}; all phases: attempted {attempted}, "
          f"failed {failed}")
    print(f"  crash check: stream-status of every document (stream and "
          f"certified writes); the server does not journal fleet epochs, "
          f"so the {_fleet_epochs(passes)} acknowledged in this run are "
          f"not covered")
    if args.trace:
        _, landed, _ = window_samples(main_pass)
        layer = per_layer(main_pass.trace, main_pass.client_trace,
                          main_pass.t0, main_pass.t1, sum(landed))
        traced_rps = statistics.median(landed) * SLICES / args.seconds
        layer["trace.overhead"] = (
            1.0 - traced_rps / metrics["throughput_rps"][0], "ratio")
        layer["loadgen.error_rate"] = (extra["error_rate"], "ratio")
        layer["loadgen.rejected_decisions"] = (
            extra["rejected_decisions"] / max(1, extra["samples"]), "1/req")
        _print_table("per-layer (traced window)", layer, {})
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{args.workload}-trace.json").write_text(json.dumps(
            {"server": main_pass.trace, "client": main_pass.client_trace,
             "window": [main_pass.t0, main_pass.t1],
             "per_layer": layer}))
        result_metrics = layer
    else:
        _print_table("end-to-end (untraced window)", metrics, counts)
        result_metrics = {name: value for name, value in metrics.items()
                          if name not in NOT_GATED}
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result_metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

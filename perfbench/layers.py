"""Which repro function each layer wraps, and the per-layer figures.

:func:`install_server` runs inside the benchmark's server launcher
(``perfbench/server.py --trace-out``).  :func:`install_client` runs in
the load generator for the traced phase only.  Each wrapper is swapped
in at the name the caller looks up.  For example, ``read_frame`` is
wrapped where :mod:`repro.server.server` imported it, and ``os.fsync``
is wrapped as :mod:`repro.server.journal` sees it.

:func:`per_layer` turns a dumped :class:`~tracer.Recorder` into the
``per_layer`` metrics of ``BENCHMARK.json``.  Self time is a span's busy
time minus the busy time of its child spans, summed per layer and
divided by the requests completed in the measured window.  ``share`` is
self time over the window's wall time.  ``trace.coverage`` is the
attributed time (every span's self time) over the server's busy time.
Busy time is wall time minus the time the event loop sat in
``select()``.  ``trace.other_s`` is the rest: selector bookkeeping and
event dispatch outside any callback.
"""

from __future__ import annotations

import selectors
import types
from time import perf_counter

from tracer import Recorder, async_layer, install, sync_layer

#: Request kinds reported one by one; any other kind is ``other``.
KINDS = ("stream-submit", "certified-submit", "fleet-submit",
         "implication", "instance-implication")

#: Server layers with self time per request, calls per request and
#: share of server wall time.  The wrapped functions are in install_server.
SERVER_LAYERS = (
    "server.event_loop", "server.read_loop", "server.serve",
    "framing.read", "framing.write", "framing.encode",
    "protocol.decode", "protocol.encode",
    "async_service.submit", "async_service.drain",
    *(f"service.handle.{kind}" for kind in KINDS), "service.handle.other",
    "stream.apply", "stream.audit", "analysis.independent",
    "masks.violations", "masks.fleet_epoch",
    "trees.apply", "trees.index_build",
    "certify.apply_certified",
    "journal.append", "journal.fsync", "journal.checkpoint",
    "api.implies", "api.bind", "instance.implies_on",
)
#: Server layers that run at start-up: seconds per call over the whole
#: traced process (recovery re-certifies every journaled template).
LIFETIME_LAYERS = ("journal.recover", "certify.certify")
#: Load-generator layers (share of the window's wall time).
CLIENT_LAYERS = ("client.encode", "client.decode", "client.framing")


class TimedSelector(selectors.DefaultSelector):
    """The default selector, recording each ``select()`` as idle time."""

    def __init__(self, rec: Recorder):
        super().__init__()
        self._rec = rec

    def select(self, timeout=None):
        started = perf_counter()
        try:
            return super().select(timeout)
        finally:
            self._rec.idle_start.append(started)
            self._rec.idle.append(perf_counter() - started)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_server(rec: Recorder) -> None:
    """Wrap the server-side layers (the process runs traced until exit)."""
    import asyncio.events
    import repro.server.journal as journal_mod
    import repro.server.server as server_mod
    import repro.server.framing as framing_mod
    import repro.service.store as store_mod
    from repro.analysis.independence import IndependenceAnalyzer
    from repro.api.session import BoundReasoner, Reasoner
    from repro.masks.baseline import MaskedBaseline
    from repro.masks.fleet import FleetEvaluator
    from repro.server.journal import ServerJournal
    from repro.server.server import ReproServer
    from repro.service import protocol
    from repro.service.async_service import AsyncService
    from repro.service.service import ConstraintService
    from repro.stream.engine import StreamEnforcer
    from repro.stream.log import AuditTrail
    from repro.trees.index import TreeIndex
    from repro.xpath.snapshot import SnapshotEvaluator

    def wrap(owner, name, layer, tagger=None):
        install(owner, name, lambda fn: sync_layer(rec, layer, fn, tagger))

    def wrap_async(owner, name, layer):
        install(owner, name, lambda fn: async_layer(rec, layer, fn))

    wrap(asyncio.events.Handle, "_run", "server.event_loop")
    wrap_async(ReproServer, "_on_connect", "server.read_loop")
    wrap_async(ReproServer, "_serve", "server.serve")
    wrap_async(server_mod, "read_frame", "framing.read")
    wrap_async(server_mod, "write_frame", "framing.write")
    wrap(framing_mod, "encode_record", "framing.encode",
         lambda args, out: len(out))
    wrap(journal_mod, "encode_record", "framing.encode",
         lambda args, out: len(out))
    wrap(server_mod, "request_from_dict", "protocol.decode")
    for cls in _subclasses(protocol.Response):
        if "to_dict" in cls.__dict__:
            wrap(cls, "to_dict", "protocol.encode")
    _install_queue(rec, AsyncService, ConstraintService)
    wrap_async(AsyncService, "_drain", "async_service.drain")
    wrap(StreamEnforcer, "apply", "stream.apply",
         lambda args, decision: int(not decision.accepted))
    wrap(AuditTrail, "append", "stream.audit")
    wrap(IndependenceAnalyzer, "independent", "analysis.independent",
         lambda args, verdict: int(bool(verdict)))
    wrap(MaskedBaseline, "violations", "masks.violations")
    wrap(FleetEvaluator, "submit_epoch", "masks.fleet_epoch")
    for name in ("apply_add_leaf", "apply_move", "apply_remove_subtree"):
        wrap(SnapshotEvaluator, name, "trees.apply")
    wrap(TreeIndex, "__init__", "trees.index_build")
    wrap(StreamEnforcer, "apply_certified", "certify.apply_certified")
    wrap(store_mod, "certify", "certify.certify")
    wrap(ServerJournal, "stream_submitted", "journal.append")
    wrap(ServerJournal, "certified_submitted", "journal.append")
    wrap(ServerJournal, "checkpoint", "journal.checkpoint")
    wrap(ServerJournal, "recover", "journal.recover")
    # journal.py calls os.fsync through its own module global ``os``.
    os_view = types.SimpleNamespace(**vars(journal_mod.os))
    wrap(os_view, "fsync", "journal.fsync")
    journal_mod.os = os_view
    _install_implies(rec, Reasoner)
    wrap(Reasoner, "bind", "api.bind")
    wrap(store_mod, "bind_session", "api.bind")
    wrap(BoundReasoner, "implies_on", "instance.implies_on")


def _install_queue(rec, AsyncService, ConstraintService):
    """Queue wait: ``AsyncService.submit`` to ``ConstraintService.handle``
    for the same request object.  Depth counts requests queued and not
    yet started, sampled as each one starts."""
    queued: dict[int, float] = {}
    submit_lid = rec.layer_id("async_service.submit")

    def timed_submit(submit):
        def wrapper(self, request):
            queued[id(request)] = perf_counter()
            i = rec.open(submit_lid, 1)
            try:
                return submit(self, request)
            finally:
                rec.close(i)
        return wrapper

    def timed_handle(handle):
        def wrapper(self, request):
            started = perf_counter()
            since = queued.pop(id(request), None)
            if since is not None:
                rec.wait_start.append(since)
                rec.wait.append(started - since)
                rec.depth.append(len(queued) + 1)
            kind = request.kind if request.kind in KINDS else "other"
            i = rec.open(rec.layer_id("service.handle." + kind), 1)
            try:
                return handle(self, request)
            finally:
                rec.close(i)
        return wrapper

    install(AsyncService, "submit", timed_submit)
    install(ConstraintService, "handle", timed_handle)


def _install_implies(rec, Reasoner):
    """``Reasoner.implies`` spans, tagged 1 when the session memo hit."""
    lid = rec.layer_id("api.implies")

    def timed(implies):
        def wrapper(self, *args, **kwargs):
            hits = self.stats.hits
            i = rec.open(lid, 1)
            try:
                result = implies(self, *args, **kwargs)
            finally:
                rec.close(i)
            rec.tag[i] = int(self.stats.hits > hits)
            return result
        return wrapper

    install(Reasoner, "implies", timed)


def install_client(rec: Recorder):
    """Wrap the load generator's codec and framing; returns the undo."""
    import repro.server.client as client_mod
    from repro.service import protocol

    undo = [install(cls, "to_dict",
                    lambda fn: sync_layer(rec, "client.encode", fn))
            for cls in _subclasses(protocol.Request)
            if "to_dict" in cls.__dict__]
    undo.append(install(client_mod, "response_from_dict",
                        lambda fn: sync_layer(rec, "client.decode", fn)))
    for name in ("read_frame", "write_frame"):
        undo.append(install(client_mod, name,
                            lambda fn: async_layer(rec, "client.framing", fn)))

    def restore():
        for step in reversed(undo):
            step()

    return restore


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _window_totals(data: dict, t0: float, t1: float):
    """Per layer: (calls, self seconds, tag sum) for spans starting in
    the window, plus every span's self time summed (attributed time)."""
    spans = data["spans"]
    layer, parent = spans["layer"], spans["parent"]
    start, busy = spans["start"], spans["busy"]
    tag, call = spans["tag"], spans["call"]
    child = [0.0] * len(layer)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += busy[i]
    names = data["layers"]
    totals = {name: [0, 0.0, 0] for name in names}
    attributed = 0.0
    for i, lid in enumerate(layer):
        if not t0 <= start[i] < t1:
            continue
        own = busy[i] - child[i]
        entry = totals[names[lid]]
        entry[0] += call[i]
        entry[1] += own
        entry[2] += tag[i]
        attributed += own
    return totals, attributed


def _lifetime(data: dict, name: str) -> tuple[int, float]:
    """(calls, busy seconds) of one layer over the whole process."""
    spans = data["spans"]
    if name not in data["layers"]:
        return 0, 0.0
    lid = data["layers"].index(name)
    calls = busy = 0
    for i, layer in enumerate(spans["layer"]):
        if layer == lid:
            calls += spans["call"][i]
            busy += spans["busy"][i]
    return calls, busy


def per_layer(server: dict, client: dict, t0: float, t1: float,
              requests: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    wall = t1 - t0
    n = max(1, requests)
    out: dict[str, tuple[float, str]] = {}
    totals, attributed = _window_totals(server, t0, t1)
    for name in SERVER_LAYERS:
        calls, own, _ = totals.get(name, (0, 0.0, 0))
        out[f"{name}_s"] = (own / n, "s/req")
        out[f"{name}_s.calls"] = (calls / n, "1/req")
        out[f"{name}_s.share"] = (own / wall, "ratio")
    for name in LIFETIME_LAYERS:
        calls, busy = _lifetime(server, name)
        out[f"{name}_s"] = (busy / max(1, calls), "s")
        out[f"{name}_s.calls"] = (float(calls), "count")
    ctotals, _ = _window_totals(client, t0, t1)
    for name in CLIENT_LAYERS:
        calls, own, _ = ctotals.get(name, (0, 0.0, 0))
        out[f"{name}_s"] = (own / n, "s/req")
        out[f"{name}_s.calls"] = (calls / n, "1/req")
        out[f"{name}_s.share"] = (own / wall, "ratio")

    def tag(name):
        return totals.get(name, (0, 0.0, 0))[2]

    def calls(name):
        return totals.get(name, (0, 0.0, 0))[0]

    out["framing.bytes_per_request"] = (tag("framing.encode") / n, "B/req")
    out["stream.ops"] = (calls("stream.apply") / n, "1/req")
    out["stream.rejected"] = (tag("stream.apply") / n, "1/req")
    out["analysis.fastpath_rate"] = (
        tag("analysis.independent") / max(1, calls("analysis.independent")),
        "ratio")
    out["journal.fsyncs_per_request"] = (calls("journal.fsync") / n, "1/req")
    out["journal.checkpoints"] = (calls("journal.checkpoint") / n, "1/req")
    out["api.memo_hit_rate"] = (
        tag("api.implies") / max(1, calls("api.implies")), "ratio")
    waits = server["waits"]
    in_window = [(w, d) for s, w, d in zip(waits["start"], waits["busy"],
                                           waits["depth"]) if t0 <= s < t1]
    out["async_service.queue_wait_s"] = (
        sum(w for w, _ in in_window) / max(1, len(in_window)), "s/req")
    out["async_service.depth_max"] = (
        float(max((d for _, d in in_window), default=0)), "count")
    idle = 0.0
    for s, b in zip(server["idle"]["start"], server["idle"]["busy"]):
        idle += max(0.0, min(s + b, t1) - max(s, t0))
    busy = max(wall - idle, 1e-9)
    out["server.utilization"] = (busy / wall, "ratio")
    out["trace.coverage"] = (attributed / busy, "ratio")
    out["trace.other_s"] = (max(0.0, busy - attributed) / n, "s/req")
    return out


__all__ = ["KINDS", "SERVER_LAYERS", "LIFETIME_LAYERS", "CLIENT_LAYERS",
           "TimedSelector", "install_server", "install_client", "per_layer"]

"""Spans kept in memory, fed by wrappers installed around repro's layers.

A :class:`Recorder` stores one row per span: layer name, parent span,
start, busy seconds, an integer tag (a per-layer count such as "was a
memo hit" or "bytes framed"), a call flag and the wire trace id.  Rows
live in flat ``array`` columns, so a run of a few hundred thousand spans
stays small.  :meth:`Recorder.dump` writes them out once, at the end.

Parents come from a plain stack, not a context variable.  Each process
traces one thread, and on one thread the timed blocks nest strictly in
time: a synchronous call, and each *step* of a coroutine between two
``await`` suspensions.  Coroutine functions are timed step by step
(:func:`async_layer`).  So an ``async`` layer's busy time excludes the
time it spent suspended, for example waiting for the next frame.  A
layer's self time is its busy time minus its children's busy time.

:func:`install` swaps a wrapper in at the name the caller looks up (a
module global or a class attribute) and returns an undo function.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from time import perf_counter

from repro.obs import trace_id


class Recorder:
    """Flat, append-only span storage for one thread."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.traces: list[str] = []
        self._trace_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.busy = array("d")
        self.tag = array("q")
        self.call = array("b")
        self.trace = array("i")
        self.stack = [-1]
        #: Loop idle intervals (time spent inside the selector's select()).
        self.idle_start = array("d")
        self.idle = array("d")
        #: Waits: request queued -> execution started (not a span).
        self.wait_start = array("d")
        self.wait = array("d")
        self.depth = array("i")

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def _trace_index(self, parent: int) -> int:
        tid = trace_id()
        if tid is None:
            return self.trace[parent] if parent >= 0 else -1
        index = self._trace_ids.get(tid)
        if index is None:
            index = self._trace_ids[tid] = len(self.traces)
            self.traces.append(tid)
        return index

    def open(self, lid: int, call: int) -> int:
        parent = self.stack[-1]
        i = len(self.layer)
        self.layer.append(lid)
        self.parent.append(parent)
        self.tag.append(0)
        self.call.append(call)
        self.trace.append(self._trace_index(parent))
        self.busy.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.busy[i] = perf_counter() - self.start[i]
        self.stack.pop()

    def as_dict(self) -> dict:
        """Every span, wait and idle interval, as plain lists."""
        return {
            "layers": self.layers, "traces": self.traces,
            "pid": os.getpid(),
            "spans": {name: getattr(self, name).tolist() for name in (
                "layer", "parent", "start", "busy", "tag", "call", "trace")},
            "idle": {"start": self.idle_start.tolist(),
                     "busy": self.idle.tolist()},
            "waits": {"start": self.wait_start.tolist(),
                      "busy": self.wait.tolist(),
                      "depth": self.depth.tolist()},
        }

    def dump(self, path: str) -> None:
        """Write :meth:`as_dict` as one JSON file (atomically)."""
        data = self.as_dict()
        tmp = path + ".tmp"
        with open(tmp, "w") as out:
            json.dump(data, out)
        os.replace(tmp, path)


def sync_layer(rec: Recorder, layer: str, fn, tagger=None):
    """Wrap a plain function: one span per call.  ``tagger(args,
    result)`` gives the span's integer tag."""
    lid = rec.layer_id(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(lid, 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if tagger is not None:
            rec.tag[i] = tagger(args, result)
        return result

    return wrapper


class _Steps:
    """Drive a coroutine, one span per step between suspensions."""

    __slots__ = ("rec", "lid", "coro")

    def __init__(self, rec, lid, coro):
        self.rec, self.lid, self.coro = rec, lid, coro

    def __await__(self):
        rec, lid, coro = self.rec, self.lid, self.coro
        value, error, call = None, None, 1
        while True:
            i = rec.open(lid, call)
            call = 0
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                rec.close(i)
                return stop.value
            except BaseException:
                rec.close(i)
                raise
            rec.close(i)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as err:  # cancellation: hand it inward
                value, error = None, err


def async_layer(rec: Recorder, layer: str, fn):
    """Wrap a coroutine function: one span per step, calls counted once."""
    lid = rec.layer_id(layer)

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        return await _Steps(rec, lid, fn(*args, **kwargs))

    return wrapper


def install(owner, name: str, make):
    """Swap ``owner.name`` (a module global or a class attribute) for
    ``make(original)``; returns the function that puts the original back."""
    original = owner.__dict__[name]
    setattr(owner, name, make(original))
    return lambda: setattr(owner, name, original)


__all__ = ["Recorder", "sync_layer", "async_layer", "install"]

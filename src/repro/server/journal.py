"""Append-only durability: per-document journals, checkpoints, recovery.

A :class:`ServerJournal` makes a :class:`~repro.service.store.
DocumentStore` survive its process.  Everything state-bearing is recorded
as a CRC-framed record (:mod:`repro.server.framing`) in an append-only
file, fsync'd *before* the response that acknowledges it is sent:

* ``<root>/sets.journal`` — constraint-set registrations, in their wire
  form (XPath text + type), including replacements;
* ``<root>/docs/<name>/journal`` — one file per document: its
  registration record (the full tree, nested-dict form) followed by one
  record per effective :class:`~repro.service.protocol.StreamSubmit`
  (the ops as *applied*, leaf ids pinned — see :meth:`prepare_ops`);
* ``<root>/docs/<name>/checkpoint`` — the latest snapshot: the
  enforcement stream's :meth:`~repro.stream.engine.StreamEnforcer.
  state_dict` plus the journal position it covers, written to a temp
  file and atomically renamed.  After a checkpoint the journal is
  *compacted*: records the checkpoint covers are dropped.

Every record carries a globally monotone ``lsn`` (log sequence number),
so :meth:`recover` can merge the set journal and all document journals
back into the one execution order the live server actually ran, restore
checkpoints at their covered position, and replay only the suffix —
reconverging on the exact live state (the enforcement engine is
deterministic; see :meth:`~repro.stream.engine.StreamEnforcer.replay`).

Failure semantics, pinned by the fault-injection suite
(:mod:`repro.server.faults`): a **torn tail** — the crash interrupted
the final append — is truncated and survived; **checksum-corrupt
history** raises :class:`~repro.errors.JournalCorruptError` and recovery
refuses to continue.  :meth:`simulate_power_loss` models the
kill-between-fsync window by truncating every journal back to its last
fsync'd offset.
"""

from __future__ import annotations

import os
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import BinaryIO, Iterable

from repro.certify.templates import (
    UpdateTemplate,
    bindings_from_wire,
    bindings_to_wire,
)
from repro.errors import JournalError, ServiceError
from repro.obs import MetricsRegistry, registry as _obs_registry, span
from repro.server.framing import encode_record, scan_records
from repro.service.protocol import constraint_from_wire, constraint_to_wire
from repro.stream.engine import StreamEnforcer
from repro.stream.ops import AddLeaf, StreamOp, op_from_dict, op_to_dict
from repro.trees import serialize
from repro.trees.tree import DataTree

_SETS = "sets.journal"
_DOCS = "docs"
_JOURNAL = "journal"
_CHECKPOINT = "checkpoint"


def _doc_dirname(name: str) -> str:
    """A filesystem-safe, reversible directory name for a document."""
    return "doc-" + urllib.parse.quote(name, safe="")


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync (durable renames on POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class RecoveryReport:
    """What :meth:`ServerJournal.recover` found and rebuilt."""

    constraint_sets: list[str] = field(default_factory=list)
    documents: list[str] = field(default_factory=list)
    records_replayed: int = 0
    decisions_replayed: int = 0
    checkpoints_used: list[str] = field(default_factory=list)
    #: ``(path, bytes_dropped)`` per journal whose torn tail was truncated.
    torn_tails: list[tuple[str, int]] = field(default_factory=list)

    def __str__(self) -> str:
        torn = (f", {len(self.torn_tails)} torn tail(s) truncated"
                if self.torn_tails else "")
        return (f"recovered {len(self.documents)} document(s), "
                f"{len(self.constraint_sets)} constraint set(s); "
                f"{self.records_replayed} record(s) / "
                f"{self.decisions_replayed} decision(s) replayed, "
                f"{len(self.checkpoints_used)} checkpoint(s) used{torn}")


class ServerJournal:
    """The durability layer behind a :class:`~repro.server.server.ReproServer`.

    Attach with :meth:`~repro.service.store.DocumentStore.attach_journal`
    *after* :meth:`recover` has rebuilt the store — an attached journal
    records every mutation the store performs, so recovering into an
    already-attached store would re-journal its own replay.

    ``fsync=False`` trades the per-record ``fsync`` for throughput: the
    journal is still written in order, but a power loss may take back
    acknowledged operations (:meth:`simulate_power_loss` models exactly
    this).  ``checkpoint_every`` bounds replay work and journal size: a
    document's stream is snapshotted after that many submit records and
    its journal compacted.  ``faults`` accepts a
    :class:`~repro.server.faults.CrashSchedule` (or anything with a
    ``hit(point)`` method) and is consulted at every durability point.
    """

    def __init__(self, root: str | Path, *, fsync: bool = True,
                 checkpoint_every: int = 256, audit_keep: int = 64,
                 faults=None, metrics: MetricsRegistry | None = None):
        self.root = Path(root)
        self.fsync = fsync
        self.checkpoint_every = max(1, checkpoint_every)
        self.audit_keep = max(0, audit_keep)
        self.faults = faults
        self._metrics = metrics if metrics is not None else _obs_registry()
        m = self._metrics
        self._m_records = m.counter("journal.records_total")
        self._m_bytes = m.counter("journal.bytes_written_total")
        self._m_fsync = m.histogram("journal.fsync_seconds")
        self._m_torn = m.counter("journal.torn_tails_total")
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / _DOCS).mkdir(exist_ok=True)
        self._lsn = 1  # next lsn to assign (recover() advances it)
        self._handles: dict[Path, BinaryIO] = {}
        self._synced: dict[Path, int] = {}  # last fsync'd size per file
        self._sizes: dict[Path, int] = {}   # written size per file
        self._next_id: dict[str, int] = {}  # per-document leaf-id counter
        self._since_checkpoint: dict[str, int] = {}
        self._paths: dict[str, tuple[Path, Path, Path]] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _doc_paths(self, name: str) -> tuple[Path, Path, Path]:
        """``(directory, journal, checkpoint)`` of a document, built once
        per name — every submit appends to the journal path."""
        paths = self._paths.get(name)
        if paths is None:
            doc_dir = self.root / _DOCS / _doc_dirname(name)
            paths = (doc_dir, doc_dir / _JOURNAL, doc_dir / _CHECKPOINT)
            self._paths[name] = paths
        return paths

    def _doc_dir(self, name: str) -> Path:
        return self._doc_paths(name)[0]

    def doc_journal_path(self, name: str) -> Path:
        return self._doc_paths(name)[1]

    def doc_checkpoint_path(self, name: str) -> Path:
        return self._doc_paths(name)[2]

    @property
    def sets_journal_path(self) -> Path:
        return self.root / _SETS

    # ------------------------------------------------------------------
    # Low-level append
    # ------------------------------------------------------------------
    def _fault(self, point: str) -> None:
        if self.faults is not None:
            self.faults.hit(point)

    def _handle(self, path: Path) -> BinaryIO:
        handle = self._handles.get(path)
        if handle is None:
            handle = open(path, "ab", buffering=0)
            self._handles[path] = handle
            size = path.stat().st_size
            self._sizes[path] = size
            self._synced[path] = size
        return handle

    def _append(self, path: Path, record: dict) -> None:
        if self._closed:
            raise JournalError("the journal is closed")
        record = dict(record)
        record["lsn"] = self._lsn
        self._lsn += 1
        blob = encode_record(record)
        handle = self._handle(path)
        handle.write(blob)
        self._sizes[path] = self._sizes.get(path, 0) + len(blob)
        self._m_records.inc()
        self._m_bytes.inc(len(blob))
        self._fault("journal-write")
        if self.fsync:
            started = perf_counter()
            os.fsync(handle.fileno())
            self._m_fsync.observe(perf_counter() - started)
            self._synced[path] = self._sizes[path]
            self._fault("journal-fsync")

    # ------------------------------------------------------------------
    # Store hooks (called by DocumentStore / the executors)
    # ------------------------------------------------------------------
    def constraints_registered(self, name: str, constraints: Iterable,
                               replace: bool) -> None:
        self._append(self.sets_journal_path, {
            "kind": "constraints", "name": name,
            "constraints": [constraint_to_wire(c) for c in constraints],
            "replace": bool(replace),
        })

    def template_registered(self, name: str, template: UpdateTemplate,
                            set_name: str, replace: bool) -> None:
        """Record one *certified* template registration.

        Lives in ``sets.journal`` (like the constraint sets certificates
        are statements about); recovery replays the record through
        :meth:`~repro.service.store.DocumentStore.add_template`, and the
        deterministic certifier reproduces the stored verdict — the
        journal never records rejected or unknown templates.
        """
        self._append(self.sets_journal_path, {
            "kind": "template", "name": name,
            "template": template.to_dict(), "set": set_name,
            "replace": bool(replace),
        })

    def document_registered(self, name: str, tree: DataTree,
                            replace: bool) -> None:
        """Start (or restart, on replace) the document's journal."""
        doc_dir = self._doc_dir(name)
        journal = self.doc_journal_path(name)
        checkpoint = self.doc_checkpoint_path(name)
        # A re-registration voids the document's whole history: drop the
        # open handle, the old journal and any checkpoint before the new
        # registration record lands.
        handle = self._handles.pop(journal, None)
        if handle is not None:
            handle.close()
        doc_dir.mkdir(parents=True, exist_ok=True)
        journal.unlink(missing_ok=True)
        checkpoint.unlink(missing_ok=True)
        self._sizes.pop(journal, None)
        self._synced.pop(journal, None)
        self._append(journal, {
            "kind": "document", "name": name,
            "tree": serialize.to_dict(tree), "replace": bool(replace),
        })
        _fsync_dir(doc_dir)
        self._next_id[name] = max(tree.node_ids()) + 1
        self._since_checkpoint[name] = 0

    def prepare_ops(self, doc: str, ops: tuple[StreamOp, ...]
                    ) -> tuple[StreamOp, ...]:
        """Pin unpinned :class:`AddLeaf` ids from the document's counter.

        A journaled log must replay to the *same* document, so fresh
        leaves cannot draw from the process-global allocator (a recovered
        process would allocate differently).  The per-document counter is
        deterministic — it starts past the registered tree's ids and
        every journaled pin advances it, on the live server and during
        replay alike — and pinning at the service boundary also tells the
        wire client which id its insert received.
        """
        counter = self._next_id.get(doc)
        if counter is None:
            return ops  # unknown document: the enforcer lookup will raise
        pinned: list[StreamOp] = []
        for op in ops:
            if isinstance(op, AddLeaf) and op.nid is None:
                pinned.append(AddLeaf(op.parent, op.label, nid=counter))
                counter += 1
            else:
                if isinstance(op, AddLeaf):
                    counter = max(counter, op.nid + 1)
                pinned.append(op)
        self._next_id[doc] = counter
        return tuple(pinned)

    def stream_submitted(self, doc: str, set_name: str,
                         ops: tuple[StreamOp, ...],
                         enforcer: StreamEnforcer) -> None:
        """Record one effective submission; checkpoint when due."""
        if not ops:
            return
        self._append(self.doc_journal_path(doc), {
            "kind": "submit", "set": set_name,
            "ops": [op_to_dict(op) for op in ops],
        })
        count = self._since_checkpoint.get(doc, 0) + 1
        self._since_checkpoint[doc] = count
        if count >= self.checkpoint_every and not enforcer.in_transaction:
            self.checkpoint(doc, set_name, enforcer)

    def certified_submitted(self, doc: str, set_name: str,
                            template_name: str, bindings: dict,
                            ops: tuple[StreamOp, ...],
                            enforcer: StreamEnforcer) -> None:
        """Record one applied certified submission; checkpoint when due.

        The record carries the template *name* plus the bindings and the
        pinned ops: recovery replays it through
        :meth:`~repro.stream.engine.StreamEnforcer.apply_certified` (the
        template itself recovers from ``sets.journal`` first — its lsn is
        always lower), so a recovered stream's audit trail, counters and
        ``certified`` accounting match the live one's exactly.
        """
        self._append(self.doc_journal_path(doc), {
            "kind": "certified", "set": set_name,
            "template": template_name,
            "bindings": bindings_to_wire(bindings),
            "ops": [op_to_dict(op) for op in ops],
        })
        count = self._since_checkpoint.get(doc, 0) + 1
        self._since_checkpoint[doc] = count
        if count >= self.checkpoint_every and not enforcer.in_transaction:
            self.checkpoint(doc, set_name, enforcer)

    # ------------------------------------------------------------------
    # Checkpoints and compaction
    # ------------------------------------------------------------------
    def checkpoint(self, doc: str, set_name: str,
                   enforcer: StreamEnforcer) -> None:
        """Snapshot the stream's state and compact its journal.

        The checkpoint covers every record with ``lsn < self._lsn``; the
        write is crash-safe (temp file + fsync + atomic rename — a crash
        at any point leaves either the old checkpoint or the new one,
        never a torn one), and only after the rename is the journal
        compacted.  A crash between the two merely replays records the
        checkpoint already covers — which the covered-lsn filter skips.
        """
        covered = self._lsn - 1
        with span("journal.checkpoint", registry=self._metrics):
            record = encode_record({
                "kind": "checkpoint", "lsn": covered, "doc": doc,
                "set": set_name, "next_id": self._next_id.get(doc, 1),
                "state": enforcer.state_dict(),
            })
            path = self.doc_checkpoint_path(doc)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "wb") as handle:
                handle.write(record)
                self._fault("checkpoint-write")
                if self.fsync:
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
            _fsync_dir(path.parent)
            self._fault("checkpoint-rename")
            self._compact(doc, covered)
            enforcer.audit.compact(keep_last=self.audit_keep)
        self._since_checkpoint[doc] = 0

    def _compact(self, doc: str, covered_lsn: int) -> None:
        """Drop journal records the checkpoint at ``covered_lsn`` covers."""
        with span("journal.compact", registry=self._metrics):
            self._compact_inner(doc, covered_lsn)

    def _compact_inner(self, doc: str, covered_lsn: int) -> None:
        journal = self.doc_journal_path(doc)
        records, _ = scan_records(journal.read_bytes(), path=str(journal))
        keep = [r for r in records if r["lsn"] > covered_lsn]
        handle = self._handles.pop(journal, None)
        if handle is not None:
            handle.close()
        tmp = journal.with_suffix(".compact")
        with open(tmp, "wb") as out:
            for record in keep:
                out.write(encode_record(record))
            if self.fsync:
                os.fsync(out.fileno())
        os.replace(tmp, journal)
        _fsync_dir(journal.parent)
        self._fault("compact")
        size = journal.stat().st_size
        self._sizes[journal] = size
        self._synced[journal] = size

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, store) -> RecoveryReport:
        """Rebuild ``store`` from disk; returns what was replayed.

        Call on a *fresh* store with no journal attached, then attach
        this journal.  Torn tails are truncated in place (the files are
        repaired, not just skipped); corrupt history raises
        :class:`~repro.errors.JournalCorruptError` before the store is
        touched beyond the records already applied.
        """
        report = RecoveryReport()
        events: list[tuple[int, int, str, dict]] = []  # (lsn, tie, kind, data)
        top = self._scan(self.sets_journal_path, report)
        for record in top:
            events.append((record["lsn"], 0, record["kind"], record))
        docs_root = self.root / _DOCS
        for doc_dir in sorted(p for p in docs_root.iterdir() if p.is_dir()):
            self._gather_doc(doc_dir, events, report)
        events.sort(key=lambda e: (e[0], e[1]))
        max_lsn = 0
        for lsn, _, kind, data in events:
            max_lsn = max(max_lsn, lsn)
            self._apply(kind, data, store, report)
            report.records_replayed += 1
        self._lsn = max_lsn + 1
        return report

    def _scan(self, path: Path, report: RecoveryReport) -> list[dict]:
        """Read a journal file, truncating a torn tail in place."""
        if not path.exists():
            return []
        blob = path.read_bytes()
        records, good = scan_records(blob, path=str(path))
        if good < len(blob):
            report.torn_tails.append((str(path), len(blob) - good))
            self._m_torn.inc()
            with open(path, "ab") as handle:
                handle.truncate(good)
                if self.fsync:
                    os.fsync(handle.fileno())
        return records

    def _gather_doc(self, doc_dir: Path,
                    events: list[tuple[int, int, str, dict]],
                    report: RecoveryReport) -> None:
        name = urllib.parse.unquote(doc_dir.name[len("doc-"):])
        journal_path = doc_dir / _JOURNAL
        records = self._scan(journal_path, report)
        checkpoint = self._load_checkpoint(doc_dir / _CHECKPOINT, report)
        covered = -1
        if checkpoint is not None:
            covered = checkpoint["lsn"]
            # tie=1: a checkpoint at lsn L embodies record L — it must
            # apply *after* any other event carrying the same lsn.
            events.append((covered, 1, "restore", checkpoint))
            report.checkpoints_used.append(name)
        survivors = [r for r in records if r["lsn"] > covered]
        if checkpoint is None and not any(
                r["kind"] == "document" for r in survivors):
            if not survivors:
                return  # empty journal directory: nothing to rebuild
            raise JournalError(
                f"document journal {journal_path} has submissions but no "
                f"registration record and no checkpoint: unrecoverable")
        for record in survivors:
            # Submit records live in the document's own journal and do not
            # repeat the name; stamp it so _apply sees a self-contained event.
            record.setdefault("doc", name)
            events.append((record["lsn"], 0, record["kind"], record))

    def _load_checkpoint(self, path: Path,
                         report: RecoveryReport) -> dict | None:
        if not path.exists():
            return None
        blob = path.read_bytes()
        records, good = scan_records(blob, path=str(path))
        if not records or good < len(blob):
            # A torn checkpoint cannot happen through the atomic-rename
            # write path; treat external truncation as "no checkpoint"
            # and fall back to full journal replay.
            report.torn_tails.append((str(path), len(blob) - good))
            self._m_torn.inc()
            return None
        return records[0]

    def _apply(self, kind: str, data: dict, store,
               report: RecoveryReport) -> None:
        if kind == "constraints":
            store.add_constraints(
                data["name"],
                [constraint_from_wire(pair) for pair in data["constraints"]],
                replace=bool(data.get("replace")) or
                data["name"] in store.constraint_sets())
            if data["name"] not in report.constraint_sets:
                report.constraint_sets.append(data["name"])
        elif kind == "document":
            name = data["name"]
            store.add_document(name, serialize.from_dict(data["tree"]),
                               replace=bool(data.get("replace")) or
                               name in store.documents())
            self._next_id[name] = max(store.document(name).node_ids()) + 1
            self._since_checkpoint[name] = 0
            if name not in report.documents:
                report.documents.append(name)
        elif kind == "template":
            template = UpdateTemplate.from_dict(data["template"])
            outcome = store.add_template(
                data["name"], template, data["set"],
                replace=bool(data.get("replace")) or
                data["name"] in store.templates())
            if not outcome.certified:
                # certify() is deterministic over (template, set); a
                # journaled registration that no longer certifies means
                # the journals disagree with themselves.
                raise JournalError(
                    f"journaled template {data['name']!r} (lsn "
                    f"{data['lsn']}) failed re-certification against set "
                    f"{data['set']!r} during recovery")
        elif kind == "submit":
            name = data["doc"]
            ops = tuple(op_from_dict(d) for d in data["ops"])
            try:
                enforcer = store.enforcer(name, data["set"])
                decisions = enforcer.replay(ops)
            except Exception as err:
                raise JournalError(
                    f"replay of journaled submission (lsn {data['lsn']}) "
                    f"for document {name!r} failed: {err}") from err
            report.decisions_replayed += len(decisions)
            counter = self._next_id.get(name, 1)
            for op in ops:
                if isinstance(op, AddLeaf) and op.nid is not None:
                    counter = max(counter, op.nid + 1)
            self._next_id[name] = counter
            self._since_checkpoint[name] = (
                self._since_checkpoint.get(name, 0) + 1)
        elif kind == "certified":
            name = data["doc"]
            ops = tuple(op_from_dict(d) for d in data["ops"])
            try:
                template, _ = store.template(data["template"], data["set"])
                enforcer = store.enforcer(name, data["set"])
                decisions = enforcer.apply_certified(
                    template, bindings_from_wire(data["bindings"]), ops=ops)
            except Exception as err:
                raise JournalError(
                    f"replay of journaled certified submission (lsn "
                    f"{data['lsn']}) for document {name!r} failed: "
                    f"{err}") from err
            report.decisions_replayed += len(decisions)
            counter = self._next_id.get(name, 1)
            for op in ops:
                if isinstance(op, AddLeaf) and op.nid is not None:
                    counter = max(counter, op.nid + 1)
            self._next_id[name] = counter
            self._since_checkpoint[name] = (
                self._since_checkpoint.get(name, 0) + 1)
        elif kind == "restore":
            name = data["doc"]
            try:
                constraints = store.constraints(data["set"])
            except ServiceError as err:
                raise JournalError(
                    f"checkpoint for document {name!r} names constraint "
                    f"set {data['set']!r} which the journals do not "
                    f"register: {err}") from None
            enforcer = StreamEnforcer.restore(constraints, data["state"])
            store.adopt_stream(name, data["set"], enforcer)
            self._next_id[name] = int(data.get("next_id", 1))
            self._since_checkpoint[name] = 0
            if name not in report.documents:
                report.documents.append(name)
        else:
            raise JournalError(f"unknown journal record kind {kind!r}")

    # ------------------------------------------------------------------
    # Lifecycle and fault hooks
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """fsync every open journal handle (used with ``fsync=False``)."""
        for path, handle in self._handles.items():
            started = perf_counter()
            os.fsync(handle.fileno())
            self._m_fsync.observe(perf_counter() - started)
            self._synced[path] = self._sizes.get(path, 0)

    def simulate_power_loss(self) -> None:
        """Model the kill-between-fsync window: un-fsync'd bytes vanish.

        The fault harness calls this after a
        :class:`~repro.server.faults.SimulatedCrash` to make the on-disk
        state exactly what a power cut at that instant could leave:
        every journal truncated back to its last fsync'd offset.  The
        journal object is closed (the "process" died).
        """
        for path, handle in list(self._handles.items()):
            handle.close()
            # A compaction may have atomically replaced the file with a
            # *smaller* durable one after the last tracked fsync; never
            # "restore" past the real end (truncate would zero-pad).
            synced = min(self._synced.get(path, 0), path.stat().st_size)
            with open(path, "ab") as repair:
                repair.truncate(synced)
        self._handles.clear()
        self._closed = True

    def close(self) -> None:
        """Flush and close every handle (idempotent)."""
        if self._closed:
            return
        for handle in self._handles.values():
            if self.fsync:
                os.fsync(handle.fileno())
            handle.close()
        self._handles.clear()
        self._closed = True

    def __enter__(self) -> "ServerJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ServerJournal({str(self.root)!r}, fsync={self.fsync}, "
                f"checkpoint_every={self.checkpoint_every}, "
                f"next_lsn={self._lsn})")


__all__ = ["ServerJournal", "RecoveryReport"]

"""Batched constraint checking over a fleet of documents.

A :class:`FleetEvaluator` adopts *many* small documents under **one**
shared compiled constraint set and checks them together: every
constraint range is evaluated for the whole fleet in one kernel call
(:class:`~repro.masks.base.FleetKernel`), baselines are packed into
backend mask rows, and the per-constraint compares run row-wise across
all documents at once.  With the numpy backend the entire check is a
handful of array ops; with the big-int backend it is exactly the
per-document semantics of the enforcement stream — decisions are
checksum-identical across backends by construction and pinned by the
Hypothesis cross-backend suite.

Writes arrive in *epochs*: :meth:`submit_epoch` applies a batch of
operations across any subset of the fleet, runs **one** batched check,
and rolls back every violating document through its undo journal (the
pre-epoch state was valid, so a rollback needs no re-check).  Between
epochs each document's baseline masks are delta-maintained through the
shared :class:`~repro.masks.baseline.MaskedBaseline` /
:class:`~repro.trees.index.EditDelta` patch path — the same machinery
the per-op stream uses, at fleet granularity.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterable, Mapping, Sequence

from repro.obs import COUNT_BUCKETS, MetricsRegistry
from repro.obs import registry as _obs_registry
from repro.constraints.model import (
    ConstraintSet,
    ConstraintType,
    UpdateConstraint,
    constraint_set,
)
from repro.constraints.validity import BaselineValidity, Violation
from repro.errors import StreamError, TreeError
from repro.masks.base import MaskBackend, MaskMatrix
from repro.masks.baseline import MaskedBaseline, diff_violation
from repro.stream.ops import UPDATE_OPS, StreamOp
from repro.trees.tree import DataTree
from repro.xpath.ast import Pattern, normalize
from repro.xpath.bitset import BitsetEvaluator

_FOLD = 1_000_003
_MOD = 2 ** 61


def _crc(text: str) -> int:
    return zlib.crc32(text.encode())


def _violation_code(violation: Violation) -> int:
    """Machine-independent fold of one witness (ids, labels, constraint)."""
    constraint = violation.constraint
    code = _crc(f"{constraint.range}|{constraint.type.value}")
    for salt, nodes in ((3, violation.removed), (7, violation.inserted)):
        code = (code * _FOLD + salt + len(nodes)) % _MOD
        for nid, label in sorted((n.nid, n.label) for n in nodes):
            code = (code * _FOLD + nid * 31 + _crc(label)) % _MOD
    return code


@dataclass(frozen=True)
class FleetReport:
    """One batched validity check over the whole fleet.

    ``violations`` holds witnesses for violating documents only (keyed
    by document position); ``checksum`` folds every document's verdict
    and witness set in fleet order — identical across backends and
    machines for the same fleet state.
    """

    backend: str
    docs: int
    constraints: int
    violating: tuple[int, ...]
    violations: Mapping[int, tuple[Violation, ...]]
    checksum: int

    @property
    def ok(self) -> bool:
        return not self.violating

    def __str__(self) -> str:
        return (f"fleet check [{self.backend}]: {self.docs} docs x "
                f"{self.constraints} constraints, "
                f"{len(self.violating)} violating")


@dataclass(frozen=True)
class EpochReport:
    """One write epoch: what was applied, what was rolled back.

    ``rejected`` documents violated the policy and were rolled back to
    their pre-epoch state; ``structural`` documents never finished
    applying (a structurally invalid op — unknown node, root move —
    rejects the document's whole epoch, message recorded).  ``checksum``
    folds the epoch's per-document outcomes, witnesses included.
    """

    epoch: int
    edited: tuple[int, ...]
    rejected: tuple[int, ...]
    structural: Mapping[int, str]
    violations: Mapping[int, tuple[Violation, ...]]
    checksum: int

    @property
    def accepted(self) -> tuple[int, ...]:
        bad = set(self.rejected)
        return tuple(d for d in self.edited if d not in bad)

    def __str__(self) -> str:
        return (f"epoch {self.epoch}: {len(self.edited)} docs edited, "
                f"{len(self.accepted)} accepted, "
                f"{len(self.rejected)} rolled back")


class _FleetDoc:
    """One adopted document: its tree, live snapshot and baselines."""

    __slots__ = ("name", "tree", "ctx", "masked")

    def __init__(self, name: str, tree: DataTree,
                 constraints: ConstraintSet):
        self.name = name
        self.tree = tree
        self.ctx = BitsetEvaluator.for_tree(tree)
        checker = BaselineValidity(constraints, tree, context=self.ctx)
        self.masked = MaskedBaseline(checker, self.ctx)


class FleetEvaluator:
    """Thousands of small documents, one shared constraint set.

    Parameters:
        constraints: the shared policy (any :func:`constraint_set` form).
        trees: the documents — **adopted** and mutated in place by
            epochs, exactly like handing each to a stream enforcer.
        backend: a :class:`~repro.masks.base.MaskBackend`, a backend
            name (``"bigint"`` / ``"numpy"``), or ``None`` for the
            environment-driven default (:func:`repro.masks.get_backend`).
        names: optional per-document names for reports (defaults to
            ``doc0``, ``doc1``, …).
        metrics: the registry epoch timings and counters land in
            (``None`` = the process-global :func:`repro.obs.registry`;
            pass :data:`repro.obs.NULL` to disable).
    """

    def __init__(self,
                 constraints: ConstraintSet | Iterable[UpdateConstraint],
                 trees: Sequence[DataTree], *,
                 backend: MaskBackend | str | None = None,
                 names: Sequence[str] | None = None,
                 metrics: MetricsRegistry | None = None):
        if not isinstance(constraints, ConstraintSet):
            constraints = constraint_set(*constraints)
        constraints.require_concrete()
        trees = list(trees)
        if not trees:
            raise ValueError("a fleet needs at least one document")
        if len({id(tree) for tree in trees}) != len(trees):
            raise ValueError("a fleet adopts each document once; the same "
                             "tree object appears twice")
        if names is None:
            names = [f"doc{i}" for i in range(len(trees))]
        elif len(names) != len(trees):
            raise ValueError(f"{len(names)} names for {len(trees)} documents")
        if isinstance(backend, MaskBackend):
            self._backend = backend
        else:
            from repro.masks import get_backend
            self._backend = get_backend(backend)
        self._constraints = constraints
        self._docs = [_FleetDoc(name, tree, constraints)
                      for name, tree in zip(names, trees)]
        self._kernel = self._backend.kernel([fd.ctx for fd in self._docs])
        # One canonical range per constraint, deduplicated in order: one
        # kernel sweep per distinct range per check, like the stream's
        # masked baseline.
        self._range_of: list[Pattern] = [normalize(c.range)
                                         for c in constraints]
        self._ranges: list[Pattern] = list(dict.fromkeys(self._range_of))
        self._epoch = 0
        self._checksum = 0
        self._last_report: FleetReport | None = None
        m = metrics if metrics is not None else _obs_registry()
        name = self._backend.name
        self._m_check = m.histogram("fleet.check_seconds", backend=name)
        self._m_apply = m.histogram("fleet.apply_seconds", backend=name)
        self._m_epochs = m.counter("fleet.epochs_total", backend=name)
        self._m_docs_edited = m.counter("fleet.docs_edited_total",
                                        backend=name)
        self._m_docs_rejected = m.counter("fleet.docs_rejected_total",
                                          backend=name)
        self._m_docs_per_epoch = m.histogram("fleet.docs_per_epoch",
                                             buckets=COUNT_BUCKETS,
                                             backend=name)

    # ------------------------------------------------------------------
    # State surface
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return self._backend.name

    @property
    def constraints(self) -> ConstraintSet:
        return self._constraints

    @property
    def size(self) -> int:
        return len(self._docs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(fd.name for fd in self._docs)

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def checksum(self) -> int:
        """Running fold of every epoch report's checksum, in order."""
        return self._checksum

    def tree(self, doc: int) -> DataTree:
        return self._docs[doc].tree

    def answer_rows(self, pattern: Pattern) -> list[int]:
        """``q(root, J_d)`` for every document, as big-int masks (the
        cross-backend test oracle)."""
        matrix = self._kernel.evaluate(normalize(pattern))
        return self._backend.unpack_rows(matrix)

    # ------------------------------------------------------------------
    # The batched check
    # ------------------------------------------------------------------
    def check(self, *, force: bool = False) -> FleetReport:
        """One batched validity verdict for the whole fleet.

        Clean fleets return the cached report; ``force=True`` re-runs
        the sweeps and compares regardless (the benchmark's serving
        cost).
        """
        if self._last_report is not None and not force:
            return self._last_report
        check_started = perf_counter()
        backend = self._backend
        kernel = self._kernel
        swept: dict[Pattern, MaskMatrix] = {
            r: kernel.evaluate(r) for r in self._ranges}
        words = kernel.words
        entries = [fd.masked.entries() for fd in self._docs]
        per_doc: dict[int, list[Violation]] = {}
        for k, constraint in enumerate(self._constraints):
            base_rows = [doc_entries[k][2] for doc_entries in entries]
            base = backend.pack_rows(base_rows, words)
            answers = swept[self._range_of[k]]
            if constraint.type is ConstraintType.NO_REMOVE:
                diff = backend.and_not(base, answers)
                bad = set(backend.nonzero_rows(diff))
                bad.update(d for d, doc_entries in enumerate(entries)
                           if doc_entries[k][3])
            else:
                diff = backend.and_not(answers, base)
                bad = set(backend.nonzero_rows(diff))
            for d in sorted(bad):
                _, labels, base_mask, missing = entries[d][k]
                violation = diff_violation(
                    constraint, labels, base_mask, missing,
                    backend.row_int(answers, d), self._docs[d].ctx.index)
                if violation is not None:  # pragma: no cover - diff found
                    per_doc.setdefault(d, []).append(violation)
        violating = tuple(sorted(per_doc))
        report = FleetReport(
            backend=backend.name, docs=len(self._docs),
            constraints=len(self._constraints), violating=violating,
            violations={d: tuple(vs) for d, vs in per_doc.items()},
            checksum=self._fold_check(per_doc))
        self._last_report = report
        self._m_check.observe(perf_counter() - check_started)
        return report

    def _fold_check(self, per_doc: Mapping[int, list[Violation]]) -> int:
        total = 1
        for d in range(len(self._docs)):
            violations = per_doc.get(d, ())
            total = (total * _FOLD + 9176 + len(violations)) % _MOD
            for violation in violations:
                total = (total * _FOLD + _violation_code(violation)) % _MOD
        return total

    def violations(self, doc: int) -> tuple[Violation, ...]:
        """One document's standing witnesses (the per-doc reference path)."""
        return self._docs[doc].masked.violations()

    # ------------------------------------------------------------------
    # Write epochs
    # ------------------------------------------------------------------
    def submit_epoch(self, edits: Mapping[int, Sequence[StreamOp]]
                     ) -> EpochReport:
        """Apply a batch of per-document operations, check once, roll
        back violating documents.

        ``edits`` maps document position to that document's operations
        for this epoch, applied in order.  Epochs *are* the transaction
        brackets — begin/commit/rollback markers are a
        :class:`~repro.errors.StreamError`.  A structurally invalid op
        rejects its document's whole epoch immediately (applied prefix
        undone); all other edited documents are checked together and
        violating ones rolled back to their pre-epoch state.
        """
        self._epoch += 1
        self._m_epochs.inc()
        edited = tuple(sorted(edits))
        self._m_docs_edited.inc(len(edited))
        self._m_docs_per_epoch.observe(float(len(edited)))
        apply_started = perf_counter()
        journals: dict[int, list[tuple[Any, ...]]] = {}
        structural: dict[int, str] = {}
        for doc in edited:
            if not 0 <= doc < len(self._docs):
                raise ValueError(f"no document at position {doc} "
                                 f"(fleet of {len(self._docs)})")
            journal: list[tuple[Any, ...]] = []
            ctx = self._docs[doc].ctx
            try:
                for op in edits[doc]:
                    if not isinstance(op, UPDATE_OPS):
                        raise StreamError(
                            f"epochs are the fleet's transaction brackets; "
                            f"marker {op!r} is not a fleet operation")
                    self._last_report = None
                    self._kernel.invalidate(doc)
                    journal.append(ctx.perform(op))
            except TreeError as err:
                self._undo(doc, journal)
                structural[doc] = f"structural error: {err}"
                continue
            journals[doc] = journal
        self._m_apply.observe(perf_counter() - apply_started)
        if journals:
            self._last_report = None
        report = self.check()
        violations: dict[int, tuple[Violation, ...]] = {}
        rejected: list[int] = []
        for doc in report.violating:
            violations[doc] = report.violations[doc]
            self._undo(doc, journals.get(doc, []))
            rejected.append(doc)
        rejected.extend(structural)
        self._m_docs_rejected.inc(len(rejected))
        if report.violating:
            # The rollbacks restored a valid fleet; the next check must
            # not serve the pre-rollback verdicts.
            self._last_report = None
        epoch_report = EpochReport(
            epoch=self._epoch, edited=edited,
            rejected=tuple(sorted(rejected)), structural=structural,
            violations=violations,
            checksum=self._fold_epoch(edited, rejected, structural,
                                      violations))
        self._checksum = (self._checksum * _FOLD
                          + epoch_report.checksum) % _MOD
        return epoch_report

    def _fold_epoch(self, edited: tuple[int, ...], rejected: list[int],
                    structural: Mapping[int, str],
                    violations: Mapping[int, tuple[Violation, ...]]) -> int:
        bad = set(rejected)
        total = (self._epoch * 8191 + len(edited)) % _MOD
        for doc in edited:
            total = (total * _FOLD + doc * 2 + (doc in bad)) % _MOD
            for violation in violations.get(doc, ()):
                total = (total * _FOLD + _violation_code(violation)) % _MOD
            note = structural.get(doc)
            if note is not None:
                total = (total * _FOLD + _crc(note)) % _MOD
        return total

    def _undo(self, doc: int, journal: Sequence[tuple[Any, ...]]) -> None:
        self._kernel.invalidate(doc)
        self._docs[doc].ctx.undo(journal)

    def __repr__(self) -> str:
        return (f"FleetEvaluator({len(self._docs)} docs, "
                f"{len(self._constraints)} constraints, "
                f"backend={self.backend}, epoch {self._epoch})")


__all__ = ["FleetEvaluator", "FleetReport", "EpochReport"]

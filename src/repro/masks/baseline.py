"""Per-constraint baseline answer *masks*, delta-maintained.

The per-op fast path of the bitset engine, shared by the single-document
:class:`~repro.stream.engine.StreamEnforcer` and the batched
:class:`~repro.masks.fleet.FleetEvaluator`: the frozen baseline answer
set of each constraint is mirrored as a slot mask over the live
snapshot, patched from the same :class:`~repro.trees.index.EditDelta`
log as the predicate masks — relocations move bits, deletions drop them
into a per-constraint *missing* ledger, and a revived node (the rollback
journal's re-add) re-earns its bit iff it carries its baseline label, so
the mask always marks exactly the baseline answer nodes present in the
document as their baseline ``(id, label)`` selves.  The cumulative check
then degenerates to mask compares — ``q_c(J_now)``'s sweep mask against
the baseline mask — and node sets are only materialised when a diff (an
actual witness) exists.  Verdicts and witnesses are bit-identical to
:class:`~repro.constraints.validity.BaselineValidity` (the Hypothesis
stream-equivalence suite pins this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.constraints.model import ConstraintType, UpdateConstraint
from repro.constraints.validity import BaselineValidity, Violation
from repro.masks.bigint import slots_of
from repro.trees.node import Node
from repro.xpath.ast import Pattern

if TYPE_CHECKING:  # the bitset module imports this package at runtime
    from repro.xpath.bitset import BitsetEvaluator

#: One synced per-constraint entry: ``(constraint, {id: baseline label},
#: present-nodes slot mask, missing-node ids)``.
BaselineEntry = tuple[UpdateConstraint, dict[int, str], int, set[int]]


class MaskedBaseline:
    """Delta-maintained baseline masks over one live snapshot."""

    __slots__ = ("_ctx", "_revision", "_entries")

    def __init__(self, checker: BaselineValidity, ctx: "BitsetEvaluator"):
        self._ctx = ctx
        idx = ctx.index
        self._revision = idx.revision
        # Per constraint: [constraint, {id: baseline label}, mask, missing].
        # Iterates the constraint *list*, not the answers dict — duplicated
        # constraints must keep reporting duplicated witnesses, exactly
        # like the generic checker.
        base_answers = checker.baseline_answers()
        self._entries: list[list[Any]] = [
            [constraint, {node.nid: node.label
                          for node in base_answers[constraint]}, 0, set()]
            for constraint in checker.constraints]
        # A freshly opened stream has every baseline node present; a
        # *restored* one may not — no-insert baseline nodes removed since
        # the stream opened start life in the missing ledger.
        self._rebuild()

    def sync(self) -> None:
        """Catch the masks up with the snapshot's applied edits."""
        idx = self._ctx.index
        rev = idx.revision
        if rev == self._revision:
            return
        deltas = idx.deltas_since(self._revision)
        self._revision = rev
        if deltas is None:
            self._rebuild()
            return
        for entry in self._entries:
            _, labels, mask, missing = entry
            revived: set[int] = set()
            for delta in deltas:
                for nid, _ in delta.vanished:
                    if nid in labels:
                        missing.add(nid)
                mask = delta.patch_mask(mask)
                for nid in delta.added:
                    if nid in missing:
                        revived.add(nid)
            for nid in revived:
                if nid in idx and idx.label(nid) == labels[nid]:
                    mask |= 1 << idx.pre(nid)
                    missing.discard(nid)
            entry[2] = mask

    _sync = sync  # the historical internal name, kept for callers

    def _rebuild(self) -> None:
        """Anchor every mask from ids: at open, and whenever the delta log
        no longer reaches back (past its horizon, or across a root
        re-space)."""
        idx = self._ctx.index
        for entry in self._entries:
            _, labels, _, missing = entry
            present: list[int] = []
            missing.clear()
            for nid, label in labels.items():
                if nid in idx and idx.label(nid) == label:
                    present.append(idx.pre(nid))
                else:
                    missing.add(nid)
            entry[2] = idx.pack_slots(present)

    def entries(self) -> list[BaselineEntry]:
        """The synced per-constraint entries, in constraint order.

        The fleet evaluator packs the masks into backend rows and runs
        the compares itself; the labels dict and missing ledger are what
        witness materialisation needs on a diff.
        """
        self.sync()
        return [(entry[0], entry[1], entry[2], entry[3])
                for entry in self._entries]

    def violations(self) -> tuple[Violation, ...]:
        self.sync()
        ctx = self._ctx
        idx = ctx.index
        found: list[Violation] = []
        # One sweep per *distinct* range per call: a policy stating both
        # directions over one range (the immutability pair) must not pay
        # for the answer mask twice.
        swept: dict[Pattern, int] = {}
        for constraint, labels, base_mask, missing in self._entries:
            answer_mask = swept.get(constraint.range)
            if answer_mask is None:
                answer_mask = ctx.evaluate_mask(constraint.range)
                swept[constraint.range] = answer_mask
            violation = diff_violation(constraint, labels, base_mask,
                                       missing, answer_mask, idx)
            if violation is not None:
                found.append(violation)
        return tuple(found)


def diff_violation(constraint: UpdateConstraint, labels: dict[int, str],
                   base_mask: int, missing: set[int], answer_mask: int,
                   idx: Any) -> Violation | None:
    """One constraint's verdict from its baseline/answer mask pair.

    The shared witness-materialisation kernel of the per-op and fleet
    checks: ``None`` when the constraint holds, otherwise a
    :class:`Violation` whose node sets are decoded from the diff bits
    (and, for no-remove, the missing ledger) only.
    """
    if constraint.type is ConstraintType.NO_REMOVE:
        lost = base_mask & ~answer_mask
        if not lost and not missing:
            return None
        removed = {Node(nid, labels[nid]) for nid in missing}
        node_at = idx.node_at
        for s in slots_of(lost):
            nid = node_at(s)
            removed.add(Node(nid, labels[nid]))
        return Violation(constraint, frozenset(removed), frozenset())
    extra = answer_mask & ~base_mask
    if not extra:
        return None
    node_at = idx.node_at
    inserted = {idx.node(node_at(s)) for s in slots_of(extra)}
    return Violation(constraint, frozenset(), frozenset(inserted))


__all__ = ["MaskedBaseline", "BaselineEntry", "diff_violation"]

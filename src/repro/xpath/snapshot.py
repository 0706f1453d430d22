"""Shared session plumbing of the snapshot-backed evaluators.

:class:`repro.xpath.indexed.IndexedEvaluator` (node-at-a-time) and
:class:`repro.xpath.bitset.BitsetEvaluator` (set-at-a-time) differ only in
*how* they answer a query against a :class:`~repro.trees.index.TreeIndex`;
everything around that — snapshot coercion and identity, the revision
tracking that keeps memos honest across in-place index edits, the
``apply_*`` passthroughs, the edit/undo journal (:meth:`~SnapshotEvaluator.
perform` / :meth:`~SnapshotEvaluator.undo`) every enforcement engine rolls
back through, and process-wide canonicalisation — is this base class,
so a fix to the session machinery cannot drift between substrates.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Self

from repro.caching import LRUMemo
from repro.errors import StreamError, TreeError
from repro.trees.index import TreeIndex
from repro.trees.node import Node
from repro.trees.tree import DataTree
from repro.xpath.ast import Pattern, Pred, normalize, normalize_preds

if TYPE_CHECKING:
    from repro.stream.ops import StreamOp

CANON_MEMO_SIZE = 8192   # syntactic -> canonical forms (tree-independent)

# Edit/undo journal entry tags (inverse edits, replayed newest-first).
_UNDO_MOVE = "move"      # (tag, nid, old_parent)
_UNDO_UNADD = "unadd"    # (tag, nid)
_UNDO_REVIVE = "revive"  # (tag, ((nid, parent, label), ...) preorder)

# Canonical forms are pure functions of the pattern — share them across
# every evaluator in the process instead of re-normalising per snapshot.
_GLOBAL_CANON_PREDS = LRUMemo(CANON_MEMO_SIZE)
_GLOBAL_CANON_PATTERNS = LRUMemo(CANON_MEMO_SIZE)


class SnapshotEvaluator:
    """A pattern-evaluation session pinned to one tree snapshot.

    Subclasses implement :meth:`evaluate_ids` / :meth:`matches_at` (calling
    :meth:`_sync` first) and :meth:`_drop_revision_memos`; every answer
    must be bit-identical to the naive evaluator on the same tree.
    """

    __slots__ = ("_index", "_revision", "_canon", "_canon_patterns")

    def __init__(self, snapshot: TreeIndex | DataTree):
        if isinstance(snapshot, DataTree):
            snapshot = TreeIndex(snapshot)
        self._index = snapshot
        self._revision = snapshot.revision
        self._canon = _GLOBAL_CANON_PREDS
        self._canon_patterns = _GLOBAL_CANON_PATTERNS

    @classmethod
    def for_tree(cls, tree: DataTree) -> Self:
        return cls(TreeIndex(tree))

    @property
    def index(self) -> TreeIndex:
        return self._index

    @property
    def tree(self) -> DataTree:
        return self._index.tree

    def covers(self, tree: DataTree) -> bool:
        """Usable as a fast path for ``tree``?  (Same object, unmutated.)"""
        return self._index.covers(tree)

    # ------------------------------------------------------------------
    # Incremental edits (tree + snapshot move together)
    # ------------------------------------------------------------------
    def apply_move(self, nid: int, new_parent: int) -> None:
        self._index.apply_move(nid, new_parent)

    def apply_add_leaf(self, parent: int, label: str,
                       nid: int | None = None) -> int:
        return self._index.apply_add_leaf(parent, label, nid=nid)

    def apply_remove_subtree(self, nid: int) -> None:
        self._index.apply_remove_subtree(nid)

    def apply_add_subtree(self, spec: Sequence[tuple[int, int, str]]
                          ) -> None:
        self._index.apply_add_subtree(spec)

    # ------------------------------------------------------------------
    # The edit/undo journal (one mechanism for every enforcement engine)
    # ------------------------------------------------------------------
    def perform(self, op: "StreamOp") -> tuple:
        """Apply one stream update op through the snapshot; return its
        inverse entry for :meth:`undo`.

        A move records the old parent, an add the leaf to re-remove, a
        remove the doomed subtree's preorder spec — revived by one
        :meth:`apply_add_subtree` edit, so an undo costs one edit per
        journal entry whatever the subtree's size.  Raises
        :class:`~repro.errors.TreeError` with nothing applied on a
        structurally illegal op.
        """
        # Imported here: repro.stream's package imports this module.
        from repro.stream.ops import AddLeaf, Move, RemoveSubtree
        if isinstance(op, AddLeaf):
            nid = self.apply_add_leaf(op.parent, op.label, nid=op.nid)
            return (_UNDO_UNADD, nid)
        tree = self._index.tree
        if isinstance(op, Move):
            old_parent = tree.parent(op.nid)
            if old_parent is None:
                raise TreeError("cannot move the root")
            self.apply_move(op.nid, op.new_parent)
            return (_UNDO_MOVE, op.nid, old_parent)
        if isinstance(op, RemoveSubtree):
            if op.nid not in tree:
                raise TreeError(f"node {op.nid} not in tree")
            spec = tuple((n, tree.parent(n), tree.label(n))
                         for n in tree.descendants(op.nid, include_self=True))
            self.apply_remove_subtree(op.nid)
            return (_UNDO_REVIVE, spec)
        raise StreamError(f"unknown stream operation {op!r}")

    def undo(self, inverses: Sequence[tuple]) -> None:
        """Replay :meth:`perform` inverses newest-first (an undone move
        finds the gap the original left; a revived subtree is one
        :meth:`apply_add_subtree` edit)."""
        for entry in reversed(inverses):
            tag = entry[0]
            if tag == _UNDO_MOVE:
                self.apply_move(entry[1], entry[2])
            elif tag == _UNDO_UNADD:
                self.apply_remove_subtree(entry[1])
            else:
                self.apply_add_subtree(entry[1])

    def _sync(self) -> None:
        """Drop revision-bound memos after an in-place index edit."""
        rev = self._index.revision
        if rev != self._revision:
            self._revision = rev
            self._drop_revision_memos()

    def _drop_revision_memos(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Canonicalisation (tree-independent, survives revision bumps)
    # ------------------------------------------------------------------
    def _canonical(self, pred: Pred) -> Pred:
        canon = self._canon.get(pred)
        if canon is None:
            canon = normalize_preds((pred,))[0]
            self._canon.put(pred, canon)
        return canon

    def _canonical_pattern(self, pattern: Pattern) -> Pattern:
        canon = self._canon_patterns.get(pattern)
        if canon is None:
            canon = normalize(pattern)
            self._canon_patterns.put(pattern, canon)
        return canon

    # ------------------------------------------------------------------
    # Query surface shared by every substrate
    # ------------------------------------------------------------------
    def evaluate_ids(self, pattern: Pattern,
                     start: int | None = None) -> set[int]:  # pragma: no cover
        raise NotImplementedError

    def evaluate(self, pattern: Pattern, start: int | None = None) -> set[Node]:
        """``q(n, I)`` as ``(id, label)`` pairs, exactly like the naive path."""
        idx = self._index
        return {idx.node(nid) for nid in self.evaluate_ids(pattern, start)}

    def selects(self, pattern: Pattern, nid: int) -> bool:
        """Is node ``nid`` in ``q(I)``?"""
        return nid in self.evaluate_ids(pattern)


__all__ = ["SnapshotEvaluator", "CANON_MEMO_SIZE"]

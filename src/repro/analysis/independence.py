"""Static constraint–update independence analysis.

The stream engine re-checks the cumulative edit after every operation,
but most traffic in realistic workloads lands in constraint-irrelevant
regions of the document — the case the type-based query–update
independence line (Bidoit/Colazzo/Ulliana) and FLUX's static update
typechecking decide at compile time.  This module is the repo's version
of that analysis, specialised to the fragment ``XP{/,[],//,*}`` and the
three-op update algebra of :mod:`repro.stream.ops`.

For each :class:`~repro.constraints.model.UpdateConstraint` ``(q, σ)`` we
compile a conservative :class:`ImpactSignature` along three dimensions:

**Op kinds.**  Tree patterns are monotone: adding a node can only create
matches, deleting a subtree can only destroy them, and a move can do
both.  Starting from a *currently valid* cumulative pair ``(I₀, J)``:

* an :class:`~repro.stream.ops.AddLeaf` can never invalidate a
  ``NO_REMOVE`` constraint (its baseline answers stay matched), and
* a :class:`~repro.stream.ops.RemoveSubtree` can never invalidate a
  ``NO_INSERT`` constraint (``q(J)`` only shrinks below ``q(I₀)``);

so each constraint type is sensitive to exactly two op kinds.

**Labels.**  Every node of a match embeds a pattern node, so it carries a
label from the pattern's *label alphabet* (:func:`repro.xpath.ast.
label_alphabet`); a wildcard anywhere widens the alphabet to ⊤.  An edit
whose touched labels — the new leaf's label, or the labels occurring in
the moved/removed subtree — miss the alphabet can neither create nor
destroy matches.

**Regions.**  Every match is contained in the subtree of the node its
first spine step maps to (:func:`repro.xpath.canonical.spine_anchor`).
The nodes passing the first step's test form the constraint's *anchor
frontier* on the live :class:`~repro.trees.index.TreeIndex`, and the
preorder intervals below them are the only regions where the answer can
change.  An edit entirely outside the frontier — and unable to create a
new anchor (a fresh root child for ``/``-anchored patterns, a fresh node
carrying the anchor label for ``//``-anchored ones) — is independent
even when its labels intersect the alphabet.

The whole-set :class:`IndependenceIndex` inverts the signatures into an
``(op kind × label)`` table for O(1) per-op candidate lookup, and the
:class:`IndependenceAnalyzer` binds the index to a live tree snapshot:
``analyzer.independent(op)`` returns True only when, *given the
cumulative edit is currently valid*, applying ``op`` provably cannot
change any constraint's verdict or witnesses.  The stream engine gates
its zero-work fast path on exactly that precondition; the Hypothesis
equivalence suite pins decision streams bit-identical to full checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.constraints.model import (
    ConstraintSet,
    ConstraintType,
    UpdateConstraint,
)
from repro.stream.ops import AddLeaf, Move, RemoveSubtree, StreamOp
from repro.trees.index import TreeIndex
from repro.xpath.ast import Axis, label_alphabet
from repro.xpath.canonical import spine_anchor

# Op-kind keys (the wire tags of repro.stream.ops).
KIND_ADD = "add-leaf"
KIND_MOVE = "move"
KIND_REMOVE = "remove-subtree"

# Which op kinds can invalidate a currently-valid pair, per constraint
# type (the monotonicity argument in the module docstring).
_KINDS_OF_TYPE: dict[ConstraintType, frozenset[str]] = {
    ConstraintType.NO_REMOVE: frozenset((KIND_MOVE, KIND_REMOVE)),
    ConstraintType.NO_INSERT: frozenset((KIND_ADD, KIND_MOVE)),
}


@dataclass(frozen=True)
class ImpactSignature:
    """What one constraint is sensitive to, conservatively.

    ``labels is None`` encodes ⊤ (the range contains a wildcard, so any
    label may participate in a match).  ``first_axis``/``first_label``
    describe the range's first spine step — the anchor frontier the
    region dimension is derived from at lookup time, against the live
    snapshot.
    """

    constraint: UpdateConstraint
    kinds: frozenset[str]
    labels: frozenset[str] | None
    first_axis: Axis
    first_label: str | None

    @property
    def is_top(self) -> bool:
        """True when the label dimension is ⊤ (wildcard in the range)."""
        return self.labels is None

    def region_anchors(self, index: TreeIndex) -> list[int] | None:
        """The anchor frontier on ``index`` — nodes whose subtrees can
        contain matches.  ``None`` means the whole tree (``//*``-style
        first steps anchor anywhere)."""
        if self.first_axis is Axis.DESC:
            if self.first_label is None:
                return None
            return index.minimal_cover(
                index.nodes_with_label(self.first_label))
        root = index.root
        if self.first_label is None:
            return list(index.children(root))
        return [c for c in index.children(root)
                if index.label(c) == self.first_label]

    def __str__(self) -> str:
        labels = "⊤" if self.labels is None else \
            "{" + ",".join(sorted(self.labels)) + "}"
        kinds = ",".join(sorted(self.kinds))
        return f"{self.constraint}: kinds[{kinds}] labels{labels}"


def impact_signature(constraint: UpdateConstraint) -> ImpactSignature:
    """Compile one constraint's conservative impact signature."""
    axis, label = spine_anchor(constraint.range)
    return ImpactSignature(
        constraint=constraint,
        kinds=_KINDS_OF_TYPE[constraint.type],
        labels=label_alphabet(constraint.range),
        first_axis=axis,
        first_label=label,
    )


class IndependenceIndex:
    """Whole-set inversion of the signatures: ``(op kind × label)`` →
    possibly-impacted signatures, for O(1) per-op candidate lookup.

    Signatures whose label dimension is ⊤ cannot be excluded by any
    label, so they are kept in a per-kind side table consulted on every
    lookup (their region dimension still prunes at analysis time).
    """

    __slots__ = ("_signatures", "_by_key", "_top", "_probe_labels")

    def __init__(self, constraints: ConstraintSet | Iterable[UpdateConstraint]):
        if not isinstance(constraints, ConstraintSet):
            constraints = ConstraintSet(constraints)
        self._signatures = tuple(impact_signature(c) for c in constraints)
        by_key: dict[tuple[str, str], list[ImpactSignature]] = {}
        top: dict[str, list[ImpactSignature]] = {
            KIND_ADD: [], KIND_MOVE: [], KIND_REMOVE: []}
        probe: set[str] = set()
        for sig in self._signatures:
            if sig.labels is None:
                for kind in sig.kinds:
                    top[kind].append(sig)
            else:
                probe.update(sig.labels)
                for kind in sig.kinds:
                    for label in sig.labels:
                        by_key.setdefault((kind, label), []).append(sig)
            # Anchor labels of ⊤ signatures still matter to the subtree
            # probes of move/remove (a moved anchor relocates matches).
            if sig.first_label is not None:
                probe.add(sig.first_label)
        self._by_key: dict[tuple[str, str], tuple[ImpactSignature, ...]] = {
            key: tuple(sigs) for key, sigs in by_key.items()}
        self._top: dict[str, tuple[ImpactSignature, ...]] = {
            kind: tuple(sigs) for kind, sigs in top.items()}
        self._probe_labels = frozenset(probe)

    @property
    def signatures(self) -> tuple[ImpactSignature, ...]:
        return self._signatures

    @property
    def probe_labels(self) -> frozenset[str]:
        """Labels worth probing for inside a moved/removed subtree."""
        return self._probe_labels

    def lookup(self, kind: str, label: str) -> tuple[ImpactSignature, ...]:
        """Signatures possibly impacted by a ``kind`` op touching
        ``label`` — one dict probe plus the ⊤ side table."""
        keyed = self._by_key.get((kind, label), ())
        return keyed + self._top.get(kind, ())

    def candidates(self, kind: str,
                   labels: Iterable[str]) -> tuple[ImpactSignature, ...]:
        """Deduplicated union of :meth:`lookup` over several labels."""
        found: dict[int, ImpactSignature] = {
            id(sig): sig for sig in self._top.get(kind, ())}
        by_key = self._by_key
        for label in labels:
            for sig in by_key.get((kind, label), ()):
                found[id(sig)] = sig
        return tuple(found.values())

    def stats(self) -> dict[str, int]:
        """Shape of the compiled index (exposed through the service)."""
        return {
            "signatures": len(self._signatures),
            "keys": len(self._by_key),
            "wildcard": sum(1 for s in self._signatures if s.is_top),
        }

    def __len__(self) -> int:
        return len(self._signatures)

    def __repr__(self) -> str:
        stats = self.stats()
        return (f"IndependenceIndex({stats['signatures']} signatures, "
                f"{stats['keys']} keys, {stats['wildcard']} ⊤)")


class IndependenceAnalyzer:
    """The compiled index bound to one live tree snapshot.

    :meth:`independent` must be consulted *before* the edit is applied
    (region tests walk the pre-edit structure) and its verdict is only
    meaningful under the caller-guaranteed precondition that the
    cumulative edit is currently valid — the stream engine's fast-path
    gate.  Any op the analyzer cannot place (unknown nodes, the root) is
    conservatively reported dependent; the engine's structural validation
    then produces the exact same rejection it always did.
    """

    __slots__ = ("_index", "_tree")

    def __init__(self, index: IndependenceIndex, tree_index: TreeIndex):
        self._index = index
        self._tree = tree_index

    @property
    def index(self) -> IndependenceIndex:
        return self._index

    @property
    def tree_index(self) -> TreeIndex:
        return self._tree

    # ------------------------------------------------------------------
    # Region tests (walk up from the edit point)
    # ------------------------------------------------------------------
    def _in_region(self, sig: ImpactSignature, nid: int) -> bool:
        """Is ``nid`` inside the signature's anchor frontier?

        The frontier's subtrees contain ``nid`` iff one of its
        ancestors-or-self is an anchor, so the test walks up instead of
        materialising the frontier: a ``//L`` anchor matches when some
        node on the walk carries ``L``, a ``/L`` anchor when the root
        child on the walk does.  The walk is the snapshot's memoised path
        word (:meth:`~repro.trees.index.TreeIndex.path_labels`) — O(depth)
        per edit point and revision, with no per-revision frontier cache.
        """
        idx = self._tree
        label = sig.first_label
        if sig.first_axis is Axis.DESC:
            return (label is None or idx.label(idx.root) == label
                    or label in idx.path_labels(nid))
        path = idx.path_labels(nid)
        return bool(path) and (label is None or path[0] == label)

    # ------------------------------------------------------------------
    # Per-op verdicts
    # ------------------------------------------------------------------
    def independent(self, op: StreamOp) -> bool:
        """Provably unable to change any constraint's verdict, given the
        cumulative edit is currently valid?"""
        if isinstance(op, AddLeaf):
            return self._add_independent(op)
        if isinstance(op, Move):
            return self._move_independent(op)
        if isinstance(op, RemoveSubtree):
            return self._remove_independent(op)
        return False  # markers always take the engine's marker paths

    def _add_independent(self, op: AddLeaf) -> bool:
        idx = self._tree
        if op.parent not in idx:
            return False
        sigs = self._index.lookup(KIND_ADD, op.label)
        if not sigs:
            return True
        root = idx.root
        for sig in sigs:
            # Inside an anchor subtree: the new leaf may witness a match.
            if self._in_region(sig, op.parent):
                return False
            # Outside every anchor — but could the leaf itself become one?
            if sig.first_axis is Axis.DESC:
                if sig.first_label is None or op.label == sig.first_label:
                    return False
            elif op.parent == root and (sig.first_label is None
                                        or op.label == sig.first_label):
                return False
        return True

    def _move_independent(self, op: Move) -> bool:
        idx = self._tree
        if op.nid not in idx or op.new_parent not in idx or op.nid == idx.root:
            return False
        present = self._present_labels(op.nid)
        sigs = self._index.candidates(KIND_MOVE, present)
        if not sigs:
            return True
        root = idx.root
        for sig in sigs:
            # Leaving or entering an anchor subtree changes its contents.
            if (self._in_region(sig, op.nid)
                    or self._in_region(sig, op.new_parent)):
                return False
            if not self._subtree_clear_of_anchors(sig, op.nid, present):
                return False
            # A move to the root can mint a '/'-anchored frontier node.
            if (sig.first_axis is Axis.CHILD and op.new_parent == root
                    and (sig.first_label is None
                         or idx.label(op.nid) == sig.first_label)):
                return False
        return True

    def _remove_independent(self, op: RemoveSubtree) -> bool:
        idx = self._tree
        if op.nid not in idx or op.nid == idx.root:
            return False
        present = self._present_labels(op.nid)
        sigs = self._index.candidates(KIND_REMOVE, present)
        if not sigs:
            return True
        for sig in sigs:
            if self._in_region(sig, op.nid):
                return False
            if not self._subtree_clear_of_anchors(sig, op.nid, present):
                return False
        return True

    def _present_labels(self, nid: int) -> list[str]:
        """Probe labels occurring in the subtree at ``nid`` (self incl.)."""
        idx = self._tree
        own = idx.label(nid)
        return [label for label in self._index.probe_labels
                if label == own
                or idx.count_descendants_with_label(label, nid) > 0]

    def _subtree_clear_of_anchors(self, sig: ImpactSignature, nid: int,
                                  present: list[str]) -> bool:
        """No potential anchor of ``sig`` inside the subtree at ``nid``?

        ``//``-anchored signatures anchor at any node carrying the anchor
        label, so relocating or deleting such a node relocates or deletes
        a whole match region.  (``/``-anchored frontiers are root
        children; a root child's own interval is part of the region, so
        the caller's region test already covers them.)
        """
        if sig.first_axis is not Axis.DESC:
            return True
        if sig.first_label is None:
            return False
        return sig.first_label not in present

    def __repr__(self) -> str:
        return (f"IndependenceAnalyzer({self._index!r}, "
                f"|J|={self._tree.size}, rev {self._tree.revision})")


__all__ = [
    "ImpactSignature", "IndependenceIndex", "IndependenceAnalyzer",
    "impact_signature", "KIND_ADD", "KIND_MOVE", "KIND_REMOVE",
]

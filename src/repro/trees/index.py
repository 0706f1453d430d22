"""Interval-encoded snapshots of data trees: the :class:`TreeIndex` kernel.

The paper's instance-level algorithms (Theorems 5.4/5.5) are polynomial in
``|J|``, but the naive :class:`~repro.trees.tree.DataTree` substrate answers
``descendants()`` by re-walking the tree, ``is_ancestor`` in O(depth) and
label lookups by full scans — so repeated pattern evaluation over one
instance (the workload of every Table 2 engine and of a bound
:class:`repro.api.session.BoundReasoner`) pays a quadratic-ish tax.

A :class:`TreeIndex` encodes one tree into flat lookup structures:

* an Euler-tour **pre/post interval numbering** over *gapped slots* —
  ``is_ancestor`` and descendant-interval membership become two integer
  comparisons, and the subtree of any node occupies a contiguous slot
  interval;
* a **label index**: label → slots of the nodes carrying it, sorted by
  construction, so "descendants of ``n`` labelled ``a``" is one ``bisect``
  pair instead of a subtree scan;
* per-node **depth** and **path-label** arrays (the node *words* consumed by
  the linear-fragment engines);
* **bitset views** (:meth:`label_mask`, :meth:`all_mask`,
  :meth:`subtree_mask`) — node-sets as Python ``int`` masks keyed by slot,
  the substrate of the set-at-a-time
  :class:`repro.xpath.bitset.BitsetEvaluator`;
* the canonical shape/hash of the snapshot, computed by the shared
  iterative (non-recursive) hasher.

Incremental maintenance
-----------------------
Slots are allocated with gaps (``SLOT_GAP`` per node at build time), so the
snapshot survives small edits *in place*: :meth:`apply_move`,
:meth:`apply_add_leaf`, :meth:`apply_add_subtree` (one edit reviving a
whole removed subtree) and :meth:`apply_remove_subtree` mutate the tree
**and** the index together, renumbering only the smallest enclosing subtree
whose interval still has room (a weight-balanced host search; the root is
re-spaced with fresh gaps when nothing smaller fits — a rebuild, counted
by :attr:`rebuild_count`).  This is what lets
the move/undo journals of the refutation search
(:mod:`repro.instance.search`, :func:`repro.instance.no_remove_engine.
merge_variants`) keep one live snapshot across thousands of candidate
pasts instead of rebinding per candidate.

Every applied edit bumps :attr:`revision` — evaluators key their memos on
it — appends an :class:`EditDelta` to a bounded log (:meth:`deltas_since`),
from which the set-at-a-time evaluator *patches* its cached predicate masks
instead of recomputing them (only the ancestor chains of the edit points
can change downward structure; a root re-space resets the log instead, so
consumers recompute cold), and re-syncs the recorded tree
:attr:`~repro.trees.tree.DataTree.version`, so :attr:`fresh` stays true.  Mutating the tree *behind* the
index (directly through :class:`DataTree` methods) still stales it, exactly
as before: an index never observes mutations it did not apply.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

from repro.errors import TreeError
from repro.trees.node import Node
from repro.trees.tree import DataTree, iter_canonical_shape

SLOT_GAP = 8       # slots allocated per node at (re)build time
HOST_DENSITY = 2   # a renumber host needs >= DENSITY * nodes slots of width
DELTA_LOG_CAP = 64  # edit deltas retained for delta-maintained consumers

_BIT = tuple(1 << b for b in range(8))  # byte-view membership test masks
_CLEAR = tuple(0xFF ^ b for b in _BIT)  # byte-view bit-clear masks


class EditDelta:
    """Compact record of one applied edit, for delta-maintained consumers.

    Under a single edit only the *ancestor chains* of the edit points can
    change their downward structure — every other surviving node keeps its
    whole subtree, so any downward-looking fact cached about it (predicate
    satisfaction, notably) transfers verbatim to its new slot.  A delta
    therefore carries exactly what a mask maintainer needs:

    * ``relocated`` — ``(nid, old_slot, new_slot)`` for every surviving
      node whose slot changed (the moved subtree, plus the renumbered host
      subtree when the fast attach found no room);
    * ``vanished`` — ``(nid, old_slot)`` for every deleted node (remove
      only; the id lets baseline-mask maintainers recognise a later
      revival of the same node);
    * ``added`` — identifiers of freshly attached nodes (add-leaf and
      add-subtree);
    * ``dirty`` — identifiers whose *subtree contents* changed: the
      ancestor chains of the old and new attachment points.  This set is
      upward closed, which is what makes patching sound for nested
      predicates.
    """

    __slots__ = ("revision", "relocated", "vanished", "added", "dirty")

    def __init__(self, revision: int,
                 relocated: tuple[tuple[int, int, int], ...],
                 vanished: tuple[tuple[int, int], ...],
                 added: tuple[int, ...],
                 dirty: tuple[int, ...]):
        self.revision = revision
        self.relocated = relocated
        self.vanished = vanished
        self.added = added
        self.dirty = dirty

    def patch_mask(self, mask: int) -> int:
        """Re-key a slot mask across this edit: relocated bits move to
        their new slots, vanished bits drop.

        The one shared kernel of every delta-maintained mask (predicate
        masks, baseline answer masks): moved bit values are read from the
        *pre-clear* mask — a new slot may reuse a slot freed in this same
        edit — and callers replay chained deltas oldest-first so slot
        reuse across edits resolves in order.  Old bits are read through
        one byte view and new bits written into one ``bytearray``, so a
        patch costs O(k + width/8) instead of one big-int shift per
        relocated bit.
        """
        relocated = self.relocated
        vanished = self.vanished
        if not mask or not (relocated or vanished):
            return mask
        view = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        limit = len(view) << 3
        buf = bytearray(view)
        bits = _BIT
        clear = _CLEAR
        moved: list[int] = []
        for _, old, new in relocated:
            if old < limit and view[old >> 3] & bits[old & 7]:
                buf[old >> 3] &= clear[old & 7]
                moved.append(new)
        for _, old in vanished:
            if old < limit:
                buf[old >> 3] &= clear[old & 7]
        if moved:
            top = (max(moved) >> 3) + 1
            if top > len(buf):
                buf.extend(bytes(top - len(buf)))
            for new in moved:
                buf[new >> 3] |= bits[new & 7]
        return int.from_bytes(buf, "little")

    def __repr__(self) -> str:
        return (f"EditDelta(rev={self.revision}, moved={len(self.relocated)}, "
                f"gone={len(self.vanished)}, added={len(self.added)}, "
                f"dirty={len(self.dirty)})")


class TreeIndex:
    """An interval-encoded view of one :class:`DataTree`.

    Frozen with respect to *foreign* mutations (anything done directly to
    the tree), updatable in place through the ``apply_*`` methods.
    """

    __slots__ = ("_tree", "_built_version", "_root", "_slot", "_post",
                 "_slots", "_node_at", "_depth", "_labels", "_children",
                 "_parent", "_by_label", "_paths", "_shape", "_shape_hash",
                 "_revision", "_rebuilds", "_label_masks", "_all_mask",
                 "_kids_masks", "_parent_slots", "_delta_log", "_capture",
                 "_respaced")

    def __init__(self, tree: DataTree):
        self._tree = tree
        self._built_version = tree.version
        self._root = tree.root
        # One iterative Euler tour builds every structure at once.
        slot: dict[int, int] = {}
        post: dict[int, int] = {}
        depth: dict[int, int] = {tree.root: 0}
        slots: list[int] = []
        node_at: dict[int, int] = {}
        by_label: dict[str, list[int]] = {}
        labels: dict[int, str] = {}
        children: dict[int, tuple[int, ...]] = {}
        parent: dict[int, int | None] = {tree.root: None}
        tree_children = tree.children
        tree_label = tree.label
        stack: list[int] = [tree.root]
        while stack:
            nid = stack.pop()
            s = len(slots) * SLOT_GAP
            slot[nid] = s
            slots.append(s)
            node_at[s] = nid
            label = tree_label(nid)
            labels[nid] = label
            bucket = by_label.get(label)
            if bucket is None:
                by_label[label] = [s]
            else:
                bucket.append(s)
            kids = tree_children(nid)
            children[nid] = kids
            if kids:
                child_depth = depth[nid] + 1
                for child in reversed(kids):
                    depth[child] = child_depth
                    parent[child] = nid
                    stack.append(child)
        # Preorder places a node's last child's subtree at the end of its
        # interval, so one reversed pass closes every interval.
        for s in reversed(slots):
            nid = node_at[s]
            kids = children[nid]
            post[nid] = post[kids[-1]] if kids else slot[nid]
        self._slot = slot
        self._post = post
        self._slots = slots
        self._node_at = node_at
        self._depth = depth
        self._labels = labels
        self._children = children
        self._parent = parent
        self._by_label = by_label
        self._paths: dict[int, tuple[str, ...]] = {tree.root: ()}
        self._shape: tuple | None = None
        self._shape_hash: int | None = None
        self._revision = 0
        self._rebuilds = 0
        self._label_masks: dict[str | None, int] = {}
        self._all_mask: int | None = None
        self._kids_masks: dict[int, int] = {}
        self._parent_slots: dict[int, int] | None = None
        self._delta_log: list[EditDelta] = []
        self._capture: dict[int, int] | None = None
        self._respaced = False

    # ------------------------------------------------------------------
    # Snapshot identity
    # ------------------------------------------------------------------
    @property
    def tree(self) -> DataTree:
        return self._tree

    @property
    def root(self) -> int:
        return self._root

    @property
    def size(self) -> int:
        return len(self._slots)

    @property
    def fresh(self) -> bool:
        """Does the snapshot still describe its tree exactly?"""
        return self._tree.version == self._built_version

    @property
    def revision(self) -> int:
        """Bumped by every applied edit — evaluators key their memos on it."""
        return self._revision

    @property
    def rebuild_count(self) -> int:
        """How many edits fell back to a full renumber (observability)."""
        return self._rebuilds

    def covers(self, tree: DataTree) -> bool:
        """Is this a fresh snapshot of ``tree`` (identity, not equality)?"""
        return tree is self._tree and self.fresh

    def __contains__(self, nid: int) -> bool:
        return nid in self._slot

    # ------------------------------------------------------------------
    # O(1) structure lookups
    # ------------------------------------------------------------------
    def label(self, nid: int) -> str:
        try:
            return self._labels[nid]
        except KeyError:
            raise TreeError(f"node {nid} not in snapshot") from None

    def node(self, nid: int) -> Node:
        return Node(nid, self.label(nid))

    def children(self, nid: int) -> tuple[int, ...]:
        try:
            return self._children[nid]
        except KeyError:
            raise TreeError(f"node {nid} not in snapshot") from None

    def parent(self, nid: int) -> int | None:
        try:
            return self._parent[nid]
        except KeyError:
            raise TreeError(f"node {nid} not in snapshot") from None

    def depth(self, nid: int) -> int:
        try:
            return self._depth[nid]
        except KeyError:
            raise TreeError(f"node {nid} not in snapshot") from None

    def pre(self, nid: int) -> int:
        """Document-order (Euler-tour) slot of ``nid``.

        Slots are gapped, so consecutive nodes differ by more than one —
        only the *order* and the interval containments are meaningful.
        """
        return self._slot[nid]

    def node_at(self, slot: int) -> int:
        """The node occupying ``slot`` (KeyError on free slots)."""
        return self._node_at[slot]

    def interval(self, nid: int) -> tuple[int, int]:
        """``[pre, post]`` — slot interval of the subtree at ``nid``."""
        return self._slot[nid], self._post[nid]

    def is_ancestor(self, anc: int, nid: int) -> bool:
        """Strict ancestry in O(1): interval containment."""
        return self._slot[anc] < self._slot[nid] <= self._post[anc]

    def in_subtree(self, nid: int, anchor: int) -> bool:
        """Is ``nid`` in the subtree rooted at ``anchor`` (self included)?"""
        return self._slot[anchor] <= self._slot[nid] <= self._post[anchor]

    def mask_export(self) -> tuple[list[int], list[int], list[str],
                                   list[int]]:
        """Flat preorder arrays for the fleet mask kernels.

        Returns ``(pres, posts, labels, parent_pos)``, all aligned by
        preorder position: the node's gapped slot (its mask bit), its
        subtree-closing slot, its label, and the preorder *position* of
        its parent (``-1`` for the root).  Positions rather than ids keep
        the export id-free — an array backend gathers through positions
        and only maps back to ids (via :meth:`node_at` on the slot) when
        a witness must be materialised.
        """
        slots = self._slots
        node_at = self._node_at
        parent = self._parent
        post = self._post
        labels = self._labels
        pos: dict[int, int] = {}
        nids: list[int] = []
        for i, s in enumerate(slots):
            nid = node_at[s]
            nids.append(nid)
            pos[nid] = i
        posts = [post[n] for n in nids]
        labs = [labels[n] for n in nids]
        parent_pos = [-1 if (p := parent[n]) is None else pos[p]
                      for n in nids]
        return list(slots), posts, labs, parent_pos

    def path_labels(self, nid: int) -> tuple[str, ...]:
        """Labels on the root-to-``nid`` path (root excluded) — the *word*
        of the node; memoised via the parent chain, O(n) total."""
        cached = self._paths.get(nid)
        if cached is not None:
            return cached
        chain: list[int] = []
        cur: int | None = nid
        while cur is not None and cur not in self._paths:
            chain.append(cur)
            cur = self._parent.get(cur)
        if cur is None and chain:
            raise TreeError(f"node {nid} not in snapshot")
        for node in reversed(chain):
            par = self._parent[node]
            assert par is not None
            self._paths[node] = self._paths[par] + (self._labels[node],)
        return self._paths[nid]

    # ------------------------------------------------------------------
    # Indexed candidate enumeration
    # ------------------------------------------------------------------
    def node_ids(self) -> tuple[int, ...]:
        """All nodes in document (preorder) order."""
        node_at = self._node_at
        return tuple(node_at[s] for s in self._slots)

    def labels(self) -> set[str]:
        """The label alphabet of the snapshot (root label included)."""
        return {label for label, bucket in self._by_label.items() if bucket}

    def nodes_with_label(self, label: str) -> list[int]:
        """All nodes carrying ``label``, document order."""
        node_at = self._node_at
        return [node_at[s] for s in self._by_label.get(label, ())]

    def descendants(self, nid: int, include_self: bool = False) -> list[int]:
        """Strict descendants as a contiguous slice of the slot array."""
        slots = self._slots
        lo = bisect_left(slots, self._slot[nid]) + (0 if include_self else 1)
        hi = bisect_right(slots, self._post[nid], lo=max(lo, 0))
        node_at = self._node_at
        return [node_at[s] for s in slots[lo:hi]]

    def descendants_with_label(self, label: str, anchor: int) -> list[int]:
        """Strict descendants of ``anchor`` labelled ``label``.

        Two bisections on the label's sorted slots — O(log n + answer)
        instead of scanning the whole subtree.
        """
        pres = self._by_label.get(label)
        if not pres:
            return []
        lo = bisect_right(pres, self._slot[anchor])
        hi = bisect_right(pres, self._post[anchor], lo=lo)
        node_at = self._node_at
        return [node_at[s] for s in pres[lo:hi]]

    def count_descendants_with_label(self, label: str, anchor: int) -> int:
        """Cardinality of :meth:`descendants_with_label`, O(log n)."""
        pres = self._by_label.get(label)
        if not pres:
            return 0
        lo = bisect_right(pres, self._slot[anchor])
        return bisect_right(pres, self._post[anchor], lo=lo) - lo

    def minimal_cover(self, nids: Iterable[int]) -> list[int]:
        """Drop every node lying in another given node's subtree.

        The survivors' descendant intervals are disjoint and cover exactly
        the union of the inputs' intervals — the right anchor set for a
        ``//`` step over a whole frontier.
        """
        survivors: list[int] = []
        covered = -1
        for nid in sorted(nids, key=self._slot.__getitem__):
            if self._slot[nid] > covered:
                survivors.append(nid)
                covered = self._post[nid]
        return survivors

    # ------------------------------------------------------------------
    # Bitset views (node-sets as int masks keyed by slot)
    # ------------------------------------------------------------------
    def pack_slots(self, slots: Iterable[int]) -> int:
        """Fold an iterable of slots into one int mask (byte-buffer fold).

        O(width/8 + len(slots)) — the churn-free way to build a mask,
        instead of one big-int ``|= 1 << slot`` allocation per member.
        """
        top = self._slots[-1] if self._slots else 0
        buf = bytearray((top >> 3) + 1)
        size = len(buf)
        for s in slots:
            i = s >> 3
            if i >= size:  # rare: packing slots beyond the current maximum
                buf.extend(bytes(i + 1 - size))
                size = i + 1
            buf[i] |= 1 << (s & 7)
        return int.from_bytes(buf, "little")

    def all_mask(self) -> int:
        """Mask with one bit per occupied slot (cached per revision)."""
        mask = self._all_mask
        if mask is None:
            mask = self._all_mask = self.pack_slots(self._slots)
        return mask

    def label_mask(self, label: str | None) -> int:
        """Mask of the nodes carrying ``label`` (``None`` = every node)."""
        if label is None:
            return self.all_mask()
        mask = self._label_masks.get(label)
        if mask is None:
            mask = self.pack_slots(self._by_label.get(label, ()))
            self._label_masks[label] = mask
        return mask

    def children_mask(self, nid: int) -> int:
        """Mask of ``nid``'s children (cached per revision)."""
        mask = self._kids_masks.get(nid)
        if mask is None:
            slot = self._slot
            mask = self.pack_slots([slot[c] for c in self._children[nid]])
            self._kids_masks[nid] = mask
        return mask

    def parent_slots(self) -> dict[int, int]:
        """``slot -> parent's slot`` for every non-root node (cached per
        revision) — the one-hop substrate of the whole-set step primitives."""
        table = self._parent_slots
        if table is None:
            parent = self._parent
            slot = self._slot
            node_at = self._node_at
            root = self._root
            table = {}
            for s in self._slots:
                nid = node_at[s]
                if nid != root:
                    table[s] = slot[parent[nid]]  # type: ignore[index]
            self._parent_slots = table
        return table

    def parents_mask(self, target: int, label: str | None = None) -> int:
        """Mask of parents of the ``target`` nodes — one whole-set hop up.

        ``label`` must be the label whose bucket covers every bit of
        ``target`` (pass ``None`` when the target is not label-homogeneous);
        it restricts the scan to that bucket's slot list.
        """
        up = self.parent_slots()
        bucket = self.label_slots(label)
        if target == self.label_mask(label):
            # Common leaf-predicate case: every bucket member qualifies.
            return self.pack_slots({up[s] for s in bucket if s in up})
        view = target.to_bytes((target.bit_length() + 7) >> 3, "little")
        limit = len(view) << 3
        bits = _BIT
        out: set[int] = set()
        add = out.add
        for s in bucket:
            if s < limit and view[s >> 3] & bits[s & 7] and s in up:
                add(up[s])
        return self.pack_slots(out)

    def ancestors_mask(self, target: int, label: str | None = None) -> int:
        """Mask of strict ancestors of the ``target`` nodes.

        Marked-ancestor early exit: every tree edge is climbed at most
        once per call, so the whole-set closure costs O(n) amortised.
        ``label`` restricts the scan exactly as in :meth:`parents_mask`.
        """
        up = self.parent_slots()
        bucket = self.label_slots(label)
        seen: set[int] = set()
        add = seen.add
        if target == self.label_mask(label):
            sources = bucket
        else:
            view = target.to_bytes((target.bit_length() + 7) >> 3, "little")
            limit = len(view) << 3
            bits = _BIT
            sources = [s for s in bucket
                       if s < limit and view[s >> 3] & bits[s & 7]]
        get = up.get
        for s in sources:
            cur = get(s)
            while cur is not None and cur not in seen:
                add(cur)
                cur = get(cur)
        return self.pack_slots(seen)

    def child_step_mask(self, frontier: int, test: int,
                        label: str | None = None) -> int:
        """One ``/`` step over a whole frontier: nodes passing ``test``
        whose parent is in ``frontier`` — byte-view membership tests over
        the label's slot list, no per-bit big-int arithmetic."""
        up = self.parent_slots()
        tview = test.to_bytes((test.bit_length() + 7) >> 3, "little")
        tlimit = len(tview) << 3
        fview = frontier.to_bytes((frontier.bit_length() + 7) >> 3, "little")
        flimit = len(fview) << 3
        bits = _BIT
        keep: list[int] = []
        append = keep.append
        get = up.get
        for s in self.label_slots(label):
            if s >= tlimit or not tview[s >> 3] & bits[s & 7]:
                continue
            ps = get(s)
            if ps is not None and ps < flimit and fview[ps >> 3] & bits[ps & 7]:
                append(s)
        return self.pack_slots(keep)

    def label_slots(self, label: str | None) -> list[int]:
        """Occupied slots carrying ``label`` (every slot for ``None``), as a
        sorted list — the iterable twin of :meth:`label_mask`."""
        if label is None:
            return self._slots
        return self._by_label.get(label, [])

    def subtree_mask(self, nid: int, include_self: bool = False) -> int:
        """Raw interval mask of the subtree at ``nid``.

        Covers the *slot range* — gap bits included — so intersect with
        :meth:`all_mask` or a label mask before treating bits as nodes.
        """
        lo = self._slot[nid] + (0 if include_self else 1)
        hi = self._post[nid]
        if lo > hi:
            return 0
        return ((1 << (hi - lo + 1)) - 1) << lo

    # ------------------------------------------------------------------
    # Incremental maintenance (tree + index mutate together)
    # ------------------------------------------------------------------
    def _bump(self) -> None:
        """Close out one applied edit: new revision, caches re-keyed.

        The bitset caches (label/all/children masks, parent-slot table) are
        *patched* by the edit paths rather than dropped (a root re-space
        excepted), so the refutation search's journals pay per-edit cost
        proportional to the renumbered region, not to the tree.
        """
        self._revision += 1
        self._built_version = self._tree.version
        self._paths = {self._root: ()}
        self._shape = None
        self._shape_hash = None

    def _chain(self, nid: int) -> list[int]:
        """``nid`` and its ancestors up to the root (post-edit pointers)."""
        out: list[int] = []
        cur: int | None = nid
        parent = self._parent
        while cur is not None:
            out.append(cur)
            cur = parent[cur]
        return out

    def _log_delta(self, capture: dict[int, int],
                   vanished: tuple[tuple[int, int], ...],
                   added: tuple[int, ...],
                   dirty_anchors: tuple[int, ...]) -> None:
        """Record the edit just closed by :meth:`_bump` in the delta log
        (or reset the log, when the edit re-spaced the root)."""
        log = self._delta_log
        if self._respaced:
            self._respaced = False
            log.clear()
            return
        slot = self._slot
        relocated = tuple((n, old, now) for n, old in capture.items()
                          if (now := slot.get(n)) is not None and now != old)
        dirty: dict[int, None] = dict.fromkeys(added)
        for anchor in dirty_anchors:
            for n in self._chain(anchor):
                dirty[n] = None
        log.append(EditDelta(self._revision, relocated, vanished, added,
                             tuple(dirty)))
        if len(log) > DELTA_LOG_CAP:
            del log[:len(log) - DELTA_LOG_CAP]

    def deltas_since(self, revision: int) -> list[EditDelta] | None:
        """The deltas taking ``revision`` to the current one, oldest first.

        ``None`` when the log no longer reaches back that far — the caller
        must recompute from scratch.  Empty list when already current.
        """
        span = self._revision - revision
        if span == 0:
            return []
        if span < 0 or span > len(self._delta_log):
            return None
        return self._delta_log[-span:]

    def _detach_subtree(self, nid: int) -> list[int]:
        """Remove the subtree's slots from every slot structure.

        Returns the subtree's nodes in document order.  Structural maps
        (labels/parent/children/depth) are left to the caller; the bitset
        caches are patched in place.
        """
        lo, hi = self._slot[nid], self._post[nid]
        slots = self._slots
        i = bisect_left(slots, lo)
        j = bisect_right(slots, hi, lo=i)
        removed = slots[i:j]
        del slots[i:j]
        node_at = self._node_at
        parent_slots = self._parent_slots
        kids_masks = self._kids_masks
        capture = self._capture
        nodes: list[int] = []
        gone_by_label: dict[str, list[int]] = {}
        for s in removed:
            n = node_at.pop(s)
            nodes.append(n)
            if capture is not None:
                # First detach wins: a host renumber re-detaches nodes the
                # edit already relocated, and their *original* slot is the
                # one a delta consumer must clear.
                capture.setdefault(n, s)
            gone_by_label.setdefault(self._labels[n], []).append(s)
            del self._slot[n]
            del self._post[n]
            if parent_slots is not None:
                parent_slots.pop(s, None)
            kids_masks.pop(n, None)
        label_masks = self._label_masks
        for label, gone in gone_by_label.items():
            bucket = self._by_label[label]
            a = bisect_left(bucket, lo)
            b = bisect_right(bucket, hi, lo=a)
            del bucket[a:b]
            mask = label_masks.get(label)
            if mask is not None:
                label_masks[label] = mask ^ self.pack_slots(gone)
        if self._all_mask is not None and removed:
            self._all_mask ^= self.pack_slots(removed)
        return nodes

    def _fix_posts_upward(self, start: int | None) -> None:
        """Re-close intervals from ``start`` up, stopping once unchanged."""
        a = start
        while a is not None:
            new_post = self._slot[a]
            for c in self._children[a]:
                pc = self._post[c]
                if pc > new_post:
                    new_post = pc
            if self._post[a] == new_post:
                break
            self._post[a] = new_post
            a = self._parent[a]

    def _subtree_slot_count(self, nid: int) -> int:
        """Occupied slots inside ``nid``'s interval (two bisections)."""
        lo = bisect_left(self._slots, self._slot[nid])
        return bisect_right(self._slots, self._post[nid], lo=lo) - lo

    def _find_host(self, anchor: int, extra: int) -> int:
        """Lowest ancestor-or-self of ``anchor`` whose interval can absorb
        ``extra`` more nodes at :data:`HOST_DENSITY`; the root always can
        (its interval is re-spaced on demand)."""
        a = anchor
        while a != self._root:
            width = self._post[a] - self._slot[a] + 1
            if width >= HOST_DENSITY * (self._subtree_slot_count(a) + extra):
                return a
            a = self._parent[a]
        return self._root

    def _renumber_subtree(self, host: int) -> None:
        """Re-spread ``host``'s whole subtree over its slot interval.

        Unslotted nodes hanging off the structural maps (a freshly attached
        subtree) receive slots; ``pre``/``post`` of ``host`` itself are
        preserved.  The root has no interval to keep: it is re-spaced with
        fresh gaps by :meth:`_respace`, the full-rebuild fallback counted
        by :attr:`rebuild_count`."""
        children = self._children
        # New document order of the host subtree, depths refreshed as the
        # walk descends (moved nodes change depth).
        order: list[int] = []
        depth = self._depth
        stack = [host]
        while stack:
            n = stack.pop()
            order.append(n)
            kids = children[n]
            if kids:
                d = depth[n] + 1
                for c in reversed(kids):
                    depth[c] = d
                    stack.append(c)
        if host == self._root:
            self._respace(order)
        else:
            self._relayout(host, order)
        slot_of = self._slot
        post = self._post
        for n in reversed(order):
            kids = children[n]
            post[n] = post[kids[-1]] if kids else slot_of[n]

    def _relayout(self, host: int, order: list[int]) -> None:
        """Spread ``order`` (the host subtree's preorder) evenly over the
        host's own interval, patching every slot structure in place."""
        m = len(order)
        lo, hi = self._slot[host], self._post[host]
        if m == 1:
            new_slots = [lo]
        else:
            step = hi - lo
            new_slots = [lo + (i * step) // (m - 1) for i in range(m)]
        # Drop the old slots of the already-slotted part of the subtree
        # (detached nodes in `order` have none), then slot the new layout.
        self._detach_subtree(host)
        slots = self._slots
        at = bisect_left(slots, lo)
        slots[at:at] = new_slots
        node_at = self._node_at
        slot_of = self._slot
        kids_masks = self._kids_masks
        fresh_by_label: dict[str, list[int]] = {}
        for n, s in zip(order, new_slots, strict=True):
            slot_of[n] = s
            node_at[s] = n
            kids_masks.pop(n, None)
            fresh_by_label.setdefault(self._labels[n], []).append(s)
        label_masks = self._label_masks
        for label, added in fresh_by_label.items():
            bucket = self._by_label.setdefault(label, [])
            a = bisect_left(bucket, lo)
            bucket[a:a] = added  # ascending and disjoint from the rest
            mask = label_masks.get(label)
            if mask is not None:
                label_masks[label] = mask ^ self.pack_slots(added)
        if self._all_mask is not None:
            self._all_mask ^= self.pack_slots(new_slots)
        parent_slots = self._parent_slots
        if parent_slots is not None:
            parent_d = self._parent
            for n in order:
                parent_slots[slot_of[n]] = slot_of[parent_d[n]]  # type: ignore[index]

    def _respace(self, order: list[int]) -> None:
        """Re-lay the whole tree (``order`` = its preorder) on fresh gaps.

        Every slot changes, so this is a rebuild, not an edit: the slot
        maps are laid out anew, the bitset caches dropped (they refill
        lazily) and the delta log reset instead of recording a relocation
        per node — :meth:`deltas_since` then answers ``None`` for every
        earlier revision and consumers take their cold paths.
        """
        self._rebuilds += 1
        slots = [i * SLOT_GAP for i in range(len(order))]
        self._slots = slots
        self._slot = dict(zip(order, slots))
        self._node_at = dict(zip(slots, order))
        labels = self._labels
        by_label: dict[str, list[int]] = {}
        for n, s in zip(order, slots):
            bucket = by_label.get(labels[n])
            if bucket is None:
                by_label[labels[n]] = [s]
            else:
                bucket.append(s)
        self._by_label = by_label
        self._label_masks = {}
        self._all_mask = None
        self._kids_masks = {}
        self._parent_slots = None
        self._respaced = True

    def apply_move(self, nid: int, new_parent: int) -> None:
        """Move ``nid`` under ``new_parent`` in the tree *and* the index.

        The index stays fresh: only the smallest enclosing interval with
        room is renumbered.  Raises :class:`TreeError` (tree and index both
        untouched) on illegal moves, exactly like :meth:`DataTree.move`.
        """
        if nid not in self._slot or new_parent not in self._slot:
            raise TreeError("node not in snapshot")
        self._tree.move(nid, new_parent)  # validates root/cycle first
        old_parent = self._parent[nid]
        assert old_parent is not None
        capture: dict[int, int] = {}
        self._capture = capture
        try:
            detached = self._detach_subtree(nid)
            self._children[old_parent] = tuple(
                c for c in self._children[old_parent] if c != nid)
            self._kids_masks.pop(old_parent, None)
            # Close the old side's intervals while the moved subtree is still
            # fully detached (its nodes have no posts to consult).
            self._fix_posts_upward(old_parent)
            self._children[new_parent] = self._children[new_parent] + (nid,)
            self._kids_masks.pop(new_parent, None)
            self._parent[nid] = new_parent
            if not self._attach_after(new_parent, detached):
                self._renumber_subtree(
                    self._find_host(new_parent, len(detached)))
        finally:
            self._capture = None
        self._bump()
        self._log_delta(capture, vanished=(), added=(),
                        dirty_anchors=(old_parent, new_parent))

    def _attach_after(self, new_parent: int, detached: list[int]) -> bool:
        """Fast attach: compact the detached subtree into the free run right
        after ``new_parent``'s interval end.

        ``detached`` is the subtree in its (unchanged) preorder, so
        consecutive slots are a valid renumbering.  O(k + depth) — this is
        what keeps the search journals' move/undo pairs cheap: an undo finds
        the gap the original move left behind.  Returns False when the free
        run is too short (the caller then renumbers a host subtree).
        """
        k = len(detached)
        old_post = self._post[new_parent]
        slots = self._slots
        i = bisect_right(slots, old_post)
        if i < len(slots) and slots[i] - old_post - 1 < k:
            return False
        new_slots = list(range(old_post + 1, old_post + 1 + k))
        slot_of = self._slot
        node_at = self._node_at
        kids_masks = self._kids_masks
        depth = self._depth
        parent_d = self._parent
        fresh_by_label: dict[str, list[int]] = {}
        for n, s in zip(detached, new_slots, strict=True):
            slot_of[n] = s
            node_at[s] = n
            kids_masks.pop(n, None)
            # Parents precede children in preorder, so depths resolve in
            # one pass even though the whole subtree changed level.
            depth[n] = depth[parent_d[n]] + 1  # type: ignore[index]
            fresh_by_label.setdefault(self._labels[n], []).append(s)
        slots[i:i] = new_slots
        label_masks = self._label_masks
        for label, added in fresh_by_label.items():
            bucket = self._by_label.setdefault(label, [])
            a = bisect_left(bucket, added[0])
            bucket[a:a] = added
            mask = label_masks.get(label)
            if mask is not None:
                label_masks[label] = mask | self.pack_slots(added)
        if self._all_mask is not None:
            self._all_mask |= self.pack_slots(new_slots)
        parent_slots = self._parent_slots
        if parent_slots is not None:
            parent_d = self._parent
            for n in detached:
                parent_slots[slot_of[n]] = slot_of[parent_d[n]]  # type: ignore[index]
        children = self._children
        post = self._post
        for n in reversed(detached):
            kids = children[n]
            post[n] = post[kids[-1]] if kids else slot_of[n]
        top = old_post + k
        a: int | None = new_parent
        while a is not None and self._post[a] == old_post:
            self._post[a] = top
            a = self._parent[a]
        return True

    def apply_add_leaf(self, parent: int, label: str,
                       nid: int | None = None) -> int:
        """Attach a fresh leaf in the tree *and* the index; returns its id.

        Appending after a subtree's end usually finds a free slot in O(log
        n) (the gap a removed sibling left behind — the merge journals'
        revive pattern); otherwise the host renumber kicks in.
        """
        if parent not in self._slot:
            raise TreeError(f"parent {parent} not in snapshot")
        new_id = self._tree.add_child(parent, label, nid=nid)
        self._labels[new_id] = label
        self._parent[new_id] = parent
        self._children[new_id] = ()
        self._children[parent] = self._children[parent] + (new_id,)
        self._attach_new(parent, [new_id])
        return new_id

    def apply_add_subtree(self, spec: Sequence[tuple[int, int, str]]
                          ) -> None:
        """Attach a whole subtree in the tree *and* the index, as ONE edit.

        ``spec`` lists ``(nid, parent, label)`` triples, parents before
        children — a removed subtree's preorder, which is how the
        edit/undo journals revive it.  The first triple's parent must be
        in the snapshot (the new subtree becomes its last child); every
        later parent must be an earlier triple.  All ``k`` nodes are
        slotted by one host search (the freed slot run right after the
        parent's interval, else one host renumber), with one revision
        bump and one :class:`EditDelta` listing the ``k`` ids in
        ``added``.  Raises :class:`TreeError` with tree and index both
        untouched on a malformed spec.
        """
        if not spec:
            raise TreeError("empty subtree spec")
        top = spec[0][1]
        if top not in self._slot:
            raise TreeError(f"parent {top} not in snapshot")
        labels = self._labels
        fresh: dict[int, list[int]] = {}
        for i, (nid, parent, _) in enumerate(spec):
            if nid in labels or nid in fresh:
                raise TreeError(f"node id {nid} already present")
            if i and parent not in fresh:
                raise TreeError(f"parent {parent} of {nid} is not an "
                                f"earlier node of the spec")
            fresh[nid] = []
        add_child = self._tree.add_child
        parent_d = self._parent
        for nid, parent, label in spec:
            add_child(parent, label, nid=nid)
            labels[nid] = label
            parent_d[nid] = parent
            if parent in fresh:
                fresh[parent].append(nid)
        children = self._children
        root = spec[0][0]
        children[top] = children[top] + (root,)
        for nid, kids in fresh.items():
            children[nid] = tuple(kids)
        # Preorder of the new subtree (the spec's own order when it is one).
        order: list[int] = []
        stack = [root]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(reversed(children[n]))
        self._attach_new(top, order)

    def _attach_new(self, parent: int, nodes: list[int]) -> None:
        """Slot freshly attached ``nodes`` (structural maps already set,
        preorder; both placement paths set their depths) under ``parent``
        and close out the edit."""
        self._kids_masks.pop(parent, None)
        capture: dict[int, int] = {}
        if not self._attach_after(parent, nodes):
            self._capture = capture
            try:
                self._renumber_subtree(self._find_host(parent, len(nodes)))
            finally:
                self._capture = None
        self._bump()
        self._log_delta(capture, vanished=(), added=tuple(nodes),
                        dirty_anchors=(parent,))

    def apply_remove_subtree(self, nid: int) -> None:
        """Delete ``nid``'s subtree from the tree *and* the index."""
        if nid not in self._slot:
            raise TreeError(f"node {nid} not in snapshot")
        self._tree.remove_subtree(nid)  # validates (root) first
        parent = self._parent[nid]
        assert parent is not None
        capture: dict[int, int] = {}
        self._capture = capture
        try:
            doomed = self._detach_subtree(nid)
        finally:
            self._capture = None
        self._children[parent] = tuple(
            c for c in self._children[parent] if c != nid)
        self._kids_masks.pop(parent, None)
        for n in doomed:
            del self._labels[n]
            del self._parent[n]
            del self._children[n]
            del self._depth[n]
        self._fix_posts_upward(parent)
        self._bump()
        self._log_delta({}, vanished=tuple(capture.items()), added=(),
                        dirty_anchors=(parent,))

    # ------------------------------------------------------------------
    # Canonical shape (iterative hasher)
    # ------------------------------------------------------------------
    def canonical_shape(self) -> tuple:
        """Canonical shape of the snapshot, iteratively folded and cached."""
        if self._shape is None:
            self._shape = iter_canonical_shape(self._root, self._labels,
                                               self._children)
            self._shape_hash = hash(self._shape)
        return self._shape

    def canonical_hash(self) -> int:
        """Hash of :meth:`canonical_shape` (computed once per snapshot)."""
        if self._shape_hash is None:
            self.canonical_shape()
        assert self._shape_hash is not None
        return self._shape_hash

    def __repr__(self) -> str:
        state = "fresh" if self.fresh else "STALE"
        return (f"TreeIndex(size={self.size}, root={self._root}, "
                f"labels={len(self._by_label)}, rev={self._revision}, "
                f"{state})")


__all__ = ["TreeIndex", "EditDelta", "SLOT_GAP", "HOST_DENSITY",
           "DELTA_LOG_CAP"]

"""Per-edit work proportional to the edit: the footprint kernel.

Four contracts of the incremental snapshot and its consumers:

* reviving a removed subtree is ONE edit (:meth:`TreeIndex.
  apply_add_subtree`): one revision bump, one delta listing every revived
  id, and an index indistinguishable from a fresh rebuild;
* :meth:`EditDelta.patch_mask` (byte-level re-keying) equals the per-bit
  reference, including slots reused inside one delta and new slots above
  the mask's top bit;
* a root re-space is a rebuild: the delta log resets, ``deltas_since``
  answers ``None`` for earlier revisions, and the delta-maintained
  consumers (baseline masks, predicate masks) fall back to a cold
  recompute that equals one from scratch;
* the analyzer's walk-up region test agrees with the interval-frontier
  oracle it replaced.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import IndependenceAnalyzer, IndependenceIndex
from repro.constraints import constraint_set, no_insert, no_remove
from repro.constraints.validity import BaselineValidity
from repro.errors import TreeError
from repro.masks.baseline import MaskedBaseline
from repro.trees import DataTree, TreeIndex
from repro.trees.index import EditDelta
from repro.workloads import random_tree
from repro.xpath import BitsetEvaluator
from repro.xpath.bitset import slots_of
from repro.xpath.evaluator import evaluate_ids, matches_at
from repro.xpath.parser import parse

LABELS = ["a", "b", "c"]

RELAXED = settings(max_examples=60, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def surfaces(index: TreeIndex) -> dict:
    """Every query surface of a snapshot, translated to node ids so two
    snapshots with different slot layouts compare equal iff they answer
    every query alike."""
    nodes = index.node_ids()
    at = index.node_at
    out: dict = {"order": nodes, "shape": index.canonical_shape(),
                 "labels": index.labels(), "size": index.size}
    for nid in nodes:
        out[nid] = (
            index.label(nid), index.parent(nid), index.children(nid),
            index.depth(nid), index.path_labels(nid),
            index.descendants(nid),
            tuple(index.descendants_with_label(label, nid)
                  for label in LABELS),
            tuple(index.count_descendants_with_label(label, nid)
                  for label in LABELS),
            tuple(index.is_ancestor(nid, other) for other in nodes),
            sorted(at(s) for s in slots_of(index.children_mask(nid))),
            sorted(at(s) for s in slots_of(index.subtree_mask(nid)
                                           & index.all_mask())),
        )
    out["label_masks"] = {label: sorted(at(s) for s in
                                        slots_of(index.label_mask(label)))
                          for label in LABELS}
    out["all"] = sorted(at(s) for s in slots_of(index.all_mask()))
    out["parents"] = sorted((at(s), at(p))
                            for s, p in index.parent_slots().items())
    _, _, labels, parent_pos = index.mask_export()
    out["export"] = (labels, parent_pos)
    return out


def warm(index: TreeIndex) -> None:
    """Materialise every patched-not-rebuilt cache before editing."""
    index.all_mask()
    index.parent_slots()
    for label in LABELS:
        index.label_mask(label)
    for nid in index.node_ids():
        index.children_mask(nid)


def scramble(rng: random.Random, index: TreeIndex, edits: int) -> None:
    """Random legal edits, so gaps and slot layout are uneven."""
    tree = index.tree
    for _ in range(edits):
        nodes = list(tree.node_ids())
        nonroot = nodes[1:]
        try:
            roll = rng.random()
            if roll < 0.45 and nonroot:
                index.apply_move(rng.choice(nonroot), rng.choice(nodes))
            elif roll < 0.85:
                index.apply_add_leaf(rng.choice(nodes), rng.choice(LABELS))
            elif nonroot:
                index.apply_remove_subtree(rng.choice(nonroot))
        except TreeError:
            pass


def preorder_spec(tree: DataTree, nid: int) -> tuple:
    return tuple((n, tree.parent(n), tree.label(n))
                 for n in tree.descendants(nid, include_self=True))


# ----------------------------------------------------------------------
# One-edit revival
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=100_000),
       warmed=st.booleans())
@RELAXED
def test_revival_is_one_edit_equal_to_a_fresh_rebuild(seed, warmed):
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(2, 30))
    index = TreeIndex(tree)
    scramble(rng, index, rng.randint(0, 10))
    if warmed:
        warm(index)
    nonroot = list(tree.node_ids())[1:]
    if not nonroot:
        return
    victim = rng.choice(nonroot)
    spec = preorder_spec(tree, victim)
    before = tree.copy()
    index.apply_remove_subtree(victim)
    rev, rebuilds = index.revision, index.rebuild_count
    index.apply_add_subtree(spec)
    assert index.revision == rev + 1
    assert index.fresh
    assert tree.same_instance(before)
    deltas = index.deltas_since(rev)
    if index.rebuild_count == rebuilds:
        assert deltas is not None and len(deltas) == 1
        (delta,) = deltas
        assert delta.added == tuple(n for n, _, _ in spec)
        assert delta.vanished == ()
        # Dirty: the revived nodes, then the attachment chain upward.
        assert set(delta.dirty) == ({n for n, _, _ in spec}
                                    | set(tree.ancestors(victim)))
    else:
        assert deltas is None  # re-spaced the root: a rebuild
    assert surfaces(index) == surfaces(TreeIndex(tree))


def test_large_subtree_revival_takes_one_edit():
    tree = DataTree()
    a = tree.add_child(tree.root, "a")
    hub = tree.add_child(a, "b")
    for i in range(40):
        leaf = tree.add_child(hub, LABELS[i % 3])
        tree.add_child(leaf, "c")
    tree.add_child(tree.root, "c")
    index = TreeIndex(tree)
    spec = preorder_spec(tree, hub)
    index.apply_remove_subtree(hub)
    rev = index.revision
    index.apply_add_subtree(spec)
    (delta,) = index.deltas_since(rev)
    assert len(delta.added) == 81
    assert surfaces(index) == surfaces(TreeIndex(tree))


def test_malformed_specs_leave_tree_and_index_untouched():
    tree = DataTree()
    a = tree.add_child(tree.root, "a")
    b = tree.add_child(a, "b")
    index = TreeIndex(tree)
    snapshot = surfaces(index)
    bad = [
        (),                                      # nothing to attach
        ((9_100_001, 4_242_424, "x"),),          # parent not in snapshot
        ((b, a, "b"),),                          # id already present
        ((9_100_001, a, "x"), (9_100_002, 9_100_003, "y")),  # orphan
        ((9_100_001, a, "x"), (9_100_001, 9_100_001, "y")),  # duplicate
    ]
    for spec in bad:
        with pytest.raises(TreeError):
            index.apply_add_subtree(spec)
    assert index.revision == 0 and index.fresh
    assert surfaces(index) == snapshot


# ----------------------------------------------------------------------
# Byte-level mask re-keying
# ----------------------------------------------------------------------
def per_bit_patch(delta: EditDelta, mask: int) -> int:
    """The reference semantics: one big-int shift per relocated bit."""
    sets = 0
    clear = 0
    for _, old, new in delta.relocated:
        if (mask >> old) & 1:
            sets |= 1 << new
        clear |= 1 << old
    for _, old in delta.vanished:
        clear |= 1 << old
    return (mask & ~clear) | sets


@st.composite
def masks_and_deltas(draw):
    width = draw(st.integers(min_value=1, max_value=400))
    mask = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    olds = draw(st.lists(st.integers(0, width + 16), unique=True,
                         max_size=40))
    # New slots may reuse old ones (a slot freed in the same edit) and
    # may land far above the mask's top bit.
    news = draw(st.lists(st.integers(0, 4 * width + 64), unique=True,
                         min_size=len(olds), max_size=len(olds)))
    gone = draw(st.lists(st.integers(0, width + 16), unique=True,
                         max_size=20))
    relocated = tuple((i, old, new)
                      for i, (old, new) in enumerate(zip(olds, news)))
    vanished = tuple((1000 + i, s) for i, s in enumerate(gone)
                     if s not in olds)
    return mask, EditDelta(1, relocated, vanished, (), ())


@given(case=masks_and_deltas())
@settings(max_examples=300, deadline=None)
def test_patch_mask_matches_the_per_bit_reference(case):
    mask, delta = case
    assert delta.patch_mask(mask) == per_bit_patch(delta, mask)


@pytest.mark.parametrize("mask,relocated,vanished", [
    # Slot 5 is node 2's old slot AND node 1's new slot in one delta.
    (0b101000, ((1, 3, 5), (2, 5, 9)), ()),
    (0b001000, ((1, 3, 5), (2, 5, 9)), ()),
    (0b100000, ((1, 3, 5), (2, 5, 9)), ()),
    # Swap through each other's slots.
    (0b1001, ((1, 0, 3), (2, 3, 0)), ()),
    # New slot far above the mask's top bit; vanished bit dropped.
    (0b1010, ((1, 3, 700),), ((9, 1),)),
    # Empty mask and empty deltas are fixed points.
    (0, ((1, 3, 700),), ((9, 1),)),
    (0b111, (), ()),
])
def test_patch_mask_edge_cases(mask, relocated, vanished):
    delta = EditDelta(1, relocated, vanished, (), ())
    assert delta.patch_mask(mask) == per_bit_patch(delta, mask)


# ----------------------------------------------------------------------
# Root re-space = rebuild
# ----------------------------------------------------------------------
POLICY = (("//a[/b]", "down"), ("/a//c", "up"), ("//b", "up"),
          ("/*[//c]", "down"))
PATTERNS = ("//a[/b]", "/a//c", "//b[//c]", "/*/*[/a]")


def test_root_respace_resets_the_log_and_consumers_recompute_cold():
    rng = random.Random(11)
    tree = random_tree(rng, LABELS, size=60)
    ctx = BitsetEvaluator.for_tree(tree)
    index = ctx.index
    constraints = constraint_set(*POLICY)
    checker = BaselineValidity(constraints, tree, context=ctx)
    masked = MaskedBaseline(checker, ctx)
    patterns = [parse(p) for p in PATTERNS]
    masked.violations()
    for p in patterns:
        ctx.evaluate_ids(p)
        for nid in tree.node_ids():
            ctx.matches_at(p.as_boolean(), nid)
    assert ctx.memo_entries > 0
    # Edits that patch the warm masks, then a burst of adds under one
    # deep node until its host search has to re-space the root.
    scramble(rng, index, 5)
    masked.violations()
    target = max(tree.node_ids(), key=index.depth)
    rebuilds = index.rebuild_count
    prev = index.revision
    while index.rebuild_count == rebuilds:
        prev = index.revision
        index.apply_add_leaf(target, rng.choice(LABELS))
    assert index.deltas_since(prev) is None
    assert index.deltas_since(index.revision) == []
    # An edit after the rebuild is logged against the new layout again.
    index.apply_add_leaf(tree.root, "b")
    assert len(index.deltas_since(index.revision - 1)) == 1
    assert index.deltas_since(prev) is None
    # Consumers synced across the re-space equal a cold recompute.
    cold = MaskedBaseline(checker, ctx)
    assert [entry[2] for entry in masked.entries()] == \
        [entry[2] for entry in cold.entries()]
    assert masked.violations() == tuple(checker.violations(tree))
    for p in patterns:
        assert ctx.evaluate_ids(p) == evaluate_ids(p, tree)
        for nid in tree.node_ids():
            assert ctx.matches_at(p.as_boolean(), nid) == \
                matches_at(p.as_boolean(), tree, nid)


# ----------------------------------------------------------------------
# Walk-up region tests
# ----------------------------------------------------------------------
REGION_POLICY = (
    no_remove("/a/b"), no_remove("//a/b"), no_insert("/*/c"),
    no_insert("//*"), no_remove("//b[/c]"), no_insert("/c//a"),
    no_remove("//root/a"), no_insert("/*"),
)


def interval_oracle(sig, index: TreeIndex, nid: int) -> bool:
    """The frontier as sorted preorder intervals, bisected."""
    anchors = sig.region_anchors(index)
    if anchors is None:
        return True
    intervals = sorted(index.interval(a) for a in anchors)
    starts = [lo for lo, _ in intervals]
    at = bisect_right(starts, index.pre(nid)) - 1
    return at >= 0 and index.pre(nid) <= intervals[at][1]


@given(seed=st.integers(min_value=0, max_value=100_000))
@RELAXED
def test_walk_up_region_test_agrees_with_the_interval_oracle(seed):
    rng = random.Random(seed)
    # The root label sometimes equals an anchor label: the root is then
    # part of a ``//`` frontier.
    tree = DataTree(root_label=rng.choice(LABELS + ["root"]))
    for _ in range(rng.randint(0, 25)):
        tree.add_child(rng.choice(list(tree.node_ids())),
                       rng.choice(LABELS + ["root"]))
    index = TreeIndex(tree)
    scramble(rng, index, rng.randint(0, 6))
    analyzer = IndependenceAnalyzer(IndependenceIndex(REGION_POLICY), index)
    for sig in analyzer.index.signatures:
        for nid in tree.node_ids():
            assert analyzer._in_region(sig, nid) == \
                interval_oracle(sig, index, nid), (str(sig), nid)

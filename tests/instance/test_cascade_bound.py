"""The cascade walk stops once no larger relocation set exists.

``max_moves`` is caller-supplied (the wire's instance queries carry it),
so the walk must not loop over relocation-set sizes that have no
combinations left: a 3-node tree has two movable nodes, and any
``max_moves`` above two enumerates exactly what ``max_moves=2`` does.
"""

from __future__ import annotations

import itertools
import time

from repro.instance import search
from repro.trees import DataTree


def three_node_tree() -> DataTree:
    tree = DataTree()
    a = tree.add_child(tree.root, "a")
    tree.add_child(a, "b")
    return tree


def test_huge_max_moves_finishes_like_the_largest_useful_bound(monkeypatch):
    tree = three_node_tree()
    movable = tree.size - 1
    calls = []

    def counted(pool, r):
        calls.append(r)
        if len(calls) > movable:
            raise AssertionError(f"relocation-set size {r} enumerated on a "
                                 f"tree with {movable} movable nodes")
        return itertools.combinations(pool, r)

    monkeypatch.setattr(search, "combinations", counted)
    started = time.perf_counter()
    huge = [past.copy() for past, _ in
            search.cascade_candidates(tree, max_moves=2 ** 70, budget=10 ** 9)]
    assert time.perf_counter() - started < 5.0
    assert calls == [1, 2]
    calls.clear()
    exact = [past.copy() for past, _ in
             search.cascade_candidates(tree, max_moves=movable, budget=10 ** 9)]
    assert [p.same_instance(q) for p, q in zip(huge, exact)] == \
        [True] * len(exact)
    assert len(huge) == len(exact) > 0

"""Bounded counterexample search for mixed-type instance problems.

The mixed-type cells of Table 2 are coNP-complete already for ``XP{/,[]}``
(Theorem 5.2), and unlike the general-implication case no fragment
restriction rescues tractability.  The hybrid engine therefore combines

* the *sound* subset test — ``C' ⊆ C`` and ``C' ⊨_J c`` imply ``C ⊨_J c`` —
  instantiated with the same-type premises and their exact engines, and
* a *sound* refutation search over structured candidate pasts, each
  validated by the independent checker before being returned.

Candidate families (for a no-insert conclusion; the no-remove side mirrors
via the embedding engine):

1. single relocations — the certificates of the pure no-insert engine,
   re-checked against the full premise set;
2. bounded cascades — up to ``max_moves`` nodes of ``J`` relocated /
   replaced simultaneously, the discrete analogue of Theorem 5.2's
   "shuffle the truth assignments" counterexamples.

The cascade walk is **copy-free and snapshot-carrying**: all candidates are
realised on one scratch tree through a move/undo journal, and on trees
worth indexing the journal is applied *through* an incrementally-maintained
:class:`~repro.xpath.bitset.BitsetEvaluator` snapshot — each candidate's
validity re-check then tests whole node-sets as masks on both sides of the
pair, instead of re-walking the scratch tree once per constraint per
candidate.  A real :meth:`~repro.trees.tree.DataTree.copy` is materialised
only for the candidate actually returned as a counterexample.  The fixed
``current`` side of every re-check shares the caller's snapshot.

The search never lies: an exhausted budget yields ``UNKNOWN``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.pool
from itertools import combinations

from repro.constraints.model import ConstraintSet, UpdateConstraint
from repro.constraints.validity import is_valid, violation_of
from repro.errors import TreeError
from repro.implication.result import Counterexample
from repro.trees.serialize import from_dict, to_dict
from repro.trees.tree import DataTree
from repro.xpath.bitset import BitsetEvaluator

# Below this many nodes, naive per-candidate evaluation wins: it is
# output-sensitive (child steps touch only the frontier's children), while
# a mask evaluator recomputes its per-revision predicate masks in O(|J|)
# for every journal state.  Measured breakeven sits around 240 nodes with
# descendant-axis constraints; the gate is set above it so small searches
# keep the cheap path and large ones amortise set-at-a-time checks.
SNAPSHOT_MIN_SIZE = 256


def _candidate_is_refutation(past: DataTree, current: DataTree,
                             premises: ConstraintSet,
                             conclusion: UpdateConstraint,
                             context=None, past_ctx=None) -> bool:
    return (
        violation_of(past, current, conclusion,
                     before_ctx=past_ctx, after_ctx=context) is not None
        and is_valid(past, current, premises,
                     before_ctx=past_ctx, after_ctx=context)
    )


def single_relocation_candidates(current: DataTree, conclusion: UpdateConstraint,
                                 premises: ConstraintSet, context=None):
    """Pasts produced by the pure engines' constructions, to be re-checked."""
    from repro.constraints.model import ConstraintType
    from repro.instance.no_insert_engine import implies_no_insert
    from repro.instance.no_remove_engine import implies_no_remove

    same = premises.of_type(conclusion.type)
    if conclusion.type is ConstraintType.NO_INSERT:
        outcome = implies_no_insert(same, current, conclusion, context=context)
    else:
        outcome = implies_no_remove(same, current, conclusion, context=context)
    if outcome.counterexample is not None:
        yield outcome.counterexample.before, outcome.counterexample.witness


def _cascade_walk(scratch: DataTree, max_moves: int, budget: int,
                  context: BitsetEvaluator | None = None):
    """The move/undo journal over one scratch tree (optionally snapshotted).

    When ``context`` is given it must be a mutable snapshot of ``scratch``;
    every journal move (and undo) is applied through it, so the snapshot
    tracks every candidate in place — no rebind per candidate.
    """
    movable = [nid for nid in scratch.node_ids() if nid != scratch.root]
    targets = list(scratch.node_ids())
    move = context.apply_move if context is not None else scratch.move
    produced = 0
    # No relocation set is larger than the movable nodes: a caller-supplied
    # max_moves past that would only spin over empty combinations.
    for count in range(1, min(max_moves, len(movable)) + 1):
        for nodes in combinations(movable, count):
            for assignment in _assignments(nodes, targets):
                journal: list[tuple[int, int]] = []
                legal = True
                for nid, target in assignment:
                    old_parent = scratch.parent(nid)
                    assert old_parent is not None
                    try:
                        move(nid, target)
                    except TreeError:
                        legal = False
                        break
                    journal.append((nid, old_parent))
                if legal:
                    produced += 1
                    yield scratch, None
                # Undo in reverse: each node returns to the parent it had
                # when its move was applied, restoring the original tree.
                for nid, old_parent in reversed(journal):
                    move(nid, old_parent)
                if legal and produced >= budget:
                    return


def cascade_candidates(current: DataTree, max_moves: int, budget: int):
    """Pasts obtained by relocating up to ``max_moves`` nodes of ``J``.

    Relocation targets are other nodes of the tree (including the root);
    self- and descendant-targets are skipped.  ``budget`` caps the number of
    candidates generated.

    Every candidate is the SAME scratch tree with a journal of moves
    applied, undone before the next candidate — inspect the yielded tree
    before advancing the generator, and ``copy()`` it to keep it.
    """
    yield from _cascade_walk(current.copy(), max_moves, budget)


def _assignments(nodes, targets):
    if not nodes:
        yield ()
        return
    head, *rest = nodes
    for target in targets:
        if target == head:
            continue
        for tail in _assignments(rest, targets):
            yield ((head, target),) + tail


def _search_cascades(scratch: DataTree, current: DataTree,
                     premises: ConstraintSet, conclusion: UpdateConstraint,
                     max_moves: int, budget: int, shard: int, nshards: int,
                     context, scratch_ctx) -> tuple[int, DataTree, int | None] | None:
    """Walk the cascade family, validating one stride of the candidates.

    Every shard replays the *same* global enumeration (the journal moves
    are cheap) but runs the expensive validity re-check only on candidates
    whose 0-based index falls in its stride — the union over ``nshards``
    shards covers exactly the candidates the sequential search validates,
    with the same budget accounting.  Returns ``(index, past, witness)``
    of the shard's first refutation, so a master can pick the globally
    first one (what the sequential walk would have returned).
    """
    for idx, (past, witness) in enumerate(_cascade_walk(scratch, max_moves,
                                                        budget,
                                                        context=scratch_ctx)):
        if idx % nshards != shard:
            continue
        if _candidate_is_refutation(past, current, premises, conclusion,
                                    context=context, past_ctx=scratch_ctx):
            # The scratch tree is reused by the generator: materialise the
            # one candidate that escapes the search.
            return idx, past.copy(), witness
    return None


def _refute_shard(payload: tuple) -> tuple[int, dict, int | None] | None:
    """Process-pool entry point: one shard of the cascade search.

    The worker rebuilds the problem from its picklable wire form and owns
    a private scratch tree plus (on trees worth indexing) its own
    incremental :class:`BitsetEvaluator` snapshot driven by the move
    journal — the shard-runner pattern of :mod:`repro.stream.shard`
    applied inside a single refutation problem.
    """
    constraints, tree_dict, conclusion, max_moves, budget, shard, nshards = payload
    premises = ConstraintSet(constraints)
    current = from_dict(tree_dict)
    context = (BitsetEvaluator.for_tree(current)
               if current.size >= SNAPSHOT_MIN_SIZE else None)
    scratch = current.copy()
    scratch_ctx = (BitsetEvaluator.for_tree(scratch)
                   if scratch.size >= SNAPSHOT_MIN_SIZE else None)
    hit = _search_cascades(scratch, current, premises, conclusion,
                           max_moves, budget, shard, nshards,
                           context, scratch_ctx)
    if hit is None:
        return None
    idx, past, witness = hit
    return idx, to_dict(past), witness


# Worker pools are reused across searches (keyed by worker count): a
# batch of parallel refutations must not pay pool start-up per query.
_POOLS: dict[int, multiprocessing.pool.Pool] = {}


def _shared_pool(workers: int) -> multiprocessing.pool.Pool:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = multiprocessing.Pool(processes=workers)
    return pool


def _close_pools() -> None:
    for pool in _POOLS.values():
        pool.terminate()
        pool.join()
    _POOLS.clear()


atexit.register(_close_pools)


def bounded_refutation(premises: ConstraintSet, current: DataTree,
                       conclusion: UpdateConstraint,
                       max_moves: int = 2, budget: int = 5000,
                       context=None, workers: int = 1) -> Counterexample | None:
    """Search the candidate families; return a *validated* certificate.

    ``context`` optionally carries an indexed snapshot of ``current``; the
    fixed side of every candidate's validity re-check then comes from
    set-at-a-time evaluation with memos shared across the whole search.
    The mutable side gets its own incremental snapshot of the scratch tree
    (on trees above :data:`SNAPSHOT_MIN_SIZE`), updated in place by the
    move journal.

    ``workers > 1`` fans the cascade family across a process pool — each
    worker replays the same enumeration on a private scratch tree (and
    private snapshots) and validates every ``workers``-th candidate.  The
    verdict, the returned counterexample and the budget accounting are
    identical to the sequential search: the globally first refutation in
    enumeration order wins, and the single-relocation family is always
    checked inline first.
    """
    for past, witness in single_relocation_candidates(current, conclusion,
                                                      premises, context=context):
        if _candidate_is_refutation(past, current, premises, conclusion,
                                    context=context):
            return Counterexample(past, current, witness=witness)
    if workers > 1:
        payloads = [(tuple(premises), to_dict(current), conclusion,
                     max_moves, budget, shard, workers)
                    for shard in range(workers)]
        hits = [h for h in _shared_pool(workers).map(_refute_shard, payloads)
                if h is not None]
        if not hits:
            return None
        _, past_dict, witness = min(hits, key=lambda h: h[0])
        return Counterexample(from_dict(past_dict), current, witness=witness)
    scratch = current.copy()
    scratch_ctx = (BitsetEvaluator.for_tree(scratch)
                   if scratch.size >= SNAPSHOT_MIN_SIZE else None)
    hit = _search_cascades(scratch, current, premises, conclusion,
                           max_moves, budget, shard=0, nshards=1,
                           context=context, scratch_ctx=scratch_ctx)
    if hit is None:
        return None
    _, past, witness = hit
    return Counterexample(past, current, witness=witness)

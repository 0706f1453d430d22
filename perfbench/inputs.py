"""Seeded inputs for the three workloads.

Everything a run sends is a pure function of ``(workload, seed)``.  Every
random choice goes through a :class:`random.Random` built from integers,
never from ``hash()`` of a string (string hashing changes per process).
Node ids are deterministic too. Each generation job calls
:func:`~repro.trees.node.reset_ids` before it builds its trees and logs.
So a job gives the same ids in any process, and jobs can run in a
worker process.  After ``reset_ids`` a process no longer reserves the
ids of trees built with explicit ids, so such a process must not replay
traffic (``run.py`` replays each connection in a fresh process).

A workload is a set of *components*.  A component owns some documents
and yields the next request for them:

* :class:`StreamDoc` -- ``stream-submit`` slices of a pre-generated
  update log (``random_update_stream`` or ``mostly_irrelevant_stream``);
* :class:`TemplateDoc` -- ``certified-submit`` of the two COLD-label
  templates;
* :class:`Fleet` -- ``fleet-submit`` epochs over a disjoint fleet;
* :class:`Queries` -- ``implication`` / ``instance-implication``
  queries drawn from a conclusion pool.

A log or epoch script is a *cycle*: when it ends, the component
re-registers its documents (``replace=True``) and starts the script
again.  The cycle points sit at fixed places in each connection's
request sequence, so the sequence does not depend on how fast the
server runs.  Big-doc-edits' logs are short enough that every
document runs several cycles in a window: its documents stay between
2000 and about 2200 nodes, and a faster server does more cycles of the
same work instead of reaching bigger documents.  Each connection owns a
disjoint set of documents, and only connection 0 sends fleet epochs.
So each connection's send order is the per-document order the server
must keep.
"""

from __future__ import annotations

import bisect
import copy
import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.caching import DEFAULT_MEMO_SIZE
from repro.certify import (
    LabelHole,
    NodeHole,
    SubtreeHole,
    TemplateAdd,
    TemplateMove,
    UpdateTemplate,
)
from repro.constraints import ConstraintType, UpdateConstraint
from repro.masks import FleetEvaluator
from repro.service.protocol import (
    CertifiedSubmit,
    FleetSubmit,
    ImplicationQuery,
    InstanceQuery,
    RegisterConstraints,
    RegisterDocument,
    RegisterTemplate,
    Request,
    StreamSubmit,
    constraint_to_wire,
)
from repro.stream.ops import AddLeaf, Move, RemoveSubtree, op_to_dict
from repro.trees.node import fresh_id, reset_ids
from repro.workloads import (
    FragmentSpec,
    mostly_irrelevant_stream,
    random_constraints,
    random_pattern,
    random_tree,
    random_update_stream,
)

from worker import run_jobs

WORKLOADS = ("big-doc-edits", "many-small-docs", "read-mostly")

#: The constraint alphabet.  Trees draw labels uniformly from it.
HOT = [f"l{i}" for i in range(8)]
#: Labels only the certified templates touch (disjoint from every policy).
COLD = ["note", "memo", "tag"]
SPEC = FragmentSpec(predicates=True, descendant=True, wildcard=False)

#: Policies, the conclusion pool and the stream documents with their
#: update logs keep one fixed *shape*: they are drawn from ``SHAPE_SEED``.
#: The run seed permutes the alphabet they draw from (one permutation per
#: seed, shared by all of them), so a permuted shape costs the same work
#: on every seed.  The seed also draws the template documents, the fleet
#: and its epochs, and the request sequence.  With unpinned policies,
#: in-process enforcement ran at 1000-4000 req/s across eight seeds.
SHAPE_SEED = 20070611
#: The conclusion pool's shape slot (policies use slots 0, 1, 2).
POOL_SLOT = 100

ANNOTATE = UpdateTemplate("annotate", tuple(
    TemplateAdd(NodeHole("p"), LabelHole(f"l{i}", frozenset(COLD)))
    for i in range(4)))
ROTATE = UpdateTemplate("rotate", (
    TemplateMove(SubtreeHole("s", frozenset(COLD)), NodeHole("d")),
    TemplateMove(SubtreeHole("s", frozenset(COLD)), NodeHole("e")),
))

#: Instance queries are bounded searches (Table 2's refutation search).
MAX_MOVES = 1
SEARCH_BUDGET = 60
#: Popularity of the conclusion at rank r is proportional to 1/(r+1)^ZIPF.
ZIPF = 1.0
#: A stream-submit carries 1..MAX_SLICE consecutive log entries.
MAX_SLICE = 2


def _rng(seed: int, *path: int) -> random.Random:
    """An independent stream per (seed, component path), from ints only."""
    value = seed
    for part in path:
        value = value * 1_000_003 + part
    return random.Random(value)


def alphabet(seed: int) -> list[str]:
    """HOT, permuted by the seed."""
    labels = list(HOT)
    _rng(seed, 7).shuffle(labels)
    return labels


def policy(seed: int, slot: int):
    """Policy ``slot``: a fixed 6-constraint shape over the seed's alphabet."""
    return random_constraints(random.Random(SHAPE_SEED + slot),
                              alphabet(seed), SPEC, count=6, types="mixed",
                              spine=2)


def conclusion_pool(seed: int, size: int) -> list[UpdateConstraint]:
    """Conclusions of 1..3 spine steps, both types; the fixed pool shape
    over the seed's alphabet.  Pool order is popularity rank."""
    rng, labels = random.Random(SHAPE_SEED + POOL_SLOT), alphabet(seed)
    return [UpdateConstraint(random_pattern(rng, labels, SPEC,
                                            spine=rng.randint(1, 3)),
                             rng.choice(list(ConstraintType)))
            for _ in range(size)]


# ----------------------------------------------------------------------
# Generation jobs (picklable, deterministic in any process)
# ----------------------------------------------------------------------
def stream_docs_job(seed: int, slot: int, path: tuple, size: int,
                    count: int, ops: int, irrelevant: bool):
    """``count`` trees of ``size`` nodes, each with its own update log.

    Like the policies, each tree and its log have one fixed shape per
    document slot, drawn over the seed's alphabet: the seed relabels
    them, and the pair (policy, tree + log) costs the same on every
    seed.  With seeded shapes, replaying the first 1000 requests of one
    big-doc-edits connection in-process cost 0.8-1.5 s across six seeds.
    """
    reset_ids(1)
    constraints, labels = policy(seed, slot), alphabet(seed)
    out = []
    for i in range(count):
        rng = _rng(SHAPE_SEED, *path, i)
        tree = random_tree(rng, labels, size=size)
        if irrelevant:
            log = mostly_irrelevant_stream(rng, tree, labels,
                                           constraints=constraints, ops=ops)
        else:
            log = random_update_stream(rng, tree, labels,
                                       constraints=constraints, ops=ops,
                                       violation_rate=0.3)
        out.append((tree, log))
    return out


def fleet_job(seed: int, slot: int, path: tuple, docs: int, size: int,
              epochs: int, per_epoch: int):
    """A fleet and its epoch script, drawn against a shadow fleet.

    Every epoch is applied to the shadow.  So each op names a node that
    exists at its point in the script, and violating documents roll back
    exactly as they will on the server.
    """
    reset_ids(1)
    rng = _rng(seed, *path)
    trees = [random_tree(rng, HOT, size=size) for _ in range(docs)]
    base = [tree.copy() for tree in trees]
    shadow = FleetEvaluator(policy(seed, slot), trees, backend="bigint")
    script = []
    for _ in range(epochs):
        batch = {}
        for d in sorted(rng.sample(range(docs), per_epoch)):
            tree = trees[d]
            nodes = list(tree.node_ids())
            nonroot = [n for n in nodes if n != tree.root]
            ops = []
            roll = rng.random()
            if roll < 0.6 or not nonroot:
                ops.append(AddLeaf(rng.choice(nodes), rng.choice(HOT),
                                   nid=fresh_id()))
            elif roll < 0.85:
                victim = rng.choice(nonroot)
                inside = set(tree.descendants(victim, include_self=True))
                ops.append(Move(victim, rng.choice(
                    [n for n in nodes if n not in inside])))
            else:
                ops.append(RemoveSubtree(rng.choice(nonroot)))
            batch[d] = ops
        shadow.submit_epoch(batch)
        script.append(batch)
    return base, script


def template_docs_job(seed: int, path: tuple, size: int, count: int):
    """Trees with a few COLD leaves, plus their anchors and cold leaves."""
    reset_ids(1)
    out = []
    for i in range(count):
        rng = _rng(seed, *path, i)
        tree = random_tree(rng, HOT, size=size)
        anchors = list(tree.node_ids())
        cold = [tree.add_child(rng.choice(anchors), rng.choice(COLD))
                for _ in range(3)]
        out.append((tree, anchors, cold))
    return out


# ----------------------------------------------------------------------
# Components
# ----------------------------------------------------------------------
class StreamDoc:
    """One document fed ``stream-submit`` slices of its update log."""

    def __init__(self, name, policy_name, tree, log):
        self.name, self.policy, self.tree = name, policy_name, tree
        self.log, self.at = log, 0

    def registrations(self, replace=False):
        return [RegisterDocument(self.name, self.tree, replace=replace)]

    def next(self, rng):
        if self.at >= len(self.log):
            self.at = 0
            return self.registrations(replace=True)
        ops = tuple(self.log[self.at:self.at + rng.randint(1, MAX_SLICE)])
        self.at += len(ops)
        return [StreamSubmit(self.name, self.policy, ops)]

    def describe(self):
        return [op_to_dict(op) for op in self.log]


class StaticDoc:
    """A document that is only registered (instance-query probes read it)."""

    def __init__(self, name, tree):
        self.name, self.tree = name, tree

    def registrations(self, replace=False):
        return [RegisterDocument(self.name, self.tree, replace=replace)]

    def describe(self):
        return []


class TemplateDoc:
    """One document fed ``certified-submit`` of ANNOTATE / ROTATE.

    Bindings name only base nodes and the document's own COLD leaves.
    Certified brackets only add COLD leaves and move COLD leaves under
    base nodes.  So every binding stays valid for the whole run.
    """

    def __init__(self, name, policy_name, tree, anchors, cold):
        self.name, self.policy, self.tree = name, policy_name, tree
        self.anchors, self.cold = anchors, cold

    def registrations(self, replace=False):
        return [RegisterDocument(self.name, self.tree, replace=replace)]

    def next(self, rng):
        if rng.random() < 0.7:
            bindings = {"p": rng.choice(self.anchors)}
            bindings.update((f"l{i}", rng.choice(COLD)) for i in range(4))
            template = ANNOTATE.name
        else:
            d, e = rng.sample(self.anchors, 2)
            bindings = {"s": rng.choice(self.cold), "d": d, "e": e}
            template = ROTATE.name
        return [CertifiedSubmit(self.name, self.policy, template,
                                tuple(sorted(bindings.items())))]

    def describe(self):
        return [self.anchors, self.cold]


class Fleet:
    """A disjoint fleet fed one ``fleet-submit`` epoch per request."""

    def __init__(self, names, policy_name, trees, script):
        self.names, self.policy, self.trees = tuple(names), policy_name, trees
        self.script, self.at = script, 0

    def registrations(self, replace=False):
        return [RegisterDocument(name, tree, replace=replace)
                for name, tree in zip(self.names, self.trees)]

    def next(self, rng):
        if self.at >= len(self.script):
            self.at = 0
            return self.registrations(replace=True)
        batch = self.script[self.at]
        self.at += 1
        epoch = tuple((self.names[d], tuple(ops))
                      for d, ops in sorted(batch.items()))
        return [FleetSubmit(self.names, self.policy, (epoch,))]

    def describe(self):
        return [[[d, [op_to_dict(op) for op in ops]]
                 for d, ops in sorted(batch.items())]
                for batch in self.script]


class Queries:
    """Implication or instance queries over a skewed conclusion pool."""

    def __init__(self, policies, pool, documents=()):
        self.policies, self.pool, self.documents = policies, pool, documents
        self.cumulative, total = [], 0.0
        for rank in range(len(pool)):
            total += 1.0 / (rank + 1) ** ZIPF
            self.cumulative.append(total)

    def registrations(self, replace=False):
        return []

    def conclusion(self, rng):
        at = bisect.bisect_left(self.cumulative,
                                rng.random() * self.cumulative[-1])
        return self.pool[min(at, len(self.pool) - 1)]

    def next(self, rng):
        name = rng.choice(self.policies)
        conclusion = self.conclusion(rng)
        if not self.documents:
            return [ImplicationQuery(name, (conclusion,))]
        return [InstanceQuery(name, rng.choice(self.documents), (conclusion,),
                              max_moves=MAX_MOVES,
                              search_budget=SEARCH_BUDGET)]

    def describe(self):
        return [list(self.policies), list(self.documents),
                [constraint_to_wire(c) for c in self.pool]]


@dataclass
class Traffic:
    """One connection's endless, seeded request sequence."""

    rng: random.Random
    mix: list  # [(weight, kind, [components])]
    _buffer: list = field(default_factory=list)

    def __post_init__(self):
        total = sum(w for w, _, _ in self.mix)
        self._cum, acc = [], 0.0
        for w, _, _ in self.mix:
            acc += w / total
            self._cum.append(acc)

    def next(self, fleet: bool = True) -> Request:
        """The next request.  ``fleet=False`` skips fleet epochs (their
        state is not journaled, so the pre-restart prefix leaves the
        fleet unopened)."""
        while not self._buffer:
            at = bisect.bisect_left(self._cum, self.rng.random())
            _, kind, components = self.mix[min(at, len(self.mix) - 1)]
            if kind == "fleet-submit" and not fleet:
                continue
            component = components[self.rng.randrange(len(components))]
            self._buffer.extend(component.next(self.rng))
        return self._buffer.pop(0)


@dataclass
class Inputs:
    """Everything one run sends: registrations, then per-connection traffic."""

    window: int
    setup: list
    connections: list  # [Traffic]
    documents: list    # names of every registered document
    notes: dict

    def fingerprint(self, per_connection: int = 400) -> str:
        """sha256 over the set-up, every component's full script and the
        first requests each connection draws.

        Draws from fresh copies of the traffic state, so the run's own
        sequence is untouched.
        """
        digest = hashlib.sha256()

        def feed(data):
            digest.update(json.dumps(data, sort_keys=True).encode())

        for request in self.setup:
            feed(request.to_dict())
        for traffic in copy.deepcopy(self.connections):
            for weight, kind, components in traffic.mix:
                feed([weight, kind] + [c.describe() for c in components])
            for _ in range(per_connection):
                feed(traffic.next().to_dict())
        return digest.hexdigest()


# ----------------------------------------------------------------------
# The three workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shape:
    """Sizes and mix of one workload (see README.md for the why)."""

    window: int             # requests outstanding per connection
    policy_slots: tuple     # one policy per slot: p0, p1, ...
    stream_docs: int        # split evenly across the two connections
    stream_size: int
    log_ops: int            # ops per update-log cycle
    irrelevant: bool        # mostly_irrelevant_stream vs random_update_stream
    template_docs: int
    fleet_docs: int
    fleet_epochs: int
    fleet_edits: int        # documents edited per epoch
    pool_size: int          # conclusion pool (Zipf(1.0) skewed)
    query_own_docs: bool    # instance queries on the stream documents, or
                            # on one never-written probe document each
    mix: dict               # kind -> (weight on conn 0, weight on conn 1)
    notes: dict


SHAPES = {
    # Execute dominates: 2k-node documents, every op checked, 30% of ops
    # aimed at constraint ranges.  The checkpoint of a 2k-node stream
    # every 256 submits sets p99.  A 1000-op log cycle keeps the
    # documents between 2000 and about 2200 nodes.  Four requests in
    # flight per connection keep work queued at the server while the
    # load generator's own core is slow.
    "big-doc-edits": Shape(
        window=4, policy_slots=(0,), stream_docs=2, stream_size=2000,
        log_ops=1000, irrelevant=False, template_docs=2, fleet_docs=8,
        fleet_epochs=400, fleet_edits=2, pool_size=64, query_own_docs=False,
        mix={"stream-submit": (0.86, 0.91), "certified-submit": (0.03, 0.03),
             "fleet-submit": (0.05, 0.0), "implication": (0.03, 0.03),
             "instance-implication": (0.03, 0.03)},
        notes={"documents": "2 x 2000 nodes, one per connection (probes: "
                            "2 template, 2 query, 8 fleet docs of 30 nodes)",
               "traffic": "random_update_stream (violation_rate 0.3, txn "
                          "brackets) in slices of 1-2 ops; 9-14% probes"}),
    # Execute is near zero: 95% of stream ops are independent of every
    # constraint (the analyzer's zero-work path), templates are
    # certified, queries hit memo entries (instance queries rebind a
    # 30-node document after each write).  Codec, framing, queueing and
    # the journal dominate, with 32 appends in flight.
    "many-small-docs": Shape(
        window=16, policy_slots=(0,), stream_docs=128, stream_size=30,
        log_ops=200, irrelevant=True, template_docs=64, fleet_docs=64,
        fleet_epochs=700, fleet_edits=4, pool_size=64,
        query_own_docs=True,
        mix={"stream-submit": (0.62, 0.67), "certified-submit": (0.25, 0.27),
             "fleet-submit": (0.04, 0.0), "implication": (0.03, 0.03),
             "instance-implication": (0.03, 0.03)},
        notes={"documents": "128 stream + 64 template + 64 fleet docs of "
                            "30 nodes",
               "traffic": "mostly_irrelevant_stream slices of 1-2 ops, "
                          "certified ANNOTATE/ROTATE, fleet epochs of 4 "
                          "docs"}),
    # Reads beside writes: Table 1 and Table 2 queries over a pool larger
    # than the session memo, 9% writes that rebind the written document.
    # Runnable, but not in BENCHMARK.json: its timings spread too widely
    # between runs on a shared host (see README.md).
    "read-mostly": Shape(
        window=2, policy_slots=(1, 2), stream_docs=4, stream_size=200,
        log_ops=400, irrelevant=False, template_docs=2, fleet_docs=8,
        fleet_epochs=400, fleet_edits=2, pool_size=6144,
        query_own_docs=True,
        mix={"implication": (0.42, 0.43), "instance-implication": (0.40, 0.42),
             "stream-submit": (0.09, 0.09), "certified-submit": (0.04, 0.06),
             "fleet-submit": (0.05, 0.0)},
        notes={"documents": "4 x 200 nodes under 2 policies (probes: 2 "
                            "template, 8 fleet docs of 30 nodes)",
               "traffic": f"queries over 6144 conclusions (Zipf 1.0; the "
                          f"session memo holds {DEFAULT_MEMO_SIZE}), "
                          f"max_moves={MAX_MOVES}, search_budget="
                          f"{SEARCH_BUDGET}; 9% random_update_stream "
                          f"slices"}),
}


def run_job(name: str, args: tuple):
    """Worker entry point: one named generation job."""
    return {"stream": stream_docs_job, "fleet": fleet_job}[name](*args)


def build(workload: str, seed: int) -> Inputs:
    """The seeded inputs of one workload.  The generation jobs run side
    by side, each in a fresh process (:func:`worker.run_jobs`)."""
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         f"{', '.join(WORKLOADS)}")
    shape = SHAPES[workload]
    slots = shape.policy_slots
    half = shape.stream_docs // 2
    calls = [("stream", (seed, slots[h % len(slots)], (1, h),
                         shape.stream_size, half, shape.log_ops,
                         shape.irrelevant)) for h in range(2)]
    calls.append(("fleet", (seed, slots[0], (4,), shape.fleet_docs, 30,
                            shape.fleet_epochs, shape.fleet_edits)))
    results = run_jobs("inputs:run_job", calls)
    stream = [StreamDoc(f"s{h * half + i}", f"p{h % len(slots)}", tree, log)
              for h in range(2) for i, (tree, log) in enumerate(results[h])]
    fleet_base, fleet_script = results[2]
    fleet = Fleet([f"fleet{i}" for i in range(shape.fleet_docs)], "p0",
                  fleet_base, fleet_script)
    templates = [TemplateDoc(f"tmpl{i}", "p0", tree, anchors, cold)
                 for i, (tree, anchors, cold) in enumerate(
                     template_docs_job(seed, (3,), 30, shape.template_docs))]
    probes = [StaticDoc(f"probe{c}", tree) for c, (tree, _, _) in
              enumerate(template_docs_job(seed, (5,), 30, 2))]
    names = [f"p{i}" for i in range(len(slots))]
    pool_ = conclusion_pool(seed, shape.pool_size)
    connections = []
    for c in range(2):
        # Interleave the halves so each connection gets docs of both.
        mine = [d for i, d in enumerate(stream) if i % 2 == c]
        queried = (tuple(d.name for d in mine) if shape.query_own_docs
                   else (probes[c].name,))
        owners = {"stream-submit": mine,
                  "certified-submit": templates[c::2],
                  "fleet-submit": [fleet],
                  "implication": [Queries(names, pool_)],
                  "instance-implication": [Queries(names, pool_, queried)]}
        mix = [(weights[c], kind, owners[kind])
               for kind, weights in shape.mix.items() if weights[c] > 0]
        connections.append(Traffic(_rng(seed, 9, c), mix))
    components = [*stream, *templates, fleet]
    if not shape.query_own_docs:
        components += probes
    policies = [(name, policy(seed, slot)) for name, slot in zip(names, slots)]
    return Inputs(shape.window, _setup(policies, components), connections,
                  _names(components), shape.notes)


def _setup(policies, components):
    """Register the policies, every document, then certify both templates
    against p0 (the template documents' policy)."""
    setup = [RegisterConstraints(name, tuple(constraints))
             for name, constraints in policies]
    for component in components:
        setup.extend(component.registrations())
    setup.append(RegisterTemplate(ANNOTATE.name, ANNOTATE, "p0"))
    setup.append(RegisterTemplate(ROTATE.name, ROTATE, "p0"))
    return setup


def _names(components):
    names = []
    for component in components:
        names.extend(r.name for r in component.registrations())
    return names


__all__ = ["WORKLOADS", "Inputs", "Traffic", "build", "policy"]

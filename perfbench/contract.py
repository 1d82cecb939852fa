"""Seeded inputs and the matching contract, computed without MDV.

Every workload publishes Figure-1-shaped documents (a ``CycleProvider``
``doc{i}.rdf#host`` with a strong ``serverInformation`` reference to a
``ServerInformation`` ``doc{i}.rdf#info``) against one rule family:

- ``oid``:  rule ``k`` is ``c = 'doc{k}.rdf#host'``; it matches document
  ``k`` only.
- ``comp``: rule ``k`` is ``c.synthValue > k``; it matches every document
  whose ``synthValue`` exceeds ``k``.
- ``path``: rule ``k`` is ``c.serverInformation.memory = k``; it matches
  every live document whose ``memory`` is ``k``.

:class:`Contract` tracks the live documents and the active
``(rule, LMR)`` subscriptions, and from them alone says how many
notifications each operation must produce and what each LMR cache must
hold afterwards.  The benchmark compares MDV against it; it never asks
MDV what the answer should be.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.rdf.model import Document, URIRef

PUBLISH = "publish"
UPDATE = "update"
DELETE = "delete"
SUBSCRIBE = "subscribe"
UNSUBSCRIBE = "unsubscribe"


@dataclass(frozen=True, slots=True)
class Op:
    """One client operation.

    Document operations use ``doc``, ``value`` (the ``synthValue`` for
    ``comp``, the ``memory`` for ``path``, unused for ``oid``) and
    ``port``.  Subscription operations use ``doc`` as the rule key and
    ``lmr`` as the subscribing LMR's index.
    """

    kind: str
    doc: int
    value: int = 0
    port: int = 0
    lmr: int = 0


def rule_text(family: str, key: int) -> str:
    if family == "oid":
        where = f"c = 'doc{key}.rdf#host'"
    elif family == "comp":
        where = f"c.synthValue > {key}"
    else:
        where = f"c.serverInformation.memory = {key}"
    return f"search CycleProvider c register c where {where}"


def host_uri(doc: int) -> str:
    return f"doc{doc}.rdf#host"


def info_uri(doc: int) -> str:
    return f"doc{doc}.rdf#info"


def make_document(family: str, op: Op) -> Document:
    """The document a publish or update sends."""
    document = Document(f"doc{op.doc}.rdf")
    host = document.new_resource("host", "CycleProvider")
    host.add("serverHost", f"host{op.doc}.uni-passau.de")
    host.add("serverPort", op.port)
    host.add("synthValue", op.value if family == "comp" else 0)
    host.add("serverInformation", URIRef(info_uri(op.doc)))
    info = document.new_resource("info", "ServerInformation")
    info.add("memory", op.value if family == "path" else op.doc % 1024)
    info.add("cpu", 600)
    return document


class Contract:
    """Live documents and subscriptions, and what they imply."""

    def __init__(self, family: str):
        self.family = family
        #: Live document -> (value, port).
        self.docs: dict[int, tuple[int, int]] = {}
        #: Rule key -> indices of the LMRs subscribed to it.
        self.subs: dict[int, set[int]] = {}
        self._values: Counter[int] = Counter()
        self._pair_memo: dict[int, int] = {}

    # -- matching -------------------------------------------------------
    def pairs(self, doc: int, value: int) -> int:
        """Active ``(rule, LMR)`` subscriptions matching a document."""
        if self.family == "oid":
            return len(self.subs.get(doc, ()))
        if self.family == "path":
            return len(self.subs.get(value, ()))
        if value not in self._pair_memo:
            self._pair_memo[value] = sum(
                len(lmrs) for key, lmrs in self.subs.items() if value > key
            )
        return self._pair_memo[value]

    def live_matches(self, key: int) -> int:
        """Live documents a rule matches (its initial matches)."""
        if self.family == "oid":
            return 1 if key in self.docs else 0
        if self.family == "path":
            return self._values[key]
        return sum(n for value, n in self._values.items() if value > key)

    def subscribers(self) -> int:
        """LMRs holding at least one subscription."""
        return len(set().union(*self.subs.values())) if self.subs else 0

    # -- the contract ---------------------------------------------------
    def expect(self, op: Op) -> int:
        """Notifications ``op`` must deliver, summed over all LMRs."""
        if op.kind == PUBLISH:
            return self.pairs(op.doc, op.value)
        if op.kind == UPDATE:
            old = self.docs[op.doc][0]
            new_pairs = self.pairs(op.doc, op.value)
            if self.family == "path" and old != op.value:
                # Disjoint rule sets: matches for the new value plus
                # unmatches for the old one.
                return new_pairs + self.pairs(op.doc, old)
            # Nested (comp) or identical (oid) rule sets: a match for
            # every rule of the larger set, the rest are unmatches.
            return max(new_pairs, self.pairs(op.doc, old))
        if op.kind == DELETE:
            # Unmatches, plus deletes of both resources broadcast to
            # every LMR that subscribes to anything.
            return self.pairs(op.doc, self.docs[op.doc][0]) + (
                2 * self.subscribers()
            )
        if op.kind == SUBSCRIBE:
            return self.live_matches(op.doc)
        return 0

    def apply(self, op: Op) -> None:
        if op.kind in (PUBLISH, UPDATE):
            if op.doc in self.docs:
                self._values[self.docs[op.doc][0]] -= 1
            self.docs[op.doc] = (op.value, op.port)
            self._values[op.value] += 1
        elif op.kind == DELETE:
            value, _ = self.docs.pop(op.doc)
            self._values[value] -= 1
        elif op.kind == SUBSCRIBE:
            self.subs.setdefault(op.doc, set()).add(op.lmr)
            self._pair_memo.clear()
        else:
            lmrs = self.subs[op.doc]
            lmrs.discard(op.lmr)
            if not lmrs:
                del self.subs[op.doc]
            self._pair_memo.clear()

    def expected_cache(self, lmr: int) -> dict[int, set[int]]:
        """Live document -> rule keys of ``lmr`` that match it."""
        keys = sorted(key for key, lmrs in self.subs.items() if lmr in lmrs)
        key_set = set(keys)
        expected: dict[int, set[int]] = {}
        for doc, (value, _) in self.docs.items():
            if self.family == "oid":
                matched = {doc} & key_set
            elif self.family == "path":
                matched = {value} & key_set
            else:
                matched = set(keys[: bisect.bisect_left(keys, value)])
            if matched:
                expected[doc] = matched
        return expected


# ----------------------------------------------------------------------
# Seeded plans: everything a run sends, fixed before timing starts
# ----------------------------------------------------------------------
@dataclass
class Plan:
    """The seeded inputs of one run."""

    #: Subscriptions made during setup, in order.
    setup_subscriptions: list[Op]
    #: Documents registered in setup through ``register_documents``.
    preload: list[Op]
    #: The measured operation stream.
    stream: list[Op]
    #: Operations run at a fixed point of the stream, in untraced runs only.
    probes: list[Op]


def _subscriptions(
    rng: random.Random, keys: list[int], lmr_count: int
) -> list[Op]:
    """Subscribe ``keys`` in seeded order, spread evenly over the LMRs."""
    keys = list(keys)
    rng.shuffle(keys)
    return [
        Op(SUBSCRIBE, key, lmr=position % lmr_count)
        for position, key in enumerate(keys)
    ]


def _port(doc: int) -> int:
    return 5000 + doc % 1000


def _probes(
    rng: random.Random,
    family: str,
    stream: list[Op],
    owners: dict[int, int],
    counts: tuple[int, int, int],
    spare_keys: range,
) -> list[Op]:
    """Updates, deletes and unsubscribe/resubscribe pairs, interleaved.

    ``counts`` is (updates, deletes, resubscriptions).  They touch only
    documents among the first ``sum(counts)`` of the stream, which every
    run publishes before the probes start.  An ``oid`` probe resubscribes
    the rule of a published document it neither updates nor deletes
    (one initial match); a ``comp`` probe resubscribes a threshold from
    ``spare_keys``, which no streamed document reaches, so its cost does
    not depend on how long the stream ran.
    """
    updates, deletes, resubscribes = counts
    docs = [op.doc for op in stream[: sum(counts)]]
    rng.shuffle(docs)
    updated = docs[:updates]
    deleted = docs[updates: updates + deletes]
    if family == "oid":
        resubscribed = docs[updates + deletes:]
    else:
        resubscribed = rng.sample(spare_keys, resubscribes)
    probes: list[Op] = []
    for position in range(max(counts)):
        if position < updates:
            doc = updated[position]
            value = doc if family == "oid" else stream[0].value
            probes.append(Op(UPDATE, doc, value, _port(doc) + 1000))
        if position < deletes:
            probes.append(Op(DELETE, deleted[position]))
        if position < resubscribes:
            key = resubscribed[position]
            probes.append(Op(UNSUBSCRIBE, key, lmr=owners[key]))
            probes.append(Op(SUBSCRIBE, key, lmr=owners[key]))
    return probes


def fresh_stream_plan(
    seed: int,
    family: str,
    rules: int,
    lmr_count: int,
    max_ops: int,
    probe_counts: tuple[int, int, int],
    synth_value: int = 0,
) -> Plan:
    """A subscription base and a stream of fresh documents.

    ``oid``: rule ``k`` for every document ``k`` in ``0..rules-1``; the
    stream publishes those documents in seeded order, one match each.
    ``comp``: thresholds ``0..rules-1``; every streamed document has
    ``synthValue = synth_value`` and so triggers that many rules.
    """
    rng = random.Random(seed)
    setup = _subscriptions(rng, list(range(rules)), lmr_count)
    owners = {op.doc: op.lmr for op in setup}
    if family == "oid":
        docs = list(range(rules))
        rng.shuffle(docs)
        stream = [Op(PUBLISH, doc, doc, _port(doc)) for doc in docs[:max_ops]]
    else:
        stream = [
            Op(PUBLISH, doc, synth_value, _port(doc)) for doc in range(max_ops)
        ]
    probes = _probes(
        rng, family, stream, owners, probe_counts, range(synth_value, rules)
    )
    return Plan(setup, [], stream, probes)


def churn_plan(
    seed: int,
    rules: int,
    lmr_count: int,
    values: int,
    preload: int,
    max_ops: int,
) -> Plan:
    """The ``path`` rule-base churn mix.

    ``rules`` distinct ``memory`` keys out of ``0..values-1`` are
    subscribed in setup and ``preload`` documents registered.  The
    stream then draws, per operation: 40% fresh publishes, 35% updates
    that change a live document's ``memory``, 10% deletes, 8%
    subscribes of a ``(key, LMR)`` pair not yet active (in a fixed
    cycle of three kinds, below) and 7% unsubscribes of an active one.
    The plan is generated against a :class:`Contract`, so every
    operation is valid in sequence.
    """
    rng = random.Random(seed)
    model = Contract("path")
    setup = _subscriptions(rng, rng.sample(range(values), rules), lmr_count)
    for op in setup:
        model.apply(op)
    active = [(op.doc, op.lmr) for op in setup]
    active_at = {pair: position for position, pair in enumerate(active)}
    live: list[int] = []
    live_at: dict[int, int] = {}

    def take(items: list[Any], index_of: dict[Any, int], position: int) -> Any:
        item = items[position]
        last = items.pop()
        if last != item:
            items[position] = last
            index_of[last] = position
        del index_of[item]
        return item

    def add_doc(doc: int) -> None:
        live_at[doc] = len(live)
        live.append(doc)

    preload_ops = [
        Op(PUBLISH, doc, rng.randrange(values), _port(doc))
        for doc in range(preload)
    ]
    for op in preload_ops:
        model.apply(op)
        add_doc(op.doc)
    next_doc = preload
    subscribes = 0
    stream: list[Op] = []
    while len(stream) < max_ops:
        draw = rng.random()
        if draw < 0.40 or not live:
            op = Op(PUBLISH, next_doc, rng.randrange(values), _port(next_doc))
            add_doc(next_doc)
            next_doc += 1
        elif draw < 0.75:
            doc = live[rng.randrange(len(live))]
            old = model.docs[doc][0]
            new = rng.randrange(values - 1)
            op = Op(UPDATE, doc, new if new < old else new + 1, _port(doc))
        elif draw < 0.85:
            op = Op(DELETE, take(live, live_at, rng.randrange(len(live))))
        elif draw < 0.93:
            # Subscriptions cycle through three kinds with fixed shares,
            # so that the p50 sits inside one cost mode: a new rule for
            # a key some live document has (initial matches to
            # deliver), a new rule for a key no document has, and a
            # second LMR's subscription to a registered rule (about a
            # fifth of a new rule's cost) for a key no document has.
            kind = subscribes % 3
            subscribes += 1
            while True:
                if kind == 0:
                    key = model.docs[live[rng.randrange(len(live))]][0]
                elif kind == 1:
                    key = rng.randrange(values)
                else:
                    key = active[rng.randrange(len(active))][0]
                pair = (key, rng.randrange(lmr_count))
                if pair not in active_at and (kind == 2) == (
                    key in model.subs
                ) and (kind == 0) == (model.live_matches(key) > 0):
                    break
            active_at[pair] = len(active)
            active.append(pair)
            op = Op(SUBSCRIBE, pair[0], lmr=pair[1])
        else:
            key, lmr = take(active, active_at, rng.randrange(len(active)))
            op = Op(UNSUBSCRIBE, key, lmr=lmr)
        model.apply(op)
        stream.append(op)
    return Plan(setup, preload_ops, stream, [])

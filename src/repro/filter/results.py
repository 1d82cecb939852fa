"""Result types of filter runs and of the update/delete algorithm."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.rdf.model import URIRef

__all__ = ["FilterRunResult", "PublishOutcome", "group_by_rule"]


def group_by_rule(
    pairs: Iterable[tuple[int, URIRef]],
) -> dict[int, set[URIRef]]:
    """``(rule_id, uri)`` pairs grouped per rule."""
    grouped: dict[int, set[URIRef]] = {}
    for rule_id, uri in pairs:
        grouped.setdefault(rule_id, set()).add(uri)
    return grouped


@dataclass
class FilterRunResult:
    """The outcome of one execution of the filter (one pass).

    ``pairs`` holds every distinct ``(rule_id, uri_reference)`` row the
    run wrote into ``ResultObjects`` across all iterations; ``by_rule``
    groups them.  ``iterations`` counts join-evaluation waves (the paper
    bounds it by the longest dependency-graph path); ``triggering_hits``
    is the size of the initial iteration.
    """

    pairs: set[tuple[int, URIRef]] = field(default_factory=set)
    iterations: int = 0
    triggering_hits: int = 0
    #: Wall time spent matching triggering rules (iteration 0).
    triggering_seconds: float = 0.0
    #: Wall time spent in join-rule (group) iterations.
    join_seconds: float = 0.0

    @property
    def by_rule(self) -> dict[int, set[URIRef]]:
        return group_by_rule(self.pairs)

    def uris_of(self, rule_ids: set[int]) -> set[URIRef]:
        return {uri for rule_id, uri in self.pairs if rule_id in rule_ids}

    def all_uris(self) -> set[URIRef]:
        return {uri for __, uri in self.pairs}


@dataclass
class PublishOutcome:
    """What one registration/update/deletion means for subscribers.

    - ``matched``: per end rule, the resources that (newly or still)
      match after the change — the publisher sends their content.
    - ``unmatched``: per end rule, the *true candidates* of the paper's
      Section 3.5 — resources that no longer match that rule.
    - ``deleted``: resources removed from the store entirely.
    - ``passes`` records the :class:`FilterRunResult` of each executed
      filter pass (one for inserts, three for updates/deletions).
    """

    matched: dict[int, set[URIRef]] = field(default_factory=dict)
    unmatched: dict[int, set[URIRef]] = field(default_factory=dict)
    deleted: set[URIRef] = field(default_factory=set)
    passes: list[FilterRunResult] = field(default_factory=list)

    def add_matched(self, rule_id: int, uri: URIRef) -> None:
        self.matched.setdefault(rule_id, set()).add(uri)

    def add_unmatched(self, rule_id: int, uri: URIRef) -> None:
        self.unmatched.setdefault(rule_id, set()).add(uri)

    @property
    def has_notifications(self) -> bool:
        return bool(self.matched or self.unmatched or self.deleted)

    def matched_uris(self) -> set[URIRef]:
        return {uri for uris in self.matched.values() for uri in uris}

    def summary(self) -> str:
        matched = sum(len(v) for v in self.matched.values())
        unmatched = sum(len(v) for v in self.unmatched.values())
        return (
            f"publish(matched={matched}, unmatched={unmatched}, "
            f"deleted={len(self.deleted)}, passes={len(self.passes)})"
        )

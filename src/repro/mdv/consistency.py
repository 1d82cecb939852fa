"""Alternative cache-consistency strategies (paper, Section 3.5).

After presenting the three-pass filter algorithm for updates and
deletions, the paper sketches two alternatives: *"e.g., to store for
each resource a list of LMR's caching the resource.  Or to use
periodical cache invalidation, based on a time-to-live approach,
resulting in resources dropping out of an LMR cache if they are not
reinserted periodically."*

This module implements all three as interchangeable strategies so the
ablation benchmark can compare them:

- :class:`FilterStrategy` — the paper's design: three filter passes per
  update, precise match/unmatch notifications.
- :class:`ResourceListStrategy` — the MDP tracks which subscriptions
  received each resource; an update re-evaluates only those
  subscriptions' *full rules* against the store (one filter pass for new
  matches, full rule evaluation per affected cached resource for
  evictions).  Precise, but per-update cost grows with the number of
  rules attached to the changed resources.
- :class:`TTLStrategy` — no eviction notifications at all; one filter
  pass publishes new/updated matches and LMR entries expire unless the
  periodic re-publication refreshes them.  Cheap at the MDP, but caches
  serve stale data for up to one TTL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.filter.results import PublishOutcome
from repro.mdv.cache import CacheStore
from repro.mdv.provider import MetadataProvider
from repro.query.sql import run_query_sql
from repro.rdf.diff import DocumentDiff
from repro.rdf.model import URIRef
from repro.rules.ast import Query
from repro.rules.parser import parse_rule

__all__ = [
    "StrategyCost",
    "FilterStrategy",
    "ResourceListStrategy",
    "TTLStrategy",
    "expire_stale_entries",
]


@dataclass
class StrategyCost:
    """Work accounting for one processed update."""

    filter_passes: int = 0
    full_rule_evaluations: int = 0

    def add(self, other: "StrategyCost") -> None:
        self.filter_passes += other.filter_passes
        self.full_rule_evaluations += other.full_rule_evaluations


class FilterStrategy:
    """The paper's three-pass filter algorithm (the default)."""

    name = "filter"

    def __init__(self, provider: MetadataProvider):
        self.provider = provider
        self.cost = StrategyCost()

    def process_diff(self, diff: DocumentDiff) -> PublishOutcome:
        outcome = self.provider.engine.process_diff(diff)
        self.cost.filter_passes += len(outcome.passes) or 1
        return outcome


@dataclass
class _ResourceSubscribers:
    """Which subscriptions cache which resource (MDP-side book).

    Maps every *cached* resource — the registered resource plus its
    strong-reference closure, since both live in LMR caches — to the
    ``(sub_id, registered_uri)`` pairs responsible for its presence.
    """

    by_resource: dict[URIRef, set[tuple[int, URIRef]]] = field(
        default_factory=dict
    )

    def record(self, outcome: PublishOutcome, end_rule_subs, closure_uris) -> None:
        for rule_id, uris in outcome.matched.items():
            for sub in end_rule_subs(rule_id):
                for uri in uris:
                    entry = (sub.sub_id, uri)
                    self.by_resource.setdefault(uri, set()).add(entry)
                    for member in closure_uris(uri):
                        self.by_resource.setdefault(member, set()).add(entry)

    def forget(self, entries) -> None:
        for entry in entries:
            for uri in list(self.by_resource):
                pairs = self.by_resource[uri]
                pairs.discard(entry)
                if not pairs:
                    del self.by_resource[uri]


class ResourceListStrategy:
    """Per-resource subscriber lists instead of filter passes 1–2."""

    name = "resource-list"

    def __init__(self, provider: MetadataProvider):
        self.provider = provider
        self.book = _ResourceSubscribers()
        self.cost = StrategyCost()

    def _subs_for_rule(self, rule_id: int):
        return self.provider.registry.subscriptions_for({rule_id})

    def _closure_uris(self, uri: URIRef) -> set[URIRef]:
        """Transitive strong-reference targets, read from filter_data."""
        schema = self.provider.schema
        strong_pairs = {
            (class_name, prop.name)
            for class_name in schema.class_names()
            for prop in schema.strong_reference_properties(class_name)
        }
        closure: set[URIRef] = set()
        frontier = [str(uri)]
        while frontier:
            current = frontier.pop()
            rows = self.provider.db.query_all(
                "SELECT class, property, value FROM filter_data "
                "WHERE uri_reference = ?",
                (current,),
            )
            for row in rows:
                if (row["class"], row["property"]) not in strong_pairs:
                    continue
                target = URIRef(row["value"])
                if target not in closure:
                    closure.add(target)
                    frontier.append(str(target))
        return closure

    def process_diff(self, diff: DocumentDiff) -> PublishOutcome:
        engine = self.provider.engine
        if not diff.old_versions_of_changed():
            outcome = engine.process_insertions(diff.inserted)
            self.cost.filter_passes += 1
            self.book.record(outcome, self._subs_for_rule, self._closure_uris)
            return outcome

        # Apply the change and run ONE filter pass for new matches.
        from repro.filter.decompose import resources_atoms

        changed_uris = [str(r.uri) for r in diff.old_versions_of_changed()]
        engine._filter_data.delete_for(changed_uris)
        # Drop the changed resources' own materialized derivations; rows
        # derived *through* them at other resources stay until the
        # per-resource re-evaluation (this strategy's trade-off).
        engine._materialized.delete_uris(changed_uris)
        new_resources = diff.new_versions_of_changed()
        engine._filter_data.insert_atoms(resources_atoms(new_resources))
        run = engine.run(
            input_atoms=resources_atoms(new_resources),
            materialize=True,
            collect="end",
        )
        self.cost.filter_passes += 1
        outcome = PublishOutcome()
        outcome.passes.append(run)
        outcome.matched = run.by_rule
        outcome.deleted = {r.uri for r in diff.deleted}

        # Eviction decisions: re-evaluate the full rule of every
        # subscription attached to a changed cached resource.
        all_subs = {
            s.sub_id: s for s in self.provider.registry.all_subscriptions()
        }
        affected = {URIRef(uri) for uri in changed_uris}
        entries: set[tuple[int, URIRef]] = set()
        for uri in sorted(affected):
            entries.update(self.book.by_resource.get(uri, ()))
        forget: list[tuple[int, URIRef]] = []
        for sub_id, registered in sorted(entries):
            subscription = all_subs.get(sub_id)
            if subscription is None:
                continue
            rule = parse_rule(subscription.rule_text.split("#or")[0])
            query = Query(rule.extensions, rule.register, rule.where)
            matches = run_query_sql(
                self.provider.db, query, self.provider.schema
            )
            self.cost.full_rule_evaluations += 1
            if registered not in matches:
                outcome.unmatched.setdefault(
                    subscription.end_rule, set()
                ).add(registered)
                forget.append((sub_id, registered))
            else:
                # Still matching after the change: refresh the copy.
                outcome.add_matched(subscription.end_rule, registered)
        self.book.forget(forget)
        self.book.record(outcome, self._subs_for_rule, self._closure_uris)
        return outcome


class TTLStrategy:
    """Publish-only consistency: stale entries simply expire."""

    name = "ttl"

    def __init__(self, provider: MetadataProvider):
        self.provider = provider
        self.cost = StrategyCost()

    def process_diff(self, diff: DocumentDiff) -> PublishOutcome:
        engine = self.provider.engine
        from repro.filter.decompose import resources_atoms

        old_changed = diff.old_versions_of_changed()
        if old_changed:
            changed_uris = [str(r.uri) for r in old_changed]
            engine._filter_data.delete_for(changed_uris)
            # Stale derivations *through* changed resources age out with
            # the TTL; the changed resources' own rows go now.
            engine._materialized.delete_uris(changed_uris)
        new_resources = diff.new_versions_of_changed()
        engine._filter_data.insert_atoms(resources_atoms(new_resources))
        run = engine.run(
            input_atoms=resources_atoms(new_resources),
            materialize=True,
            collect="end",
        )
        self.cost.filter_passes += 1
        outcome = PublishOutcome()
        outcome.passes.append(run)
        outcome.matched = run.by_rule
        outcome.deleted = {r.uri for r in diff.deleted}
        return outcome


def expire_stale_entries(cache: CacheStore, now: int, ttl: int) -> int:
    """TTL expiry pass at the LMR: evict entries not refreshed in time.

    Local metadata never expires.  Returns the number of evictions.
    """
    evicted = 0
    for uri in list(cache.uris()):
        entry = cache.get(uri)
        if entry is None or entry.is_local:
            continue
        if now - entry.refreshed_at > ttl:
            if cache.evict(uri):
                evicted += 1
    return evicted

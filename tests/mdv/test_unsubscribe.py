"""Unsubscribe by rule text: ``#or`` conjuncts, prefixes, atom cleanup.

A rule with ``or`` is stored as one subscription per conjunct, under
``<text>#or<i>``.  ``MetadataProvider.unsubscribe`` finds a subscriber's
stored texts by an index range probe and then applies the exact match:
the original text removes every conjunct, a stored conjunct text removes
only itself, and a rule whose text merely starts with another's is never
touched by the other's unsubscribe.
"""

import pytest

from repro.errors import SubscriptionError
from repro.mdv.provider import MetadataProvider

PORT = "search CycleProvider c register c where c.serverPort = "
TWO_CONJUNCTS = (
    "search CycleProvider c register c "
    "where c.serverHost contains 'passau' or c.serverHost contains 'tum'"
)


@pytest.fixture()
def mdp(schema):
    return MetadataProvider(schema, name="mdp-unsubscribe")


def stored_texts(mdp, subscriber):
    return sorted(s.rule_text for s in mdp.registry.subscriptions_of(subscriber))


def test_original_text_removes_every_conjunct(mdp):
    mdp.subscribe("lmr", TWO_CONJUNCTS)
    mdp.subscribe("other", TWO_CONJUNCTS)
    assert stored_texts(mdp, "lmr") == [
        f"{TWO_CONJUNCTS}#or0", f"{TWO_CONJUNCTS}#or1",
    ]
    mdp.unsubscribe("lmr", TWO_CONJUNCTS)
    assert stored_texts(mdp, "lmr") == []
    # Another subscriber's identical rule is untouched.
    assert len(stored_texts(mdp, "other")) == 2


def test_stored_conjunct_text_removes_only_that_conjunct(mdp):
    mdp.subscribe("lmr", TWO_CONJUNCTS)
    mdp.unsubscribe("lmr", f"{TWO_CONJUNCTS}#or1")
    assert stored_texts(mdp, "lmr") == [f"{TWO_CONJUNCTS}#or0"]


@pytest.mark.parametrize("removed, kept", [("1", "10"), ("10", "1")])
def test_prefix_texts_do_not_touch_each_other(mdp, removed, kept):
    mdp.subscribe("lmr", PORT + "1")
    mdp.subscribe("lmr", PORT + "10")
    mdp.unsubscribe("lmr", PORT + removed)
    assert stored_texts(mdp, "lmr") == [PORT + kept]


def test_prefix_of_an_or_rule_is_a_different_rule(mdp):
    or_rule = PORT + "1 or c.serverPort = 2"
    mdp.subscribe("lmr", PORT + "1")
    mdp.subscribe("lmr", or_rule)
    mdp.unsubscribe("lmr", PORT + "1")
    assert stored_texts(mdp, "lmr") == [f"{or_rule}#or0", f"{or_rule}#or1"]
    with pytest.raises(SubscriptionError):
        mdp.unsubscribe("lmr", PORT + "1")


def test_unsubscribe_collects_dead_atoms(mdp):
    before = mdp.registry.atom_count()
    mdp.subscribe("lmr", TWO_CONJUNCTS)
    mdp.subscribe("lmr", PORT + "1")
    assert mdp.registry.atom_count() > before
    mdp.unsubscribe("lmr", TWO_CONJUNCTS)
    mdp.unsubscribe("lmr", PORT + "1")
    assert mdp.registry.atom_count() == before


def test_subscribers_are_distinct_sorted_and_exclude_named_rules(mdp):
    mdp.register_named_rule("passau", PORT + "443")
    for subscriber, port in (("lmr-b", "1"), ("lmr-a", "1"), ("lmr-b", "2")):
        mdp.subscribe(subscriber, PORT + port)
    assert mdp.registry.subscribers() == ["lmr-a", "lmr-b"]

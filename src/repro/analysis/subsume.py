"""Subsumption and duplication checking against the live rule registry.

Before a candidate rule's atoms are merged into the global dependency
graph, this module compares its decomposition with every registered
subscription and reports:

- **exact duplicates** (``MDV020``) — same canonical end-rule text, or a
  semantically equivalent tree with different spelling;
- **subsumed candidates** (``MDV021``) — an existing subscription is
  strictly more general, so every notification the candidate would
  produce is already produced;
- **subsuming candidates** (``MDV022``) — the candidate is strictly more
  general than an existing subscription.

The containment test is recursive over the dependency trees: two trees
are comparable when their join rules share group signatures position by
position (canonical orientation makes the left/right order stable), and
direction is decided at the leaves by per-operator interval containment
on triggering atoms (see :mod:`repro.analysis.intervals`).  This is
sound because every operator of the rule language is monotone in its
input extensions: shrinking a leaf extension can only shrink the end
rule's results.  Incomparable shapes are skipped, never guessed.
"""

from __future__ import annotations

from repro.rules.atoms import AtomNode, JoinAtom, TriggeringAtom
from repro.rules.decompose import DecomposedRule
from repro.rules.registry import RuleRegistry

from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.intervals import predicate_implies

__all__ = ["check_subsumption", "atom_implies", "tree_direction"]


def atom_implies(a: TriggeringAtom, b: TriggeringAtom) -> bool:
    """Whether every resource matched by ``a`` is matched by ``b``.

    Class containment uses the extension class sets, so a rule over a
    subclass is recognized as stricter than the same rule over its
    superclass.  A class-only atom is the top element of its class.
    """
    if not set(a.extension_classes) <= set(b.extension_classes):
        return False
    if b.is_class_only:
        return True
    if a.is_class_only:
        return False
    if a.prop != b.prop or a.numeric != b.numeric:
        return False
    assert a.operator is not None and a.value is not None
    assert b.operator is not None and b.value is not None
    return predicate_implies(a.operator, a.value, b.operator, b.value, a.numeric)


def tree_direction(a: AtomNode, b: AtomNode) -> tuple[bool, bool]:
    """Containment between two dependency trees.

    Returns ``(a_subset_of_b, b_subset_of_a)``; ``(False, False)`` when
    the trees are incomparable (different join shapes).
    """
    if isinstance(a, TriggeringAtom) and isinstance(b, TriggeringAtom):
        return atom_implies(a, b), atom_implies(b, a)
    if isinstance(a, JoinAtom) and isinstance(b, JoinAtom):
        if a.group_signature != b.group_signature:
            return False, False
        left_fwd, left_bwd = tree_direction(a.left, b.left)
        right_fwd, right_bwd = tree_direction(a.right, b.right)
        return left_fwd and right_fwd, left_bwd and right_bwd
    return False, False


def check_subsumption(
    decomposed: DecomposedRule,
    registry: RuleRegistry,
    subscriber: str | None = None,
    source: str | None = None,
) -> AnalysisReport:
    """Compare a candidate decomposition against all registered rules.

    Call *before* the candidate's atoms are persisted — once merged, the
    candidate would compare equal to its own atoms.  ``subscriber``
    (when given) only annotates messages; duplicates are reported for
    any subscriber, since shared atoms make cross-subscriber duplicates
    cheap but a same-subscriber duplicate is usually a mistake.
    """
    report = AnalysisReport()
    source_text = source or decomposed.source.source_text
    candidate_end = decomposed.end
    seen_end_rules: set[int] = set()
    for subscription in registry.all_subscriptions():
        if subscription.end_rule in seen_end_rules:
            continue
        seen_end_rules.add(subscription.end_rule)
        existing_end = registry.load_atom(subscription.end_rule)
        label = _label(subscription.subscriber, subscription.rule_text)
        if existing_end.key == candidate_end.key:
            severity = (
                Severity.ERROR
                if subscriber is not None
                and subscription.subscriber == subscriber
                else Severity.WARNING
            )
            report.add(
                severity,
                "MDV020",
                f"rule is an exact duplicate of {label}",
                hint="the registry shares the atoms; unsubscribe one of "
                "the two to drop the redundant notification stream",
                source=source_text,
            )
            continue
        forward, backward = tree_direction(candidate_end, existing_end)
        if forward and backward:
            report.add(
                Severity.WARNING,
                "MDV020",
                f"rule is semantically equivalent to {label}",
                source=source_text,
            )
        elif forward:
            report.add(
                Severity.WARNING,
                "MDV021",
                f"rule is subsumed by the more general {label}",
                hint="every resource this rule matches is already "
                "delivered by the existing subscription",
                source=source_text,
            )
        elif backward:
            report.add(
                Severity.INFO,
                "MDV022",
                f"rule subsumes the stricter {label}",
                source=source_text,
            )
    return report


def _label(subscriber: str, rule_text: str) -> str:
    if subscriber.startswith("~named~"):
        return f"named rule {subscriber[len('~named~'):]!r} ({rule_text!r})"
    return f"subscription {rule_text!r} of {subscriber!r}"

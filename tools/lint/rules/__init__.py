"""leaky-lint rule registry.

Each rule is an object with:

  ``rule_id``   stable kebab-case id, printed in diagnostics and used
                by the waiver grammar ``// lint:allow(rule-id): reason``
  ``summary``   one-line description (``--list-rules --verbose``)
  ``applies(relpath)``
                scope predicate over the repo-root-relative posix path
  ``check(ctx)``
                returns a list of ``(line, message)`` violations

Rules scan the comment-stripped token stream from
:mod:`cpplex` — never raw text — so banned names inside strings, raw
strings, and comments can not fire, and ``static_assert`` is naturally
distinct from ``assert``.

Two meta rule ids are emitted by the engine itself rather than by a
rule object, and are registered here so ``--list-rules`` and the
docs/LINTING.md cross-check cover them:

  ``bad-waiver``     malformed waiver comment, unknown rule id, or
                     empty reason
  ``unused-waiver``  a waiver that suppressed no diagnostic — stale
                     waivers are themselves contract violations
"""

from . import (access, assertions, builder, channels, covert, determinism,
               signals)

#: Rule ids the engine emits without a rule object.
META_RULE_IDS = ("bad-waiver", "unused-waiver")

#: Meta-rule summaries (for --list-rules --verbose and docs).
META_RULE_SUMMARIES = {
    "bad-waiver": "Waiver comment is malformed, names an unknown rule, "
                  "or gives no reason",
    "unused-waiver": "Waiver suppressed no diagnostic; delete it or "
                     "fix the rule id / target line",
}

ALL_RULES = (
    determinism.NoWallclock(),
    determinism.NoAmbientRng(),
    determinism.NoUnorderedIterationInResultPaths(),
    channels.ExplicitChannel(),
    covert.SingleCovertLoop(),
    access.SingleAccessLoop(),
    access.TypedReadPath(),
    builder.SingleSystemBuilder(),
    builder.SingleRunLoop(),
    assertions.NoRawAssert(),
    assertions.NoSideEffectDchecks(),
    signals.SignalHandlerSafety(),
)


def all_rule_ids():
    """Every id a diagnostic can carry, sorted: rules + meta rules."""
    return sorted([r.rule_id for r in ALL_RULES] + list(META_RULE_IDS))


def rule_summaries():
    """id -> one-line summary, meta rules included."""
    out = {r.rule_id: r.summary for r in ALL_RULES}
    out.update(META_RULE_SUMMARIES)
    return out

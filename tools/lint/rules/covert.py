"""Single-covert-loop rule.

Every covert transmission goes through one loop,
``attack::runCovertChannel`` (``src/attack/covert.cc``): construct each
pair's sender and receiver, start them at one epoch, run to the
deadline, collect. Hand-rolled copies of that loop drift apart (two
once ran without the deadline), so ``CovertSender`` and
``CovertReceiver`` may be constructed only in ``src/attack/covert.cc``
(and declared in its header).
"""

from .base import Rule

_CLASSES = frozenset(("CovertSender", "CovertReceiver"))
_HOMES = ("src/attack/covert.cc", "src/attack/covert.hh")


class SingleCovertLoop(Rule):
    rule_id = "single-covert-loop"
    summary = ("attack::CovertSender / CovertReceiver may be constructed "
               "only in src/attack/covert.cc")

    def applies(self, relpath):
        return relpath not in _HOMES

    def check(self, ctx):
        out = []
        toks = ctx.tokens
        for i, t in enumerate(toks):
            if t.kind != "ident" or t.text not in _CLASSES:
                continue
            # A variable declaration (`CovertSender s(...)`), a
            # temporary or new-expression (`CovertSender(...)` /
            # `{...}`) or a template argument (`make_unique<...>`,
            # `unique_ptr<...>>`) constructs or owns one; a reference,
            # pointer, forward declaration or `::` member use does not.
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            constructs = nxt is not None and (
                nxt.kind == "ident" or nxt.text in ("(", "{", ">", ">>"))
            if constructs:
                out.append(
                    (t.line,
                     "%s constructed outside src/attack/covert.cc; run "
                     "transmissions through attack::runCovertChannel "
                     "(or core::runScenario)" % t.text))
        return out

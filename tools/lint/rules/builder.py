"""Single-system-builder rule.

Every simulation is set up in one place, ``core::Simulation``
(``src/core/experiments.cc``): it builds the ``sys::System`` from a
declared ``core::Environment`` and starts the traffic around the
measured agent. Hand-built systems each grew their own agent order,
core numbering and run loop, so in ``src/`` a ``System`` may be
constructed only by that builder (``src/core/experiments.{hh,cc}``)
and by ``attack::calibrateCuts``' throwaway systems in
``src/attack/covert.cc``. The class's own files
(``src/sys/system.{hh,cc}``) declare it and are exempt.
"""

from .base import Rule, in_dir

_HOMES = (
    "src/core/experiments.hh",
    "src/core/experiments.cc",
    "src/attack/covert.cc",
    "src/sys/system.hh",
    "src/sys/system.cc",
)


class SingleSystemBuilder(Rule):
    rule_id = "single-system-builder"
    summary = ("sys::System may be constructed in src/ only by "
               "core::Simulation and in src/attack/covert.cc")

    def applies(self, relpath):
        return in_dir(relpath, "src") and relpath not in _HOMES

    def check(self, ctx):
        out = []
        toks = ctx.tokens
        for i, t in enumerate(toks):
            if t.kind != "ident" or t.text != "System":
                continue
            # A variable or member declaration (`System s(...)`,
            # `System s;`), a temporary or new-expression
            # (`System(...)` / `{...}`) or a template argument
            # (`make_unique<...>`, `unique_ptr<...>>`) builds or owns
            # one; a reference, pointer or `::` member use does not.
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            constructs = nxt is not None and (
                nxt.kind == "ident" or nxt.text in ("(", "{", ">", ">>"))
            if constructs:
                out.append(
                    (t.line,
                     "sys::System constructed outside core::Simulation; "
                     "declare a core::Environment and build it there"))
        return out

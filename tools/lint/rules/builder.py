"""Single-system-builder and single-run-loop rules.

Every simulation is set up in one place, ``core::Simulation``
(``src/core/experiments.cc``): it builds the ``sys::System`` from a
declared ``core::Environment`` and starts the traffic around the
measured agent. Hand-built systems each grew their own agent order,
core numbering and run loop, so in ``src/`` a ``System`` may be
constructed only by that builder (``src/core/experiments.{hh,cc}``)
and by ``attack::calibrateCuts``' throwaway systems in
``src/attack/covert.cc``. The class's own files
(``src/sys/system.{hh,cc}``) declare it and are exempt.

Every run of a built system ends at the event that fixes its result
(``System::stop()``), or at its deadline. A hand-written loop of
``run(slice)`` calls polled a predicate between slices instead and
simulated on to the end of each slice, so in ``src/`` a run loop
(``.run(`` / ``.runUntil(``, or through ``->``) may be called only by
``core::Simulation``'s runners (``src/core/experiments.cc``), the covert
pair loop (``src/attack/covert.cc``) and ``System`` itself
(``src/sys/system.cc``).
"""

from .base import Rule, calls_of, in_dir

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


_RUN_HOMES = (
    "src/core/experiments.cc",
    "src/attack/covert.cc",
    "src/sys/system.cc",
)


class SingleRunLoop(Rule):
    rule_id = "single-run-loop"
    summary = ("System::run may be called in src/ only by core::Simulation's "
               "runners, the covert pair loop and System itself")

    def applies(self, relpath):
        return in_dir(relpath, "src") and relpath not in _RUN_HOMES

    def check(self, ctx):
        out = []
        toks = ctx.tokens
        for name in ("run", "runUntil"):
            for i in calls_of(toks, name):
                # Only a member call (`system.run(...)`, `eq->runUntil(`)
                # runs a loop; a declaration or definition does not.
                if i > 0 and toks[i - 1].text in (".", "->"):
                    out.append(
                        (toks[i].line,
                         "simulation run loop outside core::Simulation; "
                         "stop the run at the event that fixes the result "
                         "(System::stop) in src/core/experiments.cc"))
        return sorted(out)

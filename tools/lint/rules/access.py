"""Single-access-loop and typed-read-path rules.

Every LeakyHammer attack agent runs the same Listing-1 loop: clflush
+ load + timestamp, the previous iteration's end reused as the next
start. ``attack::AccessLoop`` (``src/attack/probe.cc``) is that loop,
written once: it charges ``kIterOverhead`` to each step, issues the
read and keeps the latency mark. Eight hand-written copies once nested
``schedule(kIterOverhead, ...)`` around ``issueRead(...)``, each with
its own mark and a callable built per access, so in ``src/attack/`` an
``issueRead(`` call or a ``schedule(kIterOverhead`` may appear only in
``src/attack/probe.cc``.

Every read in ``src/`` completes through a typed sink: the requestor
implements ``sys::ReadSink`` and passes itself with a tag, so a read
builds no callable. The callback form survives only as ``System``'s
adapter for tests and benches, so in ``src/`` the name
``ReadCallback`` may appear only in ``src/sys/system.{hh,cc}``.
"""

from .base import Rule, calls_of, in_dir

_HOME = "src/attack/probe.cc"
_ADAPTER = ("src/sys/system.hh", "src/sys/system.cc")


class SingleAccessLoop(Rule):
    rule_id = "single-access-loop"
    summary = ("in src/attack/, issueRead( and schedule(kIterOverhead "
               "may appear only in attack::AccessLoop (src/attack/probe.cc)")

    def applies(self, relpath):
        return in_dir(relpath, "src/attack") and relpath != _HOME

    def check(self, ctx):
        out = []
        toks = ctx.tokens
        for i in calls_of(toks, "issueRead"):
            out.append((toks[i].line,
                        "agent read issued outside attack::AccessLoop; "
                        "return the address from AccessLoop::Agent::step()"))
        for i in calls_of(toks, "schedule"):
            arg = toks[i + 2] if i + 2 < len(toks) else None
            if arg is not None and arg.text == "kIterOverhead":
                out.append((toks[i].line,
                            "attack-loop step scheduled outside "
                            "attack::AccessLoop; arm it with "
                            "AccessLoop::arm()"))
        return sorted(out)


class TypedReadPath(Rule):
    rule_id = "typed-read-path"
    summary = ("in src/, ReadCallback may appear only in "
               "src/sys/system.{hh,cc}, the callback adapter")

    def applies(self, relpath):
        return in_dir(relpath, "src") and relpath not in _ADAPTER

    def check(self, ctx):
        return [(t.line,
                 "read completion as a callable; implement sys::ReadSink "
                 "and issue the read with a tag")
                for t in ctx.tokens
                if t.kind == "ident" and t.text == "ReadCallback"]

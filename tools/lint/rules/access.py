"""Single-access-loop rule.

Every LeakyHammer attack agent runs the same Listing-1 loop: clflush
+ load + timestamp, the previous iteration's end reused as the next
start. ``attack::AccessLoop`` (``src/attack/probe.cc``) is that loop,
written once: it charges ``kIterOverhead`` to each step, issues the
read and keeps the latency mark. Eight hand-written copies once nested
``schedule(kIterOverhead, ...)`` around ``issueRead(...)``, each with
its own mark and a callable built per access, so in ``src/attack/`` an
``issueRead(`` call or a ``schedule(kIterOverhead`` may appear only in
``src/attack/probe.cc``.
"""

from .base import Rule, calls_of, in_dir

_HOME = "src/attack/probe.cc"


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

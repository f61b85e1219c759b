"""Determinism rules: the bit-identical reproduction contract at rest.

Every figure CSV, golden file, and fuzz artifact this repo produces is
promised to be byte-identical for any thread count, shard count, or
resume schedule. These rules ban the three ways that promise quietly
rots: wall-clock reads feeding simulation results, randomness (or
``std::hash`` values, which the standard leaves implementation-defined)
that does not flow through ``sim::seedFanout``, and hash-order
iteration on a path that renders output rows.
"""

from .base import Rule, in_dir, match_close

# Chrono clocks and C time APIs whose mere presence in simulation code
# is a violation — simulated Ticks are the only time source.
_CLOCK_IDENTS = frozenset((
    "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "clock_gettime", "timespec_get", "ftime",
))
# C functions that are only violations when *called* (the bare names
# are common as members/locals: `job.time`, `Tick time` ...).
_CLOCK_CALLS = frozenset(("time", "clock"))

_ENGINE_IDENTS = frozenset((
    "random_device", "mt19937", "mt19937_64", "minstd_rand",
    "minstd_rand0", "default_random_engine", "knuth_b",
    "ranlux24", "ranlux24_base", "ranlux48", "ranlux48_base",
))
_RAND_CALLS = frozenset(("rand", "srand", "rand_r", "random", "srandom"))

_UNORDERED = frozenset((
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
))


def _is_std_hash(tokens, i):
    """True when tokens[i] is the `hash` of `std::hash`."""
    return tokens[i].text == "hash" and i >= 2 and \
        tokens[i - 1].text == "::" and tokens[i - 2].text == "std"


def _is_member_access(tokens, i):
    """True when tokens[i] is reached via `.` or `->` (a member)."""
    if i == 0:
        return False
    return tokens[i - 1].kind == "punct" and \
        tokens[i - 1].text in (".", "->")


# Keywords that precede an *expression*, so `return time(...)` is a
# call, not a declaration `Tick time(...)`.
_EXPR_KEYWORDS = frozenset((
    "return", "throw", "case", "else", "do", "goto",
    "co_return", "co_yield", "co_await",
))


def _is_declared_name(tokens, i):
    """True when tokens[i] names a declared entity (`Tick time(...)`):
    the previous token is a (non-expression-keyword) identifier or a
    closing angle bracket of a template type (`std::vector<int> time`)."""
    if i == 0:
        return False
    p = tokens[i - 1]
    if p.kind == "ident":
        return p.text not in _EXPR_KEYWORDS
    return p.kind == "punct" and p.text == ">"


class NoWallclock(Rule):
    rule_id = "no-wallclock"
    summary = ("Wall-clock reads are banned in src/ — simulation time "
               "is sim ticks only")

    def applies(self, relpath):
        return in_dir(relpath, "src")

    def check(self, ctx):
        out = []
        toks = ctx.tokens
        for i, t in enumerate(toks):
            if t.kind != "ident":
                continue
            if t.text in _CLOCK_IDENTS:
                out.append((t.line,
                            "wall-clock source '%s' in simulation code; "
                            "results must depend on sim ticks only"
                            % t.text))
            elif t.text in _CLOCK_CALLS and i + 1 < len(toks) and \
                    toks[i + 1].kind == "punct" and \
                    toks[i + 1].text == "(" and \
                    not _is_member_access(toks, i) and \
                    not _is_declared_name(toks, i):
                out.append((t.line,
                            "call to wall-clock function '%s()'"
                            % t.text))
        return out


class NoAmbientRng(Rule):
    rule_id = "no-ambient-rng"
    summary = ("All randomness must flow through sim::seedFanout / "
               "sim::Rng; std engines, std::rand and std::hash are "
               "banned")

    def applies(self, relpath):
        # sim/rng.hh is the one sanctioned randomness implementation.
        return in_dir(relpath, "src", "tests", "bench") and \
            relpath != "src/sim/rng.hh"

    def check(self, ctx):
        out = []
        toks = ctx.tokens
        for i, t in enumerate(toks):
            if t.kind != "ident":
                continue
            if t.text in _ENGINE_IDENTS:
                out.append((t.line,
                            "ambient randomness source '%s'; seed a "
                            "sim::Rng via sim::seedFanout instead"
                            % t.text))
            elif t.text in _RAND_CALLS and i + 1 < len(toks) and \
                    toks[i + 1].kind == "punct" and \
                    toks[i + 1].text == "(" and \
                    not _is_member_access(toks, i) and \
                    not _is_declared_name(toks, i):
                out.append((t.line,
                            "call to ambient RNG '%s()'" % t.text))
            elif _is_std_hash(toks, i):
                out.append((t.line,
                            "std::hash values are implementation-"
                            "defined; write the seed as a literal or "
                            "derive it with sim::seedFanout"))
        return out


class NoUnorderedIterationInResultPaths(Rule):
    """Range-for over an unordered container in a file that renders
    CSV/report rows.

    Hash iteration order is unspecified across standard libraries and
    can change with load factor; letting it reach an output row breaks
    the byte-identical contract in the least debuggable way possible.
    A file is a *result path* when its code mentions a CSV- or
    report-flavoured identifier (``csvCell``, ``mergedCsv``,
    ``renderReport``...). Detection is per-file plus the sibling
    header, so members declared in ``foo.hh`` are known while checking
    ``foo.cc``.
    """

    rule_id = "no-unordered-iteration-in-result-paths"
    summary = ("No range-for over unordered containers in files that "
               "render CSV/report rows")

    def applies(self, relpath):
        return in_dir(relpath, "src")

    def check(self, ctx):
        toks = ctx.tokens
        if not self._is_result_path(toks):
            return []
        names = self._unordered_names(ctx.sibling_tokens)
        names |= self._unordered_names(toks)
        names |= self._aliases(toks, names)
        if not names:
            return []
        out = []
        for line, range_expr in self._range_fors(toks):
            for t in range_expr:
                if t.kind == "ident" and t.text in names:
                    out.append(
                        (line,
                         "range-for over unordered container '%s' in a "
                         "result path; hash order is not part of the "
                         "bit-identical contract — use an ordered "
                         "container or sort before rendering" % t.text))
                    break
        return out

    @staticmethod
    def _is_result_path(toks):
        for t in toks:
            if t.kind != "ident":
                continue
            low = t.text.lower()
            if "csv" in low or "report" in low:
                return True
        return False

    @staticmethod
    def _unordered_names(toks):
        """Names declared with an unordered_{map,set,...} type."""
        names = set()
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.kind == "ident" and t.text in _UNORDERED and \
                    i + 1 < len(toks) and toks[i + 1].text == "<":
                close = match_close(toks, i + 1, "<", ">")
                if close is not None and close + 1 < len(toks) and \
                        toks[close + 1].kind == "ident":
                    names.add(toks[close + 1].text)
                    i = close + 2
                    continue
            i += 1
        return names

    @staticmethod
    def _aliases(toks, names):
        """One-hop `auto [&]x = <...>.member;` aliases of known names.

        Only plain member-access initialisers count — an initialiser
        containing a call (``m.find(k)``) yields an iterator, not the
        container, and must not taint the alias.
        """
        aliases = set()
        for i, t in enumerate(toks):
            if t.kind != "ident" or t.text != "auto":
                continue
            j = i + 1
            while j < len(toks) and toks[j].text in ("&", "const"):
                j += 1
            if j + 1 >= len(toks) or toks[j].kind != "ident" or \
                    toks[j + 1].text != "=":
                continue
            alias = toks[j].text
            k = j + 2
            init = []
            while k < len(toks) and toks[k].text != ";":
                init.append(toks[k])
                k += 1
            if any(t2.text == "(" for t2 in init):
                continue
            if any(t2.kind == "ident" and t2.text in names
                   for t2 in init):
                aliases.add(alias)
        return aliases

    @staticmethod
    def _range_fors(toks):
        """Yield (line, range_expression_tokens) per range-based for."""
        for i, t in enumerate(toks):
            if t.kind != "ident" or t.text != "for":
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            close = match_close(toks, i + 1)
            if close is None:
                continue
            body = toks[i + 2:close]
            colon = None
            depth = 0
            for k, b in enumerate(body):
                if b.kind != "punct":
                    continue
                if b.text in ("(", "[", "{", "<"):
                    depth += 1
                elif b.text in (")", "]", "}", ">"):
                    depth -= 1
                elif b.text == ":" and depth <= 0:
                    colon = k
                    break
            if colon is not None:
                yield t.line, body[colon + 1:]

#!/usr/bin/env python3
"""Self-test for tools/lint/leaky_lint.py, run from ctest.

A pinned accept/reject table of code snippets per rule (mirroring the
``MappingSpec`` / ``HammerPattern`` grammar-table idiom used by the C++
tests): each case writes a snippet into a temp tree at a chosen
relative path, runs the real lint engine over it, and asserts exactly
the expected ``[rule-id]``s fire on the expected lines. Waiver
parsing, unused-waiver errors, and the raw-string/comment lexer edge
cases get their own tables.
"""

import os
import sys
import tempfile
import unittest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO, "tools", "lint"))

import cpplex  # noqa: E402
import leaky_lint  # noqa: E402
import rules as rules_pkg  # noqa: E402


def run_lint(relpath, source, extra_files=()):
    """Lint one snippet as if it lived at ``relpath`` in the repo.

    Returns a sorted list of ``(line, rule_id)``. ``extra_files`` is a
    list of (relpath, source) written alongside (e.g. a sibling
    header).
    """
    known = set(rules_pkg.all_rule_ids())
    with tempfile.TemporaryDirectory() as root:
        for rel, text in list(extra_files) + [(relpath, source)]:
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        path = os.path.join(root, relpath)
        diags = leaky_lint.lint_file(path, relpath,
                                     rules_pkg.ALL_RULES, known)
    return sorted((line, rule_id) for _, line, rule_id, _ in diags)


def fired(relpath, source, extra_files=()):
    return sorted({rule_id
                   for _, rule_id in run_lint(relpath, source,
                                              extra_files)})


class GrammarTable(unittest.TestCase):
    """One accept + one reject snippet per rule, table-driven."""

    # (name, relpath, snippet, expected rule ids)
    TABLE = [
        # ---------------------------------------------- no-wallclock
        ("wallclock_chrono_rejected", "src/sim/foo.cc",
         "void f() { auto t = std::chrono::steady_clock::now(); }\n",
         ["no-wallclock"]),
        ("wallclock_ctime_call_rejected", "src/sim/foo.cc",
         "long f() { return time(nullptr); }\n",
         ["no-wallclock"]),
        ("wallclock_member_time_accepted", "src/sim/foo.cc",
         "long f(Job &j) { return j.time(); }\n",
         []),
        ("wallclock_time_declaration_accepted", "src/sim/foo.cc",
         "Tick time(Tick t);\n",
         []),
        ("wallclock_outside_src_accepted", "tests/foo.cc",
         "void f() { auto t = std::chrono::steady_clock::now(); }\n",
         []),
        # -------------------------------------------- no-ambient-rng
        ("rng_engine_rejected", "src/sim/foo.cc",
         "std::mt19937 gen(42);\n",
         ["no-ambient-rng"]),
        ("rng_random_device_rejected", "src/attack/foo.cc",
         "std::random_device rd;\n",
         ["no-ambient-rng"]),
        ("rng_std_rand_rejected", "bench/foo.cc",
         "int f() { return std::rand(); }\n",
         ["no-ambient-rng"]),
        ("rng_engine_in_tests_rejected", "tests/foo.cc",
         "std::mt19937 gen(42);\n",
         ["no-ambient-rng"]),
        ("rng_sanctioned_home_accepted", "src/sim/rng.hh",
         "// the one place engines may live\nstd::mt19937 gen(42);\n",
         []),
        ("rng_sim_rng_accepted", "src/sim/foo.cc",
         "sim::Rng rng(sim::seedFanout(base, 3));\n",
         []),
        ("rng_std_hash_seed_rejected", "src/workload/foo.cc",
         "std::uint64_t s = std::hash<std::string>{}(name);\n",
         ["no-ambient-rng"]),
        ("rng_own_hash_member_accepted", "src/workload/foo.cc",
         "std::uint64_t s = table.hash(name) ^ detail::hash(7);\n",
         []),
        # ------------------ no-unordered-iteration-in-result-paths
        ("unordered_iter_in_csv_file_rejected", "src/core/foo.cc",
         "std::unordered_map<int, int> counts;\n"
         "std::string renderCsv() {\n"
         "    std::string out;\n"
         "    for (const auto &kv : counts) out += csvCell(kv.second);\n"
         "    return out;\n"
         "}\n",
         ["no-unordered-iteration-in-result-paths"]),
        ("unordered_iter_without_result_path_accepted",
         "src/defense/foo.cc",
         "std::unordered_map<int, int> counts;\n"
         "int maxOf() {\n"
         "    int m = 0;\n"
         "    for (const auto &kv : counts) m = std::max(m, kv.second);\n"
         "    return m;\n"
         "}\n",
         []),
        ("unordered_lookup_in_csv_file_accepted", "src/core/foo.cc",
         "std::unordered_map<int, int> counts;\n"
         "std::string renderCsv(int k) {\n"
         "    auto it = counts.find(k);\n"
         "    return csvCell(it->second);\n"
         "}\n",
         []),
        ("ordered_iter_in_csv_file_accepted", "src/core/foo.cc",
         "std::map<int, int> counts;\n"
         "std::string renderCsv() {\n"
         "    std::string out;\n"
         "    for (const auto &kv : counts) out += csvCell(kv.second);\n"
         "    return out;\n"
         "}\n",
         []),
        # ------------------------------------------ explicit-channel
        ("channel_literal_rejected", "src/attack/foo.cc",
         "void f(sys::System &s) { s.controller(0).stats(); }\n",
         ["explicit-channel"]),
        ("channel_stats_literal_rejected", "src/core/foo.cc",
         "void f(sys::System &s) { s.stats(1); }\n",
         ["explicit-channel"]),
        ("channel_variable_accepted", "src/attack/foo.cc",
         "void f(sys::System &s, unsigned ch) {"
         " s.controller(ch).stats(); }\n",
         []),
        ("channel_outside_scope_accepted", "src/runner/foo.cc",
         "void f(sys::System &s) { s.controller(0).stats(); }\n",
         []),
        # ---------------------------------------- single-covert-loop
        ("covert_local_sender_rejected", "src/core/foo.cc",
         "void f(sys::System &s, const CovertConfig &c) {"
         " attack::CovertSender sender(s, c); }\n",
         ["single-covert-loop"]),
        ("covert_make_unique_receiver_rejected", "tests/foo.cc",
         "auto r = std::make_unique<attack::CovertReceiver>(s, c);\n",
         ["single-covert-loop"]),
        ("covert_owning_vector_rejected", "src/runner/foo.cc",
         "std::vector<std::unique_ptr<CovertSender>> senders;\n",
         ["single-covert-loop"]),
        ("covert_home_accepted", "src/attack/covert.cc",
         "CovertSender::CovertSender(sys::MemoryPort &p,"
         " const CovertConfig &c) : port_(p), cfg_(c) {}\n"
         "void g(sys::System &s, const CovertConfig &c) {"
         " CovertReceiver receiver(s, c); }\n",
         []),
        ("covert_reference_accepted", "src/core/foo.cc",
         "void f(const attack::CovertReceiver &r);\n"
         "class CovertSender;\n",
         []),
        ("covert_run_loop_accepted", "src/core/foo.cc",
         "auto r = attack::runCovertChannel(system, cfg, symbols);\n",
         []),
        # ---------------------------------------- single-access-loop
        ("access_read_in_agent_rejected", "src/attack/foo.cc",
         "void f(sys::MemoryPort &p) { p.issueRead(a, 0, cb); }\n",
         ["single-access-loop"]),
        ("access_overhead_step_rejected", "src/attack/covert.cc",
         "void f() { port_.schedule(kIterOverhead + gap_, [this] {}); }\n",
         ["single-access-loop"]),
        ("access_loop_home_accepted", "src/attack/probe.cc",
         "void AccessLoop::arm(Tick gap)"
         " { port_.schedule(kIterOverhead + gap, step_); }\n"
         "void AccessLoop::fire() { port_.issueRead(a, 0, cb); }\n",
         []),
        ("access_window_timer_accepted", "src/attack/covert.cc",
         "void f() { port_.schedule(window_end_ - port_.now(), cb); }\n",
         []),
        ("access_outside_attack_accepted", "src/sys/core.cc",
         "void f(MemoryPort &p) { p.issueRead(a, source_, cb); }\n",
         []),
        # ------------------------------------------- typed-read-path
        ("read_callback_in_core_rejected", "src/sys/core.cc",
         "void f(System &s, System::ReadCallback cb)"
         " { s.issueRead(a, 0, std::move(cb)); }\n",
         ["typed-read-path"]),
        ("read_callback_alias_rejected", "src/sys/port.hh",
         "using ReadCallback = std::function<void(Tick)>;\n",
         ["typed-read-path"]),
        ("read_sink_accepted", "src/sys/core.cc",
         "void f(MemoryPort &p) { p.issueRead(a, *this, mshr); }\n",
         []),
        ("read_callback_adapter_accepted", "src/sys/system.cc",
         "void System::issueRead(std::uint64_t a, std::int32_t s,"
         " ReadCallback cb) {}\n",
         []),
        ("read_callback_outside_src_accepted", "tests/foo.cc",
         "leaky::sys::System::ReadCallback cb = [](Tick) {};\n",
         []),
        # ------------------------------------- single-system-builder
        ("system_in_runner_rejected", "src/runner/foo.cc",
         "void f(const sys::SystemConfig &c) { sys::System system(c); }\n",
         ["single-system-builder"]),
        ("system_in_fuzz_rejected", "src/fuzz/foo.cc",
         "auto s = std::make_unique<sys::System>(cfg);\n",
         ["single-system-builder"]),
        ("system_member_rejected", "src/runner/foo.hh",
         "struct Rig { sys::System system_; };\n",
         ["single-system-builder"]),
        ("system_reference_accepted", "src/runner/foo.cc",
         "void f(sys::System &s);\n"
         "void g(const sys::System &s) { s.stats(0); }\n",
         []),
        ("system_pointer_accepted", "src/fuzz/foo.cc",
         "sys::System *current = nullptr;\n",
         []),
        ("system_builder_home_accepted", "src/core/experiments.cc",
         "Simulation::Simulation(const Environment &env)"
         " : system_(env.system) {}\n"
         "struct Keep { sys::System system_; };\n",
         []),
        ("system_covert_home_accepted", "src/attack/covert.cc",
         "void f(const sys::SystemConfig &c) { sys::System system(c); }\n",
         []),
        ("system_in_tests_accepted", "tests/foo.cc",
         "void f(const sys::SystemConfig &c) { sys::System system(c); }\n",
         []),
        # ----------------------------------------- single-run-loop
        ("run_loop_in_runner_rejected", "src/runner/foo.cc",
         "void f(sys::System &s) { while (!done) s.run(kMs); }\n",
         ["single-run-loop"]),
        ("run_loop_through_pointer_rejected", "src/fuzz/foo.cc",
         "void f(sys::System *s) { s->run(kMs); }\n",
         ["single-run-loop"]),
        ("run_until_on_queue_rejected", "src/core/foo.cc",
         "void f(sys::System &s) { s.eventQueue().runUntil(t); }\n",
         ["single-run-loop"]),
        ("run_declaration_accepted", "src/sys/foo.hh",
         "struct Rig { void run(Tick duration); };\n"
         "void Rig::run(Tick duration) {}\n",
         []),
        ("run_in_experiments_accepted", "src/core/experiments.cc",
         "void f(Simulation &sim) { sim.system.run(kPerfRunCap); }\n",
         []),
        ("run_in_covert_loop_accepted", "src/attack/covert.cc",
         "void f(sys::System &system) { system.run(window); }\n",
         []),
        ("run_in_system_accepted", "src/sys/system.cc",
         "void System::run(Tick d) { eq_.runUntil(eq_.now() + d); }\n",
         []),
        ("run_in_tests_accepted", "tests/foo.cc",
         "void f(sys::System &s) { s.run(kMs); }\n",
         []),
        # ------------------------------------------- no-raw-assert
        ("raw_assert_rejected", "src/sim/foo.cc",
         "void f(int x) { assert(x > 0); }\n",
         ["no-raw-assert"]),
        ("static_assert_accepted", "src/sim/foo.cc",
         "static_assert(sizeof(int) == 4, \"\");\n",
         []),
        ("leaky_assert_accepted", "src/sim/foo.cc",
         "void f(int x) { LEAKY_ASSERT(x > 0, \"positive\"); }\n",
         []),
        ("gtest_assert_accepted", "tests/foo.cc",
         "void f(int x) { ASSERT_EQ(x, 1); }\n",
         []),
        # ----------------------------------- no-side-effect-dchecks
        ("dcheck_increment_rejected", "src/sim/foo.cc",
         "void f(int x) { LEAKY_DCHECK(++x < 4, \"bump\"); }\n",
         ["no-side-effect-dchecks"]),
        ("dcheck_assignment_rejected", "src/sim/foo.cc",
         "void f(int x, int y) { LEAKY_DCHECK(x = y, \"oops\"); }\n",
         ["no-side-effect-dchecks"]),
        ("dcheck_comparisons_accepted", "src/sim/foo.cc",
         "void f(int x, int y) {"
         " LEAKY_DCHECK(x == y && x <= 4 && y >= 1, \"cmp\"); }\n",
         []),
        ("dcheck_in_tests_rejected", "tests/foo.cc",
         "void f(int x) { LEAKY_DCHECK(x--, \"decay\"); }\n",
         ["no-side-effect-dchecks"]),
        # ---------------------------------- signal-handler-safety
        ("sig_handler_safe_accepted", "src/campaign/foo.cc",
         "volatile std::sig_atomic_t g_stop = 0;\n"
         "extern \"C\" void onStop(int) { g_stop = 1; }\n"
         "void install() { std::signal(SIGINT, onStop); }\n",
         []),
        ("sig_handler_atomic_accepted", "src/campaign/foo.cc",
         "std::atomic<bool> g_stop{false};\n"
         "extern \"C\" void onStop(int) { g_stop.store(true); }\n"
         "void install() { std::signal(SIGINT, onStop); }\n",
         []),
        ("sig_handler_calls_stdio_rejected", "src/campaign/foo.cc",
         "volatile std::sig_atomic_t g_stop = 0;\n"
         "extern \"C\" void onStop(int) {"
         " printf(\"stop\\n\"); g_stop = 1; }\n"
         "void install() { std::signal(SIGINT, onStop); }\n",
         ["signal-handler-safety"]),
        ("sig_handler_plain_global_rejected", "src/campaign/foo.cc",
         "int g_count = 0;\n"
         "extern \"C\" void onStop(int) { g_count = 1; }\n"
         "void install() { std::signal(SIGINT, onStop); }\n",
         ["signal-handler-safety"]),
        ("sig_handler_missing_definition_rejected",
         "src/campaign/foo.cc",
         "void install() { std::signal(SIGINT, elsewhereHandler); }\n",
         ["signal-handler-safety"]),
        ("sig_ign_accepted", "src/campaign/foo.cc",
         "void install() { std::signal(SIGPIPE, SIG_IGN); }\n",
         []),
    ]

    def test_table(self):
        for name, relpath, source, expected in self.TABLE:
            with self.subTest(case=name):
                self.assertEqual(fired(relpath, source), sorted(expected),
                                 "case %s" % name)


class SiblingHeader(unittest.TestCase):
    """Members declared in foo.hh are known while linting foo.cc."""

    def test_member_iteration_via_header(self):
        header = ("struct Table {\n"
                  "    std::unordered_map<int, int> rows;\n"
                  "};\n")
        source = ("std::string renderCsv(const Table &t) {\n"
                  "    std::string out;\n"
                  "    for (const auto &kv : t.rows)\n"
                  "        out += csvCell(kv.second);\n"
                  "    return out;\n"
                  "}\n")
        self.assertEqual(
            fired("src/core/foo.cc", source,
                  [("src/core/foo.hh", header)]),
            ["no-unordered-iteration-in-result-paths"])

    def test_alias_of_member(self):
        header = ("struct Table {\n"
                  "    std::unordered_map<int, int> rows;\n"
                  "};\n")
        source = ("std::string renderCsv(Table &t) {\n"
                  "    auto &r = t.rows;\n"
                  "    std::string out;\n"
                  "    for (const auto &kv : r) out += csvCell(kv.second);\n"
                  "    return out;\n"
                  "}\n")
        self.assertEqual(
            fired("src/core/foo.cc", source,
                  [("src/core/foo.hh", header)]),
            ["no-unordered-iteration-in-result-paths"])

    def test_find_result_is_not_tainted(self):
        header = ("struct Table {\n"
                  "    std::unordered_map<int, std::vector<int>> rows;\n"
                  "};\n")
        source = ("std::string renderCsv(Table &t, int k) {\n"
                  "    const auto it = t.rows.find(k);\n"
                  "    std::string out;\n"
                  "    for (const auto &v : it->second) out += csvCell(v);\n"
                  "    return out;\n"
                  "}\n")
        self.assertEqual(
            fired("src/core/foo.cc", source,
                  [("src/core/foo.hh", header)]),
            [])


class Waivers(unittest.TestCase):
    SNIPPET = "auto t = std::chrono::steady_clock::now();\n"

    def test_trailing_waiver_suppresses(self):
        src = ("auto t = std::chrono::steady_clock::now();"
               " // lint:allow(no-wallclock): host-side only\n")
        self.assertEqual(fired("src/sim/foo.cc", src), [])

    def test_own_line_waiver_suppresses_next_line(self):
        src = ("// lint:allow(no-wallclock): host-side only\n" +
               self.SNIPPET)
        self.assertEqual(fired("src/sim/foo.cc", src), [])

    def test_own_line_waiver_skips_blank_and_comment_lines(self):
        src = ("// lint:allow(no-wallclock): host-side only\n"
               "\n"
               "// unrelated comment\n" +
               self.SNIPPET)
        self.assertEqual(fired("src/sim/foo.cc", src), [])

    def test_waiver_on_wrong_line_is_unused_and_violation_stands(self):
        src = (self.SNIPPET +
               "int x = 0;\n"
               "// lint:allow(no-wallclock): too late\n"
               "int y = 0;\n")
        self.assertEqual(fired("src/sim/foo.cc", src),
                         ["no-wallclock", "unused-waiver"])

    def test_unused_waiver_is_an_error(self):
        src = ("// lint:allow(no-wallclock): nothing to waive\n"
               "int x = 0;\n")
        self.assertEqual(fired("src/sim/foo.cc", src),
                         ["unused-waiver"])

    def test_unknown_rule_is_bad_waiver(self):
        src = ("// lint:allow(no-such-rule): hm\n"
               "int x = 0;\n")
        self.assertEqual(fired("src/sim/foo.cc", src), ["bad-waiver"])

    def test_missing_reason_is_bad_waiver(self):
        src = ("int x = 0; // lint:allow(no-wallclock):\n")
        self.assertEqual(fired("src/sim/foo.cc", src), ["bad-waiver"])

    def test_malformed_waiver_is_bad_waiver(self):
        src = ("int x = 0; // lint:allow no-wallclock because\n")
        self.assertEqual(fired("src/sim/foo.cc", src), ["bad-waiver"])

    def test_meta_rule_cannot_be_waived(self):
        src = ("// lint:allow(unused-waiver): nice try\n"
               "int x = 0;\n")
        self.assertEqual(fired("src/sim/foo.cc", src), ["bad-waiver"])

    def test_one_waiver_one_line_not_whole_file(self):
        src = ("// lint:allow(no-wallclock): first only\n" +
               self.SNIPPET +
               "auto u = std::chrono::steady_clock::now();\n")
        self.assertEqual(fired("src/sim/foo.cc", src),
                         ["no-wallclock"])


class LexerEdgeCases(unittest.TestCase):
    """Banned constructs in comments/strings must never fire, and the
    lexer must survive the nasty literal forms."""

    TABLE = [
        ("in_line_comment",
         "// std::steady_clock::now() would be bad\nint x = 0;\n", []),
        ("in_block_comment",
         "/* time(nullptr) in prose\n spanning lines */int x = 0;\n",
         []),
        ("in_string",
         'const char *s = "steady_clock and rand() inside";\n', []),
        ("in_raw_string",
         'const char *s = R"(std::mt19937 gen(1);)";\n', []),
        ("raw_string_with_delimiter",
         'const char *s = R"x(quote " then )" then mt19937)x";\n', []),
        ("raw_string_multiline",
         'const char *s = R"(line one\nassert(0)\n)";\nint y = 0;\n',
         []),
        ("escaped_quote_in_string",
         'const char *s = "escaped \\" quote, rand()";\n', []),
        ("char_literal",
         "char c = '\\\"'; int t = time(nullptr);\n",
         ["no-wallclock"]),
        ("banned_after_comment_still_fires",
         "/* benign */ auto t = std::chrono::steady_clock::now();\n",
         ["no-wallclock"]),
        ("waiver_inside_block_comment_is_not_a_waiver",
         "/* lint:allow(no-wallclock): not line comment */\n"
         "auto t = std::chrono::steady_clock::now();\n",
         ["no-wallclock"]),
    ]

    def test_table(self):
        for name, source, expected in self.TABLE:
            with self.subTest(case=name):
                self.assertEqual(fired("src/sim/foo.cc", source),
                                 sorted(expected), "case %s" % name)

    def test_static_assert_is_one_token(self):
        toks = cpplex.lex("static_assert(true);")
        self.assertEqual(toks[0].text, "static_assert")

    def test_maximal_munch_operators(self):
        toks = cpplex.lex("a <<= b; c == d; e != f;")
        puncts = [t.text for t in toks if t.kind == "punct"]
        self.assertIn("<<=", puncts)
        self.assertIn("==", puncts)
        self.assertNotIn("=", puncts)

    def test_line_numbers_across_literals(self):
        toks = cpplex.lex('auto s = R"(a\nb\nc)";\nint x;\n')
        idents = {t.text: t.line for t in toks if t.kind == "ident"}
        self.assertEqual(idents["x"], 4)

    def test_unterminated_block_comment_is_lex_error(self):
        with self.assertRaises(cpplex.LexError):
            cpplex.lex("/* never closed")

    def test_unterminated_raw_string_is_lex_error(self):
        with self.assertRaises(cpplex.LexError):
            cpplex.lex('auto s = R"(open forever;')


class RuleRegistry(unittest.TestCase):
    def test_ids_are_unique_and_kebab_case(self):
        ids = rules_pkg.all_rule_ids()
        self.assertEqual(len(ids), len(set(ids)))
        for rule_id in ids:
            self.assertRegex(rule_id, r"^[a-z][a-z0-9-]*$")

    def test_meta_rules_listed(self):
        ids = rules_pkg.all_rule_ids()
        self.assertIn("bad-waiver", ids)
        self.assertIn("unused-waiver", ids)

    def test_every_rule_has_summary(self):
        summaries = rules_pkg.rule_summaries()
        for rule_id in rules_pkg.all_rule_ids():
            self.assertTrue(summaries.get(rule_id))


if __name__ == "__main__":
    unittest.main()

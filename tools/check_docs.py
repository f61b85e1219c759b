#!/usr/bin/env python3
"""Docs gate: keep the documentation verifiably in sync with the code.

Five checks, stdlib-only so CI and laptops run it with any Python 3:

1. **Figure catalogue coverage** (needs --names): every figure name the
   `leakyhammer` binary registers must have a `### `name`` entry in
   docs/FIGURES.md, and every catalogue entry must name a registered
   figure — the catalogue can neither lag behind nor run ahead of the
   registry.

       build/leakyhammer list --names > names.txt
       tools/check_docs.py --names names.txt

2. **Golden coverage** (needs --names): every registered figure must
   have a golden CSV in tests/golden/ (regenerate with `leakyhammer
   repro --update-golden`), and every golden CSV must name a registered
   figure — goldens can neither lag behind the registry nor outlive a
   deleted figure silently.

3. **Lint-rule catalogue coverage** (always): docs/LINTING.md must hold
   a `### `rule-id`` heading for exactly the rule ids the leaky-lint
   registry exposes (the same set `tools/lint/leaky_lint.py
   --list-rules` prints, meta rules included) — the rule catalogue can
   neither lag behind nor run ahead of the analyzer.

4. **Link resolution** (always): every relative markdown link in
   README.md and docs/*.md must point at an existing file. External
   (http/https/mailto) links and pure #anchors are skipped; a trailing
   #fragment on a relative link is stripped before the check.

5. **Seed reach** (always): every docs/FIGURES.md entry must carry a
   `- **Seed:**` bullet, and the entries whose bullet says "inert" must
   be exactly those whose CSV the two default-scale pins
   (ci/default_scale.sha256 at the default seeds,
   ci/default_scale.seed11.sha256 at figure seed 11) pin to the same
   hash -- a figure cannot claim to ignore its seed while its output
   moves with it, nor hide that it does.

Exit status: 0 = docs in sync, 1 = at least one failure, 2 = bad
invocation.
"""

import argparse
import os
import re
import sys

HEADING_RE = re.compile(r"^###\s+`([^`]+)`")
# [text](target) with no whitespace in the target; images (![...]) match
# too via the optional bang.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")
CSV_RE = re.compile(r"^- \*\*CSV:\*\*\s+`([^`]+)`")
SEED_RE = re.compile(r"^- \*\*Seed:\*\*\s+(\S+)")
SEED_PINS = ("default_scale.sha256", "default_scale.seed11.sha256")


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def doc_files(root):
    files = [os.path.join(root, "README.md")]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                files.append(os.path.join(docs_dir, name))
    return [f for f in files if os.path.isfile(f)]


def check_catalogue(registered, figures_md, failures):
    try:
        with open(figures_md) as fh:
            documented = [m.group(1) for m in
                          (HEADING_RE.match(line) for line in fh) if m]
    except OSError as err:
        failures.append("cannot read %s: %s" % (figures_md, err))
        return

    for name in registered:
        if name not in documented:
            failures.append(
                "figure '%s' is registered but has no '### `%s`' entry "
                "in docs/FIGURES.md" % (name, name))
    for name in documented:
        if name not in registered:
            failures.append(
                "docs/FIGURES.md documents '%s', which the binary does "
                "not register (stale entry?)" % name)
    seen = set()
    for name in documented:
        if name in seen:
            failures.append(
                "docs/FIGURES.md documents '%s' twice" % name)
        seen.add(name)
    if not failures:
        print("check_docs: catalogue in sync (%d figures)"
              % len(registered))


def read_names(names_path, failures):
    try:
        with open(names_path) as fh:
            return [line.strip() for line in fh if line.strip()]
    except OSError as err:
        failures.append("cannot read --names file: %s" % err)
        return None


def check_goldens(registered, golden_dir, failures):
    if not os.path.isdir(golden_dir):
        failures.append(
            "golden directory '%s' does not exist (run `leakyhammer "
            "repro --update-golden`)" % golden_dir)
        return
    goldens = sorted(
        name[:-len(".csv")] for name in os.listdir(golden_dir)
        if name.endswith(".csv"))
    for name in registered:
        if name not in goldens:
            failures.append(
                "figure '%s' is registered but has no golden CSV in "
                "%s (run `leakyhammer repro --update-golden`)"
                % (name, golden_dir))
    for name in goldens:
        if name not in registered:
            failures.append(
                "%s/%s.csv has no registered figure (stale golden? "
                "delete it or restore the figure)" % (golden_dir, name))
    if not failures:
        print("check_docs: goldens in sync (%d figures)" % len(goldens))


def check_lint_rules(root, failures):
    """docs/LINTING.md headings <-> the leaky-lint rule registry.

    Imports the same registry `leaky_lint.py --list-rules` prints, so
    the doc check and the tool cannot disagree about what a rule is.
    """
    sys.path.insert(0, os.path.join(root, "tools", "lint"))
    try:
        import rules as lint_rules
    except Exception as err:  # Import failure is a docs-gate failure.
        failures.append(
            "cannot import the tools/lint rules package: %s" % err)
        return
    registered = lint_rules.all_rule_ids()
    linting_md = os.path.join(root, "docs", "LINTING.md")
    try:
        with open(linting_md) as fh:
            documented = [m.group(1) for m in
                          (HEADING_RE.match(line) for line in fh) if m]
    except OSError as err:
        failures.append("cannot read %s: %s" % (linting_md, err))
        return
    for rule_id in registered:
        if rule_id not in documented:
            failures.append(
                "lint rule '%s' is registered but has no '### `%s`' "
                "entry in docs/LINTING.md" % (rule_id, rule_id))
    for rule_id in documented:
        if rule_id not in registered:
            failures.append(
                "docs/LINTING.md documents rule '%s', which "
                "leaky_lint.py does not register (stale entry?)"
                % rule_id)
    seen = set()
    for rule_id in documented:
        if rule_id in seen:
            failures.append(
                "docs/LINTING.md documents rule '%s' twice" % rule_id)
        seen.add(rule_id)
    if not failures:
        print("check_docs: lint-rule catalogue in sync (%d rules)"
              % len(registered))


def read_pins(path):
    """csv name -> sha256 from a `sha256sum` listing."""
    pins = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                digest, name = line.split()
                pins[name.lstrip("*")] = digest
    return pins


def check_seed_reach(root, failures):
    """docs/FIGURES.md "Seed: inert" entries <-> seed-invariant pins."""
    figures_md = os.path.join(root, "docs", "FIGURES.md")
    try:
        default, seed11 = (read_pins(os.path.join(root, "ci", name))
                           for name in SEED_PINS)
        with open(figures_md) as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as err:
        failures.append("cannot read the seed pins or FIGURES.md: %s"
                        % err)
        return
    entries = {}  # figure -> [csv, first word of the Seed bullet]
    figure = None
    for line in lines:
        m = HEADING_RE.match(line)
        if m:
            figure = m.group(1)
            entries[figure] = [None, None]
        elif figure and CSV_RE.match(line):
            entries[figure][0] = CSV_RE.match(line).group(1)
        elif figure and SEED_RE.match(line):
            entries[figure][1] = SEED_RE.match(line).group(1)
    documented, invariant = set(), set()
    for figure, (csv, seed) in sorted(entries.items()):
        if csv is None or seed is None:
            failures.append("docs/FIGURES.md entry '%s' lacks a %s bullet"
                            % (figure, "CSV" if csv is None else "Seed"))
            continue
        if csv not in default or csv not in seed11:
            failures.append("%s (figure '%s') is not pinned in both %s"
                            % (csv, figure, " and ".join(SEED_PINS)))
            continue
        if seed.rstrip(":.,;") == "inert":
            documented.add(figure)
        if default[csv] == seed11[csv]:
            invariant.add(figure)
    for figure in sorted(documented - invariant):
        failures.append("docs/FIGURES.md calls '%s' seed-inert, but its "
                        "CSV differs between the default-seed and seed-11 "
                        "pins" % figure)
    for figure in sorted(invariant - documented):
        failures.append("'%s' writes the same CSV at the default seed and "
                        "seed 11, but docs/FIGURES.md does not call its "
                        "seed inert" % figure)
    if not failures:
        print("check_docs: seed reach in sync (%d of %d figures inert)"
              % (len(documented), len(entries)))


def check_links(files, failures):
    checked = 0
    for path in files:
        base = os.path.dirname(path)
        with open(path) as fh:
            text = fh.read()
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(EXTERNAL) or target.startswith("#"):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            checked += 1
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                failures.append(
                    "%s: broken relative link '%s'"
                    % (os.path.relpath(path, repo_root()),
                       match.group(1)))
    print("check_docs: %d relative links checked" % checked)


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--names",
        help="file with one registered figure name per line (from "
             "`leakyhammer list --names`); omits the catalogue and "
             "golden checks when absent")
    parser.add_argument(
        "--golden-dir",
        help="golden CSV directory to cross-check against --names "
             "(default: tests/golden)")
    args = parser.parse_args(argv)

    root = repo_root()
    failures = []

    def run(check, *check_args):
        # Each check gets its own list, so its "in sync" line depends
        # on its own failures only, not on an earlier check's.
        own = []
        check(*check_args, own)
        failures.extend(own)

    # Read once: --names may be a pipe (`--names <(leakyhammer list
    # --names)`), which a second open would find empty.
    registered = read_names(args.names, failures) if args.names else None
    if registered is not None:
        run(check_catalogue, registered,
            os.path.join(root, "docs", "FIGURES.md"))
        run(check_goldens, registered,
            args.golden_dir or os.path.join(root, "tests", "golden"))
    run(check_lint_rules, root)
    run(check_seed_reach, root)
    run(check_links, doc_files(root))

    for failure in failures:
        print("check_docs: %s" % failure, file=sys.stderr)
    if failures:
        print("check_docs: %d failure(s)" % len(failures),
              file=sys.stderr)
        return 1
    print("check_docs: docs are in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

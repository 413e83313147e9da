#!/usr/bin/env python3
"""deeplint: the repo's static analysis — lifetime, deferred-execution,
determinism and error-handling contracts for the C++ tree.

One frontend (tools/deeplint/model.py) strips and tokenizes each file
once and lowers it into scopes, typed locals, calls and lambdas; one
rule engine (tools/deeplint/rules.py, semantics in DESIGN.md §11) reads
that IR:

  view-lifetime     no string_view/span into a temporary or into a
                    container that reallocates while the view is live
  dangling-capture  no by-reference capture of frame locals in callables
                    handed to the event scheduler
  inline-budget     scheduled callables must fit the 192 B inline arena
                    slab (pairs with sim::assert_inline<F>() at the site)
  epoch-fence       SetApMap/WriteApMap only via bump-then-write helpers
  wall-clock        no wall-clock time source; use the simulated clock
  raw-random        no randomness outside splitft::Rng
  unordered-iter    no range-for over an unordered container
  metric-name       metric/span literals follow layer.component[.metric]
  status-discard    no bare void cast of a call result
  stale-allow       a suppression whose rule no longer fires on that line
                    is itself a finding, and so is an epoch-fence
                    allowlist entry naming a function no linted file
                    defines

Suppressions (reason text mandatory by convention):

  // deeplint: allow(rule) reason        -- same line or the line above
  // deeplint: allow-file(rule) reason   -- whole file, any line

Usage:

  tools/deeplint/deeplint.py [--json FILE] [path...]
                             (default: src/ bench/ tests/)
  tools/deeplint/deeplint.py --self-test

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(_HERE))  # allow `import deeplint.*`

from deeplint import model  # noqa: E402
from deeplint import rules  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(_HERE))
DEFAULT_ROOTS = ("src", "bench", "tests")
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "deeplint_fixtures")
CXX_EXTENSIONS = (".cc", ".h")

_ALLOW = re.compile(r"//\s*deeplint:\s*allow\(([a-z-]+)\)")
_ALLOW_FILE = re.compile(r"//\s*deeplint:\s*allow-file\(([a-z-]+)\)")
_EXPECT = re.compile(r"//\s*deeplint-expect:\s*([a-z-]+)")

# Authoritative inline-callable capacity: read from the arena header so the
# inline-budget rule cannot drift from the simulator.
_INLINE_CONST = re.compile(r"kEventInlineBytes\s*=\s*(\d+)")


def read_inline_budget():
    path = os.path.join(REPO_ROOT, "src", "sim", "event_queue.h")
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            m = _INLINE_CONST.search(f.read())
            if m:
                return int(m.group(1))
    except OSError:
        pass
    return rules.DEFAULT_INLINE_BUDGET


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        rel = os.path.relpath(self.path, REPO_ROOT)
        return "%s:%d: [%s] %s" % (rel, self.line, self.rule, self.message)

    def as_json(self):
        return {
            "file": os.path.relpath(self.path, REPO_ROOT).replace(os.sep, "/"),
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


def collect_suppressions(raw_lines):
    """Returns (file_allows, line_allows, unknown-rule findings).
    file_allows: {rule: first_lineno}; line_allows: {lineno: {rule}}."""
    file_allows = {}
    line_allows = {}
    bad = []
    for lineno, line in enumerate(raw_lines, 1):
        for m in _ALLOW_FILE.finditer(line):
            if m.group(1) not in rules.RULES:
                bad.append((lineno, m.group(1)))
            else:
                file_allows.setdefault(m.group(1), lineno)
        for m in _ALLOW.finditer(line):
            if "allow-file" in m.group(0):
                continue
            if m.group(1) not in rules.RULES:
                bad.append((lineno, m.group(1)))
            else:
                line_allows.setdefault(lineno, set()).add(m.group(1))
    return file_allows, line_allows, bad


def lint_file(path, ctx, defined):
    """Lints one file of ctx.index. Returns a list of Finding
    (post-suppression, including stale-allow findings). Adds the
    qualified names of the functions the file defines to `defined`."""
    text, code, literals = ctx.index.sources[os.path.abspath(path)]
    file_allows, line_allows, bad_rules = collect_suppressions(
        text.split("\n"))

    file_ir = model.lower_file(path, code, literals)
    defined.update(fn.qual_name for fn in file_ir.functions)

    raw = rules.run_rules(file_ir, ctx)

    findings = []
    for lineno, rule in bad_rules:
        findings.append(Finding(
            path, lineno, "suppression",
            "unknown rule '%s' in deeplint suppression (known: %s)"
            % (rule, ", ".join(rules.RULES))))

    def line_suppressed(rule, lineno):
        for at in (lineno, lineno - 1):
            if rule in line_allows.get(at, ()):
                return True
        return False

    fired_by_rule = {}
    for f in raw:
        fired_by_rule.setdefault(f.rule, set()).add(f.line)
        if f.rule in file_allows or line_suppressed(f.rule, f.line):
            continue
        findings.append(Finding(path, f.line, f.rule, f.message))

    # stale-allow: a suppression comment for a rule that no longer fires
    # where the comment applies. allow(r) at line A covers findings at A
    # and A+1; allow-file(r) covers the whole file. allow(stale-allow)
    # entries are themselves exempt (no recursion).
    for lineno, ruleset in sorted(line_allows.items()):
        for rule in sorted(ruleset):
            if rule == "stale-allow":
                continue
            fired = fired_by_rule.get(rule, ())
            if lineno in fired or (lineno + 1) in fired:
                continue
            if line_suppressed("stale-allow", lineno) or \
                    "stale-allow" in file_allows:
                continue
            findings.append(Finding(
                path, lineno, "stale-allow",
                "deeplint suppression allow(%s) no longer matches a [%s] "
                "finding on this line — delete the stale allow" % (rule,
                                                                   rule)))
    for rule, lineno in sorted(file_allows.items()):
        if rule == "stale-allow":
            continue
        if not fired_by_rule.get(rule):
            if line_suppressed("stale-allow", lineno) or \
                    "stale-allow" in file_allows:
                continue
            findings.append(Finding(
                path, lineno, "stale-allow",
                "deeplint suppression allow-file(%s) no longer matches any "
                "[%s] finding in this file — delete the stale allow"
                % (rule, rule)))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def iter_cxx_files(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
        elif os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        yield os.path.join(dirpath, name)
        else:
            raise FileNotFoundError(p)


# ---------------------------------------------------------------------------
# Self-test over tools/deeplint_fixtures/
# ---------------------------------------------------------------------------


def self_test():
    """Lints every fixture against `// deeplint-expect: rule` markers, and
    requires a positive AND a suppressed case per rule."""
    if not os.path.isdir(FIXTURE_DIR):
        print("deeplint --self-test: missing fixture dir %s" % FIXTURE_DIR)
        return 2
    failures = []
    expected_rules_seen = set()
    suppression_rules_seen = set()
    defined = set()
    fixtures = sorted(
        os.path.join(FIXTURE_DIR, f)
        for f in os.listdir(FIXTURE_DIR)
        if f.endswith(CXX_EXTENSIONS))
    if not fixtures:
        print("deeplint --self-test: no fixtures in %s" % FIXTURE_DIR)
        return 2
    ctx = rules.RuleContext(model.index_files(fixtures), read_inline_budget())
    for path in fixtures:
        text = ctx.index.sources[os.path.abspath(path)][0]
        expected = set()
        for lineno, line in enumerate(text.split("\n"), 1):
            for m in _EXPECT.finditer(line):
                expected.add((lineno, m.group(1)))
                expected_rules_seen.add(m.group(1))
        for m in _ALLOW.finditer(text):
            if "allow-file" not in m.group(0):
                suppression_rules_seen.add(m.group(1))
        for m in _ALLOW_FILE.finditer(text):
            suppression_rules_seen.add(m.group(1))
        got = {(f.line, f.rule) for f in lint_file(path, ctx, defined)}
        rel = os.path.relpath(path, REPO_ROOT)
        for line, rule in sorted(expected - got):
            failures.append("%s:%d: expected a [%s] finding, got none"
                            % (rel, line, rule))
        for line, rule in sorted(got - expected):
            failures.append("%s:%d: unexpected [%s] finding" % (rel, line,
                                                                rule))
    # An epoch-fence allowlist entry is stale when no fixture defines it.
    stale = rules.stale_allowlist(
        {"WriteApMap": {"Fixture::DeletedHelper", "NothingWrongHere"}},
        defined)
    if stale != [("WriteApMap", "Fixture::DeletedHelper")]:
        failures.append("stale_allowlist: expected only "
                        "Fixture::DeletedHelper to be stale, got %r" % stale)
    for rule in rules.RULES:
        if rule not in expected_rules_seen:
            failures.append("fixtures have no positive case for rule [%s]"
                            % rule)
        if rule not in suppression_rules_seen:
            failures.append("fixtures have no suppressed case for rule [%s]"
                            % rule)
    if failures:
        print("deeplint --self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print("deeplint --self-test: %d fixtures, all %d rules covered "
          "(positive + suppressed)" % (len(fixtures), len(rules.RULES)))
    return 0


# ---------------------------------------------------------------------------


def main(argv):
    ap = argparse.ArgumentParser(prog="deeplint", add_help=True)
    ap.add_argument("--json", metavar="FILE",
                    help="also write findings as a JSON array (CI artifact)")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("paths", nargs="*")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    try:
        files = sorted(set(iter_cxx_files(
            args.paths or [os.path.join(REPO_ROOT, r) for r in DEFAULT_ROOTS])))
    except FileNotFoundError as e:
        print("deeplint: no such file or directory: %s" % e)
        return 2

    ctx = rules.RuleContext(model.index_files(files), read_inline_budget())

    findings = []
    defined = set()
    for path in files:
        findings.extend(lint_file(path, ctx, defined))
    if not args.paths:
        # Only a whole-tree run sees every definition.
        for callee, name in rules.stale_allowlist(ctx.epoch_fence_allowed,
                                                  defined):
            findings.append(Finding(
                rules.RULES_PATH, rules.allowlist_line(name), "stale-allow",
                "epoch-fence allowlist entry %s (for %s) names a function "
                "no linted file defines — delete the stale entry"
                % (name, callee)))

    for f in findings:
        print(f)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"tool": "deeplint", "findings":
                       [f.as_json() for f in findings]}, out, indent=2,
                      sort_keys=True)
            out.write("\n")
    if findings:
        print("deeplint: %d finding(s) in %d file(s) checked"
              % (len(findings), len(files)))
        return 1
    print("deeplint: clean (%d files checked)" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

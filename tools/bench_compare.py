#!/usr/bin/env python3
"""Diffs two BENCH_<name>.json files (schema v1) series by series.

Usage: bench_compare.py [options] <baseline.json> <candidate.json>

Options:
  --threshold PCT   Relative delta (in percent) above which a field counts
                    as a regression/improvement. Default: 5.
  --series REGEX    Only compare series whose name matches REGEX (re.search).
                    Non-matching series are ignored entirely — not listed as
                    added/removed. Lets CI gate deterministic series (e.g.
                    ^det\\.) tightly while excluding wall-clock series whose
                    values depend on runner load.
  --fail-on-regress Exit 1 when any series regresses past the threshold
                    (default: report only, exit 0 — the CI step is
                    advisory while baselines season).
  --self-test       Run the built-in unit checks and exit.

Deterministic (virtual-time) benches are compared on every summary field of
every series present in both files: p50, p95, p99, mean and max are
direction-aware (for time-like units ns/us/ms/s higher is worse, for
throughput-like units KB/s, KOps/s, x lower is worse); count and each
scalar have no direction, so a move past the threshold either way is
flagged CHANGED and fails the gate (the baseline no longer describes the
code). The metrics block is compared by key: a metric missing from either
file fails the gate too. Wall-clock benches (micro_*) vary with the host, so
only their p50 and p95 are compared and their metrics are not. Series only
in one file are listed as added/removed (never fatal — benches grow series
across PRs).

Exit codes: 0 ok / within threshold, 1 regression (with --fail-on-regress),
2 usage or unreadable input.
"""

import argparse
import json
import re
import sys

# Units where a higher value is better (throughputs, speedups). Everything
# else — the time-like units — treats higher as worse.
# Matched case-insensitively: benches spell ops/s both "ops/s" and "Ops/s".
HIGHER_IS_BETTER = {"kb/s", "mb/s", "kops/s", "ops/s", "x"}

# Direction-aware summary fields of a series, and the subset compared for
# wall-clock benches (their tails and counts vary with the host).
DIRECTED_FIELDS = ("p50", "p95", "p99", "mean", "max")
WALL_CLOCK_FIELDS = ("p50", "p95")
WALL_CLOCK_BENCH = re.compile(r"^micro_")


class Bench:
    """One BENCH_<name>.json: its name, series by name and metric keys."""

    def __init__(self, name, series, metrics):
        self.name = name
        self.series = series
        self.metrics = metrics

    def wall_clock(self):
        return WALL_CLOCK_BENCH.search(self.name or "") is not None


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print("ERROR: cannot read %s: %s" % (path, e), file=sys.stderr)
        sys.exit(2)
    if doc.get("schema_version") != 1:
        print("ERROR: %s: schema_version != 1" % path, file=sys.stderr)
        sys.exit(2)
    series = {s["name"]: s for s in doc.get("series", []) if s.get("name")}
    return Bench(doc.get("bench"), series, set(doc.get("metrics", {})))


def filter_series(series, pattern):
    """Keeps only series whose name matches `pattern` (re.search)."""
    if pattern is None:
        return series
    return {name: s for name, s in series.items() if re.search(pattern, name)}


def rel_delta(base, cand):
    """Relative change in percent; None when the baseline is ~zero."""
    if abs(base) < 1e-12:
        return None if abs(cand) < 1e-12 else float("inf")
    return (cand - base) / abs(base) * 100.0


def series_fields(series, wall_clock):
    """(field, value, higher_is_better) triples compared for one series;
    higher_is_better is None for the undirected count and scalars."""
    higher_better = series.get("unit", "").lower() in HIGHER_IS_BETTER
    if wall_clock:
        return [(q, series[q], higher_better)
                for q in WALL_CLOCK_FIELDS if q in series]
    fields = [(q, series[q], higher_better)
              for q in DIRECTED_FIELDS if q in series]
    if "count" in series:
        fields.append(("count", series["count"], None))
    for key, value in sorted(series.get("scalars", {}).items()):
        fields.append(("scalars." + key, value, None))
    return fields


def compare(baseline, candidate, threshold_pct, wall_clock=False):
    """Returns (rows, regressions, added, removed).

    rows: (name, field, base, cand, delta_pct, flag) for shared series;
    flag is "" / "improved" / "REGRESSED" / "CHANGED" past the threshold
    (CHANGED: an undirected field moved; it counts as a regression).
    """
    rows, regressions = [], []
    shared = sorted(set(baseline) & set(candidate))
    for name in shared:
        cand = dict((f, v) for f, v, _ in
                    series_fields(candidate[name], wall_clock))
        for field, value, higher_better in series_fields(baseline[name],
                                                         wall_clock):
            if field not in cand:
                continue
            b, c = float(value), float(cand[field])
            delta = rel_delta(b, c)
            flag = ""
            if delta is not None and abs(delta) > threshold_pct:
                if higher_better is None:
                    worse, flag = True, "CHANGED"
                else:
                    worse = delta < 0 if higher_better else delta > 0
                    flag = "REGRESSED" if worse else "improved"
                if worse:
                    regressions.append((name, field, delta))
            rows.append((name, field, b, c, delta, flag))
    added = sorted(set(candidate) - set(baseline))
    removed = sorted(set(baseline) - set(candidate))
    return rows, regressions, added, removed


def compare_metric_keys(baseline, candidate):
    """Returns (new, missing): metric keys only the candidate / only the
    baseline emits. Either means the baseline is stale."""
    return sorted(candidate - baseline), sorted(baseline - candidate)


def fmt_delta(delta):
    if delta is None:
        return "0.0%"
    if delta == float("inf"):
        return "+inf%"
    return "%+.1f%%" % delta


def self_test():
    base = {
        "a": {"name": "a", "unit": "ns", "p50": 100.0, "p95": 200.0},
        "t": {"name": "t", "unit": "KOps/s", "p50": 50.0, "p95": 50.0},
        "gone": {"name": "gone", "unit": "ns", "p50": 1.0, "p95": 1.0},
        "z": {"name": "z", "unit": "ns", "p50": 0.0, "p95": 0.0},
    }
    cand = {
        "a": {"name": "a", "unit": "ns", "p50": 120.0, "p95": 190.0},
        "t": {"name": "t", "unit": "KOps/s", "p50": 40.0, "p95": 40.0},
        "new": {"name": "new", "unit": "ns", "p50": 1.0, "p95": 1.0},
        "z": {"name": "z", "unit": "ns", "p50": 0.0, "p95": 0.0},
    }
    rows, regressions, added, removed = compare(base, cand, 5.0)
    # a.p50: +20% on a time unit → regression; a.p95: -5% → within threshold.
    # t: -20% on a throughput unit → regression. z: 0/0 → no delta.
    assert ("a", "p50", 20.0) in [(n, q, round(d)) for n, q, d in regressions]
    assert any(n == "t" and q == "p50" for n, q, _ in regressions)
    assert not any(n == "a" and q == "p95" for n, q, _ in regressions)
    assert added == ["new"] and removed == ["gone"]
    zrows = [r for r in rows if r[0] == "z"]
    assert all(r[4] is None and r[5] == "" for r in zrows)
    # Identical inputs → no regressions.
    _, none, _, _ = compare(base, base, 5.0)
    assert none == []
    # --series filtering: only matching names are compared, and filtered-out
    # series never show up as added/removed noise.
    fb, fc = filter_series(base, "^t$"), filter_series(cand, "^t$")
    rows, regressions, added, removed = compare(fb, fc, 5.0)
    assert {r[0] for r in rows} == {"t"}
    assert [n for n, _, _ in regressions] == ["t", "t"]
    assert added == [] and removed == []
    assert filter_series(base, None) is base
    # Deterministic benches compare every summary field: p99/mean/max are
    # direction-aware; count and scalars fail on any move past the
    # threshold (CHANGED), and scalars within it pass.
    full_b = {"d": {"name": "d", "unit": "us", "count": 100, "mean": 10.0,
                    "p50": 9.0, "p95": 11.0, "p99": 12.0, "max": 80.0,
                    "scalars": {"tput_kops": 142.4, "ops": 100}}}
    full_c = {"d": {"name": "d", "unit": "us", "count": 110, "mean": 9.0,
                    "p50": 9.0, "p95": 11.0, "p99": 14.0, "max": 20.0,
                    "scalars": {"tput_kops": 150.0, "ops": 102}}}
    rows, regressions, _, _ = compare(full_b, full_c, 5.0)
    flags = {f: flag for _, f, _, _, _, flag in rows}
    assert flags["p99"] == "REGRESSED" and flags["mean"] == "improved"
    assert flags["max"] == "improved" and flags["count"] == "CHANGED"
    assert flags["scalars.tput_kops"] == "CHANGED"
    assert flags["scalars.ops"] == ""
    assert sorted(f for _, f, _ in regressions) == [
        "count", "p99", "scalars.tput_kops"]
    # Unit direction ignores case: a higher "Ops/s" mean is an improvement.
    ops = {"o": {"name": "o", "unit": "Ops/s", "mean": 100.0}}
    rows, regressions, _, _ = compare(
        ops, {"o": dict(ops["o"], mean=110.0)}, 5.0)
    assert rows[0][5] == "improved" and regressions == []
    # Wall-clock benches keep the p50/p95 field set: the same moves pass.
    rows, regressions, _, _ = compare(full_b, full_c, 5.0, wall_clock=True)
    assert {r[1] for r in rows} == {"p50", "p95"} and regressions == []
    assert Bench("micro_sim", {}, set()).wall_clock()
    assert not Bench("fig13_reconfig", {}, set()).wall_clock()
    # Metric keys: new and missing keys are both reported.
    new, missing = compare_metric_keys({"a.b.c", "gone.x.y"},
                                       {"a.b.c", "ncl.ec.degraded_stripes"})
    assert new == ["ncl.ec.degraded_stripes"] and missing == ["gone.x.y"]
    assert compare_metric_keys({"a.b.c"}, {"a.b.c"}) == ([], [])
    print("bench_compare self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff two schema-v1 BENCH_*.json files.")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="relative delta threshold in percent")
    parser.add_argument("--series", metavar="REGEX", default=None,
                        help="only compare series matching this regex")
    parser.add_argument("--fail-on-regress", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.print_usage(sys.stderr)
        return 2

    base_doc, cand_doc = load(args.baseline), load(args.candidate)
    try:
        baseline = filter_series(base_doc.series, args.series)
        candidate = filter_series(cand_doc.series, args.series)
    except re.error as e:
        print("ERROR: bad --series regex: %s" % e, file=sys.stderr)
        return 2
    wall_clock = base_doc.wall_clock()
    rows, regressions, added, removed = compare(
        baseline, candidate, args.threshold, wall_clock)
    new_metrics, missing_metrics = [], []
    if not wall_clock:
        new_metrics, missing_metrics = compare_metric_keys(
            base_doc.metrics, cand_doc.metrics)

    printed = set()
    for name, q, b, c, delta, flag in rows:
        if not flag and name in printed:
            continue
        if flag or name not in printed:
            if name not in printed:
                printed.add(name)
        if flag:
            print("  %-50s %s %12.3f -> %-12.3f %-8s %s"
                  % (name, q, b, c, fmt_delta(delta), flag))
    flagged = {r[0] for r in rows if r[5]}
    unchanged = len({r[0] for r in rows}) - len(flagged)
    print("compared %d shared series: %d within ±%.1f%%, %d flagged"
          % (len({r[0] for r in rows}), unchanged, args.threshold,
             len(flagged)))
    for name in added:
        print("  added:   %s" % name)
    for name in removed:
        print("  removed: %s" % name)

    for key in new_metrics:
        print("  metric not in baseline: %s" % key)
    for key in missing_metrics:
        print("  metric missing:         %s" % key)

    failed = False
    if regressions:
        print("%d regression(s) past %.1f%%:" % (len(regressions),
                                                 args.threshold))
        for name, q, delta in regressions:
            print("  %s %s %s" % (name, q, fmt_delta(delta)))
        failed = True
    if new_metrics or missing_metrics:
        print("metrics block differs from the baseline by %d key(s)"
              % (len(new_metrics) + len(missing_metrics)))
        failed = True
    if failed and args.fail_on_regress:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

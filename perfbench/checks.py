#!/usr/bin/env python3
"""Checks that the benchmark measures the program, and measures it exactly.

    python3 perfbench/checks.py [--seconds 2]

Determinism guard, for every workload:
  * a --trace 1 run compares its traced and untraced runs itself and fails
    if any virtual-time or counter-derived metric differs;
  * two --trace 1 runs with seed 1 must agree on all of those metrics;
  * seed 2 must give a different op stream (digest of the generated ops).

Sensitivity predictions, each a knob of the benchmark's own driver:
  * doubling params.rdma.write_latency raises apps.commit.vlat_p50_us and
    op_p50_us on kv_failover and sqlite_failover, and leaves
    apps.get.vlat_p50_us on kv_ycsb_a unchanged;
  * doubling params.dfs.remote_read_base raises op_p99_us on kv_ycsb_a and
    leaves op_p50_us on kv_failover unchanged;
  * a busy-wait of s = c / r per app call (c: ops per call, r: the
    baseline's host_ops_per_s) doubles the host time per op, so it lowers
    host_ops_per_s by the fraction 1 - 1 / (1 + s * r / c) = 0.5, which is
    more than the metric's bound.
On a 3-server striped dfs the uncached-read cost is the two stripe read
bases, not remote_read_base, so the driver's knob scales all three. A
supplementary prediction covers the dfs write side:
  * halving params.dfs.write_bytes_per_ns raises stall_ms on kv_ycsb_a (L0
    write stalls wait for the dfs backend) and leaves op_p50_us on
    kv_failover unchanged.

"Raises" means by more than RISE, "unchanged" within SAME (relative).
Prints one line per check and exits non-zero if any fails.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

RISE = 0.01
SAME = 0.01
BUSY_TOLERANCE = 0.10  # absolute, on the predicted fraction


def drive(driver, workload, seed, seconds, trace, *extra):
    proc = subprocess.run(
        [driver, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--setups", "1", *extra],
        stdout=subprocess.PIPE, text=True, timeout=600)
    metrics, kinds, info = {}, {}, {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if line.startswith("# metric "):
            metrics[parts[2]] = float(parts[3])
            kinds[parts[2]] = parts[5]
        elif line.startswith("# info "):
            info[parts[2]] = parts[3]
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"rc": proc.returncode, "result": result, "metrics": metrics,
            "kinds": kinds, "info": info}


class Report:
    def __init__(self):
        self.failures = 0

    def check(self, ok, text):
        print(f"{'PASS' if ok else 'FAIL'}  {text}")
        self.failures += 0 if ok else 1


def rel(new, old):
    return (new - old) / old if old else float("inf") if new else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    driver = run.build()
    report = Report()
    s = args.seconds

    print("== determinism guard")
    for w in run.WORKLOADS:
        a = drive(driver, w, 1, s, 1)
        b = drive(driver, w, 1, s, 1)
        c = drive(driver, w, 2, s, 1)
        report.check(a["rc"] == 0 and a["result"]["correct"],
                     f"{w}: traced run reproduces the untraced one "
                     f"(rc {a['rc']}, failed {a['result']['failed']})")
        exact = [m for m, k in a["kinds"].items() if k == "virtual"]
        diffs = [m for m in exact if a["metrics"][m] != b["metrics"].get(m)]
        report.check(not diffs, f"{w}: seed 1 twice, {len(exact)} virtual and "
                     f"counter metrics identical {diffs or ''}")
        report.check(a["info"]["op_stream"] != c["info"]["op_stream"],
                     f"{w}: seed 2 changes the op stream "
                     f"({a['info']['op_stream']} vs {c['info']['op_stream']})")

    print("== sensitivity predictions")
    base_runs = {w: drive(driver, w, 1, s, 0) for w in run.WORKLOADS}
    base = {w: r["metrics"] for w, r in base_runs.items()}
    rdma = {w: drive(driver, w, 1, s, 0, "--rdma-write-latency-scale", "2")
            ["metrics"] for w in run.WORKLOADS}
    for w in ("kv_failover", "sqlite_failover"):
        for m in ("apps.commit.vlat_p50_us", "op_p50_us"):
            d = rel(rdma[w][m], base[w][m])
            report.check(d > RISE, f"rdma.write_latency x2 raises {m} on {w}: "
                         f"{base[w][m]:.3f} -> {rdma[w][m]:.3f} ({d:+.1%})")
    m, w = "apps.get.vlat_p50_us", "kv_ycsb_a"
    d = rel(rdma[w][m], base[w][m])
    report.check(abs(d) < SAME, f"rdma.write_latency x2 leaves {m} on {w}: "
                 f"{base[w][m]:.3f} -> {rdma[w][m]:.3f} ({d:+.2%})")

    dfs = {w: drive(driver, w, 1, s, 0, "--dfs-read-base-scale", "2")
           ["metrics"] for w in ("kv_ycsb_a", "kv_failover")}
    for w, m, up in (("kv_ycsb_a", "op_p99_us", True),
                     ("kv_failover", "op_p50_us", False)):
        d = rel(dfs[w][m], base[w][m])
        ok = d > RISE if up else abs(d) < SAME
        report.check(ok, f"dfs read bases x2 {'raises' if up else 'leaves'}"
                     f" {m} on {w}: {base[w][m]:.3f} -> {dfs[w][m]:.3f} "
                     f"({d:+.2%})")

    wbw = {w: drive(driver, w, 1, s, 0, "--dfs-write-bw-scale", "0.5")
           ["metrics"] for w in ("kv_ycsb_a", "kv_failover")}
    for w, m, up in (("kv_ycsb_a", "stall_ms", True),
                     ("kv_failover", "op_p50_us", False)):
        d = rel(wbw[w][m], base[w][m])
        ok = d > RISE if up else abs(d) < SAME
        report.check(ok, f"dfs.write_bytes_per_ns x0.5 "
                     f"{'raises' if up else 'leaves'} {m} on {w}: "
                     f"{base[w][m]:.3f} -> {wbw[w][m]:.3f} ({d:+.2%})")

    w = "kv_ycsb_a"
    bound = next(m["bound"] for m in json.load(
        open(os.path.join(run.ROOT, "BENCHMARK.json")))["end_to_end"]
        if m["name"] == "host_ops_per_s")
    r = base[w]["host_ops_per_s"]
    per_call = float(base_runs[w]["info"]["ops_per_call"])
    spin_ns = int(per_call / r * 1e9)
    predicted = 1 - 1 / (1 + spin_ns * 1e-9 * r / per_call)
    busy = drive(driver, w, 1, s, 0, "--busy-wait-ns", str(spin_ns))
    drop = 1 - busy["metrics"]["host_ops_per_s"] / r
    report.check(abs(drop - predicted) <= BUSY_TOLERANCE and drop > bound,
                 f"busy-wait {spin_ns} ns per app call on {w}: host_ops_per_s "
                 f"{r:.0f} -> {busy['metrics']['host_ops_per_s']:.0f}, drop "
                 f"{drop:.3f} vs predicted {predicted:.3f} (bound {bound})")

    print(f"{report.failures} check(s) failed")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())

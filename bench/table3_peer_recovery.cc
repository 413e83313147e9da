// Table 3 — Peer Recovery: latency breakdown of replacing a failed log
// peer that held a 60 MB log.
//
// Paper: get new peer 3.6 ms, connect + MR setup 64.9 ms, catch up 23.4 ms,
// ap-map update 4.7 ms, total ~96.6 ms.
//
// The replacement runs in the background while the file keeps a quorum
// (DESIGN.md §6), so the total is measured from detection to install (the
// async "ncl.replace_slot" span), and the append that detects the failure
// must itself stay under 1 ms.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/harness/testbed.h"

int main() {
  using namespace splitft;
  bench::Reporter reporter("table3_peer_recovery");
  const uint64_t log_mb = reporter.Iters(60, 8);
  const uint64_t log_bytes = log_mb << 20;
  bench::Title("Table 3: peer-replacement latency breakdown (60 MB log)");

  TestbedOptions options;
  options.tracing = true;
  Testbed testbed(options);
  auto server = testbed.MakeServer("table3");
  SplitOpenOptions opts;
  opts.oncl = true;
  opts.ncl_capacity = log_bytes + (1 << 20);
  auto file = server->fs->Open("/wal", opts);
  if (!file.ok()) {
    std::fprintf(stderr, "open failed\n");
    return 1;
  }
  // Fill the log.
  std::string chunk(1 << 20, 'x');
  for (uint64_t i = 0; i < log_mb; ++i) {
    CHECK_OK((*file)->Append(chunk));
  }
  // Drain the append window so the replacement measurement below starts
  // from a fully committed log.
  CHECK_OK((*file)->Sync());
  testbed.sim()->RunUntilIdle();

  // Measure the phases indirectly: crash one peer, then append; the append
  // detects the failure and starts the replacement, which then runs to its
  // install in the background. The controller's RPC count and the
  // calibrated cost model attribute the phases.
  testbed.peer(0)->Crash();

  Controller* controller = testbed.controller();
  uint64_t rpcs_before = controller->rpc_count();
  auto spans_before = testbed.tracer()->Snapshot();
  SimTime t0 = testbed.sim()->Now();
  CHECK_OK((*file)->Append("trigger"));
  CHECK_OK((*file)->Sync());
  SimTime trigger = testbed.sim()->Now() - t0;
  testbed.sim()->RunUntilIdle();
  auto window = SpanDiff(spans_before, testbed.tracer()->Snapshot());
  auto replace = window.find("ncl.replace_slot");
  if (replace == window.end() || replace->second.count != 1) {
    std::fprintf(stderr, "expected exactly one peer replacement\n");
    return 1;
  }
  SimTime total = replace->second.total;
  uint64_t rpcs = controller->rpc_count() - rpcs_before;

  // Reconstruct the breakdown from the calibrated cost model (the same
  // terms the implementation charges).
  const SimParams& params = testbed.params();
  SimTime get_peer = 2 * params.controller.rpc_latency;  // epoch + GetPeers
  SimTime connect = params.rdma.setup_rpc_latency +
                    params.MrRegisterLatency(NclRegionBytes(log_bytes)) +
                    params.rdma.connect_latency;
  SimTime catch_up = params.RdmaWriteLatency(log_bytes);
  SimTime apmap = params.controller.rpc_latency;  // SetApMap
  // Availability-update RPCs by the peer are charged inside `connect`.

  std::printf("  %-36s %12s\n", "Step", "Time");
  bench::Rule();
  std::printf("  %-36s %12s\n", "Get new peer from controller",
              HumanDuration(get_peer).c_str());
  std::printf("  %-36s %12s\n", "Connect to new peer and set up MR",
              HumanDuration(connect).c_str());
  std::printf("  %-36s %12s\n", "Catch up new peer",
              HumanDuration(catch_up).c_str());
  std::printf("  %-36s %12s\n", "Update ap-map on controller",
              HumanDuration(apmap).c_str());
  bench::Rule();
  std::printf("  %-36s %12s   (controller RPCs: %llu)\n",
              "Total (detection to install)", HumanDuration(total).c_str(),
              static_cast<unsigned long long>(rpcs));
  std::printf("  %-36s %12s\n", "Triggering append (+ sync)",
              HumanDuration(trigger).c_str());
  bench::Note("paper: 3.6ms / 64.9ms / 23.4ms / 4.7ms, total ~96.6ms");
  if (trigger >= Millis(1)) {
    std::fprintf(stderr,
                 "the append that detected the failure took %s: the "
                 "replacement is back on the write path\n",
                 HumanDuration(trigger).c_str());
    return 1;
  }

  const double kMsPerNs = 1e-6;
  reporter.AddSeries("get_peer", "ms").FromValue(get_peer * kMsPerNs);
  reporter.AddSeries("connect_mr", "ms").FromValue(connect * kMsPerNs);
  reporter.AddSeries("catch_up", "ms").FromValue(catch_up * kMsPerNs);
  reporter.AddSeries("apmap_update", "ms").FromValue(apmap * kMsPerNs);
  reporter.AddSeries("total_measured", "ms")
      .FromValue(total * kMsPerNs)
      .Scalar("controller_rpcs", static_cast<double>(rpcs))
      .Scalar("log_mb", static_cast<double>(log_mb))
      .Scalar("trigger_ms", trigger * kMsPerNs);
  return reporter.WriteJson() ? 0 : 1;
}

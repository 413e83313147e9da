// Figure 12 — Application Performance Under Peer Failures.
//
// RocksDB-mini in SplitFT with f=1 (3 peers) runs a write-only workload
// while the failure script crashes two peers simultaneously (losing the
// quorum — writes stall until a replacement is caught up) and later one
// more peer (no quorum loss — a brief blip). Real-time throughput is
// sampled every 10 ms of virtual time. The headline run uses cold peers, as
// the paper does; a second run beside it uses the default warm peers, whose
// spare slab takes MR registration off the replacement.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/harness/closed_loop.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

// Runs the failure script once and reports its series, named with a
// "-warm" suffix for warm peers. Cold peers (the headline series) register
// every replacement and WAL region on the caller's timeline; warm peers
// carve them from a spare slab registered in the background (DESIGN.md
// §14). Returns false when the store cannot open.
bool RunTimeline(bench::Reporter* reporter, bool warm) {
  const std::string suffix = warm ? "-warm" : "";
  std::printf("\n[%s peers]\n", warm ? "warm" : "cold");
  TestbedOptions testbed_options;
  testbed_options.num_peers = 6;  // 3 assigned + spares for replacement
  testbed_options.peer_options.reserve_slab = warm;
  Testbed testbed(testbed_options);
  auto server = testbed.MakeServer("fig12", {.ncl_capacity = 64ull << 20});
  KvStoreOptions options;
  options.mode = DurabilityMode::kSplitFt;
  // Paper-scale log: a 64 MB WAL region (Table 3 measures a 60 MB one) and
  // an 8 MB memtable so rotations are infrequent.
  options.memtable_bytes = 8 << 20;
  options.wal_capacity = 64ull << 20;
  auto store = testbed.StartKvStore(server.get(), options);
  if (!store.ok()) {
    std::fprintf(stderr, "open failed\n");
    return false;
  }
  CHECK_OK(Testbed::LoadRecords(store->get(), reporter->Iters(20000, 2000)));

  // Schedule the failure script in virtual time, relative to the start of
  // the measured run: two simultaneous crashes at +2s, one more at +5s.
  // Smoke compresses the whole schedule 4x (crashes at +0.5s / +1.25s,
  // 2s run) so the timeline keeps its shape at a fraction of the events.
  SimTime crash2 = reporter->smoke() ? Millis(500) : Seconds(2);
  SimTime crash1 = reporter->smoke() ? Millis(1250) : Seconds(5);
  SimTime duration = reporter->smoke() ? Seconds(2) : Seconds(8);
  SimTime start = testbed.sim()->Now();
  // deeplint: allow(dangling-capture) harness.Run() drains the sim in-frame
  testbed.sim()->ScheduleAt(start + crash2, [&testbed, crash2] {
    testbed.peer(0)->Crash();
    testbed.peer(1)->Crash();
    std::printf("  [t=%.2fs] two peers crashed simultaneously\n",
                static_cast<double>(crash2) / 1e9);
  });
  // deeplint: allow(dangling-capture) harness.Run() drains the sim in-frame
  testbed.sim()->ScheduleAt(start + crash1, [&testbed, crash1] {
    testbed.peer(2)->Crash();
    std::printf("  [t=%.2fs] one more peer crashed\n",
                static_cast<double>(crash1) / 1e9);
  });

  YcsbWorkload workload(YcsbWorkloadKind::kWriteOnly,
                        reporter->Iters(20000, 2000), 42);
  HarnessOptions harness_options;
  harness_options.num_clients = 12;
  harness_options.target_ops = 100000000;  // run to the duration limit
  harness_options.max_duration = duration;
  harness_options.sample_interval = Millis(10);
  ClosedLoopHarness harness(testbed.sim(), store->get(), &workload,
                            harness_options);
  HarnessResult result = harness.Run();

  // Print a compact timeline: 100 ms rows (aggregating the 10 ms samples),
  // annotating stalls.
  std::printf("\n  %-10s %14s\n", "time", "tput KOps/s");
  bench::Rule();
  double acc = 0;
  int n = 0;
  Histogram bucket_kops;
  int stall_buckets = 0;
  for (size_t i = 0; i < result.timeline.size(); ++i) {
    acc += result.timeline[i].kops;
    n++;
    if (n == 10) {
      double t = static_cast<double>(result.timeline[i].start) / 1e9;
      double kops = acc / n;
      bucket_kops.Add(static_cast<uint64_t>(kops * 1000.0));  // ops/s
      if (kops < 1.0) {
        stall_buckets++;
      }
      std::printf("  %8.1fs %14.1f %s\n", t, kops,
                  kops < 1.0 ? "  <-- stall (quorum lost / replacement)" : "");
      acc = 0;
      n = 0;
    }
  }
  bench::Rule();
  std::printf("  peers replaced during the run: %d\n",
              server->fs->ncl()->peers_replaced());
  reporter->AddSeries("timeline_bucket_tput" + suffix, "Ops/s")
      .FromHistogram(bucket_kops)
      .Scalar("stall_buckets_100ms", stall_buckets)
      .Scalar("peers_replaced", server->fs->ncl()->peers_replaced());
  reporter->AddSeries("overall_tput" + suffix, "KOps/s")
      .FromValue(result.throughput_kops);
  if (!warm) {
    reporter->SetMetricsJson(testbed.metrics()->ToJson());
  }
  return true;
}

}  // namespace
}  // namespace splitft

int main() {
  using namespace splitft;
  bench::Reporter reporter("fig12_peer_failures");
  bench::Title("Figure 12: throughput timeline under peer failures");
  if (!RunTimeline(&reporter, /*warm=*/false) ||
      !RunTimeline(&reporter, /*warm=*/true)) {
    return 1;
  }
  bench::Note("paper: ~100ms stall when 2 of 3 peers crash (replacement + "
              "catch-up), tiny blip for the single later crash");
  return reporter.WriteJson() ? 0 : 1;
}

// Ablation — erasure-coded NCL regions vs full replication (DESIGN.md §16).
//
// At an equal failure budget f=2, full replication pins 2f+1 = 5 complete
// copies of every region while k+m striping pins (k+m)/k x the logical
// bytes: 2x for k=2+m=2, 1.5x for k=4+m=2. This ablation runs the same
// multi-tenant append workload under each redundancy scheme and reports
//   * peer memory per tenant (slab bytes actually carved),
//   * the append latency distribution (late binding acks at the first k
//     shard completions, so the EC tail must not trail replication's), and
//   * the crash-recovery time (EC reconstructs from k shard streams
//     instead of reading one replica).
//
// Acceptance (non-zero exit on violation): k=2+m=2 takes at least 1.4x
// less peer memory per tenant than replication at f=2, with append p99 at
// most 1.15x replication's.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/harness/testbed.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace {

using namespace splitft;  // NOLINT

constexpr int kNumPeers = 8;
constexpr uint64_t kCapacity = 1 << 20;

struct Mode {
  std::string name;
  std::optional<EcGeometry> ec;  // replication when empty
};

struct ModeResult {
  double bytes_per_tenant = 0;
  double p50_us = 0;
  double p99_us = 0;
  double recovery_us = 0;
  bool ok = false;
};

NclConfig ConfigFor(const Mode& mode, int tenant) {
  NclConfig config;
  config.app_id = "ab-ec-" + mode.name + "-" + std::to_string(tenant);
  config.default_capacity = kCapacity;
  config.fault_budget = 2;  // equal f across every mode
  config.ec = mode.ec;
  return config;
}

ModeResult RunMode(bench::Reporter* reporter, const Mode& mode) {
  ModeResult out;
  TestbedOptions options;
  options.num_peers = kNumPeers;
  Testbed testbed(options);
  ObsContext obs{testbed.metrics(), nullptr};

  const int tenants = static_cast<int>(reporter->Iters(16, 4));
  const int rounds = static_cast<int>(reporter->Iters(64, 8));

  struct Tenant {
    std::unique_ptr<NclClient> client;
    std::unique_ptr<NclFile> file;
  };
  std::vector<Tenant> fleet;
  for (int i = 0; i < tenants; ++i) {
    Tenant t;
    t.client = std::make_unique<NclClient>(ConfigFor(mode, i),
                                           testbed.fabric(),
                                           testbed.controller(),
                                           testbed.directory(),
                                           testbed.app_node(), obs);
    auto file = t.client->Create("wal");
    if (!file.ok()) {
      std::printf("  %s: Create failed (%s)\n", mode.name.c_str(),
                  file.status().ToString().c_str());
      return out;
    }
    t.file = std::move(*file);
    fleet.push_back(std::move(t));
  }

  uint64_t carved = 0;
  for (int i = 0; i < testbed.num_peers(); ++i) {
    carved += testbed.peer(i)->slab_used_bytes();
  }
  out.bytes_per_tenant = static_cast<double>(carved) / tenants;

  Histogram latency;
  const std::string payload(256, 'x');
  for (int k = 0; k < rounds; ++k) {
    for (Tenant& t : fleet) {
      SimTime t0 = testbed.sim()->Now();
      CHECK_OK(t.file->Append(payload));
      latency.Add(static_cast<int64_t>(testbed.sim()->Now() - t0));
    }
  }
  out.p50_us = latency.P50() * 1e-3;
  out.p99_us = latency.P99() * 1e-3;

  // Crash-recovery: drop tenant 0's handle without Delete (the app died)
  // and time a fresh client's Recover against the same peers.
  std::string app0_oracle;
  {
    auto contents = fleet[0].file->Read(0, fleet[0].file->size());
    CHECK_OK(contents.status());
    app0_oracle = std::move(*contents);
  }
  NclConfig recover_config = ConfigFor(mode, 0);
  fleet[0].file.reset();
  fleet[0].client.reset();
  NclClient fresh(recover_config, testbed.fabric(), testbed.controller(),
                  testbed.directory(), testbed.app_node(), obs);
  SimTime r0 = testbed.sim()->Now();
  auto recovered = fresh.Recover("wal");
  CHECK_OK(recovered.status());
  out.recovery_us = static_cast<double>(testbed.sim()->Now() - r0) * 1e-3;
  {
    auto contents = (*recovered)->Read(0, (*recovered)->size());
    CHECK_OK(contents.status());
    if (*contents != app0_oracle) {
      std::printf("  %s: recovered contents diverge from the oracle\n",
                  mode.name.c_str());
      return out;
    }
  }

  std::printf("  %12s %16.0f %10.2f %10.2f %14.1f\n", mode.name.c_str(),
              out.bytes_per_tenant, out.p50_us, out.p99_us, out.recovery_us);
  reporter->AddSeries(mode.name, "us")
      .FromHistogram(latency, 1e-3)
      .Scalar("bytes_per_tenant", out.bytes_per_tenant)
      .Scalar("recovery_us", out.recovery_us)
      .Scalar("tenants", tenants);
  out.ok = true;
  return out;
}

}  // namespace

int main() {
  using namespace splitft;
  bench::Reporter reporter("ablation_ec");
  bench::Title("Ablation: erasure-coded regions vs replication at f=2");
  std::printf("  %12s %16s %10s %10s %14s\n", "mode", "bytes/tenant",
              "p50 us", "p99 us", "recovery us");
  bench::Rule();

  std::vector<Mode> modes = {
      {"replication", std::nullopt},
      {"ec_k2m2", EcGeometry{2, 2, 64}},
      {"ec_k4m2", EcGeometry{4, 2, 64}},
  };
  ModeResult replication;
  ModeResult ec_k2m2;
  for (const Mode& mode : modes) {
    ModeResult r = RunMode(&reporter, mode);
    if (!r.ok) {
      return 1;
    }
    if (mode.name == "replication") {
      replication = r;
    } else if (mode.name == "ec_k2m2") {
      ec_k2m2 = r;
    }
  }
  bench::Rule();

  std::string errors;
  double memory_gain = replication.bytes_per_tenant / ec_k2m2.bytes_per_tenant;
  if (memory_gain < 1.4) {
    errors += "ec_k2m2 memory gain " + std::to_string(memory_gain) +
              "x is below the 1.4x acceptance bar\n";
  }
  if (ec_k2m2.p99_us > 1.15 * replication.p99_us) {
    errors += "ec_k2m2 append p99 " + std::to_string(ec_k2m2.p99_us) +
              "us exceeds 1.15x replication's (" +
              std::to_string(replication.p99_us) + "us)\n";
  }
  if (!errors.empty()) {
    std::fprintf(stderr, "INVARIANT FAILURES:\n%s", errors.c_str());
    return 1;
  }

  std::printf("  k2m2 memory gain over replication: %.2fx (p99 %.2fus vs "
              "%.2fus)\n",
              memory_gain, ec_k2m2.p99_us, replication.p99_us);
  bench::Note("expected: ~2.5x less peer memory at k=2+m=2 (2x vs 5x "
              "redundancy at f=2) and a flat-or-better tail — late binding "
              "acks at the first k shard completions, so the slowest peers "
              "drop off the critical path");
  return reporter.WriteJson() ? 0 : 1;
}

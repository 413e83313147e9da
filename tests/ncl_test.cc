// Tests for the NCL core: replication, recovery, peer failures, catch-up,
// space-leak GC, and the unsafe-variant demonstrations of §4.6.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/controller/controller.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/ncl/region_format.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/rdma/fabric.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

constexpr uint64_t kLend = 512ull << 20;

class NclTest : public ::testing::Test {
 protected:
  NclTest() : fabric_(&sim_, &params_), controller_(&sim_, &params_) {
    app_node_ = fabric_.AddNode("app-server");
  }

  // Client fault counters land in the fixture registry ("ncl.client.*").
  uint64_t ClientCounter(const std::string& name) {
    return metrics_.CounterValue("ncl.client." + name);
  }

  // A "fabric.wr.*" counter of the fixture's fabric.
  uint64_t FabricCounter(const std::string& name) {
    return fabric_.metrics().CounterValue("fabric.wr." + name);
  }

  // Creates `n` peers named p0..p{n-1}, started and registered.
  void StartPeers(int n, uint64_t lend = kLend,
                  LogPeerOptions options = {}) {
    for (int i = 0; i < n; ++i) {
      auto peer = std::make_unique<LogPeer>("p" + std::to_string(i), &fabric_,
                                            &controller_, lend, ObsContext{},
                                            options);
      EXPECT_TRUE(peer->Start().ok());
      directory_.Register(peer.get());
      peers_.push_back(std::move(peer));
    }
  }

  // Peers without a registered spare slab: every pool growth pays MR
  // registration on the caller's timeline, as in the paper's Table 3.
  static LogPeerOptions ColdPeers() {
    LogPeerOptions options;
    options.reserve_slab = false;
    return options;
  }

  std::unique_ptr<NclClient> MakeClient(NclConfig config = {}) {
    if (config.app_id == "app") {
      config.app_id = "test-app";
    }
    if (config.default_capacity == 64ull << 20) {
      config.default_capacity = 1 << 20;  // keep tests snappy
    }
    return std::make_unique<NclClient>(config, &fabric_, &controller_,
                                       &directory_, app_node_,
                                       ObsContext{&metrics_, &tracer_});
  }

  LogPeer* PeerNamed(const std::string& name) {
    return directory_.Lookup(name);
  }

  // Reads the file fully via the library.
  std::string Contents(NclFile* file) {
    auto data = file->Read(0, file->size());
    EXPECT_TRUE(data.ok());
    return data.ok() ? *data : std::string();
  }

  Simulation sim_;
  SimParams params_;
  MetricsRegistry metrics_;
  Tracer tracer_{&sim_, /*enabled=*/true};
  Fabric fabric_;
  Controller controller_;
  PeerDirectory directory_;
  std::vector<std::unique_ptr<LogPeer>> peers_;
  NodeId app_node_;
};

// ------------------------------------------------------------ Log peers --

TEST_F(NclTest, PeerRegistersOnController) {
  StartPeers(1);
  auto rec = controller_.GetPeer("p0");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->available_bytes, kLend);
}

TEST_F(NclTest, PeerAllocationDecrementsAvailability) {
  StartPeers(1);
  auto grant = peers_[0]->Allocate("app", "f", 1 << 20, 1);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(peers_[0]->available_bytes(), kLend - (1 << 20));
  auto rec = controller_.GetPeer("p0");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->available_bytes, kLend - (1 << 20));
  ASSERT_TRUE(peers_[0]->Release("app", "f").ok());
  EXPECT_EQ(peers_[0]->available_bytes(), kLend);
}

TEST_F(NclTest, PeerRejectsWhenOutOfMemory) {
  StartPeers(1, /*lend=*/1 << 20);
  auto grant = peers_[0]->Allocate("app", "f", 2 << 20, 1);
  EXPECT_EQ(grant.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(NclTest, PeerLookupAfterCrashRejects) {
  StartPeers(1);
  ASSERT_TRUE(peers_[0]->Allocate("app", "f", 1 << 20, 1).ok());
  peers_[0]->Crash();
  ASSERT_TRUE(peers_[0]->Restart().ok());
  // mr-map was lost with the crash: the peer must reject, not return junk.
  EXPECT_FALSE(peers_[0]->LookupForRecovery("app", "f").ok());
  EXPECT_EQ(peers_[0]->available_bytes(), kLend);
}

TEST_F(NclTest, StagedSwitchIsAtomic) {
  StartPeers(1);
  auto grant = peers_[0]->Allocate("app", "f", 1024, 1);
  ASSERT_TRUE(grant.ok());
  (*fabric_.RegionBuffer(peers_[0]->node(), grant->rkey))->CopyIn(0, "old");

  auto staged = peers_[0]->AllocateCatchupRegion("app", "f", 1024, 2);
  ASSERT_TRUE(staged.ok());
  (*fabric_.RegionBuffer(peers_[0]->node(), staged->rkey))
      ->CopyIn(0, "new");

  // Before the switch, recovery still sees the old region.
  auto lookup = peers_[0]->LookupForRecovery("app", "f");
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(lookup->rkey, grant->rkey);

  ASSERT_TRUE(peers_[0]->SwitchRegion("app", "f", staged->rkey).ok());
  lookup = peers_[0]->LookupForRecovery("app", "f");
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(lookup->rkey, staged->rkey);
  // The old region was freed.
  EXPECT_FALSE(fabric_.RegionBuffer(peers_[0]->node(), grant->rkey).ok());
  EXPECT_EQ(peers_[0]->available_bytes(), kLend - 1024);
}

TEST_F(NclTest, SwitchRejectsUnknownStagedRegion) {
  StartPeers(1);
  ASSERT_TRUE(peers_[0]->Allocate("app", "f", 1024, 1).ok());
  EXPECT_EQ(peers_[0]->SwitchRegion("app", "f", 999).code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------ Registration headroom --

// Each peer keeps one registered spare slab of a 64 MiB grain plus the
// largest region header (DESIGN.md §14).
constexpr uint64_t kReserve = (64ull << 20) + kNclEcHeaderBytes;

class NclReserveTest : public NclTest {
 protected:
  // Sim time one Allocate of `bytes` on `peer` takes.
  SimTime AllocateCost(LogPeer* peer, const std::string& file,
                       uint64_t bytes) {
    SimTime t0 = sim_.Now();
    EXPECT_TRUE(peer->Allocate("app", file, bytes, 1).ok()) << file;
    return sim_.Now() - t0;
  }
  // Runs the clock past a spare armed `at` (its registration done).
  void AwaitReserve(SimTime at) {
    sim_.RunUntil(at + params_.MrRegisterLatency(kReserve));
  }
  SimTime WarmCost() const {
    return params_.rdma.setup_rpc_latency + params_.rdma.mw_bind_latency;
  }
};

TEST_F(NclReserveTest, GrowthCarveWithReadySpareCostsOnlyRpcAndBind) {
  StartPeers(1);
  LogPeer* peer = peers_[0].get();
  EXPECT_EQ(peer->reserve_bytes(), kReserve);
  EXPECT_EQ(peer->slab_bytes(), 0u);
  AwaitReserve(0);
  EXPECT_EQ(AllocateCost(peer, "f", 1 << 20), WarmCost());
  // The spare joined the pool and the next one is registering.
  EXPECT_EQ(peer->slab_bytes(), kReserve);
  EXPECT_EQ(peer->reserve_bytes(), kReserve);
  // The spare is not lent out: availability drops by the region only.
  EXPECT_EQ(peer->available_bytes(), kLend - (1 << 20));
}

TEST_F(NclReserveTest, CarveDuringRefillWaitsOnlyForTheRemainder) {
  StartPeers(1);
  LogPeer* peer = peers_[0].get();
  AwaitReserve(0);
  // Takes the spare at (start + RPC); its successor registers from there.
  SimTime armed = sim_.Now() + params_.rdma.setup_rpc_latency;
  ASSERT_EQ(AllocateCost(peer, "a", 1 << 20), WarmCost());
  sim_.RunUntil(sim_.Now() + Millis(10));
  // A region the first slab cannot hold takes the refilling spare.
  const SimTime t0 = sim_.Now();
  const uint64_t region = NclRegionBytes(64ull << 20);
  ASSERT_TRUE(peer->Allocate("app", "b", region, 1).ok());
  EXPECT_EQ(sim_.Now(), armed + params_.MrRegisterLatency(kReserve) +
                            params_.rdma.mw_bind_latency);
  // Never slower than registering a slab of the region's size.
  EXPECT_LT(sim_.Now() - t0, params_.rdma.setup_rpc_latency +
                                 params_.MrRegisterLatency(region) +
                                 params_.rdma.mw_bind_latency);
}

TEST_F(NclReserveTest, CrashDropsTheSpareAndRestartRearmsIt) {
  StartPeers(1);
  LogPeer* peer = peers_[0].get();
  AwaitReserve(0);
  peer->Crash();
  EXPECT_EQ(peer->reserve_bytes(), 0u);
  sim_.RunUntil(sim_.Now() + Seconds(1));
  // The spare starts registering as the node comes back, before the
  // peer re-registers on the controller.
  const SimTime armed = sim_.Now();
  ASSERT_TRUE(peer->Restart().ok());
  EXPECT_EQ(peer->reserve_bytes(), kReserve);
  // Right after the restart the spare is still registering: the carve
  // waits for the rest of it.
  ASSERT_TRUE(peer->Allocate("app", "f", 1 << 20, 1).ok());
  EXPECT_EQ(sim_.Now(), armed + params_.MrRegisterLatency(kReserve) +
                            params_.rdma.mw_bind_latency);
  AwaitReserve(armed + params_.MrRegisterLatency(kReserve));
  EXPECT_EQ(AllocateCost(peer, "g", NclRegionBytes(64ull << 20)),
            WarmCost());
}

TEST_F(NclReserveTest, PeerLendingOneRegionKeepsNoSpare) {
  const uint64_t region = NclRegionBytes(1 << 20);
  StartPeers(1, /*lend=*/region);
  LogPeer* peer = peers_[0].get();
  EXPECT_EQ(peer->reserve_bytes(), 0u);
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(AllocateCost(peer, "f", region),
            params_.rdma.setup_rpc_latency +
                params_.MrRegisterLatency(region) +
                params_.rdma.mw_bind_latency);
  EXPECT_EQ(peer->reserve_bytes(), 0u);
  EXPECT_EQ(peer->slab_bytes(), region);
}

// A region larger than the spare grows the pool cold, and from then on the
// spare is sized to hold that region too (Fig 11(b)'s 68 MiB logs).
TEST_F(NclReserveTest, LargerRegionRaisesTheSpareToHoldIt) {
  StartPeers(1);
  LogPeer* peer = peers_[0].get();
  AwaitReserve(0);
  const uint64_t region = NclRegionBytes(68ull << 20);
  const SimTime t0 = sim_.Now();
  ASSERT_TRUE(peer->Allocate("app", "a", region, 1).ok());
  EXPECT_EQ(sim_.Now() - t0, params_.rdma.setup_rpc_latency +
                                 params_.MrRegisterLatency(region) +
                                 params_.rdma.mw_bind_latency);
  // The 64 MiB spare made way for one that holds the region.
  EXPECT_EQ(peer->slab_bytes(), region);
  EXPECT_EQ(peer->reserve_bytes(), region);
  sim_.RunUntil(sim_.Now() + params_.MrRegisterLatency(region));
  EXPECT_EQ(AllocateCost(peer, "b", region), WarmCost());
}

TEST_F(NclReserveTest, OptionOffKeepsEveryGrowthCold) {
  StartPeers(1, kLend, ColdPeers());
  LogPeer* peer = peers_[0].get();
  EXPECT_EQ(peer->reserve_bytes(), 0u);
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(AllocateCost(peer, "f", 1 << 20),
            params_.rdma.setup_rpc_latency +
                params_.MrRegisterLatency(64ull << 20) +
                params_.rdma.mw_bind_latency);
  EXPECT_EQ(peer->reserve_bytes(), 0u);
}

// The kv_failover case: a spare peer that never held a region takes a
// replacement for a 64 MiB WAL, whose region (content + header) is larger
// than the 64 MiB grain. A spare of exactly the grain would not hold it and
// the carve would fall back to a cold registration.
TEST_F(NclReserveTest, NeverUsedSpareCarvesA64MiBWalRegionFromItsReserve) {
  StartPeers(4);
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(AllocateCost(peers_[3].get(), "/wal",
                         NclRegionBytes(64ull << 20)),
            WarmCost());
}

// ----------------------------------------------------- Create and record --

TEST_F(NclTest, CreateAllocatesOnNPeers) {
  StartPeers(4);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->peer_names().size(), 3u);  // n = 2f+1 with f=1
  EXPECT_EQ((*file)->alive_peers(), 3);
  EXPECT_TRUE(client->Exists("/wal/1"));
  auto apmap = controller_.GetApMap("test-app", "/wal/1");
  ASSERT_TRUE(apmap.ok());
  EXPECT_EQ(apmap->peers.size(), 3u);
}

// Create asks the controller once for the whole width and allocates on
// every peer at once; each slot holds the lane of its index, so an
// erasure-coded file recovers through the ap-map's peer order.
TEST_F(NclTest, CreateCostsOneGetPeersAndAssignsLanesInSlotOrder) {
  StartPeers(4);
  NclConfig config;
  config.ec = EcGeometry{2, 1, 64};
  auto client = MakeClient(config);
  const uint64_t rpcs = controller_.rpc_count();
  const SimTime t0 = sim_.Now();
  auto file = client->Create("/wal/1", 4096);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  // Exists (GetApMap), BumpAppEpoch, GetPeers, SetApMap, and each peer's
  // availability update.
  EXPECT_EQ(controller_.rpc_count() - rpcs, 4u + 3u);
  // Three 1.8 ms controller RPCs before the allocations, one after: the
  // three peers' setup RPC + registration overlap into one.
  const SimTime control = 4 * params_.controller.rpc_latency;
  EXPECT_LT(sim_.Now() - t0 - control,
            2 * (params_.rdma.setup_rpc_latency +
                 params_.MrRegisterLatency(64ull << 20)));
  auto apmap = controller_.GetApMap("test-app", "/wal/1");
  ASSERT_TRUE(apmap.ok());
  EXPECT_EQ(apmap->peers, (*file)->peer_names());
  std::string oracle;
  for (int i = 0; i < 8; ++i) {
    std::string rec(200, static_cast<char>('a' + i));
    oracle += rec;
    ASSERT_TRUE((*file)->Append(rec).ok());
  }
  ASSERT_TRUE((*file)->Drain().ok());
  file->reset();
  client.reset();
  sim_.RunUntilIdle();
  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Contents(recovered->get()), oracle);
}

TEST_F(NclTest, CreateFailsWithTooFewPeers) {
  StartPeers(2);  // f=1 needs 3
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  EXPECT_EQ(file.status().code(), StatusCode::kUnavailable);
}

TEST_F(NclTest, CreateDuplicateFails) {
  StartPeers(3);
  auto client = MakeClient();
  ASSERT_TRUE(client->Create("/wal/1").ok());
  EXPECT_EQ(client->Create("/wal/1").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(NclTest, AppendReplicatesToMajorityAndLocally) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello").ok());
  ASSERT_TRUE((*file)->Append(" world").ok());
  EXPECT_EQ((*file)->size(), 11u);
  EXPECT_EQ((*file)->seq(), 2u);
  EXPECT_EQ(Contents(file->get()), "hello world");
  // Let every in-flight WR land, then inspect the peers' memory directly.
  sim_.RunUntilIdle();
  int holding = 0;
  for (auto& peer : peers_) {
    auto grant = peer->LookupForRecovery("test-app", "/wal/1");
    if (!grant.ok()) {
      continue;
    }
    auto buf = fabric_.RegionBuffer(peer->node(), grant->rkey);
    ASSERT_TRUE(buf.ok());
    if ((*buf)->CopyOut(kNclRegionHeaderBytes, 11) == "hello world") {
      holding++;
    }
  }
  EXPECT_EQ(holding, 3);
}

TEST_F(NclTest, WriteLatencyMatchesPaperMicrobenchmark) {
  // §5.1: a 128 B NCL write completes in single-digit microseconds (the
  // paper measures 4.6 us); a dfs sync write costs milliseconds.
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("warmup").ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Append(std::string(128, 'x')).ok());
  SimTime lat = sim_.Now() - before;
  EXPECT_GT(lat, Micros(2));
  EXPECT_LT(lat, Micros(10));
}

// ------------------------------------------------- Pipelined append path --

TEST_F(NclTest, PipelinedAppendsRespectWindowAndDrain) {
  StartPeers(3);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.inflight_window = 4;
  auto client = MakeClient(config);
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  std::string expect;
  for (int i = 0; i < 20; ++i) {
    std::string rec = "rec-" + std::to_string(i) + ";";
    ASSERT_TRUE((*file)->AppendAsync(rec).ok());
    expect += rec;
    // The backpressure bound: never more than `window` uncommitted appends.
    EXPECT_LE((*file)->inflight(), 4u);
  }
  ASSERT_TRUE((*file)->Drain().ok());
  EXPECT_EQ((*file)->committed_seq(), (*file)->seq());
  EXPECT_EQ((*file)->inflight(), 0u);
  EXPECT_EQ(Contents(file->get()), expect);
}

TEST_F(NclTest, WindowOfOneIsSynchronous) {
  StartPeers(3);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.inflight_window = 1;
  auto client = MakeClient(config);
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*file)->AppendAsync("x").ok());
    // Window 1 degenerates to the fully synchronous path: every append has
    // committed on a majority by the time the call returns.
    EXPECT_EQ((*file)->committed_seq(), (*file)->seq());
  }
}

TEST_F(NclTest, PipelinedAppendsOutperformSynchronous) {
  StartPeers(3);
  auto run = [&](int window, const std::string& path) {
    NclConfig config;
    config.app_id = "test-app";
    config.default_capacity = 1 << 20;
    config.inflight_window = window;
    auto client = MakeClient(config);
    auto file = client->Create(path);
    EXPECT_TRUE(file.ok());
    SimTime t0 = sim_.Now();
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE((*file)->AppendAsync(std::string(128, 'x')).ok());
    }
    EXPECT_TRUE((*file)->Drain().ok());
    return sim_.Now() - t0;
  };
  SimTime sync_time = run(1, "/wal/sync");
  SimTime pipe_time = run(8, "/wal/pipe");
  // Overlapping quorum rounds must beat one round per append by a wide
  // margin (the acceptance bar for the fig8 ablation is >= 20%).
  EXPECT_LT(pipe_time * 5, sync_time * 4);
}

TEST_F(NclTest, RecoveryAfterPipelinedBurstSeesGaplessPrefix) {
  // Drop the file mid-window: recovery must observe a prefix of the append
  // sequence — never a gap — and at least everything that committed.
  StartPeers(3);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.inflight_window = 8;
  std::string expect;
  uint64_t committed = 0;
  const std::string rec(16, 'r');
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE((*file)->AppendAsync(rec).ok());
      expect += rec;
    }
    committed = (*file)->committed_seq();
    // Crash without draining: the last few appends are posted, unacked.
  }
  sim_.RunUntilIdle();
  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  std::string got = Contents(recovered->get());
  ASSERT_LE(got.size(), expect.size());
  EXPECT_EQ(got, expect.substr(0, got.size())) << "recovered a non-prefix";
  EXPECT_EQ(got.size() % rec.size(), 0u) << "recovered a torn record";
  EXPECT_GE(got.size(), committed * rec.size()) << "lost a committed append";
}

TEST_F(NclTest, PositionalOverwriteForCircularLogs) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/db-wal", 64);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("AAAABBBB").ok());
  ASSERT_TRUE((*file)->Write(0, "CCCC").ok());  // wrap around
  EXPECT_EQ(Contents(file->get()), "CCCCBBBB");
  EXPECT_EQ((*file)->size(), 8u);
}

TEST_F(NclTest, AppendPastCapacityFails) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal", 16);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123456789abcdef").ok());
  EXPECT_EQ((*file)->Append("x").code(), StatusCode::kResourceExhausted);
}

TEST_F(NclTest, TruncateResetsContentButKeepsSeqGrowing) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/aof", 1024);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("old-data").ok());
  uint64_t seq_before = (*file)->seq();
  ASSERT_TRUE((*file)->Truncate().ok());
  EXPECT_EQ((*file)->size(), 0u);
  EXPECT_GT((*file)->seq(), seq_before);
  ASSERT_TRUE((*file)->Append("fresh").ok());
  EXPECT_EQ(Contents(file->get()), "fresh");
}

TEST_F(NclTest, DeleteReleasesRegionsAndApMap) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1", 1 << 20);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  ASSERT_TRUE((*file)->Delete().ok());
  EXPECT_FALSE(client->Exists("/wal/1"));
  for (auto& peer : peers_) {
    EXPECT_EQ(peer->available_bytes(), kLend);
    EXPECT_EQ(peer->active_regions(), 0u);
  }
  EXPECT_EQ((*file)->Append("y").code(), StatusCode::kFailedPrecondition);
}

TEST_F(NclTest, DeleteReleasesEveryPeerAtOnce) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1", 1 << 20);
  ASSERT_TRUE(file.ok());
  sim_.RunUntilIdle();
  const SimTime t0 = sim_.Now();
  auto report = client->DeleteWithReport("/wal/1");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->peers_released, 3);
  // GetApMap and DeleteApMap around one overlapped round of Release RPCs.
  EXPECT_EQ(sim_.Now() - t0, 2 * params_.controller.rpc_latency +
                                 params_.rdma.setup_rpc_latency);
}

TEST_F(NclTest, DeleteReportsPartialReleaseFailure) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1", 1 << 20);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  // One peer crash-restarts, losing its mr-map: its Release will fail with
  // NotFound while the peer is alive. The other two succeed, so Delete is
  // still a success — the signal lands in the report and the counters.
  peers_[0]->Crash();
  ASSERT_TRUE(peers_[0]->Restart().ok());
  auto report = client->DeleteWithReport("/wal/1");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->peers_attempted, 3);
  EXPECT_EQ(report->peers_released, 2);
  EXPECT_EQ(report->release_failures, 1);
  EXPECT_FALSE(report->AllReleasesFailed());
  EXPECT_FALSE(client->Exists("/wal/1"));
  EXPECT_EQ(ClientCounter("release_failures"), 1u);
}

TEST_F(NclTest, DeleteWarnsWhenEveryReleaseFails) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1", 1 << 20);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  for (auto& peer : peers_) {
    peer->Crash();
    ASSERT_TRUE(peer->Restart().ok());
  }
  // Every release fails: Delete still removes the ap-map entry (the file is
  // gone) but surfaces a non-fatal kUnavailable warning so the caller knows
  // peer memory leaks until the epoch GC.
  Status st = client->Delete("/wal/1");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(client->Exists("/wal/1"));
  EXPECT_EQ(ClientCounter("release_failures"), 3u);
}

TEST_F(NclTest, ListFilesReflectsApMap) {
  StartPeers(3);
  auto client = MakeClient();
  ASSERT_TRUE(client->Create("/wal/1").ok());
  auto f2 = client->Create("/wal/2");
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(client->ListFiles().size(), 2u);
  ASSERT_TRUE((*f2)->Delete().ok());
  EXPECT_EQ(client->ListFiles().size(), 1u);
}

TEST_F(NclTest, AllocationRetriesPastRejectingPeer) {
  // p0 advertises plenty but actually has little (stale hint): the
  // allocation must fall through to other peers and still succeed.
  StartPeers(4);
  // Drain p0's real memory with a direct allocation, then restore its
  // controller record to pretend it is still empty.
  ASSERT_TRUE(peers_[0]->Allocate("other", "/x", kLend - 1024, 1).ok());
  ASSERT_TRUE(controller_.UpdatePeerMemory("p0", kLend).ok());

  auto client = MakeClient();
  auto file = client->Create("/wal/1", 1 << 20);
  ASSERT_TRUE(file.ok());
  for (const std::string& name : (*file)->peer_names()) {
    EXPECT_NE(name, "p0");
  }
}

// ------------------------------------------------------------- Recovery --

TEST_F(NclTest, RecoverReturnsAllAckedWritesInOrder) {
  StartPeers(3);
  std::string expect;
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    for (int i = 0; i < 50; ++i) {
      std::string rec = "record-" + std::to_string(i) + ";";
      ASSERT_TRUE((*file)->Append(rec).ok());
      expect += rec;
    }
    // Application crashes: the NclFile is dropped without Delete.
  }
  sim_.RunUntilIdle();

  auto client2 = MakeClient();
  ASSERT_EQ(client2->ListFiles().size(), 1u);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->size(), expect.size());
  EXPECT_EQ(Contents(recovered->get()), expect);
  // The file remains writable after recovery.
  ASSERT_TRUE((*recovered)->Append("more").ok());
  EXPECT_EQ(Contents(recovered->get()), expect + "more");
}

TEST_F(NclTest, RecoverUnknownFileIsNotFound) {
  StartPeers(3);
  auto client = MakeClient();
  EXPECT_EQ(client->Recover("/nope").status().code(), StatusCode::kNotFound);
}

TEST_F(NclTest, RecoverToleratesFPeerCrashes) {
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("acked-data").ok());
  }
  sim_.RunUntilIdle();
  peers_[1]->Crash();  // one of three: within the budget

  auto client2 = MakeClient();
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), "acked-data");
}

TEST_F(NclTest, RecoverUnavailableWhenMajorityLost) {
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("acked-data").ok());
  }
  sim_.RunUntilIdle();
  peers_[0]->Crash();
  peers_[1]->Crash();

  auto client2 = MakeClient();
  auto recovered = client2->Recover("/wal/1");
  // NCL correctly makes the file unavailable instead of silently losing
  // acknowledged data (§4.2).
  EXPECT_EQ(recovered.status().code(), StatusCode::kUnavailable);
}

TEST_F(NclTest, RecoverPicksMaximumSequenceNumber) {
  // Fig 7(i): the app crashes mid-replication; one peer received the new
  // write, the others did not. Recovery must return the newest state that
  // could have been acknowledged... and after recovery the state must
  // survive the loss of the ahead peer.
  StartPeers(3);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("a").ok());
    // Crash mid-replication of "b": WRs posted to one peer only.
    auto& mutable_config =
        const_cast<NclConfig&>(client->config());
    mutable_config.test_crash_after_posting = 1;
    EXPECT_EQ((*file)->Append("b").code(), StatusCode::kAborted);
  }
  sim_.RunUntilIdle();  // in-flight WRs land on the one peer

  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  // "b" was unacknowledged; recovering it is allowed but not required.
  // Recovery chose the max sequence number, so here it is recovered.
  std::string first_recovery = Contents(recovered->get());
  EXPECT_EQ(first_recovery, "ab");

  // Now the divergence test: the peer that was ahead dies together with
  // the app. Because recovery caught the other peers up before returning
  // data, the same state must be recovered again (§4.5.1).
  std::string ahead_peer = (*recovered)->peer_names()[0];
  recovered->reset();
  sim_.RunUntilIdle();
  for (auto& peer : peers_) {
    if (peer->name() == ahead_peer) {
      peer->Crash();
    }
  }
  auto client3 = MakeClient(config);
  auto again = client3->Recover("/wal/1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Contents(again->get()), first_recovery)
      << "externalized state lost after second failure";
}

TEST_F(NclTest, SkippingRecoveryCatchUpIsUnsafe) {
  // Same scenario as above but with the catch-up disabled (§4.6 bug): the
  // second recovery returns older data than was externalized.
  StartPeers(3);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.unsafe_skip_recovery_catchup = true;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("a").ok());
    auto& mutable_config = const_cast<NclConfig&>(client->config());
    mutable_config.test_crash_after_posting = 1;
    EXPECT_EQ((*file)->Append("b").code(), StatusCode::kAborted);
  }
  sim_.RunUntilIdle();

  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  std::string externalized = Contents(recovered->get());
  ASSERT_EQ(externalized, "ab");
  std::string ahead_peer = (*recovered)->peer_names()[0];
  recovered->reset();
  sim_.RunUntilIdle();
  for (auto& peer : peers_) {
    if (peer->name() == ahead_peer) {
      peer->Crash();
    }
  }
  auto client3 = MakeClient(config);
  auto again = client3->Recover("/wal/1");
  ASSERT_TRUE(again.ok());
  // Data loss: the bug reproduces, which is exactly why the safe protocol
  // performs the catch-up.
  EXPECT_NE(Contents(again->get()), externalized);
}

TEST_F(NclTest, CircularLogRecoveryAfterOverwrite) {
  // Fig 7(ii): reused (circular) logs cannot be caught up by shipping a
  // tail; the full-region catch-up must reproduce overwritten state.
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/db-wal", 8);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("aaaa").ok());
    ASSERT_TRUE((*file)->Append("bbbb").ok());
    ASSERT_TRUE((*file)->Write(0, "cccc").ok());  // wraps, overwriting "aaaa"
  }
  sim_.RunUntilIdle();
  auto client2 = MakeClient();
  auto recovered = client2->Recover("/db-wal");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), "ccccbbbb");
}

TEST_F(NclTest, RecoveryPhaseSpansPopulated) {
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1", 1 << 20);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(512 << 10, 'x')).ok());
  }
  sim_.RunUntilIdle();
  auto before = tracer_.Snapshot();
  auto client2 = MakeClient();
  ASSERT_TRUE(client2->Recover("/wal/1").ok());
  // The tracer's four phase spans are the canonical recovery breakdown:
  // each must have consumed sim time during this recovery.
  auto window = SpanDiff(before, tracer_.Snapshot());
  for (const char* phase :
       {"ncl.recover.get_peers", "ncl.recover.connect",
        "ncl.recover.rdma_read", "ncl.recover.sync_peers"}) {
    ASSERT_EQ(window.count(phase), 1u) << phase;
    EXPECT_GT(window.at(phase).total, 0) << phase;
  }
}

// Recovery catches every reachable peer up at once: the sync-peer phase
// takes about one staged catch-up, not one per peer. 64 MiB regions make
// each cold peer pin a fresh slab for its staging region (~66 ms), the
// cost that either adds up or overlaps.
class NclRecoveryOverlapTest : public NclTest {
 protected:
  void ExpectSyncPeersCostsOneStagedCatchUp(NclConfig config, int slots) {
    StartPeers(slots, kLend, ColdPeers());
    config.app_id = "test-app";
    config.default_capacity = 64ull << 20;
    std::string oracle;
    {
      auto client = std::make_unique<NclClient>(
          config, &fabric_, &controller_, &directory_, app_node_,
          ObsContext{&metrics_, &tracer_});
      auto file = client->Create("/wal/1");
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      for (int i = 0; i < 16; ++i) {
        std::string rec(4096, static_cast<char>('a' + i));
        oracle += rec;
        ASSERT_TRUE((*file)->Append(rec).ok());
      }
      ASSERT_TRUE((*file)->Drain().ok());
    }
    sim_.RunUntilIdle();
    auto before = tracer_.Snapshot();
    auto client2 = std::make_unique<NclClient>(
        config, &fabric_, &controller_, &directory_, app_node_,
        ObsContext{&metrics_, &tracer_});
    auto recovered = client2->Recover("/wal/1");
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(Contents(recovered->get()), oracle);
    auto window = SpanDiff(before, tracer_.Snapshot());
    const SpanStats& staged = window.at("ncl.catchup.staged");
    ASSERT_EQ(staged.count, static_cast<uint64_t>(slots));
    // sync_peers < 1.5x one leg (it also holds the epoch bump and the
    // ap-map write, 1.8 ms each).
    EXPECT_LT(window.at("ncl.recover.sync_peers").total * 2,
              staged.total / staged.count * 3);
  }
};

TEST_F(NclRecoveryOverlapTest, Replicated) {
  ExpectSyncPeersCostsOneStagedCatchUp(NclConfig{}, 3);
}

TEST_F(NclRecoveryOverlapTest, ErasureCoded) {
  NclConfig config;
  config.ec = EcGeometry{2, 2, 4096};
  config.fault_budget = 2;
  ExpectSyncPeersCostsOneStagedCatchUp(config, 4);
}

// -------------------------------------------------- Peer failure handling --

TEST_F(NclTest, SinglePeerCrashDoesNotBlockWrites) {
  StartPeers(4);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("before").ok());

  // Crash one of the three assigned peers.
  PeerNamed((*file)->peer_names()[0])->Crash();
  ASSERT_TRUE((*file)->Append("after").ok());
  EXPECT_EQ(Contents(file->get()), "beforeafter");
  // The failed peer was replaced with the spare (p3) and caught up, in the
  // background.
  sim_.RunUntilIdle();
  EXPECT_EQ(client->peers_replaced(), 1);
  EXPECT_EQ((*file)->alive_peers(), 3);
  auto apmap = controller_.GetApMap("test-app", "/wal/1");
  ASSERT_TRUE(apmap.ok());
  bool has_spare = false;
  for (const std::string& name : apmap->peers) {
    if (name == "p3") {
      has_spare = true;
    }
  }
  EXPECT_TRUE(has_spare);
}

TEST_F(NclTest, NoSpareReplacementBacksOffThenTakesARestartedPeer) {
  // A 2f+1 = 3 file on exactly three peers: after one crash no spare can
  // take the dead slot. Each background start costs an epoch bump and a
  // GetPeers, so the starts must follow the retry policy's backoff rather
  // than every append.
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("before").ok());
  auto epoch_before = controller_.GetAppEpoch("test-app");
  ASSERT_TRUE(epoch_before.ok());
  const std::string dead = (*file)->peer_names().back();
  PeerNamed(dead)->Crash();
  const SimTime crashed_at = sim_.Now();
  // 100 appends a millisecond apart; each round also lets any background
  // step finish (no event may keep the simulation busy).
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*file)->Append("x").ok());
    sim_.RunUntilIdle();
    sim_.RunUntil(sim_.Now() + Millis(1));
  }
  const SimTime elapsed = sim_.Now() - crashed_at;
  auto epoch_after = controller_.GetAppEpoch("test-app");
  ASSERT_TRUE(epoch_after.ok());
  const uint64_t bumps = *epoch_after - *epoch_before;
  EXPECT_EQ(bumps, ClientCounter("replacement_starts"));
  EXPECT_GE(bumps, 2u);  // it does keep trying
  // Consecutive starts are at least the jittered-down backoff apart, so
  // `bumps` starts need their bumps-1 shortest intervals to fit in the
  // elapsed time.
  const RetryPolicy& policy = client->config().retry;
  double backoff = static_cast<double>(policy.initial_backoff);
  double least_wait = 0;
  for (uint64_t i = 1; i < bumps; ++i) {
    least_wait += (1 - policy.jitter) *
                  std::min(backoff, static_cast<double>(policy.max_backoff));
    backoff *= policy.multiplier;
  }
  EXPECT_LE(least_wait, static_cast<double>(elapsed))
      << bumps << " starts in " << elapsed << " ns";
  EXPECT_EQ((*file)->alive_peers(), 2);

  // The crashed peer comes back empty: the next start, at most one backoff
  // interval later, takes it.
  ASSERT_TRUE(PeerNamed(dead)->Restart().ok());
  const SimTime restarted_at = sim_.Now();
  const uint64_t starts = ClientCounter("replacement_starts");
  while (ClientCounter("replacement_starts") == starts &&
         sim_.Now() - restarted_at < Seconds(1)) {
    sim_.RunUntil(sim_.Now() + Micros(50));
    ASSERT_TRUE((*file)->Append("y").ok());
  }
  EXPECT_LE(sim_.Now() - restarted_at,
            static_cast<SimTime>((1 + policy.jitter) *
                                 static_cast<double>(policy.max_backoff)) +
                Micros(100));
  sim_.RunUntilIdle();
  EXPECT_EQ(client->peers_replaced(), 1);
  EXPECT_EQ((*file)->alive_peers(), 3);
  auto apmap = controller_.GetApMap("test-app", "/wal/1");
  ASSERT_TRUE(apmap.ok());
  EXPECT_EQ(apmap->peers.back(), dead);
}

TEST_F(NclTest, TwoSimultaneousCrashesBlockThenRecover) {
  StartPeers(5);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());

  PeerNamed((*file)->peer_names()[0])->Crash();
  PeerNamed((*file)->peer_names()[1])->Crash();
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Append("y").ok());
  // The write had to wait for at least one replacement (tens of ms for MR
  // registration + catch-up, Table 3) instead of the usual microseconds.
  EXPECT_GT(sim_.Now() - before, Millis(5));
  EXPECT_EQ(Contents(file->get()), "xy");
  EXPECT_EQ((*file)->alive_peers(), 3);
  EXPECT_EQ(client->peers_replaced(), 2);
}

TEST_F(NclTest, TwoCrashesAreReplacedInOneStep) {
  // Replacing two dead slots costs one replacement, not two: one epoch
  // bump, one GetPeers, every new peer pinning its region at once and one
  // ap-map write naming both (§4.5.2). 64 MiB regions on cold peers make
  // MR registration (~66 ms per fresh peer) the cost that either adds up or
  // overlaps.
  StartPeers(6, kLend, ColdPeers());
  const uint64_t kCapacity = 64ull << 20;
  std::string oracle;
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1", kCapacity);
    ASSERT_TRUE(file.ok());
    auto append = [&](const std::string& rec) {
      oracle += rec;
      return (*file)->Append(rec);
    };
    ASSERT_TRUE(append(std::string(4096, 'a')).ok());

    // Reference: one peer crashes and is replaced alone.
    auto before = tracer_.Snapshot();
    PeerNamed((*file)->peer_names()[0])->Crash();
    ASSERT_TRUE(append(std::string(4096, 'b')).ok());
    sim_.RunUntilIdle();  // the replacement runs in the background
    auto one = SpanDiff(before, tracer_.Snapshot()).at("ncl.replace_slot");
    ASSERT_EQ(one.count, 1u);

    // Two of the three members crash: the append blocks until both are
    // replaced — in a single step.
    const std::vector<std::string> members = (*file)->peer_names();
    PeerNamed(members[1])->Crash();
    PeerNamed(members[2])->Crash();
    auto epoch = controller_.GetAppEpoch("test-app");
    ASSERT_TRUE(epoch.ok());
    before = tracer_.Snapshot();
    SimTime start = sim_.Now();
    ASSERT_TRUE(append(std::string(4096, 'c')).ok());
    SimTime blocked = sim_.Now() - start;
    auto window = SpanDiff(before, tracer_.Snapshot());
    EXPECT_LT(blocked, one.total * 12 / 10);
    EXPECT_EQ(window.at("ncl.replace_slot").count, 1u);
    // One epoch bump, and the ap-map at that epoch names both new peers.
    // The controller rejects a same-epoch write that changes the peer set,
    // so that took exactly one ap-map write.
    auto bumped = controller_.GetAppEpoch("test-app");
    ASSERT_TRUE(bumped.ok());
    EXPECT_EQ(*bumped, *epoch + 1);
    auto apmap = controller_.GetApMap("test-app", "/wal/1");
    ASSERT_TRUE(apmap.ok());
    EXPECT_EQ(apmap->epoch, *bumped);
    ASSERT_EQ(apmap->peers.size(), 3u);
    EXPECT_EQ(apmap->peers[0], members[0]);
    EXPECT_NE(apmap->peers[1], apmap->peers[2]);
    for (int i = 1; i < 3; ++i) {
      for (const std::string& old : members) {
        EXPECT_NE(apmap->peers[i], old);
      }
    }
    EXPECT_EQ(client->peers_replaced(), 3);
    ASSERT_TRUE(append("tail").ok());
    // The application crashes: the file is dropped without Delete.
  }
  sim_.RunUntilIdle();
  auto client2 = MakeClient();
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Contents(recovered->get()), oracle);
}

TEST_F(NclTest, WritesFailWhenNoReplacementAvailable) {
  StartPeers(3);  // no spares
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  PeerNamed((*file)->peer_names()[0])->Crash();
  PeerNamed((*file)->peer_names()[1])->Crash();
  EXPECT_EQ((*file)->Append("y").code(), StatusCode::kUnavailable);
}

TEST_F(NclTest, ReplacementSurvivesSubsequentRecovery) {
  // After a peer is replaced and the app crashes, recovery must find the
  // data on the *new* peer set (catch-up before ap-map update, §4.5.2).
  StartPeers(4);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("payload-1|").ok());
    PeerNamed((*file)->peer_names()[0])->Crash();
    ASSERT_TRUE((*file)->Append("payload-2|").ok());
  }
  sim_.RunUntilIdle();
  auto client2 = MakeClient();
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), "payload-1|payload-2|");
}

TEST_F(NclTest, ApMapBeforeCatchUpLosesData) {
  // Fig 7(iii) with the unsafe ordering: writes a,b acked on {p0,p1}; p2
  // lags with only a; p1 is "replaced" by p3 with the ap-map updated before
  // catch-up; the app crashes in that window; p0 then dies. Recovery from
  // {p3 (empty), p2 (only a)} silently loses write b.
  StartPeers(4);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.unsafe_apmap_before_catchup = true;
  // Keep the partitioned (lagging) peer in place rather than replacing it
  // off the ack path: the scenario needs a genuinely lagging quorum member.
  config.eager_peer_replacement = false;
  std::string peer_a, peer_b, peer_lag;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("a").ok());
    sim_.RunUntilIdle();  // all three peers have "a"
    // Make p2 (third assigned peer) lag: partition it, then write "b".
    peer_a = (*file)->peer_names()[0];
    peer_b = (*file)->peer_names()[1];
    peer_lag = (*file)->peer_names()[2];
    fabric_.SetPartitioned(app_node_, PeerNamed(peer_lag)->node(), true);
    ASSERT_TRUE((*file)->Append("b").ok());  // acked by peer_a, peer_b
    // peer_b crashes; the unsafe replacement updates the ap-map and then
    // "crashes" before catching the new peer up.
    PeerNamed(peer_b)->Crash();
    EXPECT_EQ((*file)->Append("c").code(), StatusCode::kAborted);
  }
  sim_.RunUntilIdle();
  fabric_.SetPartitioned(app_node_, PeerNamed(peer_lag)->node(), false);
  // The only remaining holder of "b" dies.
  PeerNamed(peer_a)->Crash();

  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  // Acked write "b" is gone: the bug reproduces, demonstrating why the
  // catch-up must precede the ap-map update.
  EXPECT_EQ(Contents(recovered->get()), "a");
}

TEST_F(NclTest, SafeOrderingSurvivesSameScenario) {
  // Identical failure schedule with the safe protocol: "b" survives.
  StartPeers(4);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.eager_peer_replacement = false;
  std::string peer_a, peer_b, peer_lag;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("a").ok());
    sim_.RunUntilIdle();
    peer_a = (*file)->peer_names()[0];
    peer_b = (*file)->peer_names()[1];
    peer_lag = (*file)->peer_names()[2];
    fabric_.SetPartitioned(app_node_, PeerNamed(peer_lag)->node(), true);
    ASSERT_TRUE((*file)->Append("b").ok());
    PeerNamed(peer_b)->Crash();
    // Safe replacement: catch-up precedes the ap-map update; the app then
    // crashes (file dropped) right after the replacement write completes.
    ASSERT_TRUE((*file)->Append("c").ok());
  }
  sim_.RunUntilIdle();
  fabric_.SetPartitioned(app_node_, PeerNamed(peer_lag)->node(), false);
  PeerNamed(peer_a)->Crash();

  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  std::string contents = Contents(recovered->get());
  EXPECT_NE(contents.find("b"), std::string::npos)
      << "acked write lost under the safe protocol";
}

// Two-peer-crash input of the Fig 7(iii) scenario: both dead members are
// replaced in one step, so the unsafe ordering records two empty peers at
// once. The old quorum holder then dies and recovery returns nothing.
TEST_F(NclTest, ApMapBeforeCatchUpLosesDataOnTwoPeerCrash) {
  StartPeers(5);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.unsafe_apmap_before_catchup = true;
  std::vector<std::string> members;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("a").ok());
    ASSERT_TRUE((*file)->Append("b").ok());
    members = (*file)->peer_names();
    PeerNamed(members[1])->Crash();
    PeerNamed(members[2])->Crash();
    EXPECT_EQ((*file)->Append("c").code(), StatusCode::kAborted);
  }
  sim_.RunUntilIdle();
  auto apmap = controller_.GetApMap("test-app", "/wal/1");
  ASSERT_TRUE(apmap.ok());
  EXPECT_EQ(apmap->peers[0], members[0]);
  PeerNamed(members[0])->Crash();

  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  // Acked writes "a" and "b" are gone.
  EXPECT_EQ(Contents(recovered->get()), "");
}

TEST_F(NclTest, SafeOrderingSurvivesTwoPeerCrash) {
  StartPeers(5);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  std::vector<std::string> members;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("a").ok());
    ASSERT_TRUE((*file)->Append("b").ok());
    members = (*file)->peer_names();
    PeerNamed(members[1])->Crash();
    PeerNamed(members[2])->Crash();
    ASSERT_TRUE((*file)->Append("c").ok());
  }
  sim_.RunUntilIdle();
  PeerNamed(members[0])->Crash();

  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), "abc");
}

TEST_F(NclTest, MemoryRevocationTreatedAsPeerFailure) {
  StartPeers(4);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("before").ok());
  // A peer revokes the region to reclaim memory (§4.5.2).
  std::string victim = (*file)->peer_names()[1];
  ASSERT_TRUE(PeerNamed(victim)->Revoke("test-app", "/wal/1").ok());
  ASSERT_TRUE((*file)->Append("after").ok());
  EXPECT_EQ(Contents(file->get()), "beforeafter");
  sim_.RunUntilIdle();  // the replacement runs in the background
  EXPECT_EQ(client->peers_replaced(), 1);
  for (const std::string& name : (*file)->peer_names()) {
    EXPECT_NE(name, victim);
  }
}

// ------------------------------------------------------------- Leak GC --

TEST_F(NclTest, LeakedAllocationFreedAfterAppMovesOn) {
  StartPeers(3);
  auto client = MakeClient();
  // Simulate: app bumps epoch, allocates on p0, crashes before writing the
  // ap-map.
  auto epoch = controller_.BumpAppEpoch("test-app");
  ASSERT_TRUE(epoch.ok());
  ASSERT_TRUE(peers_[0]->Allocate("test-app", "/leaked", 1 << 20, *epoch).ok());
  EXPECT_EQ(peers_[0]->active_regions(), 1u);

  // GC must not free it yet: the app might still be initializing.
  sim_.Advance(Millis(100));
  EXPECT_EQ(peers_[0]->RunLeakGc(), 0);

  // The app restarts and moves to a new epoch (creates another file).
  ASSERT_TRUE(controller_.BumpAppEpoch("test-app").ok());
  EXPECT_EQ(peers_[0]->RunLeakGc(), 1);
  EXPECT_EQ(peers_[0]->active_regions(), 0u);
  EXPECT_EQ(peers_[0]->available_bytes(), kLend);
}

TEST_F(NclTest, GcFreesAllocationNotInApMapAtSameEpoch) {
  StartPeers(4);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  // p3 holds a stale allocation at the same epoch but is not in the ap-map.
  auto apmap = controller_.GetApMap("test-app", "/wal/1");
  ASSERT_TRUE(apmap.ok());
  ASSERT_TRUE(
      peers_[3]->Allocate("test-app", "/wal/1", 1 << 20, apmap->epoch).ok());
  sim_.Advance(Millis(100));
  EXPECT_EQ(peers_[3]->RunLeakGc(), 1);
}

TEST_F(NclTest, GcKeepsLiveAllocations) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("data").ok());
  sim_.Advance(Seconds(10));
  for (auto& peer : peers_) {
    EXPECT_EQ(peer->RunLeakGc(), 0) << peer->name();
  }
  // The file is still recoverable.
  sim_.RunUntilIdle();
  auto client2 = MakeClient();
  EXPECT_TRUE(client2->Recover("/wal/1").ok());
}

TEST_F(NclTest, GcGracePeriodProtectsInProgressInit) {
  StartPeers(3);
  auto epoch = controller_.BumpAppEpoch("fresh-app");
  ASSERT_TRUE(epoch.ok());
  ASSERT_TRUE(peers_[0]->Allocate("fresh-app", "/f", 1024, *epoch).ok());
  // Probe immediately: within the grace period nothing is freed even
  // though the ap-map entry does not exist yet.
  EXPECT_EQ(peers_[0]->RunLeakGc(), 0);
}

// -------------------------------------------- Catch-up transfer variants --

TEST_F(NclTest, DiffCatchupRecoversSameContent) {
  StartPeers(3);
  std::string expect;
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1", 64 << 10);
    ASSERT_TRUE(file.ok());
    for (int i = 0; i < 20; ++i) {
      std::string rec(1000, static_cast<char>('a' + (i % 26)));
      ASSERT_TRUE((*file)->Append(rec).ok());
      expect += rec;
    }
  }
  sim_.RunUntilIdle();
  NclConfig config;
  config.app_id = "test-app";
  config.diff_catchup = true;
  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), expect);
  // And remains usable.
  ASSERT_TRUE((*recovered)->Append("!").ok());
}

TEST_F(NclTest, DiffCatchupShipsFewerBytesWhenPeersCurrent) {
  StartPeers(3);
  const uint64_t kBig = 256 << 10;
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1", kBig);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(kBig - 16, 'x')).ok());
  }
  sim_.RunUntilIdle();

  uint64_t before_full = FabricCounter("write_bytes");
  {
    auto client2 = MakeClient();
    ASSERT_TRUE(client2->Recover("/wal/1").ok());
  }
  uint64_t full_bytes = FabricCounter("write_bytes") - before_full;

  sim_.RunUntilIdle();
  uint64_t before_diff = FabricCounter("write_bytes");
  {
    NclConfig config;
    config.app_id = "test-app";
    config.diff_catchup = true;
    auto client3 = MakeClient(config);
    ASSERT_TRUE(client3->Recover("/wal/1").ok());
  }
  uint64_t diff_bytes = FabricCounter("write_bytes") - before_diff;
  // All peers were already up to date: the diff is (nearly) empty while the
  // full-copy catch-up re-ships the whole region to every peer.
  EXPECT_LT(diff_bytes * 10, full_bytes);
}

// EC 2+2 diff catch-up: recovery diffs a stale shard peer's region against
// its lane image (not the logical buffer) and ships only the difference.
// The stale peer is a data lane, and a second recovery that must decode
// from it and one parity lane returns every acked byte.
TEST_F(NclTest, EcDiffCatchupRepairsStaleShardPeer) {
  StartPeers(4);  // exactly k+m: the stale peer is never replaced
  NclConfig config;
  config.app_id = "test-app";
  config.ec = EcGeometry{2, 2, 64};
  config.fault_budget = 2;
  // A failed slot stays dead instead of being re-allocated (which would
  // wipe the stale region) while k slots still ack.
  config.eager_peer_replacement = false;
  std::string oracle;
  std::vector<std::string> members;
  {
    auto client = MakeClient(config);
    auto diff_file = client->Create("/wal/diff");
    auto full_file = client->Create("/wal/full");
    ASSERT_TRUE(diff_file.ok()) << diff_file.status().ToString();
    ASSERT_TRUE(full_file.ok()) << full_file.status().ToString();
    members = (*diff_file)->peer_names();
    ASSERT_EQ(members, (*full_file)->peer_names());
    auto append_both = [&](int i) {
      std::string payload(500, static_cast<char>('a' + (i % 26)));
      oracle += payload;
      ASSERT_TRUE((*diff_file)->Append(payload).ok()) << i;
      ASSERT_TRUE((*full_file)->Append(payload).ok()) << i;
    };
    for (int i = 0; i < 30; ++i) {
      append_both(i);
    }
    // Data lane 1 misses the last appends.
    fabric_.SetPartitioned(app_node_, PeerNamed(members[1])->node(), true);
    for (int i = 30; i < 40; ++i) {
      append_both(i);
    }
    ASSERT_TRUE((*diff_file)->Drain().ok());
    ASSERT_TRUE((*full_file)->Drain().ok());
    EXPECT_EQ((*diff_file)->alive_peers(), 3);
  }
  sim_.RunUntilIdle();
  fabric_.SetPartitioned(app_node_, PeerNamed(members[1])->node(), false);

  NclConfig diff_config = config;
  diff_config.diff_catchup = true;
  auto diff_client = MakeClient(diff_config);
  uint64_t before_diff = FabricCounter("write_bytes");
  auto diff = diff_client->Recover("/wal/diff");
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  uint64_t diff_bytes = FabricCounter("write_bytes") - before_diff;
  EXPECT_EQ(Contents(diff->get()), oracle);
  EXPECT_EQ((*diff)->alive_peers(), 4);

  auto full_client = MakeClient(config);
  uint64_t before_full = FabricCounter("write_bytes");
  auto full = full_client->Recover("/wal/full");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  uint64_t full_bytes = FabricCounter("write_bytes") - before_full;
  EXPECT_EQ(Contents(full->get()), oracle);
  // Three current peers ship only their headers and the stale one its
  // missing tail; the full catch-up re-ships every lane image.
  EXPECT_LT(diff_bytes * 4, full_bytes);

  // Second crash: only the caught-up data lane and one parity lane
  // survive, so recovery must decode from the diffed region.
  diff->reset();
  full->reset();
  diff_client.reset();
  full_client.reset();
  sim_.RunUntilIdle();
  PeerNamed(members[0])->Crash();
  PeerNamed(members[2])->Crash();
  auto again_client = MakeClient(diff_config);
  auto again = again_client->Recover("/wal/diff");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(Contents(again->get()), oracle);
}

TEST_F(NclTest, NoPrefetchReadsPayPerReadRdmaCost) {
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1", 1 << 20);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(256 << 10, 'x')).ok());
  }
  sim_.RunUntilIdle();

  NclConfig prefetch_config;
  prefetch_config.app_id = "test-app";
  auto c1 = MakeClient(prefetch_config);
  auto with_prefetch = c1->Recover("/wal/1");
  ASSERT_TRUE(with_prefetch.ok());
  SimTime t0 = sim_.Now();
  ASSERT_TRUE((*with_prefetch)->Read(0, 128).ok());
  SimTime local_read = sim_.Now() - t0;

  NclConfig nop_config;
  nop_config.app_id = "test-app";
  nop_config.prefetch_on_recovery = false;
  auto c2 = MakeClient(nop_config);
  auto without_prefetch = c2->Recover("/wal/1");
  ASSERT_TRUE(without_prefetch.ok());
  t0 = sim_.Now();
  ASSERT_TRUE((*without_prefetch)->Read(0, 128).ok());
  SimTime remote_read = sim_.Now() - t0;

  // Fig 11(a): without prefetch every read pays the fabric round trip.
  EXPECT_GT(remote_read, local_read * 3);
}

// Regression for the PostSuffix dangling-view bug (the shape deeplint's
// view-lifetime rule exists for — see tools/deeplint/rules.py and
// DESIGN.md §11): PostSuffix accumulates per-entry encoded lane chunks
// in `lane_scratch` while `ops` holds string_views into them. The
// `lane_scratch.reserve(window_.size())` before the loop is
// load-bearing — without it, vector growth relocates the small (SSO)
// chunk strings out from under their views and the replayed suffix
// bytes are garbage. This test forces exactly that shape: a tiny stripe
// unit keeps every encoded chunk within SSO, and the suffix window
// reallocates the scratch vector several times over. Corruption can show
// up as an oracle mismatch after recovery, and always shows up as a
// heap-use-after-free under ASan (the ncl_suffix_scratch_sanitize ctest).
TEST_F(NclTest, EcSuffixRepostSurvivesScratchGrowth) {
  StartPeers(4);  // exactly k+m members; the laggard stays in place
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.ec = EcGeometry{2, 2, 8};  // 8 B lane chunks: scratch stays SSO
  config.fault_budget = 2;
  // Transient-tolerant retry: the partitioned peer goes *suspect* and is
  // resurrected through RepostSuspect -> PostSuffix, instead of being
  // demoted on first error and replaced via a snapshot copy.
  config.retry = RetryPolicy::Transient(8, Millis(20));
  config.eager_peer_replacement = false;
  std::string oracle;
  std::vector<std::string> members;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    for (int i = 0; i < 8; ++i) {
      std::string payload(16, static_cast<char>('a' + (i % 26)));
      oracle += payload;
      ASSERT_TRUE((*file)->Append(payload).ok()) << i;
    }
    ASSERT_TRUE((*file)->Drain().ok());
    members = (*file)->peer_names();
    ASSERT_EQ(members.size(), 4u);
    // Partition one shard holder (heals at +3 ms, inside the retry
    // deadline) and keep appending: the window accumulates entries the
    // suspect never saw — enough to take the scratch vector through
    // several growth doublings, while staying inside the PruneWindow cap
    // so the resurrection uses the suffix path, not the full-state one.
    fabric_.PartitionFor(app_node_, PeerNamed(members[1])->node(), Millis(3));
    for (int i = 8; i < 32; ++i) {
      std::string payload(16, static_cast<char>('a' + (i % 26)));
      oracle += payload;
      ASSERT_TRUE((*file)->Append(payload).ok()) << i;
    }
    // Retries fire from inside Append; space a few appends past the heal
    // to drive the resurrection home.
    for (int i = 0; i < 8 && ClientCounter("transient_recoveries") < 1;
         ++i) {
      sim_.RunUntil(sim_.Now() + Millis(2));
      std::string payload(16, 'z');
      oracle += payload;
      ASSERT_TRUE((*file)->Append(payload).ok()) << i;
    }
    ASSERT_TRUE((*file)->Drain().ok());
    EXPECT_GE(ClientCounter("transient_recoveries"), 1u);
    EXPECT_GE(ClientCounter("suffix_reposts"), 1u);
    EXPECT_EQ(ClientCounter("permanent_demotions"), 0u);
  }
  sim_.RunUntilIdle();
  // Make recovery depend on the replayed shard: kill two of the peers
  // that stayed current, leaving exactly k survivors including the healed
  // laggard. If the repost shipped dangling-view garbage, reconstruction
  // returns corrupt bytes here (and ASan flags the read outright).
  PeerNamed(members[0])->Crash();
  PeerNamed(members[2])->Crash();
  auto fresh = MakeClient(config);
  auto recovered = fresh->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Contents(recovered->get()), oracle);
}

// What one append costs on the wire, per lane: one data WR and one header
// WR behind a single doorbell. A replica's data WR carries just the new
// payload after the 16-byte region header; a shard's carries its lane
// chunk of it after the 32-byte shard header.
struct AppendTrafficCase {
  std::string name;
  std::optional<EcGeometry> ec;
  int fault_budget;
  uint64_t payload;                   // appended twice; the 2nd is measured
  std::vector<uint64_t> chunk_bytes;  // per lane, in lane order
  uint64_t header_bytes;
};

// gtest names each case after its printed parameter; print the name, not a
// byte dump that includes heap pointers.
void PrintTo(const AppendTrafficCase& c, std::ostream* os) { *os << c.name; }

class NclAppendTrafficTest
    : public NclTest,
      public ::testing::WithParamInterface<AppendTrafficCase> {};

TEST_P(NclAppendTrafficTest, OneAppendCostsOneChainPerLane) {
  const AppendTrafficCase& c = GetParam();
  const uint64_t lanes = c.chunk_bytes.size();
  StartPeers(static_cast<int>(lanes));
  NclConfig config;
  config.ec = c.ec;
  config.fault_budget = c.fault_budget;
  auto client = MakeClient(config);
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ((*file)->peer_names().size(), lanes);

  ASSERT_TRUE((*file)->Append(std::string(c.payload, 'o')).ok());
  ASSERT_TRUE((*file)->Drain().ok());
  uint64_t writes = FabricCounter("writes_posted");
  uint64_t bytes = FabricCounter("write_bytes");
  uint64_t doorbells = FabricCounter("doorbells");
  ASSERT_TRUE((*file)->Append(std::string(c.payload, 'p')).ok());
  ASSERT_TRUE((*file)->Drain().ok());
  uint64_t expected_bytes = 0;
  for (uint64_t chunk : c.chunk_bytes) {
    expected_bytes += chunk + c.header_bytes;
  }
  EXPECT_EQ(FabricCounter("writes_posted") - writes, 2 * lanes);
  EXPECT_EQ(FabricCounter("write_bytes") - bytes, expected_bytes);
  EXPECT_EQ(FabricCounter("doorbells") - doorbells, lanes);
  EXPECT_EQ(FabricCounter("reads_posted"), 0u);
}

// Logical bytes [200, 400) over 64 B units 3..6: data lane 0 gets units 4
// and 6 (64 + 16 B), lane 1 units 3 and 5 (56 + 64 B), and each parity
// lane the three stripe groups 1..3 they touch (3 x 64 B).
INSTANTIATE_TEST_SUITE_P(
    Schemes, NclAppendTrafficTest,
    ::testing::Values(
        AppendTrafficCase{"replication_f1", std::nullopt, 1, 200,
                          {200, 200, 200}, 16},
        AppendTrafficCase{"ec_k2m2_u64", EcGeometry{2, 2, 64}, 2, 200,
                          {80, 120, 192, 192}, 32}),
    [](const auto& param_info) { return param_info.param.name; });

// A single crash that keeps the ack quorum is repaired in the background
// (DESIGN.md §6), under both redundancy schemes.
struct ReplacementCase {
  const char* name;
  std::optional<EcGeometry> ec;
  int fault_budget;
  int width;
};

class NclBackgroundReplacementTest
    : public NclTest,
      public ::testing::WithParamInterface<ReplacementCase> {};

TEST_P(NclBackgroundReplacementTest, SingleCrashIsReplacedOffTheWritePath) {
  const ReplacementCase& c = GetParam();
  // Table 3's detection-to-install total for a 64 MiB region.
  constexpr SimTime kTable3Total = Millis(96.6);
  StartPeers(c.width + 1);
  NclConfig config;
  config.app_id = "test-app";
  config.ec = c.ec;
  config.fault_budget = c.fault_budget;
  const std::string spare = "p" + std::to_string(c.width);
  std::string oracle;
  std::vector<std::string> members;
  SimTime install_deadline = 0;
  std::vector<SimTime> append_times;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1", 64ull << 20);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto append = [&](char fill, size_t len) {
      std::string rec(len, fill);
      oracle += rec;
      Status st = (*file)->Append(rec);
      append_times.push_back(sim_.Now());
      return st;
    };
    // An 8 MiB log, so the successor's bulk copy takes milliseconds.
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(append(static_cast<char>('a' + i), 1 << 20).ok());
    }
    ASSERT_TRUE((*file)->Drain().ok());
    members = (*file)->peer_names();
    auto before = controller_.GetApMap("test-app", "/wal/1");
    ASSERT_TRUE(before.ok());

    // The detecting append costs microseconds, not the replacement.
    PeerNamed(members.back())->Crash();
    const SimTime detected = sim_.Now();
    ASSERT_TRUE(append('x', 512).ok());
    EXPECT_LT(sim_.Now() - detected, Millis(1));

    // Appends keep flowing while the successor is allocated, copied and
    // installed; within 1.2x Table 3's total the ap-map names it at a new
    // epoch.
    install_deadline = detected + kTable3Total * 12 / 10;
    auto installed = [&] {
      auto apmap = controller_.GetApMap("test-app", "/wal/1");
      return apmap.ok() && apmap->peers.back() == spare &&
             apmap->epoch > before->epoch;
    };
    while (!installed() && sim_.Now() < install_deadline) {
      sim_.RunUntil(sim_.Now() + Micros(200));
      ASSERT_TRUE(append('y', 512).ok());
    }
    ASSERT_TRUE(installed()) << "not installed within 1.2x Table 3's total";
    ASSERT_TRUE(append('z', 512).ok());
    EXPECT_EQ(client->peers_replaced(), 1);
    // The app crashes without a clean shutdown.
  }
  // Some appends were made while the successor's bulk copy was in flight.
  int during_copy = 0;
  for (const SpanEvent& ev : tracer_.events()) {
    if (ev.name == "ncl.catchup.bulk") {
      for (SimTime t : append_times) {
        during_copy += (t > ev.start && t < ev.end) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(during_copy, 0);
  sim_.RunUntilIdle();
  // Lose f of the original members too: recovery then needs the successor.
  for (int i = 0; i < c.fault_budget; ++i) {
    PeerNamed(members[i])->Crash();
  }
  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(Contents(recovered->get()) == oracle)
      << "recovered " << (*recovered)->size() << " of " << oracle.size()
      << " acked bytes";
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, NclBackgroundReplacementTest,
    ::testing::Values(
        ReplacementCase{"replication_f1", std::nullopt, 1, 3},
        ReplacementCase{"ec_k2m2", EcGeometry{2, 2, 4096}, 2, 4}),
    [](const auto& param_info) { return param_info.param.name; });

// Parameterized across failure budgets: the protocol works for any f.
class NclFaultBudgetSweep : public NclTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(NclFaultBudgetSweep, WritesSurviveFFailures) {
  int f = GetParam();
  int n = 2 * f + 1;
  StartPeers(n + 1);
  NclConfig config;
  config.app_id = "test-app";
  config.fault_budget = f;
  config.default_capacity = 1 << 20;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_EQ((*file)->peer_names().size(), static_cast<size_t>(n));
    ASSERT_TRUE((*file)->Append("survivor").ok());
    // Crash exactly f of the assigned peers after the write acked.
    sim_.RunUntilIdle();
    for (int i = 0; i < f; ++i) {
      PeerNamed((*file)->peer_names()[i])->Crash();
    }
  }
  sim_.RunUntilIdle();
  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), "survivor");
}

INSTANTIATE_TEST_SUITE_P(FaultBudgets, NclFaultBudgetSweep,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace splitft

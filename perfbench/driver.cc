// The repository benchmark driver: runs one SplitFT workload through the
// program's own Testbed and ClosedLoopHarness, timed at the app boundary
// by TimedApp, and prints one JSON result line (see README.md).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// makes an untraced and a traced run with the same seed, checks that they
// agree on every virtual-time and counter-derived number, and reports the
// per-layer metrics. Every run ends with an app-server crash, a restart
// and a read-back of every acknowledged write against the oracle.
//
// Knobs for the sensitivity checks (checks.py), all off by default:
//   --rdma-write-latency-scale <x>  --dfs-read-base-scale <x>
//   --dfs-write-bw-scale <x>        --busy-wait-ns <n>
//   --setups <n> (set-ups per run; the median is setup_s)
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/timed_app.h"
#include "src/common/logging.h"
#include "src/harness/closed_loop.h"
#include "src/harness/testbed.h"

namespace perfbench {
namespace {

using namespace splitft;

enum class AppKind { kKv, kSqlite };

// One workload. ForSeed() fixes the seed-drawn parts; the measured
// phase's virtual length scales with --seconds.
struct Workload {
  const char* name;
  AppKind app;
  YcsbWorkloadKind kind;
  uint64_t records;
  // ForSeed adds a seed-drawn share below this to `records`.
  double record_spread;
  int clients;
  int num_peers;
  // Virtual length of the measured phase per requested second: about one
  // host second of work on a 4-core x86 host.
  SimTime phase_per_second;
  uint64_t warmup_ops;
  // Peers 0..fault_peers-1 hold the log at phase start (they are the first
  // ones the NCL client allocates on). They crash fault_at into the phase;
  // ForSeed adds a seed-drawn offset below kFaultWindow.
  int fault_peers;
  SimTime fault_at;
  // Kv store only, when > 0: before the closing crash the memtable is
  // flushed and a fresh WAL takes this many writes (ForSeed adds up to
  // 5 %), so recovery replays a log of known size instead of whatever the
  // phase left.
  uint64_t closing_writes;
  KvStoreOptions kv;
  SqliteLiteOptions sqlite;
  uint64_t ncl_capacity;
};

constexpr SimTime kFaultWindow = Millis(100);
constexpr uint64_t kRecordBytes = YcsbWorkload::kKeyBytes +
                                  YcsbWorkload::kValueBytes;

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  {
    Workload w{};
    w.name = "kv_ycsb_a";
    w.app = AppKind::kKv;
    w.kind = YcsbWorkloadKind::kA;
    w.records = 200000;
    w.clients = 20;
    w.num_peers = 4;
    w.phase_per_second = Millis(800);
    w.warmup_ops = 200000;
    w.closing_writes = 8000;  // about 1 MB of WAL, half the memtable
    w.kv.block_cache_bytes = w.records * kRecordBytes * 3 / 10;
    w.ncl_capacity = w.kv.wal_capacity;
    out.push_back(w);
  }
  {
    Workload w{};
    w.name = "kv_failover";
    w.app = AppKind::kKv;
    w.kind = YcsbWorkloadKind::kWriteOnly;
    w.records = 20000;
    w.clients = 12;
    w.num_peers = 6;
    w.phase_per_second = Millis(1200);
    w.warmup_ops = 50000;
    w.fault_peers = 2;
    w.fault_at = Seconds(1);
    w.kv.memtable_bytes = 8 << 20;
    w.kv.wal_capacity = 64ull << 20;
    w.ncl_capacity = w.kv.wal_capacity;
    out.push_back(w);
  }
  {
    Workload w{};
    w.name = "sqlite_failover";
    w.app = AppKind::kSqlite;
    w.kind = YcsbWorkloadKind::kA;
    w.records = 20000;
    // Recovery reads the whole circular WAL and the db, so only the
    // dataset size can make recovery_ms depend on the seed.
    w.record_spread = 0.05;
    w.clients = 1;
    w.num_peers = 4;
    w.phase_per_second = Seconds(14);
    w.warmup_ops = 50000;
    w.fault_peers = 1;
    w.fault_at = Seconds(5);
    w.ncl_capacity = w.sqlite.wal_capacity;
    out.push_back(w);
  }
  return out;
}

// The seed picks the op stream and the loaded values, and through ForSeed
// the fault instant, the closing log size and, where record_spread > 0,
// the dataset size. With
// fixed-size records the failover workloads' costs do not depend on which
// keys an op touches, so without these draws their virtual-time metrics
// would be the same for every seed.
Workload ForSeed(Workload w, uint64_t seed) {
  Rng rng(seed);
  w.records += rng.Next() % (static_cast<uint64_t>(
                                 static_cast<double>(w.records) *
                                 w.record_spread) +
                             1);
  w.fault_at += static_cast<SimTime>(rng.Next() %
                                     static_cast<uint64_t>(kFaultWindow));
  w.closing_writes += rng.Next() % (w.closing_writes / 20 + 1);
  return w;
}

struct Config {
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int setups = 5;
  double rdma_write_latency_scale = 1.0;
  double dfs_read_base_scale = 1.0;
  double dfs_write_bw_scale = 1.0;
  int64_t busy_wait_ns = 0;
};

// One metric as reported. `det` marks values that must repeat exactly for
// a seed: virtual-time and counter-derived numbers.
struct Metric {
  std::string name;
  double value;
  const char* unit;
  bool det;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Inclusive quartiles, as Python's statistics.quantiles(method="inclusive").
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// The cluster, server and decorated app of one run. Members are destroyed
// in reverse order, so the testbed outlives the server and app.
struct Rig {
  std::unique_ptr<Testbed> testbed;
  std::unique_ptr<AppServer> server;
  KvStore* kv = nullptr;
  std::unique_ptr<TimedApp> timed;
};

ServerOptions ServerFor(const Workload& w) {
  // SplitFT mode, default NCL window, no weak-mode flusher.
  return {.mode = DurabilityMode::kSplitFt,
          .ncl_capacity = w.ncl_capacity,
          .dfs_flusher = 0};
}

Result<std::unique_ptr<StorageApp>> StartApp(const Workload& w, Rig* rig) {
  if (w.app == AppKind::kKv) {
    ASSIGN_OR_RETURN(auto kv, rig->testbed->StartKvStore(rig->server.get(),
                                                         w.kv));
    rig->kv = kv.get();
    return std::unique_ptr<StorageApp>(std::move(kv));
  }
  ASSIGN_OR_RETURN(auto db,
                   rig->testbed->StartSqlite(rig->server.get(), w.sqlite));
  rig->kv = nullptr;
  return std::unique_ptr<StorageApp>(std::move(db));
}

// Runs `ops` ops, or with ops == 0 runs for `duration` of virtual time.
HarnessResult RunPhase(const Workload& w, Rig* rig, uint64_t seed,
                       uint64_t ops, SimTime duration) {
  YcsbWorkload workload(w.kind, w.records, seed);
  HarnessOptions options;  // 10 us client RTT, group commit on
  options.num_clients = w.clients;
  options.target_ops = ops > 0 ? ops : UINT64_MAX;
  options.max_duration = ops > 0 ? Seconds(100000) : duration;
  ClosedLoopHarness harness(rig->testbed->sim(), rig->timed.get(), &workload,
                            options);
  return harness.Run();
}

// Builds the testbed, loads the records and runs the untimed warm-up.
std::unique_ptr<Rig> Setup(const Workload& w, const Config& config,
                           bool tracing) {
  TestbedOptions options;
  options.num_peers = w.num_peers;
  options.tracing = tracing;
  options.params.rdma.write_latency = static_cast<SimTime>(
      static_cast<double>(options.params.rdma.write_latency) *
      config.rdma_write_latency_scale);
  // The uncached-read round trip: remote_read_base on a single-server dfs,
  // split into the two stripe read bases on the striped one.
  for (SimTime* base : {&options.params.dfs.remote_read_base,
                        &options.params.dfs.stripe_client_read_base,
                        &options.params.dfs.stripe_server_read_base}) {
    *base = static_cast<SimTime>(static_cast<double>(*base) *
                                 config.dfs_read_base_scale);
  }
  options.params.dfs.write_bytes_per_ns *= config.dfs_write_bw_scale;
  auto rig = std::make_unique<Rig>();
  rig->testbed = std::make_unique<Testbed>(options);
  rig->server = rig->testbed->MakeServer(w.name, ServerFor(w));
  CHECK_OK(rig->server->start_status);
  auto app = StartApp(w, rig.get());
  CHECK_OK(app.status());
  rig->server->app = std::move(*app);
  rig->timed = std::make_unique<TimedApp>(rig->server->app.get(),
                                          rig->testbed->sim(),
                                          rig->testbed->tracer(), rig->kv);
  CHECK_OK(Testbed::LoadRecords(rig->timed.get(), w.records, config.seed));
  RunPhase(w, rig.get(), config.seed ^ 0x5eedf00dull, w.warmup_ops, 0);
  return rig;
}

std::map<std::string, uint64_t> Counters(const MetricsRegistry& m) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, c] : m.counters()) {
    out[name] = c->value();
  }
  return out;
}

struct RunOutput {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  double host_ops_per_s = 0;
  uint64_t phase_ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
};

// One full run: setup, measured phase, closing crash, restart, read-back.
// The other `setups - 1` set-ups are timed after the run and torn down, so
// peak_rss_mb sees one set-up in a fresh process.
RunOutput RunOnce(const Workload& w, const Config& config, bool tracing,
                  int setups) {
  RunOutput out;
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    int64_t t0 = HostNs();
    std::unique_ptr<Rig> rig = Setup(w, config, tracing);
    setup_s.push_back(static_cast<double>(HostNs() - t0) / 1e9);
    return rig;
  };
  std::unique_ptr<Rig> rig_owner = timed_setup();
  Rig& rig = *rig_owner;
  Testbed* tb = rig.testbed.get();
  Simulation* sim = tb->sim();
  MetricsRegistry* reg = tb->metrics();
  TimedApp* timed = rig.timed.get();
  timed->set_busy_wait_ns(config.busy_wait_ns);
  timed->ResetStats();

  const char* kHists[] = {"ncl.record.latency_ns", "dfs.client.fsync_ns",
                          "dfs.client.fsync_wait_ns",
                          "controller.rpc.latency_ns"};
  for (const char* h : kHists) {
    reg->histogram(h)->Reset();
  }
  auto c0 = Counters(*reg);
  auto spans0 = tb->tracer()->Snapshot();
  auto sched0 = sim->scheduler_stats();
  uint64_t cache_hits0 = rig.kv ? rig.kv->block_cache().hits() : 0;
  uint64_t cache_miss0 = rig.kv ? rig.kv->block_cache().misses() : 0;

  SimTime phase_start = sim->Now();
  bool fault_fired = false;
  uint64_t fault_token = 0;
  if (w.fault_peers > 0) {
    // The phase runs inside this frame, so the testbed outlives the event.
    fault_token = sim->ScheduleCancelableAt(
        phase_start + w.fault_at,
        [tb, n = w.fault_peers, &fault_fired] {
          fault_fired = true;
          for (int i = 0; i < n; ++i) {
            tb->peer(i)->Crash();
          }
        });
  }
  int64_t h0 = HostNs();
  HarnessResult result =
      RunPhase(w, &rig, config.seed, 0, w.phase_per_second * config.seconds);
  int64_t wall_ns = HostNs() - h0;
  if (w.fault_peers > 0 && !fault_fired) {
    // A phase shorter than the fault schedule must not crash peers while
    // the app server is down.
    sim->Cancel(fault_token);
  }

  auto c1 = Counters(*reg);
  auto spans = SpanDiff(spans0, tb->tracer()->Snapshot());
  auto sched1 = sim->scheduler_stats();
  auto delta = [&](const std::string& name) -> double {
    return static_cast<double>(c1[name] - c0[name]);
  };
  auto hist = [&](const char* name) { return *reg->histogram(name); };
  auto span_ms = [&](const std::map<std::string, SpanStats>& s,
                     const char* name) {
    auto it = s.find(name);
    return it == s.end() ? 0.0 : static_cast<double>(it->second.total) / 1e6;
  };
  auto self_us = [&](const char* name, double per) {
    auto it = spans.find(name);
    return it == spans.end()
               ? 0.0
               : Ratio(static_cast<double>(it->second.self) / 1e3, per);
  };
  auto span_count = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.count);
  };

  // Read before the crash replaces the store.
  double cache_hits = 0, cache_lookups = 0;
  if (rig.kv != nullptr) {
    cache_hits = static_cast<double>(rig.kv->block_cache().hits() -
                                     cache_hits0);
    cache_lookups = cache_hits + static_cast<double>(
                                     rig.kv->block_cache().misses() -
                                     cache_miss0);
  }
  // Copies: the closing writes below also pass through the decorator.
  const CallStats gets = timed->gets();
  const CallStats commits = timed->commits();
  const size_t l0_tables_max = timed->l0_tables_max();
  const TimedApp::Stalls stalls = timed->stalls();
  double writes = static_cast<double>(commits.ops);
  double user_bytes = static_cast<double>(timed->user_bytes());
  double appends = delta("ncl.record.count");


  // Host-steadiness diagnostic: the spread of per-segment completion rates.
  std::vector<double> seg_rates;
  const auto& segs = timed->segments();
  for (size_t i = 1; i < segs.size(); ++i) {
    seg_rates.push_back(Ratio(
        static_cast<double>(segs[i].second - segs[i - 1].second),
        static_cast<double>(segs[i].first - segs[i - 1].first) / 1e9));
  }
  double seg_spread =
      seg_rates.size() < 4
          ? 0.0
          : Ratio(Quantile(seg_rates, 0.75) - Quantile(seg_rates, 0.25),
                  Median(seg_rates));

  // Peer memory per live log byte, before the crash.
  double slab_used = 0;
  for (int i = 0; i < tb->num_peers(); ++i) {
    if (tb->peer(i)->alive()) {
      slab_used += static_cast<double>(tb->peer(i)->slab_used_bytes());
    }
  }
  double live_log_bytes =
      static_cast<double>(rig.server->fs->ncl()->ListFiles().size()) *
      static_cast<double>(w.ncl_capacity);

  if (w.closing_writes > 0) {
    CHECK_OK(rig.kv->FlushMemtable());
    YcsbWorkload values(YcsbWorkloadKind::kWriteOnly, w.records, config.seed);
    std::vector<KvWrite> batch;
    for (uint64_t i = 0; i < w.closing_writes; ++i) {
      batch.push_back(
          {YcsbWorkload::KeyFor(i % w.records), values.ValueFor(i)});
      if (batch.size() == 128 || i + 1 == w.closing_writes) {
        // A failure is counted by the decorator and fails the run.
        DiscardStatus(timed->ApplyWriteBatch(batch), "closing write");
        batch.clear();
      }
    }
  }

  // Closing crash once every completed op's write is durable.
  if (timed->max_durable() > sim->Now()) {
    sim->RunUntil(timed->max_durable());
  }
  tb->CrashServer(rig.server.get());
  sim->RunUntilIdle();
  auto rspans0 = tb->tracer()->Snapshot();
  SimTime r0 = sim->Now();
  rig.server = tb->MakeServer(w.name, ServerFor(w));
  uint64_t lost = 0;
  Result<std::unique_ptr<StorageApp>> reopened =
      rig.server->start_status.ok() ? StartApp(w, &rig)
                                    : Result<std::unique_ptr<StorageApp>>(
                                          rig.server->start_status);
  double recovery_ms = static_cast<double>(sim->Now() - r0) / 1e6;
  auto rspans = SpanDiff(rspans0, tb->tracer()->Snapshot());
  if (!reopened.ok()) {
    out.problems.push_back("restart failed: " + reopened.status().ToString());
    lost = timed->oracle().size();
  } else {
    rig.server->app = std::move(*reopened);  // torn down with the rig
    for (const auto& [key, value] : timed->oracle()) {
      auto got = rig.server->app->Get(key);
      if (!got.ok() || *got != value) {
        lost++;
      }
    }
  }

  out.attempted = result.ops + w.closing_writes + timed->oracle().size();
  out.failed = timed->failed_writes() + timed->get_mismatches() + lost;
  if (w.fault_peers > 0 &&
      delta("ncl.client.peers_replaced") < w.fault_peers) {
    out.problems.push_back("the peer crash did not cause a replacement");
  }
  if (result.latency.count() < 10000) {
    // p99.9 needs at least 10 samples beyond it.
    out.problems.push_back("fewer than 10000 ops in the measured phase");
  }

  double wall_s = static_cast<double>(wall_ns) / 1e9;
  out.host_ops_per_s = Ratio(static_cast<double>(result.ops), wall_s);
  out.phase_ops = result.ops;
  double app_host_ns = static_cast<double>(gets.host_ns + commits.host_ns);
  double lat_sum = result.latency.Mean() *
                   static_cast<double>(result.latency.count());
  double covered = gets.op_vtime + commits.op_vtime;
  Histogram ncl_lat = hist("ncl.record.latency_ns");
  Histogram fsync = hist("dfs.client.fsync_ns");
  Histogram fsync_wait = hist("dfs.client.fsync_wait_ns");
  Histogram rpc = hist("controller.rpc.latency_ns");
  auto hsum = [](const Histogram& h) {
    return h.Mean() * static_cast<double>(h.count());
  };
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);

  std::printf("# %s seed=%" PRIu64 " trace=%d: %" PRIu64
              " ops in %.3f s host, %.3f s virtual; latency samples %" PRIu64
              "\n",
              w.name, config.seed, tracing ? 1 : 0, result.ops, wall_s,
              static_cast<double>(result.duration) / 1e9,
              result.latency.count());
  std::printf("# host segments of %" PRIu64
              " ops: n=%zu, median rate %.0f ops/s, iqr/median %.4f\n",
              TimedApp::kSegmentOps, seg_rates.size(), Median(seg_rates),
              seg_spread);
  std::printf("# info ops_per_call %.17g\n",
              Ratio(static_cast<double>(result.ops),
                    static_cast<double>(gets.calls + commits.calls)));

  out.e2e = {
      {"setup_s", 0, "s", false},  // set once every set-up is timed
      {"host_ops_per_s", out.host_ops_per_s, "ops/s", false},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
       false},
      {"vthroughput_kops", result.throughput_kops, "KOps/s", true},
      {"op_p50_us", result.latency.P50() / 1e3, "us", true},
      {"op_p99_us", result.latency.P99() / 1e3, "us", true},
      {"op_p999_us", result.latency.Percentile(0.999) / 1e3, "us", true},
      {"stall_ms", static_cast<double>(stalls.total) / 1e6, "ms", true},
      {"recovery_ms", recovery_ms, "ms", true},
      {"dfs_write_amp", Ratio(delta("dfs.cluster.bytes_written"), user_bytes),
       "ratio", true},
  };
  out.layer = {
      {"harness.out_of_app_share",
       Ratio(static_cast<double>(wall_ns) - app_host_ns,
             static_cast<double>(wall_ns)),
       "ratio", false},
      {"harness.host_rate_spread", seg_spread, "ratio", false},
      {"harness.longest_stall_ms", static_cast<double>(stalls.longest) / 1e6,
       "ms", true},
      {"harness.ops_per_commit",
       Ratio(writes, static_cast<double>(commits.calls)), "ops", true},
      {"harness.wait_us",
       Ratio(lat_sum - covered, static_cast<double>(result.ops)) / 1e3, "us",
       true},
      {"apps.get.host_ns",
       Ratio(static_cast<double>(gets.host_ns),
             static_cast<double>(gets.calls)),
       "ns", false},
      {"apps.commit.host_ns",
       Ratio(static_cast<double>(commits.host_ns),
             static_cast<double>(commits.calls)),
       "ns", false},
      {"apps.get.vlat_p50_us", gets.vlat.P50() / 1e3, "us", true},
      {"apps.get.vlat_p99_us", gets.vlat.P99() / 1e3, "us", true},
      {"apps.commit.vlat_p50_us", commits.vlat.P50() / 1e3, "us", true},
      {"apps.commit.vlat_p99_us", commits.vlat.P99() / 1e3, "us", true},
      {"apps.kv.block_cache_hit_rate", Ratio(cache_hits, cache_lookups),
       "ratio", true},
      {"apps.kv.l0_tables_max", static_cast<double>(l0_tables_max),
       "count", true},
      {"splitfs.route.small_writes_per_write",
       Ratio(delta("splitfs.route.small_writes"), writes), "ratio", true},
      {"ncl.record.per_commit",
       Ratio(appends, static_cast<double>(commits.calls)), "ratio", true},
      {"ncl.record.p50_us", ncl_lat.P50() / 1e3, "us", true},
      {"ncl.record.p99_us", ncl_lat.P99() / 1e3, "us", true},
      {"ncl.client.peers_replaced", delta("ncl.client.peers_replaced"),
       "count", true},
      {"ncl.client.suffix_reposts", delta("ncl.client.suffix_reposts"),
       "count", true},
      {"ncl.peer.used_bytes_per_log_byte", Ratio(slab_used, live_log_bytes),
       "ratio", true},
      {"fabric.wr.writes_per_append",
       Ratio(delta("fabric.wr.writes_posted"), appends), "ratio", true},
      {"fabric.wr.doorbells_per_append",
       Ratio(delta("fabric.wr.doorbells"), appends), "ratio", true},
      {"fabric.wr.bytes_per_user_byte",
       Ratio(delta("fabric.wr.write_bytes"), user_bytes), "ratio", true},
      {"fabric.wr.failed_wrs", delta("fabric.wr.failed_wrs"), "count", true},
      {"fabric.wr.wr_retries", delta("fabric.wr.wr_retries"), "count", true},
      {"dfs.client.reads_per_get",
       Ratio(delta("dfs.client.reads"), static_cast<double>(gets.calls)),
       "ratio", true},
      {"dfs.client.readahead_hit_rate",
       Ratio(delta("dfs.client.readahead_hits"),
             delta("dfs.client.readahead_hits") +
                 delta("dfs.client.readahead_misses")),
       "ratio", true},
      {"dfs.client.fsync_p99_us", fsync.P99() / 1e3, "us", true},
      {"dfs.client.fsync_wait_share", Ratio(hsum(fsync_wait), hsum(fsync)),
       "ratio", true},
      {"controller.rpc.count", delta("controller.rpc.count"), "count", true},
      {"controller.rpc.p99_us", rpc.P99() / 1e3, "us", true},
      {"sim.arena_slab_growth",
       static_cast<double>(sched1.arena_slabs - sched0.arena_slabs), "count",
       true},
      {"sim.heap_callables",
       static_cast<double>(sched1.heap_callables - sched0.heap_callables),
       "count", true},
      {"obs.attributed_share", Ratio(covered, lat_sum), "ratio", true},
  };
  if (tracing) {
    std::vector<Metric> traced = {
        {"ncl.record.self_us", self_us("ncl.record", appends), "us", true},
        {"ncl.replace_slot.ms", span_ms(spans, "ncl.replace_slot"), "ms",
         true},
        {"ncl.catchup.bulk.ms", span_ms(spans, "ncl.catchup.bulk"), "ms",
         true},
        {"ncl.catchup.staged.ms", span_ms(spans, "ncl.catchup.staged"), "ms",
         true},
        {"ncl.recover.get_peers.ms", span_ms(rspans, "ncl.recover.get_peers"),
         "ms", true},
        {"ncl.recover.connect.ms", span_ms(rspans, "ncl.recover.connect"),
         "ms", true},
        {"ncl.recover.rdma_read.ms", span_ms(rspans, "ncl.recover.rdma_read"),
         "ms", true},
        {"ncl.recover.sync_peers.ms",
         span_ms(rspans, "ncl.recover.sync_peers"), "ms", true},
        {"app.recover.replay.ms", span_ms(rspans, "app.recover.replay"), "ms",
         true},
        {"dfs.read.self_us", self_us("dfs.read", span_count("dfs.read")), "us",
         true},
        {"dfs.write.self_us", self_us("dfs.write", span_count("dfs.write")),
         "us", true},
        {"dfs.fsync.self_us", self_us("dfs.fsync", span_count("dfs.fsync")),
         "us", true},
    };
    out.layer.insert(out.layer.end(), traced.begin(), traced.end());
  }
  rig_owner.reset();
  for (int i = 1; i < setups; ++i) {
    timed_setup();  // destroyed at once
  }
  for (Metric& m : out.e2e) {
    if (m.name == "setup_s") {
      m.value = Median(setup_s);
    }
  }
  return out;
}

std::vector<Metric> All(const RunOutput& run) {
  std::vector<Metric> all = run.e2e;
  all.insert(all.end(), run.layer.begin(), run.layer.end());
  return all;
}

// Host ns per op of the generator alone, over the phase's op stream.
double GeneratorNsPerOp(const Workload& w, const Config& config,
                        uint64_t ops) {
  YcsbWorkload workload(w.kind, w.records, config.seed);
  uint64_t bytes = 0;  // keeps the loop from being optimised away
  int64_t t0 = HostNs();
  for (uint64_t i = 0; i < ops; ++i) {
    YcsbOp op = workload.Next();
    bytes += op.key.size() + op.value.size();
  }
  int64_t t1 = HostNs();
  std::printf("# info generator_bytes %" PRIu64 "\n", bytes);
  return Ratio(static_cast<double>(t1 - t0), static_cast<double>(ops));
}

// FNV-1a digest of the first `ops` generated ops (the determinism guard's
// proof that the seed picks the op stream).
uint64_t OpStreamDigest(const Workload& w, uint64_t seed, uint64_t ops) {
  YcsbWorkload workload(w.kind, w.records, seed);
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::string_view bytes) {
    for (char c : bytes) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
  };
  for (uint64_t i = 0; i < ops; ++i) {
    YcsbOp op = workload.Next();
    char type = static_cast<char>(op.type);
    mix(std::string_view(&type, 1));
    mix(op.key);
    mix(op.value);
  }
  return h;
}

// "# metric <name> <value> <unit> <virtual|host>", read by checks.py.
void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# metric %-38s %.17g %s %s\n", m.name.c_str(), m.value,
                m.unit, m.det ? "virtual" : "host");
  }
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[512];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

// Virtual-time and counter-derived values of two runs, rendered exactly.
std::vector<std::string> CompareDeterministic(const std::vector<Metric>& a,
                                              const std::vector<Metric>& b) {
  std::map<std::string, double> bv;
  for (const Metric& m : b) {
    bv[m.name] = m.value;
  }
  std::vector<std::string> diffs;
  char buf[256];
  for (const Metric& m : a) {
    auto it = bv.find(m.name);
    if (!m.det || it == bv.end()) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    std::string x = buf;
    std::snprintf(buf, sizeof(buf), "%.17g", it->second);
    if (x != buf) {
      diffs.push_back(m.name + ": untraced " + x + " vs traced " + buf);
    }
  }
  return diffs;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <kv_ycsb_a|kv_failover|"
               "sqlite_failover> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  Config config;
  std::string workload_name;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload_name = v;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(v);
    } else if (flag == "--trace") {
      config.trace = std::atoi(v) != 0;
    } else if (flag == "--setups") {
      config.setups = std::atoi(v);
    } else if (flag == "--rdma-write-latency-scale") {
      config.rdma_write_latency_scale = std::atof(v);
    } else if (flag == "--dfs-read-base-scale") {
      config.dfs_read_base_scale = std::atof(v);
    } else if (flag == "--dfs-write-bw-scale") {
      config.dfs_write_bw_scale = std::atof(v);
    } else if (flag == "--busy-wait-ns") {
      config.busy_wait_ns = std::atoll(v);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.seconds < 1 || config.setups < 1) {
    return Usage();
  }
  std::vector<Workload> all = Workloads();
  auto found = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return workload_name == w.name;
  });
  if (found == all.end()) {
    return Usage();
  }
  const Workload seeded = ForSeed(*found, config.seed);
  const Workload* w = &seeded;

  RunOutput plain =
      RunOnce(*w, config, false, config.trace ? 1 : config.setups);
  std::vector<std::string> problems = plain.problems;
  uint64_t attempted = plain.attempted;
  uint64_t failed = plain.failed;
  std::vector<Metric> report;
  if (!config.trace) {
    PrintMetrics(plain.e2e);
    PrintMetrics(plain.layer);
    report = plain.e2e;
  } else {
    RunOutput traced = RunOnce(*w, config, true, 1);
    problems.insert(problems.end(), traced.problems.begin(),
                    traced.problems.end());
    attempted += traced.attempted;
    failed += traced.failed;
    for (const std::string& d :
         CompareDeterministic(All(plain), All(traced))) {
      problems.push_back("traced run differs: " + d);
    }
    // Host-time layer metrics come from the untraced run; the rest, and
    // the span breakdown, from the traced one.
    std::map<std::string, double> host;
    for (const Metric& m : plain.layer) {
      if (!m.det) {
        host[m.name] = m.value;
      }
    }
    report = traced.layer;
    for (Metric& m : report) {
      if (!m.det) {
        m.value = host[m.name];
      }
    }
    report.push_back({"workload.next_host_ns",
                      GeneratorNsPerOp(*w, config, plain.phase_ops), "ns",
                      false});
    std::printf("# info op_stream %016" PRIx64 "\n",
                OpStreamDigest(*w, config.seed, 100000));
    report.push_back({"obs.trace_overhead",
                      Ratio(plain.host_ops_per_s, traced.host_ops_per_s) - 1,
                      "ratio", false});
    PrintMetrics(plain.e2e);
    PrintMetrics(report);
  }
  for (Metric& m : report) {
    if (!std::isfinite(m.value)) {
      problems.push_back(m.name + " is not a finite number");
      m.value = 0;  // keeps the result line valid JSON
    }
  }
  for (const std::string& p : problems) {
    std::printf("# FAILED CHECK: %s\n", p.c_str());
  }
  bool correct = failed == 0 && problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              JsonMetrics(report).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

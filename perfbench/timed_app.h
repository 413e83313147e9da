// TimedApp: a StorageApp decorator that times every call into the apps
// layer from outside, in host nanoseconds and in virtual nanoseconds, and
// keeps an oracle of the last acknowledged value of every key.
//
// The decorator is the benchmark's only view of the apps layer's cost:
// the program is not instrumented for host time. With a tracer enabled it
// also opens a scoped span around each call, so the program's own spans
// (ncl.*, dfs.*, controller.rpc, app.recover.*) nest under it.
#ifndef PERFBENCH_TIMED_APP_H_
#define PERFBENCH_TIMED_APP_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/apps/kvstore/kv_store.h"
#include "src/apps/storage_app.h"
#include "src/common/histogram.h"
#include "src/obs/trace.h"
#include "src/sim/simulation.h"

namespace perfbench {

using splitft::Histogram;
using splitft::KvWrite;
using splitft::Result;
using splitft::SimTime;
using splitft::Status;

inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Totals for one kind of app call (Get, or a commit of a write batch).
struct CallStats {
  uint64_t calls = 0;
  uint64_t ops = 0;       // client ops served: 1 per Get, batch size per commit
  int64_t host_ns = 0;    // host time inside the calls
  Histogram vlat;         // virtual ns per call (until durable, for commits)
  double op_vtime = 0;    // virtual ns inside calls, summed per client op
};

class TimedApp : public splitft::StorageApp {
 public:
  // A host wall-clock sample is taken each time another kSegmentOps client
  // ops have been served (about 50-100 ms of host time).
  static constexpr uint64_t kSegmentOps = 16384;
  // An interval of at least this long without an op completion is a stall.
  static constexpr SimTime kStallGap = splitft::Millis(1);

  // `kv` is the same object as `app` when the app is the kv store (for the
  // L0 probe); nullptr otherwise.
  TimedApp(splitft::StorageApp* app, splitft::Simulation* sim,
           splitft::Tracer* tracer, const splitft::KvStore* kv)
      : app_(app), sim_(sim), tracer_(tracer), kv_(kv) {}

  // Adds a fixed host busy-wait inside every timed call (sensitivity check).
  void set_busy_wait_ns(int64_t ns) { busy_wait_ns_ = ns; }

  // Clears every statistic and starts the first host-time segment; the
  // oracle is kept.
  void ResetStats() {
    get_ = CallStats{};
    commit_ = CallStats{};
    user_bytes_ = 0;
    l0_max_ = 0;
    segments_.assign(1, {HostNs(), served_});
    pending_ = {};
    stalls_ = Stalls{};
    last_done_ = -1;
    max_durable_ = 0;
  }

  Status Put(std::string_view key, std::string_view value) override {
    return ApplyWriteBatch({KvWrite{std::string(key), std::string(value)}});
  }

  Result<std::string> Get(std::string_view key) override {
    SimTime v0 = sim_->Now();
    int64_t h0 = HostNs();
    Result<std::string> r = [&] {
      splitft::ObsSpan span(tracer_, "app.get");
      Spin();
      return app_->Get(key);
    }();
    int64_t h1 = HostNs();
    Account(&get_, 1, h1 - h0, v0, sim_->Now());
    auto it = oracle_.find(std::string(key));
    bool expected_found = it != oracle_.end();
    if (expected_found != r.ok() || (r.ok() && *r != it->second)) {
      get_mismatches_++;
    }
    return r;
  }

  Status ApplyWriteBatch(const std::vector<KvWrite>& batch) override {
    Result<SimTime> r = Commit(batch, /*deferred=*/false);
    return r.status();
  }

  Result<SimTime> ApplyWriteBatchDeferred(
      const std::vector<KvWrite>& batch) override {
    return Commit(batch, /*deferred=*/true);
  }

  bool supports_batching() const override { return app_->supports_batching(); }
  bool parallel_reads() const override { return app_->parallel_reads(); }
  std::string name() const override { return app_->name(); }

  const CallStats& gets() const { return get_; }
  const CallStats& commits() const { return commit_; }
  uint64_t user_bytes() const { return user_bytes_; }
  uint64_t failed_writes() const { return failed_writes_; }
  uint64_t get_mismatches() const { return get_mismatches_; }
  size_t l0_tables_max() const { return l0_max_; }
  SimTime max_durable() const { return max_durable_; }
  // Virtual intervals since ResetStats in which no op completed: the
  // longest one, and the sum of those of at least kStallGap.
  struct Stalls {
    SimTime longest = 0;
    SimTime total = 0;
  };
  Stalls stalls() {
    while (!pending_.empty()) {
      Completed(pending_.top());
      pending_.pop();
    }
    return stalls_;
  }
  const std::unordered_map<std::string, std::string>& oracle() const {
    return oracle_;
  }
  // (host ns, ops served so far) at ResetStats and at segment ends.
  const std::vector<std::pair<int64_t, uint64_t>>& segments() const {
    return segments_;
  }

 private:
  Result<SimTime> Commit(const std::vector<KvWrite>& batch, bool deferred) {
    if (kv_ != nullptr) {
      l0_max_ = std::max(l0_max_, kv_->l0_tables());
    }
    SimTime v0 = sim_->Now();
    int64_t h0 = HostNs();
    Result<SimTime> r = [&]() -> Result<SimTime> {
      splitft::ObsSpan span(tracer_, "app.commit");
      Spin();
      if (deferred) {
        return app_->ApplyWriteBatchDeferred(batch);
      }
      RETURN_IF_ERROR(app_->ApplyWriteBatch(batch));
      return SimTime{0};
    }();
    int64_t h1 = HostNs();
    SimTime v1 = sim_->Now();
    SimTime durable = r.ok() ? std::max(*r, v1) : v1;
    if (tracer_ != nullptr && tracer_->enabled() && durable > v1) {
      tracer_->AddAsyncSpan("app.commit.durable", v1, durable);
    }
    max_durable_ = std::max(max_durable_, durable);
    Account(&commit_, batch.size(), h1 - h0, v0, durable);
    for (const KvWrite& w : batch) {
      user_bytes_ += w.key.size() + w.value.size();
      if (r.ok()) {
        oracle_[w.key] = w.value;
      }
    }
    if (!r.ok()) {
      failed_writes_ += batch.size();
    }
    return r;
  }

  // `done` is when the call's ops complete: the return for a Get or a
  // synchronous commit, the durable time for a deferred one (the harness
  // completes them at the same instants).
  void Account(CallStats* s, uint64_t ops, int64_t host_ns, SimTime start,
               SimTime done) {
    SimTime vns = done - start;
    // Every later call completes at or after now, so completions up to now
    // are final and leave the heap in time order.
    pending_.push(done);
    while (!pending_.empty() && pending_.top() <= sim_->Now()) {
      Completed(pending_.top());
      pending_.pop();
    }
    s->calls++;
    s->ops += ops;
    s->host_ns += host_ns;
    s->vlat.Add(vns);
    s->op_vtime += static_cast<double>(vns) * static_cast<double>(ops);
    if ((served_ + ops) / kSegmentOps != served_ / kSegmentOps) {
      segments_.emplace_back(HostNs(), served_ + ops);
    }
    served_ += ops;
  }

  void Completed(SimTime t) {
    if (last_done_ >= 0) {
      SimTime gap = t - last_done_;
      stalls_.longest = std::max(stalls_.longest, gap);
      if (gap >= kStallGap) {
        stalls_.total += gap;
      }
    }
    last_done_ = t;
  }

  void Spin() const {
    if (busy_wait_ns_ > 0) {
      int64_t until = HostNs() + busy_wait_ns_;
      while (HostNs() < until) {
      }
    }
  }

  splitft::StorageApp* app_;
  splitft::Simulation* sim_;
  splitft::Tracer* tracer_;
  const splitft::KvStore* kv_;
  int64_t busy_wait_ns_ = 0;

  CallStats get_;
  CallStats commit_;
  uint64_t user_bytes_ = 0;
  size_t l0_max_ = 0;
  SimTime max_durable_ = 0;
  uint64_t served_ = 0;
  std::vector<std::pair<int64_t, uint64_t>> segments_;
  // Completion times not yet final, earliest first.
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      pending_;
  Stalls stalls_;
  SimTime last_done_ = -1;

  std::unordered_map<std::string, std::string> oracle_;
  uint64_t failed_writes_ = 0;
  uint64_t get_mismatches_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_APP_H_

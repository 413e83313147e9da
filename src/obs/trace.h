// Sim-time span tracer: attributes virtual-time budgets to named protocol
// phases, the machinery behind the per-layer latency breakdowns the paper
// reports (Fig 11b, Table 3) and the BENCH_*.json "layers" section.
//
// Two span kinds:
//
//   * Scoped spans (Begin/End, or the ObsSpan RAII guard) form a stack —
//     the code under a span is synchronous, so spans nest strictly. On End
//     the tracer books the span's *self time* (duration minus the time
//     spent in child spans). Summed over every span of a trace, self time
//     equals the root span's duration exactly, which is what makes the
//     "≥95% of end-to-end latency attributed" acceptance check meaningful:
//     nothing is double counted.
//
//   * Async spans (AddAsyncSpan) record an interval that did not run on
//     the caller's stack — e.g. a fabric WR between post and completion.
//     They are aggregated for reporting but excluded from self-time
//     attribution (their time overlaps some scoped span's).
//
// Disabled-tracer guarantee: every entry point early-returns on one
// `enabled_` test and the ObsSpan guard additionally compiles to nothing
// under -DSPLITFT_DISABLE_TRACING, so production builds can keep tracers
// threaded through without measurable cost.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/simulation.h"

namespace splitft {

// Per-span-name aggregate (virtual nanoseconds).
struct SpanStats {
  uint64_t count = 0;
  SimTime total = 0;  // wall (sim) duration, children included
  SimTime self = 0;   // duration minus child spans (0 for async spans)
  bool async = false;

  SpanStats& operator-=(const SpanStats& other) {
    count -= other.count;
    total -= other.total;
    self -= other.self;
    return *this;
  }
};

// One completed span, kept in a bounded ring for debugging/repro dumps.
struct SpanEvent {
  std::string name;
  SimTime start = 0;
  SimTime end = 0;
  uint32_t depth = 0;  // stack depth at Begin; async spans record 0
  bool async = false;
};

class Tracer {
 public:
  // `ring_capacity` bounds the completed-event buffer; aggregates are
  // unbounded but keyed by span name (a small, fixed taxonomy).
  explicit Tracer(Simulation* sim, bool enabled = false,
                  size_t ring_capacity = 4096);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  Simulation* sim() const { return sim_; }

  // Scoped-span API; prefer the ObsSpan guard. Begin/End must pair.
  void Begin(std::string_view name);
  void End();

  // Records an interval measured off-stack (WR post→completion).
  void AddAsyncSpan(std::string_view name, SimTime start, SimTime end);

  // Runs `fn` with the open spans set aside, so the spans it opens are
  // roots: background work on its own timeline (a Simulation::Detach part)
  // must not charge the spans of a caller that never waited for it.
  template <typename Fn>
  void Unnested(Fn&& fn) {
    std::vector<OpenSpan> caller;
    caller.swap(stack_);
    fn();
    caller.swap(stack_);
  }

  // Aggregates by span name. Copy out and diff two snapshots to scope a
  // breakdown to one measurement window (see SpanDiff).
  const std::map<std::string, SpanStats>& aggregates() const {
    return aggregates_;
  }
  std::map<std::string, SpanStats> Snapshot() const { return aggregates_; }

  // Sum of `total` over spans whose name starts with `prefix` (async
  // spans excluded). "ncl.recover." sums the recovery phases.
  SimTime TotalForPrefix(std::string_view prefix) const;
  // Sum of `self` over every non-async span: the attributed portion of a
  // trace. Divide by the root span's duration for coverage.
  SimTime AttributedSelfTime() const;

  // Ring contents, oldest first.
  std::vector<SpanEvent> events() const;

  // Drops aggregates, the ring, and any half-open spans.
  void Reset();

  size_t open_spans() const { return stack_.size(); }

 private:
  struct OpenSpan {
    std::string name;
    SimTime start;
    SimTime child_total = 0;
  };

  void PushEvent(SpanEvent ev);

  Simulation* sim_;
  bool enabled_;
  size_t ring_capacity_;
  std::vector<OpenSpan> stack_;
  std::map<std::string, SpanStats> aggregates_;
  std::vector<SpanEvent> ring_;  // circular; ring_next_ is the write index
  size_t ring_next_ = 0;
  bool ring_full_ = false;
};

// Aggregates accumulated between two snapshots: after - before.
std::map<std::string, SpanStats> SpanDiff(
    const std::map<std::string, SpanStats>& before,
    const std::map<std::string, SpanStats>& after);

// RAII scoped span. Null-safe: a null or disabled tracer costs one branch.
class ObsSpan {
 public:
#ifdef SPLITFT_DISABLE_TRACING
  ObsSpan(Tracer*, std::string_view) {}
#else
  ObsSpan(Tracer* tracer, std::string_view name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name);
    }
  }
  ~ObsSpan() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
#endif

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
#ifndef SPLITFT_DISABLE_TRACING
  Tracer* tracer_ = nullptr;
#endif
};

}  // namespace splitft

#endif  // SRC_OBS_TRACE_H_

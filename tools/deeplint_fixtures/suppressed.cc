// deeplint fixture: suppressed twins of every positives.cc case. The
// self-test demands zero findings in this file, which is what proves the
// allow() idiom is honored — and it demands at
// least one suppression per rule so coverage cannot rot.
//
// Each allow() carries a reason, as the convention requires. The last
// block also shows the *sanctioned fixes* (reserve before the loop,
// by-value captures, drain-in-frame), which the analyzer recognizes as
// clean without any suppression.
//
// status-discard is suppressed file-wide to mirror the real-world case
// (src/common/logging.h, where the cast lives inside a multi-line macro and
// a same-line comment is impossible).
//
// deeplint: allow-file(status-discard) fixture for allow-file handling

#include <array>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

struct Sim {
  template <typename F>
  void Schedule(int64_t delay, F&& fn);
  void RunUntilIdle();
};

struct Header {
  std::string Encode() const;
};

struct Op {
  std::string_view data;
};

void Consume(std::string_view v);
void Post(const std::vector<Op>& ops);
void Use(int x);
void Sink(const char* p);

// view-lifetime (a), suppressed: the view is consumed inside the same
// full expression in real code shapes like Consume(sv(h.Encode())); the
// local here is a fixture stand-in.
void ViewIntoTemporarySuppressed(const Header& h) {
  // deeplint: allow(view-lifetime) fixture: consumed before the temporary dies
  std::string_view v = h.Encode();
  Consume(v);
}

// view-lifetime (b), suppressed: append() cannot reallocate here because
// the capacity was established first — the fixture pins the allow path.
void ViewThenMutateSuppressed() {
  std::string buffer = "0123456789";
  buffer.reserve(64);
  std::string_view view = buffer;
  buffer.append("more");  // deeplint: allow(view-lifetime) fixture: capacity reserved above
  Consume(view);
}

// dangling-capture, suppressed: the scheduled callable is provably fired
// by an external driver before this frame returns in the real shape this
// stands in for.
void ScheduleRefCaptureSuppressed(Sim* sim) {
  int counter = 0;
  // deeplint: allow(dangling-capture) fixture: fired by the caller's drain
  sim->Schedule(10, [&counter] { counter++; });
  Use(counter);
}

// inline-budget, suppressed: a cold-path event where one heap spill is
// fine (and asserted by the heap_callables counter in the bench).
void ScheduleOversizedSuppressed(Sim* sim) {
  std::array<char, 256> payload{};
  // deeplint: allow(inline-budget) fixture: cold path, spill acceptable
  sim->Schedule(10, [payload] { Sink(payload.data()); });
}

// epoch-fence, suppressed: tests that exercise the fence itself must
// call SetApMap directly.
struct Controller {
  int SetApMap(const std::string& app, const std::string& file, int entry);
};

int FenceExerciseSuppressed(Controller* controller) {
  // deeplint: allow(epoch-fence) fixture: exercising the fence rejection path
  return controller->SetApMap("app", "file", 7);
}

// stale-allow, suppressed: the epoch-fence allow below is dead, but the
// stale-allow finding it would raise is itself suppressed — the one
// legitimate use is parking a suppression across a refactor landing in
// the same stack.
void StaleAllowSuppressed() {
  // deeplint: allow(stale-allow) fixture: parked across a refactor
  int x = 0;  // deeplint: allow(epoch-fence) parked
  Use(x);
  // deeplint: allow(stale-allow) fixture: parked across a refactor
  int y = 0;  // deeplint: allow(raw-random) parked
  Use(y);
}

// wall-clock, suppressed on the same line.
void WallClockSuppressed() {
  auto t0 = std::chrono::steady_clock::now();  // deeplint: allow(wall-clock) fixture: bounds a real-time watchdog, never feeds sim state
}

// raw-random, suppressed from the line above.
void RawRandomSuppressed() {
  // deeplint: allow(raw-random) fixture: seeding material only
  std::random_device rd;
}

// unordered-iter, suppressed: the reduction does not depend on order.
struct Exporter {
  std::unordered_map<int, int> table_;
  long Total() {
    long sum = 0;
    // deeplint: allow(unordered-iter) fixture: order-insensitive reduction
    for (const auto& kv : table_) {
      sum += kv.second;
    }
    return sum;
  }
};

void MetricNamesSuppressed(Registry* reg) {
  reg->counter("x");  // deeplint: allow(metric-name) fixture: API unit test
}

void StatusDiscardsSuppressed(File* f) {
  (void)f->Sync();  // covered by the allow-file(status-discard) above
}

// ---- clean twins: sanctioned fixes need no suppression ---------------------

// The PostSuffix shape with the PR 9 fix: reserve() pins the storage, so
// views of back() stay valid while the loop grows the vector.
void SuffixRepostShapeFixed(const std::vector<std::string>& window) {
  std::vector<std::string> scratch;
  scratch.reserve(window.size());
  std::vector<Op> ops;
  for (const std::string& entry : window) {
    scratch.emplace_back(entry);
    ops.push_back(Op{std::string_view(scratch.back())});
  }
  Post(ops);
}

// Drain-in-frame: by-ref captures are safe when the same frame drains the
// simulator before returning (the dominant test/bench idiom).
void ScheduleThenDrain(Sim* sim) {
  int counter = 0;
  sim->Schedule(10, [&counter] { counter++; });
  sim->RunUntilIdle();
  Use(counter);
}

// By-value capture of a small payload: fits the slab, owns its bytes.
void ScheduleByValue(Sim* sim) {
  uint64_t seq = 7;
  std::string data = "payload";
  sim->Schedule(10, [seq, data] { Consume(data); (void)seq; });
}

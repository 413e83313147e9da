// deeplint fixture: every rule must fire here, on the marked lines.
// `// deeplint-expect: <rule>` marks the line the self-test demands a
// finding on; any other finding fails the self-test. This file is NOT
// compiled; it is parsed by deeplint's frontend, which is exactly what the
// self-test pins. positives.h is its companion header.
//
// NOTE for maintainers: keep the shapes minimal. Each block reproduces
// one real bug class (the view-lifetime loop shape is the PR 9
// NclFile::PostSuffix bug verbatim, minus the RDMA plumbing).

#include "positives.h"

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
  std::string Encode() const;  // string-returner: indexed by the driver
};

struct Op {
  std::string_view data;
};

// ---- view-lifetime (a): view bound to a temporary --------------------------

void ViewIntoTemporary(const Header& h) {
  std::string_view v = h.Encode();  // deeplint-expect: view-lifetime
  Consume(v);
}

// ---- view-lifetime (b): container mutated while a view is live -------------

void ViewThenMutate() {
  std::string buffer = "0123456789";
  std::string_view view = buffer;
  buffer.append("more");  // deeplint-expect: view-lifetime
  Consume(view);
}

void Consume(std::string_view v);

// ---- view-lifetime (c): the PR 9 PostSuffix loop shape ---------------------
// Views of scratch.back() escape into `ops` while `scratch` keeps growing;
// iteration i+1's reallocation moves iteration i's SSO string out from
// under its view. The sanctioned fix is scratch.reserve(n) before the
// loop (see suppressed.cc for the reserved twin).

void SuffixRepostShape(const std::vector<std::string>& window) {
  std::vector<std::string> scratch;
  std::vector<Op> ops;
  for (const std::string& entry : window) {
    scratch.emplace_back(entry);
    ops.push_back(Op{std::string_view(scratch.back())});  // deeplint-expect: view-lifetime
  }
  Post(ops);
}

void Post(const std::vector<Op>& ops);

// ---- dangling-capture: by-ref capture outlives the frame -------------------

void ScheduleRefCapture(Sim* sim) {
  int counter = 0;
  sim->Schedule(10, [&counter] { counter++; });  // deeplint-expect: dangling-capture
}

void ScheduleDefaultRefCapture(Sim* sim, int arg) {
  sim->Schedule(10, [&] { Use(arg); });  // deeplint-expect: dangling-capture
}

void Use(int x);

// ---- inline-budget: captures exceed the 192 B arena slab -------------------

void ScheduleOversizedCapture(Sim* sim) {
  std::array<char, 256> payload{};
  sim->Schedule(10, [payload] { Sink(payload.data()); });  // deeplint-expect: inline-budget
}

void Sink(const char* p);

// ---- epoch-fence: ap-map write outside the bump-then-write helpers ---------

struct Controller {
  int SetApMap(const std::string& app, const std::string& file, int entry);
};

int RogueApMapWrite(Controller* controller) {
  return controller->SetApMap("app", "file", 7);  // deeplint-expect: epoch-fence
}

// ---- wall-clock: time must come from the simulated clock -------------------

void WallClock() {
  auto t0 = std::chrono::steady_clock::now();  // deeplint-expect: wall-clock
  auto t1 = std::chrono::system_clock::now();  // deeplint-expect: wall-clock
  struct timeval tv;
  gettimeofday(&tv, nullptr);  // deeplint-expect: wall-clock
  long stamp = time(nullptr);  // deeplint-expect: wall-clock
}

// A digit separator is part of the number, not the start of a char
// literal: the call after `1'000` on the same line is still code.
void DigitSeparator() {
  unsigned long n = 1'000; auto t = std::chrono::steady_clock::now();  // deeplint-expect: wall-clock
  auto u = std::chrono::steady_clock::now();  // deeplint-expect: wall-clock
}

// ---- raw-random: randomness must flow through splitft::Rng -----------------

void RawRandom() {
  std::random_device rd;  // deeplint-expect: raw-random
  std::mt19937 gen(42);   // deeplint-expect: raw-random
  srand(7);               // deeplint-expect: raw-random
  int x = std::rand;      // deeplint-expect: raw-random
}

// ---- unordered-iter: hash order must not reach an export -------------------

struct Exporter {
  std::unordered_map<int, int> table_;
  void Dump() {
    for (const auto& kv : table_) {  // deeplint-expect: unordered-iter
      Emit(kv);
    }
  }
};

// live_ids_ is declared in the companion header, positives.h.
void LiveSet::Dump() {
  for (int id : live_ids_) {  // deeplint-expect: unordered-iter
    Emit(id);
  }
}

// ---- metric-name: layer.component.metric / layer.component -----------------

void MetricNames(Registry* reg, Tracer* tracer) {
  reg->counter("appends");          // deeplint-expect: metric-name
  reg->gauge("ncl.inflight");       // deeplint-expect: metric-name
  reg->histogram("Ncl.Append.Ns");  // deeplint-expect: metric-name
  tracer->Begin("recover");         // deeplint-expect: metric-name
  tracer->AddAsyncSpan("w", 0, 1);  // deeplint-expect: metric-name
  ObsSpan span(tracer, "x");        // deeplint-expect: metric-name
}

// ---- status-discard: a bare void cast of a call ----------------------------

void StatusDiscards(File* f) {
  (void)f->Sync();               // deeplint-expect: status-discard
  static_cast<void>(f->Close()); // deeplint-expect: status-discard
  // A void cast of a plain variable is fine: nothing discardable.
  int unused = 0;
  (void)unused;
}

void NotViolations(Registry* reg, Tracer* tracer) {
  // Mentions in comments and strings must not fire: steady_clock,
  // std::mt19937, (void)f->Sync().
  const char* doc = "uses system_clock and std::rand internally";
  reg->counter("ncl.append.count");
  tracer->Begin("ncl.recover");
}

// ---- stale-allow: a suppression whose rule no longer fires -----------------

void NothingWrongHere() {
  int x = 0;  // deeplint: allow(epoch-fence) dead suppression   // deeplint-expect: stale-allow
  (void)x;
}

void NoClockHere() {
  int x = 0;  // deeplint: allow(wall-clock) dead  // deeplint-expect: stale-allow
  (void)x;
}

// ---- unknown rule in a suppression is itself a finding ---------------------

// deeplint: allow(no-such-rule) typo  // deeplint-expect: suppression

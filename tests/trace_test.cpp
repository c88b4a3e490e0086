// Trace layer: ring wraparound, concurrent recording, the ring reserved on
// first use, span nesting/ordering under the thread pool, Chrome
// trace_event export that parses back as valid JSON (via a minimal
// hand-written parser — no JSON dependency), intern_name stability, and the
// observe-only contract: enabling tracing or attaching a PhaseProfile
// changes no partition output.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "partition/gp.hpp"
#include "partition/phase_profile.hpp"
#include "support/prng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace ppnpart {
namespace {

using support::ScopedSpan;
using support::TraceEvent;
using support::Tracer;

/// RAII guard: whatever a test does, the global tracer ends disabled and
/// empty so tests cannot leak events into each other.
struct GlobalTracerGuard {
  GlobalTracerGuard() {
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
  }
  ~GlobalTracerGuard() {
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
  }
};

// ------------------------------------------------ minimal JSON parser ---
// Just enough of RFC 8259 to verify the Chrome export is well-formed and
// round-trips its strings: objects, arrays, strings with every escape
// (including \uXXXX for control characters), numbers, literals. Strict:
// trailing garbage, unquoted keys or dangling commas fail the parse.

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Json> parse() {
    std::optional<Json> v = value();
    skip_ws();
    if (!v.has_value() || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<Json> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  std::optional<Json> parse_object() {
    if (!consume('{')) return std::nullopt;
    Json j;
    j.kind = Json::kObject;
    if (consume('}')) return j;
    do {
      std::optional<Json> key = parse_string();
      if (!key.has_value() || !consume(':')) return std::nullopt;
      std::optional<Json> val = value();
      if (!val.has_value()) return std::nullopt;
      j.object.emplace_back(std::move(key->str), std::move(*val));
    } while (consume(','));
    if (!consume('}')) return std::nullopt;
    return j;
  }

  std::optional<Json> parse_array() {
    if (!consume('[')) return std::nullopt;
    Json j;
    j.kind = Json::kArray;
    if (consume(']')) return j;
    do {
      std::optional<Json> val = value();
      if (!val.has_value()) return std::nullopt;
      j.array.push_back(std::move(*val));
    } while (consume(','));
    if (!consume(']')) return std::nullopt;
    return j;
  }

  std::optional<Json> parse_string() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    Json j;
    j.kind = Json::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return j;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        j.str.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': j.str.push_back('"'); break;
        case '\\': j.str.push_back('\\'); break;
        case '/': j.str.push_back('/'); break;
        case 'b': j.str.push_back('\b'); break;
        case 'f': j.str.push_back('\f'); break;
        case 'n': j.str.push_back('\n'); break;
        case 'r': j.str.push_back('\r'); break;
        case 't': j.str.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return std::nullopt;
          }
          // The exporter only \u-escapes control bytes; reconstruct those
          // directly (full UTF-16 surrogate handling is not needed here).
          if (code > 0xff) return std::nullopt;
          j.str.push_back(static_cast<char>(code));
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> parse_bool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      Json j;
      j.kind = Json::kBool;
      j.boolean = true;
      return j;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      Json j;
      j.kind = Json::kBool;
      return j;
    }
    return std::nullopt;
  }

  std::optional<Json> parse_null() {
    if (text_.substr(pos_, 4) != "null") return std::nullopt;
    pos_ += 4;
    return Json{};
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    Json j;
    j.kind = Json::kNumber;
    try {
      j.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (...) {
      return std::nullopt;
    }
    return j;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------ the ring ---

TEST(Tracer, RingWraparoundKeepsTheNewestEvents) {
  Tracer t(/*capacity=*/8);
  // record() is usable while disabled (the enabled() gate lives in the
  // public helpers), which lets this test drive the ring directly.
  for (std::uint64_t i = 0; i < 20; ++i) {
    TraceEvent ev;
    ev.cat = "ring";
    ev.name = "tick";
    ev.ts_us = i;
    ev.kind = TraceEvent::Kind::kInstant;
    t.record(ev);
  }
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.overwritten(), 12u);

  const std::vector<TraceEvent> events = t.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest first, and exactly the 8 newest survive the lapping.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_us, 12 + i);
  }

  t.clear();
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(Tracer, ConcurrentRecordingNeverTearsAnEvent) {
  // 4 writers hammer a small ring concurrently while a reader snapshots it:
  // every event the reader sees, and every one left after the writers join,
  // must be fully written (never a torn mix), the ring must hold exactly
  // its capacity of events, and the lifetime counter must be exact.
  Tracer t(/*capacity=*/64);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  // A torn event would show a mismatched cat/name pair, an id outside the
  // written range, or a timestamp its id does not predict.
  const auto whole = [](const TraceEvent& ev) {
    return std::string_view(ev.cat) == "stress" &&
           std::string_view(ev.name) == "w" &&
           ev.id < kThreads * kPerThread && ev.ts_us == ev.id % kPerThread;
  };
  std::atomic<bool> writing{true};
  std::uint64_t seen = 0, torn = 0;
  std::thread reader([&] {
    do {
      for (const TraceEvent& ev : t.snapshot()) {
        ++seen;
        if (!whole(ev)) ++torn;
      }
    } while (writing.load(std::memory_order_relaxed));
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&t, w] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TraceEvent ev;
        ev.cat = "stress";
        ev.name = "w";
        ev.ts_us = i;
        ev.id = static_cast<std::uint64_t>(w) * kPerThread + i;
        ev.kind = TraceEvent::Kind::kInstant;
        t.record(ev);
      }
    });
  }
  for (std::thread& th : writers) th.join();
  writing.store(false, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(torn, 0u) << "of " << seen << " events read mid-recording";

  EXPECT_EQ(t.recorded(), kThreads * kPerThread);
  const std::vector<TraceEvent> events = t.snapshot();
  EXPECT_EQ(events.size(), t.capacity());
  for (const TraceEvent& ev : events) {
    EXPECT_STREQ(ev.cat, "stress");
    EXPECT_STREQ(ev.name, "w");
    EXPECT_LT(ev.id, kThreads * kPerThread);
    EXPECT_TRUE(whole(ev));
  }
}

/// This process's resident set in kB, from /proc/self/status; nullopt
/// where that file cannot be read.
std::optional<long> resident_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return std::nullopt;
}

TEST(Tracer, UnusedTracerHoldsNoRing) {
  // 65,536 events of ~216 bytes would be ~14 MB resident if the ring were
  // allocated at construction. A tracer that has recorded nothing holds
  // none of it; the first record() reserves the ring.
  const std::optional<long> before = resident_kb();
  if (!before.has_value()) GTEST_SKIP() << "/proc/self/status unreadable";
  Tracer t(std::size_t{1} << 16);
  const std::optional<long> after = resident_kb();
  ASSERT_TRUE(after.has_value());
  EXPECT_LT(*after - *before, 2048) << "kB resident after construction";

  TraceEvent ev;
  ev.cat = "lazy";
  ev.name = "first";
  ev.kind = TraceEvent::Kind::kInstant;
  t.record(ev);
  const std::vector<TraceEvent> events = t.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "first");
}

TEST(Tracer, ScopedSpanLatchesTheEnableDecision) {
  GlobalTracerGuard guard;
  Tracer& t = Tracer::global();

  {
    // Disabled at construction: enabling mid-span must not record a
    // half-built event.
    ScopedSpan span("latch", "off-at-birth");
    EXPECT_FALSE(span.active());
    t.set_enabled(true);
  }
  EXPECT_TRUE(t.snapshot().empty());

  {
    // Enabled at construction: disabling mid-span still records it whole.
    ScopedSpan span("latch", "on-at-birth");
    EXPECT_TRUE(span.active());
    t.set_enabled(false);
  }
  const std::vector<TraceEvent> events = t.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "on-at-birth");
}

// ---------------------------------------------------- pool interleaving ---

TEST(Tracer, SpanNestingAndOrderingUnderThreadPool) {
  GlobalTracerGuard guard;
  Tracer& t = Tracer::global();
  t.set_enabled(true);

  support::ThreadPool pool(4);
  constexpr int kTasks = 12;
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([i] {
      const auto id = static_cast<std::uint64_t>(i) + 1;
      support::trace_async_begin("pooltest", "task", id);
      ScopedSpan outer("pooltest", "outer", id);
      outer.arg("task", i);
      {
        ScopedSpan inner("pooltest", "inner", id);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      support::trace_async_end("pooltest", "task", id);
      // Padding before the outer span closes, so microsecond rounding can
      // never push the inner span's end past the outer's.
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }));
  }
  for (auto& f : futures) f.get();
  t.set_enabled(false);

  const std::vector<TraceEvent> events = t.snapshot();
  std::map<std::uint64_t, const TraceEvent*> outers, inners, begins, ends;
  for (const TraceEvent& ev : events) {
    if (std::string_view(ev.cat) != "pooltest") continue;
    const std::string_view name(ev.name);
    if (name == "outer") outers[ev.id] = &ev;
    if (name == "inner") inners[ev.id] = &ev;
    if (name == "task" && ev.kind == TraceEvent::Kind::kAsyncBegin)
      begins[ev.id] = &ev;
    if (name == "task" && ev.kind == TraceEvent::Kind::kAsyncEnd)
      ends[ev.id] = &ev;
  }
  ASSERT_EQ(outers.size(), static_cast<std::size_t>(kTasks));
  ASSERT_EQ(inners.size(), static_cast<std::size_t>(kTasks));
  ASSERT_EQ(begins.size(), static_cast<std::size_t>(kTasks));
  ASSERT_EQ(ends.size(), static_cast<std::size_t>(kTasks));

  for (const auto& [id, inner] : inners) {
    const TraceEvent* outer = outers.at(id);
    // A task runs on one worker: the pair shares a tid and the inner span
    // nests inside the outer one.
    EXPECT_EQ(inner->tid, outer->tid) << "task " << id;
    EXPECT_GE(inner->ts_us, outer->ts_us);
    EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
    // The async pair brackets the work in timestamp order.
    EXPECT_LE(begins.at(id)->ts_us, ends.at(id)->ts_us);
  }
  // The snapshot is globally ordered oldest-first.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

// ------------------------------------------------------- chrome export ---

TEST(Tracer, ChromeExportParsesBackWithEscapedStrings) {
  Tracer t(/*capacity=*/16);
  const char* tricky =
      support::intern_name("name \"quoted\" back\\slash");

  TraceEvent span;
  span.cat = "export";
  span.name = tricky;
  span.ts_us = 10;
  span.dur_us = 5;
  span.tid = 3;
  span.kind = TraceEvent::Kind::kSpan;
  span.add_arg("cut", 42);
  span.add_arg("level", -3);
  span.set_detail("full-portfolio; \"why\"\n\ttab\x01guard");
  t.record(span);

  TraceEvent instant;
  instant.cat = "export";
  instant.name = "decision";
  instant.ts_us = 12;
  instant.kind = TraceEvent::Kind::kInstant;
  t.record(instant);

  TraceEvent begin = instant, end = instant;
  begin.name = end.name = "job";
  begin.id = end.id = 7;
  begin.ts_us = 13;
  begin.kind = TraceEvent::Kind::kAsyncBegin;
  end.ts_us = 20;
  end.kind = TraceEvent::Kind::kAsyncEnd;
  t.record(begin);
  t.record(end);

  std::ostringstream out;
  t.write_chrome_trace(out);
  const std::string text = out.str();

  const std::optional<Json> parsed = JsonParser(text).parse();
  ASSERT_TRUE(parsed.has_value()) << "export is not valid JSON:\n" << text;
  ASSERT_EQ(parsed->kind, Json::kObject);
  const Json* trace_events = parsed->find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->kind, Json::kArray);
  ASSERT_EQ(trace_events->array.size(), 4u);

  int spans = 0, instants = 0, async_b = 0, async_e = 0;
  for (const Json& ev : trace_events->array) {
    ASSERT_EQ(ev.kind, Json::kObject);
    for (const char* key : {"name", "cat", "ph"}) {
      const Json* v = ev.find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, Json::kString) << key;
    }
    for (const char* key : {"ts", "pid", "tid"}) {
      const Json* v = ev.find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, Json::kNumber) << key;
    }
    const std::string& ph = ev.find("ph")->str;
    if (ph == "X") {
      ++spans;
      // Strings round-trip through the escaper, control bytes included.
      EXPECT_EQ(ev.find("name")->str, "name \"quoted\" back\\slash");
      ASSERT_NE(ev.find("dur"), nullptr);
      EXPECT_EQ(ev.find("dur")->number, 5.0);
      const Json* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_EQ(args->kind, Json::kObject);
      EXPECT_EQ(args->find("cut")->number, 42.0);
      EXPECT_EQ(args->find("level")->number, -3.0);
      EXPECT_EQ(args->find("detail")->str,
                "full-portfolio; \"why\"\n\ttab\x01guard");
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "b") {
      ++async_b;
      EXPECT_NE(ev.find("id"), nullptr);
    } else if (ph == "e") {
      ++async_e;
    } else {
      ADD_FAILURE() << "unexpected ph: " << ph;
    }
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(async_b, 1);
  EXPECT_EQ(async_e, 1);
}

TEST(Tracer, EmptyExportIsStillValidJson) {
  Tracer t(/*capacity=*/4);
  std::ostringstream out;
  t.write_chrome_trace(out);
  const std::optional<Json> parsed = JsonParser(out.str()).parse();
  ASSERT_TRUE(parsed.has_value());
  const Json* trace_events = parsed->find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  EXPECT_TRUE(trace_events->array.empty());
}

// ---------------------------------------------------------- intern pool ---

TEST(Tracer, InternNameDeduplicatesAndStaysStable) {
  const char* a = support::intern_name("member:gp");
  const char* b = support::intern_name(std::string("member:") + "gp");
  EXPECT_EQ(a, b);  // same pointer, not just equal content
  EXPECT_STREQ(a, "member:gp");
  const char* c = support::intern_name("member:tabu");
  EXPECT_NE(a, c);
  EXPECT_STREQ(c, "member:tabu");
}

// --------------------------------------------------- observe-only rail ---

TEST(Tracer, InstrumentationChangesNoPartitionOutput) {
  GlobalTracerGuard guard;
  graph::ProcessNetworkParams params;
  params.num_nodes = 240;
  params.layers = 12;
  support::Rng rng(17);
  const graph::Graph g = graph::random_process_network(params, rng);

  part::GpOptions options;
  options.max_cycles = 2;
  part::GpPartitioner gp(options);
  part::PartitionRequest request;
  request.k = 4;
  request.seed = 5;

  const part::PartitionResult plain = gp.run(g, request);

  Tracer::global().set_enabled(true);
  part::PhaseProfile profile;
  part::PartitionRequest instrumented = request;
  instrumented.phases = &profile;
  const part::PartitionResult traced = gp.run(g, instrumented);
  Tracer::global().set_enabled(false);

  EXPECT_EQ(plain.partition.assignments(), traced.partition.assignments());
  // And the profile genuinely accounted the run while not changing it.
  EXPECT_GT(profile.total_us() + profile.entries[0].calls, 0u);
  EXPECT_GT(profile.entries[part::PhaseProfile::kCoarsen].calls, 0u);
  EXPECT_GT(profile.entries[part::PhaseProfile::kInitial].calls, 0u);
  EXPECT_GT(profile.entries[part::PhaseProfile::kRefine].calls, 0u);
}

}  // namespace
}  // namespace ppnpart

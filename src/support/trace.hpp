#pragma once
// End-to-end tracing — the measurement substrate of the engine and the
// multilevel pipeline.
//
// A Tracer is a fixed-capacity ring buffer of TraceEvents (complete spans,
// instant events and cross-thread async begin/end pairs) that any thread
// may record into. One mutex guards the ring: traced runs record about a
// thousand events a run, far too few for tracing threads to queue on it.
// The ring's storage is reserved when tracing is first enabled (or by the
// first record()), so a process that never traces holds none of it. When
// the ring wraps, the oldest events are overwritten (and counted) — a
// long-running service keeps the most recent window, which is the one a
// "where did this 40 ms go" question is about.
//
// Tracer::set_enabled(false) (the default) reduces every ScopedSpan to a
// single relaxed atomic load — cheap enough to leave in the multilevel
// inner loop of every build (TimingGate.TracingOffHookCostsAtMost250Ns
// bounds it).
//
// Events carry static-string names/categories (use intern_name() for
// dynamic ones like portfolio member names), up to six integer args and a
// short truncated free-text `detail` — enough for admission decision
// records and per-level phase spans without any allocation on the hot path.
//
// Export is the Chrome trace_event JSON format: load the file in
// chrome://tracing or https://ui.perfetto.dev to see per-thread span nests,
// per-job async tracks and instant decision markers on one timeline.
//
// Determinism contract: tracing OBSERVES, it never participates. Enabling
// or disabling it must not change any partition output (pinned by the
// golden-determinism tests).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace ppnpart::support {

/// One recorded event. Plain data on purpose: recording copies it into the
/// ring without allocating.
struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 6;
  static constexpr std::size_t kDetailBytes = 64;

  enum class Kind : std::uint8_t {
    kSpan,        // complete span: ts_us + dur_us   (chrome ph "X")
    kInstant,     // point event                     (chrome ph "i")
    kAsyncBegin,  // cross-thread span open, by id   (chrome ph "b")
    kAsyncEnd,    // cross-thread span close, by id  (chrome ph "e")
  };

  struct Arg {
    const char* key = nullptr;  // static or interned string; null = unused
    std::int64_t value = 0;
  };

  const char* cat = nullptr;   // static or interned string
  const char* name = nullptr;  // static or interned string
  std::uint64_t ts_us = 0;     // microseconds since the tracer's epoch
  std::uint64_t dur_us = 0;    // kSpan only
  std::uint64_t id = 0;        // correlation id (job id, ...); 0 = none
  std::uint32_t tid = 0;       // dense per-thread id (Tracer::current_tid)
  Kind kind = Kind::kSpan;
  Arg args[kMaxArgs] = {};
  char detail[kDetailBytes] = {};  // optional free text, truncated, NUL-safe

  /// Appends an integer arg; silently dropped past kMaxArgs.
  void add_arg(const char* key, std::int64_t value) {
    for (Arg& a : args) {
      if (a.key == nullptr) {
        a = Arg{key, value};
        return;
      }
    }
  }

  /// Copies (and truncates) free text into `detail`.
  void set_detail(std::string_view text) {
    const std::size_t n = text.size() < kDetailBytes - 1 ? text.size()
                                                         : kDetailBytes - 1;
    std::memcpy(detail, text.data(), n);
    detail[n] = '\0';
  }
};

/// Returns a stable, never-freed copy of `name` for use as a TraceEvent
/// name/cat/arg key. Intended for small closed sets (partitioner registry
/// names); every distinct string is retained for the process lifetime.
const char* intern_name(std::string_view name);

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 14;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer every ScopedSpan/trace_instant records into.
  static Tracer& global();

  /// Runtime switch. Enabling reserves the ring, so a span's (noexcept)
  /// destructor never allocates it.
  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since this tracer's construction (monotonic).
  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Small dense id of the calling thread (stable for the thread lifetime).
  static std::uint32_t current_tid();

  /// Records an event (timestamps/tid must already be filled in) under the
  /// ring's mutex. Recording while disabled is allowed (tests use it); the
  /// first record() on a never-enabled tracer reserves the ring. The public
  /// helpers all early-out on enabled() before building the event.
  void record(const TraceEvent& ev);

  /// Copy of the ring's events, oldest first (sorted by timestamp, then
  /// tid): the newest capacity() recorded.
  std::vector<TraceEvent> snapshot() const;

  /// Drops every recorded event (the epoch is unchanged).
  void clear();

  std::size_t capacity() const { return capacity_; }
  /// Events recorded over the tracer lifetime (monotonic, includes
  /// overwritten ones).
  std::uint64_t recorded() const;
  /// Events lost to ring wraparound so far.
  std::uint64_t overwritten() const {
    const std::uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// Writes the ring as Chrome trace_event JSON ({"traceEvents": [...]}),
  /// loadable in chrome://tracing and Perfetto.
  void write_chrome_trace(std::ostream& out) const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Grows to capacity_ by push_back, then event n lands in slot
  /// n % capacity_. Guarded by mutex_, like recorded_.
  std::vector<TraceEvent> ring_;
  std::uint64_t recorded_ = 0;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span over the global tracer: records one complete event covering
/// construction..destruction when tracing is enabled AT CONSTRUCTION (the
/// decision is latched so a mid-span toggle cannot record a half-built
/// event). When disabled, construction costs one relaxed load: the event is
/// built only for an active span.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name, std::uint64_t id = 0)
      : active_(Tracer::global().enabled()) {
    if (active_) {
      std::construct_at(&ev_, TraceEvent{.cat = cat,
                                         .name = name,
                                         .ts_us = Tracer::global().now_us(),
                                         .id = id,
                                         .tid = Tracer::current_tid()});
    }
  }
  ~ScopedSpan() {
    if (!active_) return;
    Tracer& t = Tracer::global();
    ev_.dur_us = t.now_us() - ev_.ts_us;
    t.record(ev_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  void arg(const char* key, std::int64_t value) {
    if (active_) ev_.add_arg(key, value);
  }
  void detail(std::string_view text) {
    if (active_) ev_.set_detail(text);
  }

 private:
  union {
    TraceEvent ev_;  // alive only while active_
  };
  bool active_;
};

/// Records a point event (decision records, markers).
void trace_instant(const char* cat, const char* name, std::uint64_t id = 0,
                   std::initializer_list<TraceEvent::Arg> args = {},
                   std::string_view detail = {});

/// Cross-thread span: begin/end are matched by (cat, name, id) by the
/// viewer, so the pair may come from different threads (e.g. a job admitted
/// on the client thread and finalized on a pool worker).
void trace_async_begin(const char* cat, const char* name, std::uint64_t id,
                       std::initializer_list<TraceEvent::Arg> args = {},
                       std::string_view detail = {});
void trace_async_end(const char* cat, const char* name, std::uint64_t id,
                     std::initializer_list<TraceEvent::Arg> args = {},
                     std::string_view detail = {});

}  // namespace ppnpart::support

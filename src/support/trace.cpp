#include "support/trace.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <string>
#include <type_traits>
#include <unordered_set>

// ThreadSanitizer detection: GCC defines __SANITIZE_THREAD__, clang exposes
// it through __has_feature.
#if defined(__SANITIZE_THREAD__)
#define PPN_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PPN_TSAN_ENABLED 1
#endif
#endif
#ifndef PPN_TSAN_ENABLED
#define PPN_TSAN_ENABLED 0
#endif

namespace ppnpart::support {

namespace {

#if PPN_TSAN_ENABLED
// The seqlock's payload copies are deliberate data races: record() writes
// `slot.ev` while snapshot() speculatively reads it, and the seq recheck
// discards any torn read. That design is invisible to TSan, which (rightly,
// per the C++ memory model) reports the plain conflicting accesses. Under
// TSan builds only, copy the payload as relaxed atomic words instead: the
// same bytes move, no ordering claims are added (the seqlock's
// acquire/release on `seq` still provides them), and every access TSan sees
// is atomic. Normal builds keep the plain copy, a memcpy per recorded event.
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent is copied word-by-word under TSan");
static_assert(sizeof(TraceEvent) % sizeof(std::uint64_t) == 0,
              "TraceEvent must be whole 64-bit words (pad if it grows)");
static_assert(alignof(TraceEvent) >= alignof(std::uint64_t),
              "TraceEvent words must be naturally aligned for atomic_ref");

void relaxed_word_copy(TraceEvent& dst, const TraceEvent& src) {
  // atomic_ref requires mutable access even for loads until C++26; the
  // source object is never actually written through this cast.
  auto* d = reinterpret_cast<std::uint64_t*>(&dst);
  auto* s = reinterpret_cast<std::uint64_t*>(const_cast<TraceEvent*>(&src));
  for (std::size_t i = 0; i < sizeof(TraceEvent) / sizeof(std::uint64_t);
       ++i) {
    std::atomic_ref<std::uint64_t>(d[i]).store(
        std::atomic_ref<std::uint64_t>(s[i]).load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
}
#endif  // PPN_TSAN_ENABLED

/// Copies a trace payload in or out of a ring slot. Plain assignment in
/// normal builds; relaxed atomic words under TSan (see above).
void copy_payload(TraceEvent& dst, const TraceEvent& src) {
#if PPN_TSAN_ENABLED
  relaxed_word_copy(dst, src);
#else
  dst = src;
#endif
}

}  // namespace

const char* intern_name(std::string_view name) {
  static std::mutex mutex;
  static std::unordered_set<std::string>* pool =
      new std::unordered_set<std::string>();  // leaked: interned strings must
                                              // outlive every static tracer
  std::lock_guard<std::mutex> lock(mutex);
  return pool->emplace(name).first->c_str();
}

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<Slot[]>(capacity == 0 ? 1 : capacity)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::global() {
  // Leaked like ThreadPool::global(): destructors of other statics may still
  // record during shutdown.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::set_enabled(bool on) {
#ifdef PPN_TRACE_DISABLED
  (void)on;
#else
  enabled_.store(on, std::memory_order_relaxed);
#endif
}

std::uint32_t Tracer::current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void Tracer::record(const TraceEvent& ev) {
  const std::uint64_t n = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[n % capacity_];
  // Per-slot seqlock. Two writers meet on one slot only when the ring laps
  // itself mid-write (cursor advanced a full capacity while this write was
  // in flight); the loser drops its event instead of corrupting the slot.
  std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  if (seq & 1u) return;  // a lapped writer is mid-copy; drop ours
  if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed))
    return;
  copy_payload(slot.ev, ev);
  slot.seq.store(seq + 2, std::memory_order_release);
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint32_t before = slot.seq.load(std::memory_order_acquire);
      if (before == 0) break;       // never written
      if (before & 1u) continue;    // mid-write; retry
      TraceEvent ev;
      copy_payload(ev, slot.ev);
#if PPN_TSAN_ENABLED
      // TSan neither models nor allows standalone fences (GCC hard-errors
      // on atomic_thread_fence under -fsanitize=thread); an acquire on the
      // recheck load provides the same ordering for the validation.
      if (slot.seq.load(std::memory_order_acquire) == before) {
#else
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) == before) {
#endif
        out.push_back(ev);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.dur_us > b.dur_us;  // parents before children
            });
  return out;
}

void Tracer::clear() {
  for (std::size_t i = 0; i < capacity_; ++i)
    slots_[i].seq.store(0, std::memory_order_relaxed);
  cursor_.store(0, std::memory_order_relaxed);
}

namespace {

/// JSON string escaping for the few dynamic strings (detail text).
void write_escaped(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char hex[] = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

const char* phase_of(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kSpan: return "X";
    case TraceEvent::Kind::kInstant: return "i";
    case TraceEvent::Kind::kAsyncBegin: return "b";
    case TraceEvent::Kind::kAsyncEnd: return "e";
  }
  return "i";
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::vector<TraceEvent> events = snapshot();
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":";
    write_escaped(out, ev.name != nullptr ? ev.name : "?");
    out << ",\"cat\":";
    write_escaped(out, ev.cat != nullptr ? ev.cat : "?");
    out << ",\"ph\":\"" << phase_of(ev.kind) << "\",\"pid\":1,\"tid\":"
        << ev.tid << ",\"ts\":" << ev.ts_us;
    if (ev.kind == TraceEvent::Kind::kSpan) out << ",\"dur\":" << ev.dur_us;
    if (ev.kind == TraceEvent::Kind::kInstant) out << ",\"s\":\"t\"";
    if (ev.id != 0 || ev.kind == TraceEvent::Kind::kAsyncBegin ||
        ev.kind == TraceEvent::Kind::kAsyncEnd)
      out << ",\"id\":" << ev.id;
    bool have_args = ev.detail[0] != '\0';
    for (const TraceEvent::Arg& a : ev.args)
      have_args = have_args || a.key != nullptr;
    if (have_args) {
      out << ",\"args\":{";
      bool first_arg = true;
      for (const TraceEvent::Arg& a : ev.args) {
        if (a.key == nullptr) continue;
        if (!first_arg) out << ",";
        first_arg = false;
        write_escaped(out, a.key);
        out << ":" << a.value;
      }
      if (ev.detail[0] != '\0') {
        if (!first_arg) out << ",";
        out << "\"detail\":";
        write_escaped(out, ev.detail);
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

#ifndef PPN_TRACE_DISABLED

namespace {

void trace_point(TraceEvent::Kind kind, const char* cat, const char* name,
                 std::uint64_t id,
                 std::initializer_list<TraceEvent::Arg> args,
                 std::string_view detail) {
  Tracer& t = Tracer::global();
  if (!t.enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.id = id;
  ev.kind = kind;
  ev.tid = Tracer::current_tid();
  ev.ts_us = t.now_us();
  for (const TraceEvent::Arg& a : args) ev.add_arg(a.key, a.value);
  if (!detail.empty()) ev.set_detail(detail);
  t.record(ev);
}

}  // namespace

void trace_instant(const char* cat, const char* name, std::uint64_t id,
                   std::initializer_list<TraceEvent::Arg> args,
                   std::string_view detail) {
  trace_point(TraceEvent::Kind::kInstant, cat, name, id, args, detail);
}

void trace_async_begin(const char* cat, const char* name, std::uint64_t id,
                       std::initializer_list<TraceEvent::Arg> args,
                       std::string_view detail) {
  trace_point(TraceEvent::Kind::kAsyncBegin, cat, name, id, args, detail);
}

void trace_async_end(const char* cat, const char* name, std::uint64_t id,
                     std::initializer_list<TraceEvent::Arg> args,
                     std::string_view detail) {
  trace_point(TraceEvent::Kind::kAsyncEnd, cat, name, id, args, detail);
}

#endif  // PPN_TRACE_DISABLED

}  // namespace ppnpart::support

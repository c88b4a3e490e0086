#include "support/trace.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_set>

namespace ppnpart::support {

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
      epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::global() {
  // Leaked like ThreadPool::global(): destructors of other statics may still
  // record during shutdown.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::set_enabled(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.reserve(capacity_);
  }
  enabled_.store(on, std::memory_order_relaxed);
}

std::uint32_t Tracer::current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void Tracer::record(const TraceEvent& ev) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.reserve(capacity_);  // a no-op once reserved
    ring_.push_back(ev);
  } else {
    ring_[recorded_ % capacity_] = ev;
  }
  ++recorded_;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = ring_;
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
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  recorded_ = 0;
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
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

}  // namespace ppnpart::support

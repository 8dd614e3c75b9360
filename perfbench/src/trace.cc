#include "perfbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

namespace {
thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

uint32_t ThreadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
}
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<uint64_t, double> Tracer::PerRequestMs(const std::string& name) const {
  std::map<uint64_t, double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out[s.request] += (s.end_ns - s.start_ns) / 1e6;
  }
  return out;
}

std::map<std::string, LayerSummary> Tracer::Summarize() const {
  std::vector<SpanRecord> spans = Snapshot();
  // Children of one span run on its thread and nest inside it, so the time
  // they cover is the sum of their durations.
  std::map<uint64_t, double> child_ms;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += (s.end_ns - s.start_ns) / 1e6;
  }
  std::map<std::string, LayerSummary> out;
  for (const SpanRecord& s : spans) {
    LayerSummary& l = out[s.name];
    const double ms = (s.end_ns - s.start_ns) / 1e6;
    l.count += 1;
    l.total_ms += ms;
    auto it = child_ms.find(s.id);
    l.self_ms += ms - (it == child_ms.end() ? 0.0 : it->second);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<SpanRecord> spans = Snapshot();
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"request\": %llu}}%s\n",
                  s.name, s.thread, (s.start_ns - origin) / 1e3,
                  (s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  rec_.name = name;
  rec_.id = tracer.next_span_.fetch_add(1) + 1;
  rec_.parent = t_current_span;
  rec_.request = request != 0 ? request : t_current_request;
  rec_.thread = ThreadTag();
  saved_parent_ = t_current_span;
  saved_request_ = t_current_request;
  t_current_span = rec_.id;
  t_current_request = rec_.request;
  rec_.start_ns = Tracer::NowNs();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = Tracer::NowNs();
  t_current_span = saved_parent_;
  t_current_request = saved_request_;
  Tracer::Get().Record(rec_);
}

}  // namespace perfbench

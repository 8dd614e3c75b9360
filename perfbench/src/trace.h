// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded around the benchmark's own calls into the program's
// public functions (no instrumentation inside the program). Each span keeps
// its name, start and end, the span that was open on the same thread when
// it started (its parent), and a request id shared by every span of one
// request. Recording is off unless Tracer::SetEnabled(true); a disabled span
// costs one relaxed load.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< 0 = outside any request
  uint32_t thread = 0;
};

/// Per-layer totals derived from the recorded spans.
struct LayerSummary {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;  ///< total minus the time covered by child spans
};

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A fresh request id (never 0).
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  void Record(const SpanRecord& span);
  std::vector<SpanRecord> Snapshot() const;

  /// Sum of the durations of spans named `name` per request, keyed by
  /// request id (requests with no such span are absent).
  std::map<uint64_t, double> PerRequestMs(const std::string& name) const;

  /// Count, total and self time of every span name.
  std::map<std::string, LayerSummary> Summarize() const;

  /// Write every span as Chrome trace-event JSON (opens in Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

  static int64_t NowNs();

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_request_{0};
  std::atomic<uint64_t> next_span_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_

  friend class Span;
};

/// RAII span. The request id is inherited from the enclosing span on the
/// same thread unless one is given.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when the span is being recorded (tracing was on at its start).
  bool active() const { return active_; }

 private:
  bool active_ = false;
  SpanRecord rec_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

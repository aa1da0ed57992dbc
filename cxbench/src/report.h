// Measurement plumbing shared by the load generator: exact sample
// statistics, the metric report, the benchmark's own span log, and a
// parser for the server's METRICS exposition.
#ifndef CXBENCH_REPORT_H_
#define CXBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cxbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double UsSince(Clock::time_point a) { return UsBetween(a, Clock::now()); }

/// Raw samples with exact order statistics (no bucketing, so run-to-run
/// spreads reflect the system, not a histogram's resolution).
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Merge(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The highest of p99/p95/p90/p50 that keeps at least ten
  /// samples beyond it; `*q_out` receives the quantile used.
  double Tail(double* q_out) const;

 private:
  void Sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// How many observations the value summarises.
  size_t samples = 0;
  std::string note;
};

/// Named metrics in insertion order; the last Add of a name wins.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1, const std::string& note = "");
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// One timed region of the benchmark's own work. Spans of one request
/// share `request`; `parent` indexes the enclosing span in the same log.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// A per-thread, in-memory span buffer. Disabled logs record nothing
/// and cost one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}
  int Begin(const char* name, int parent = -1, uint64_t request = 0);
  void End(int id);
  /// Records a span that was timed elsewhere; returns its id.
  int Record(const char* name, Clock::time_point start, Clock::time_point end,
             int parent = -1, uint64_t request = 0);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII wrapper for SpanLog::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1,
             uint64_t request = 0)
      : log_(log), id_(log->Begin(name, parent, request)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Per-name totals over every span, with self time: each span's
/// duration minus the part of it its child spans cover.
struct SpanTotals {
  std::string name;
  size_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Writes the first `max_written` spans as JSON lines to `path` and
/// returns the totals over all of them.
std::vector<SpanTotals> WriteSpans(const std::string& path,
                                   const std::vector<const SpanLog*>& logs,
                                   size_t max_written);

/// One scrape of the server's METRICS text exposition.
struct Exposition {
  /// Counters and gauges by name.
  std::map<std::string, double> scalars;
  /// Histograms by name: per-bucket (non-cumulative) counts, indexed as
  /// obs::Histogram buckets.
  std::map<std::string, std::vector<uint64_t>> histograms;

  static Exposition Parse(const std::string& text);
  double Scalar(const std::string& name) const;
};

/// Adds the change between two scrapes of one server to `*sum`.
void AccumulateDelta(Exposition* sum, const Exposition& before,
                     const Exposition& after);

/// Quantile `q` of histogram `name` in `e` (log-interpolated inside the
/// bucket, like obs::Histogram); 0 when it is empty. `*count` receives
/// the number of observations.
double HistogramQuantile(const Exposition& e, const std::string& name,
                         double q, uint64_t* count = nullptr);

/// Minimal JSON string escaping for names and notes.
std::string JsonString(const std::string& s);

}  // namespace cxbench

#endif  // CXBENCH_REPORT_H_

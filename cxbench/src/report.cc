#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"

namespace cxbench {

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  Sort();
  double rank = q * static_cast<double>(values_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::Tail(double* q_out) const {
  double chosen = 0.5;
  for (double q : {0.99, 0.95, 0.9}) {
    if (static_cast<double>(values_.size()) * (1.0 - q) >= 10.0) {
      chosen = q;
      break;
    }
  }
  if (q_out != nullptr) *q_out = chosen;
  return Quantile(chosen);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples,
                 const std::string& note) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples, note};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples, note});
}

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int SpanLog::Begin(const char* name, int parent, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = parent;
  span.request = request;
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

int SpanLog::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, int parent, uint64_t request) {
  if (!enabled_) return -1;
  auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  spans_.push_back(Span{name, ns(start), ns(end), parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

std::vector<SpanTotals> WriteSpans(const std::string& path,
                                   const std::vector<const SpanLog*>& logs,
                                   size_t max_written) {
  std::map<std::string, SpanTotals> totals;
  size_t written = 0;
  std::FILE* out = std::fopen(path.c_str(), "w");
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    // Children of each span, as [start, end) intervals, to subtract the
    // covered part of the parent (children of one span may overlap when
    // a parent fans out, so the union is what counts).
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end_ns > 0) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                             s.end_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns == 0) continue;
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t cursor = s.start_ns;
      for (const auto& [b, e] : kids) {
        int64_t lo = std::max(b, cursor);
        int64_t hi = std::min(e, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
      double total_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      double self_us = total_us - static_cast<double>(covered) / 1e3;
      SpanTotals& agg = totals[s.name];
      agg.name = s.name;
      ++agg.count;
      agg.total_us += total_us;
      agg.self_us += self_us;
      if (out != nullptr && written < max_written) {
        ++written;
        std::fprintf(out,
                     "{\"thread\":%zu,\"id\":%zu,\"name\":\"%s\",\"start_ns\":"
                     "%lld,\"end_ns\":%lld,\"parent\":%d,\"request\":%llu,"
                     "\"self_us\":%.3f}\n",
                     t, i, s.name, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.parent,
                     static_cast<unsigned long long>(s.request), self_us);
      }
    }
  }
  if (out != nullptr) std::fclose(out);
  std::vector<SpanTotals> result;
  for (auto& [name, agg] : totals) result.push_back(agg);
  return result;
}

Exposition Exposition::Parse(const std::string& text) {
  Exposition e;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string key = line.substr(0, space);
    double value = std::strtod(line.c_str() + space + 1, nullptr);
    size_t brace = key.find("_bucket{le=\"");
    if (brace != std::string::npos) {
      std::string name = key.substr(0, brace);
      std::string le = key.substr(brace + 12);
      if (!le.empty()) le.pop_back();  // '"'
      if (!le.empty() && le.back() == '"') le.pop_back();
      if (le == "+Inf") continue;
      double upper = std::strtod(le.c_str(), nullptr);
      long index = std::lround(
          (std::log2(upper) - cxml::obs::Histogram::kMinExponent) *
          cxml::obs::Histogram::kBucketsPerOctave) -
          1;
      if (index < 0 ||
          index >= static_cast<long>(cxml::obs::Histogram::kNumBuckets)) {
        continue;
      }
      auto& buckets = e.histograms[name];
      if (buckets.empty()) {
        buckets.assign(cxml::obs::Histogram::kNumBuckets, 0);
      }
      // The exposition is cumulative; store the running total here and
      // difference it below.
      buckets[static_cast<size_t>(index)] = static_cast<uint64_t>(value);
      continue;
    }
    e.scalars[key] = value;
  }
  for (auto& [name, buckets] : e.histograms) {
    uint64_t prev = 0;
    for (uint64_t& b : buckets) {
      if (b == 0) continue;  // elided (empty) bucket
      uint64_t cumulative = b;
      b = cumulative - prev;
      prev = cumulative;
    }
  }
  return e;
}

double Exposition::Scalar(const std::string& name) const {
  auto it = scalars.find(name);
  return it == scalars.end() ? 0.0 : it->second;
}

void AccumulateDelta(Exposition* sum, const Exposition& before,
                     const Exposition& after) {
  for (const auto& [name, value] : after.scalars) {
    sum->scalars[name] += value - before.Scalar(name);
  }
  for (const auto& [name, buckets] : after.histograms) {
    auto& total = sum->histograms[name];
    if (total.empty()) total.assign(buckets.size(), 0);
    auto was = before.histograms.find(name);
    for (size_t i = 0; i < buckets.size(); ++i) {
      uint64_t prior = was == before.histograms.end() ? 0 : was->second[i];
      if (buckets[i] > prior) total[i] += buckets[i] - prior;
    }
  }
}

double HistogramQuantile(const Exposition& e, const std::string& name,
                         double q, uint64_t* count) {
  using cxml::obs::Histogram;
  auto it = e.histograms.find(name);
  uint64_t total = 0;
  if (it != e.histograms.end()) {
    for (uint64_t c : it->second) total += c;
  }
  if (count != nullptr) *count = total;
  if (total == 0) return 0;
  const std::vector<uint64_t>& buckets = it->second;
  uint64_t target = static_cast<uint64_t>(static_cast<double>(total) * q);
  if (target >= total) target = total - 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] > target) {
      double fraction =
          (static_cast<double>(target - seen) + 0.5) / buckets[i];
      double lo = std::log2(Histogram::LowerBound(i));
      double hi = std::log2(Histogram::UpperBound(i));
      return std::exp2(lo + (hi - lo) * fraction);
    }
    seen += buckets[i];
  }
  return Histogram::LowerBound(Histogram::kNumBuckets - 1);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace cxbench

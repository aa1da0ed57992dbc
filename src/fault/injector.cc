#include "fault/injector.h"

#include <cstdio>
#include <cstdlib>

namespace cxml::fault {
namespace {

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

std::vector<std::string> SplitColons(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t colon = text.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
}

}  // namespace

Injector::Injector(uint64_t seed, obs::Registry* registry)
    : rng_(seed), seed_(seed) {
  if (registry == nullptr) registry = obs::Registry::Global();
  fired_counter_ = registry->GetCounter("cxml_fault_fired_total");
  armed_gauge_ = registry->GetGauge("cxml_fault_armed");
}

const std::vector<std::string>& Injector::KnownPoints() {
  static const std::vector<std::string>* kPoints =
      new std::vector<std::string>{
          "wal.fsync",      "wal.append_torn",    "net.accept",
          "net.read_drop",  "net.write_stall_ms", "follower.apply",
      };
  return *kPoints;
}

Status Injector::ParseSpec(const std::string& spec, Schedule* out) {
  std::vector<std::string> parts = SplitColons(spec);
  out->spec = spec;
  if (parts[0] == "prob") {
    if (parts.size() < 2 || parts.size() > 3 ||
        !ParseDouble(parts[1], &out->probability) ||
        out->probability < 0.0 || out->probability > 1.0) {
      return status::InvalidArgument("fault spec: want prob:P[:value], P in [0,1], got '" +
                                     spec + "'");
    }
    out->kind = Schedule::Kind::kProb;
    if (parts.size() == 3 && !ParseU64(parts[2], &out->value)) {
      return status::InvalidArgument("fault spec: bad value in '" + spec + "'");
    }
    return Status::Ok();
  }
  if (parts[0] == "every") {
    if (parts.size() < 2 || parts.size() > 3 ||
        !ParseU64(parts[1], &out->period) || out->period == 0) {
      return status::InvalidArgument(
          "fault spec: want every:N[:value], N >= 1, got '" + spec + "'");
    }
    out->kind = Schedule::Kind::kEveryNth;
    if (parts.size() == 3 && !ParseU64(parts[2], &out->value)) {
      return status::InvalidArgument("fault spec: bad value in '" + spec + "'");
    }
    return Status::Ok();
  }
  if (parts[0] == "once") {
    if (parts.size() > 2) {
      return status::InvalidArgument("fault spec: want once[:value], got '" +
                                     spec + "'");
    }
    out->kind = Schedule::Kind::kOnce;
    if (parts.size() == 2 && !ParseU64(parts[1], &out->value)) {
      return status::InvalidArgument("fault spec: bad value in '" + spec + "'");
    }
    return Status::Ok();
  }
  return status::InvalidArgument(
      "fault spec: want prob:|every:|once|off, got '" + spec + "'");
}

Status Injector::Arm(const std::string& point, const std::string& spec) {
  bool known = false;
  for (const std::string& p : KnownPoints()) {
    if (p == point) {
      known = true;
      break;
    }
  }
  if (!known) {
    return status::InvalidArgument("unknown fault point '" + point + "'");
  }
  if (spec == "off") {
    Disarm(point);
    return Status::Ok();
  }
  Schedule sched;
  CXML_RETURN_IF_ERROR(ParseSpec(spec, &sched));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = points_.insert_or_assign(point, std::move(sched));
  (void)it;
  if (inserted) armed_.fetch_add(1, std::memory_order_relaxed);
  armed_gauge_->Set(static_cast<int64_t>(points_.size()));
  return Status::Ok();
}

bool Injector::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  if (points_.erase(point) == 0) return false;
  armed_.fetch_sub(1, std::memory_order_relaxed);
  armed_gauge_->Set(static_cast<int64_t>(points_.size()));
  return true;
}

bool Injector::HasSchedule(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  return points_.count(point) > 0;
}

void Injector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  armed_.store(0, std::memory_order_relaxed);
  armed_gauge_->Set(0);
}

void Injector::Reseed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  rng_.seed(seed);
}

uint64_t Injector::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

std::vector<std::string> Injector::Describe() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> lines;
  lines.reserve(points_.size());
  for (const auto& [point, sched] : points_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s %s evals=%llu fired=%llu",
                  point.c_str(), sched.spec.c_str(),
                  static_cast<unsigned long long>(sched.evals),
                  static_cast<unsigned long long>(sched.fired));
    lines.emplace_back(buf);
  }
  return lines;
}

uint64_t Injector::fired_total() const { return fired_counter_->Value(); }

Fired Injector::Evaluate(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return {};
  Schedule& sched = it->second;
  ++sched.evals;
  bool fire = false;
  switch (sched.kind) {
    case Schedule::Kind::kProb: {
      std::uniform_real_distribution<double> dist(0.0, 1.0);
      fire = dist(rng_) < sched.probability;
      break;
    }
    case Schedule::Kind::kEveryNth:
      fire = sched.evals % sched.period == 0;
      break;
    case Schedule::Kind::kOnce:
      fire = !sched.spent;
      sched.spent = true;
      break;
  }
  if (!fire) return {};
  ++sched.fired;
  fired_counter_->Add();
  return Fired{true, sched.value};
}

}  // namespace cxml::fault

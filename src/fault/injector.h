#ifndef CXML_FAULT_INJECTOR_H_
#define CXML_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace cxml::fault {

/// Outcome of evaluating a fault point: whether it fired, plus the
/// schedule's optional integer payload (a torn-write byte offset, a
/// write-stall duration in ms, ...). `value` is 0 when the armed
/// schedule carries none.
struct Fired {
  bool fired = false;
  uint64_t value = 0;
  explicit operator bool() const { return fired; }
};

/// Deterministic fault-injection seam.
///
/// Production code holds an `Injector*` that is null (or disarmed) in
/// normal operation; every instrumented site costs one null check plus
/// one relaxed atomic load — see `Injector::Check`. Tests, the
/// `cxml_serverd --fault` flags, and the CXP/1 `FAULT` verb arm named
/// points with schedules drawn from a seeded RNG, so a failing chaos
/// run reproduces from its seed alone.
///
/// Spec grammar (one schedule per point):
///   prob:P[:value]   fire each evaluation with probability P in [0,1]
///   every:N[:value]  fire on every Nth evaluation (N >= 1)
///   once[:value]     fire exactly once, on the next evaluation
///   off              disarm the point
///
/// The canonical points wired through the stack (Arm rejects names
/// outside this list so a typo'd FAULT command fails loudly):
///   wal.fsync          SegmentWriter::Fsync fails with EIO
///   wal.append_torn    SegmentWriter::Append writes only `value` bytes
///                      of the frame, then fails (simulated crash mid-
///                      record; value beyond the frame means "all")
///   net.accept         Server drops an accepted connection immediately
///   net.read_drop      Server closes a connection instead of reading
///   net.write_stall_ms Server sleeps `value` ms before flushing output
///   follower.apply     Follower fails applying one replicated record
class Injector {
 public:
  explicit Injector(uint64_t seed = 1,
                    obs::Registry* registry = nullptr);
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Arms `point` with `spec` (replacing any existing schedule), or
  /// disarms it when spec is "off". InvalidArgument on unknown point
  /// or malformed spec.
  Status Arm(const std::string& point, const std::string& spec);

  /// Disarms one point; returns false if it was not armed.
  bool Disarm(const std::string& point);

  /// Disarms every point (does not reset the RNG).
  void DisarmAll();

  /// Resets the RNG stream. Applies to subsequent prob: draws.
  void Reseed(uint64_t seed);
  uint64_t seed() const;

  /// One line per armed point: "<point> <spec> evals=<n> fired=<n>".
  std::vector<std::string> Describe() const;

  /// Total fires across all points since construction.
  uint64_t fired_total() const;

  /// Evaluates `point`'s schedule. Only called once `Check` has seen a
  /// nonzero armed count; takes the injector lock.
  Fired Evaluate(const std::string& point);

  static const std::vector<std::string>& KnownPoints();

  /// Whether `point` has a schedule, read without evaluating it (no
  /// draw, no eval count): lets a site route work to where the fault
  /// may act before the work reaches the point itself. The same
  /// lock-free gate as Check when nothing is armed.
  static bool Armed(Injector* injector, const char* point) {
    return injector != nullptr &&
           injector->armed_.load(std::memory_order_relaxed) != 0 &&
           injector->HasSchedule(point);
  }

  /// The hot-path gate every instrumented site goes through. When no
  /// injector is attached or nothing is armed this is a null check
  /// plus one relaxed load — no lock, no allocation, no string work.
  static Fired Check(Injector* injector, const char* point) {
    if (injector == nullptr ||
        injector->armed_.load(std::memory_order_relaxed) == 0) {
      return {};
    }
    return injector->Evaluate(point);
  }

 private:
  struct Schedule {
    enum class Kind { kProb, kEveryNth, kOnce };
    Kind kind = Kind::kOnce;
    double probability = 0.0;
    uint64_t period = 1;
    uint64_t value = 0;
    uint64_t evals = 0;
    uint64_t fired = 0;
    bool spent = false;
    std::string spec;
  };

  static Status ParseSpec(const std::string& spec, Schedule* out);
  bool HasSchedule(const std::string& point) const;

  mutable std::mutex mu_;
  std::mt19937_64 rng_;
  uint64_t seed_;
  std::map<std::string, Schedule> points_;
  /// Count of armed points, readable without the lock.
  std::atomic<uint64_t> armed_{0};
  obs::Counter* fired_counter_;
  obs::Gauge* armed_gauge_;
};

}  // namespace cxml::fault

#endif  // CXML_FAULT_INJECTOR_H_

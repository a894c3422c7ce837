// Shared vocabulary of the end-to-end benchmark: options, metric sets,
// correctness checker, clocks, allocation counters, statistics and
// input hashing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/events/event_packet.hpp"
#include "src/trackers/track.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic wall clock in nanoseconds.
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Heap allocations since process start, all threads (see alloc_count.cpp).
std::uint64_t allocsTotal();
/// Heap allocations made by the calling thread since it started.
std::uint64_t allocsThisThread();

/// Deliberate faults in the system under measurement, used by the
/// self-test to prove that the correctness checks are live.
enum class Perturb {
  kNone,
  kDropWindow,  ///< the feeding thread withholds one window
  kAlterTrack,  ///< a pipeline appends a bogus box to one window's tracks
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< seconds-scale inputs for the self-test
  Perturb perturb = Perturb::kNone;
  std::string resultsDir;  ///< where the result record and spans go
  std::string sourceId;    ///< commit or source hash, from run.py
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion order; set() overwrites an existing name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Collects correctness failures from any thread.  The first few are
/// printed to stderr; the run reports correct=false and exits non-zero.
class Checker {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t failures() const;
  [[nodiscard]] std::uint64_t checks() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t failures_ = 0;
  std::uint64_t checks_ = 0;
};

/// What a workload run hands back to main().
struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics endToEnd;  ///< untraced run
  Metrics layers;    ///< traced run
  /// Input properties (events/window, alpha, beta, ...), always reported.
  Metrics inputs;
  std::uint64_t inputFingerprint = 0;
  /// Throughput of every measured pass (windows/s), for the record.
  std::vector<double> passWindowsPerS;
  std::string spansTsv;  ///< last traced pass, written next to the result
};

/// 64-bit FNV-1a over raw bytes; the input fingerprint and track digests.
class Fnv {
 public:
  void add(const void* data, std::size_t n);
  template <typename T>
  void addValue(const T& v) {
    add(&v, sizeof(T));
  }
  void addTracks(const ebbiot::Tracks& tracks);
  /// Coordinates and timestamps of every event (polarity is ignored, as
  /// the latch readout ignores it).
  void addEvents(const ebbiot::EventPacket& packet);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// a / b, or 0 when b is 0 (an idle layer reads 0).
[[nodiscard]] inline double ratioOf(double a, double b) {
  return b != 0.0 ? a / b : 0.0;
}

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Set-up samples in pass order: the median over consecutive blocks of 8
/// samples of each block's fastest (a trailing partial block counts only
/// when there is no full one).  A set-up is mostly cold-cache warm-up, which
/// a slow spell of the shared host slows by up to half, and spells come and
/// go every few passes: the plain median flips between the fast and slow
/// level with whichever covered more of the run, the fastest of a few
/// neighbouring passes does not, and the median over blocks ignores a
/// single lucky pass.
[[nodiscard]] double medianOfBlockMinima(const std::vector<double>& samples);

/// Times of passes that each serve the same items (windows, rounds or
/// frames) in the same order.  An item's time is its minimum over passes,
/// and percentiles and sums are over items: a cost the program pays on the
/// same item every pass stays in the tail, while a call that landed in one
/// of the shared host's slow spells (which last seconds and slow every call
/// in them by up to a third) does not, as long as some pass served the item
/// outside one.
class ItemTimes {
 public:
  /// One pass's samples; sample k belongs to item k.
  void addPass(std::span<const double> samples);
  /// Nearest-rank percentile over items of the per-item minima.
  [[nodiscard]] double percentile(double p) const;
  /// Sum over items of the per-item minima.
  [[nodiscard]] double total() const;
  [[nodiscard]] std::size_t samples() const { return samples_; }

 private:
  std::vector<double> best_;
  std::size_t samples_ = 0;
};

/// Resident memory of this process in MB: current and high-water mark.
[[nodiscard]] double rssMb();
[[nodiscard]] double peakRssMb();
/// Trim the heap and reset the high-water mark to the current resident
/// size.
void resetPeakRss();

/// A bogus track the kAlterTrack perturbation appends.
[[nodiscard]] ebbiot::Track bogusTrack();

}  // namespace perfbench

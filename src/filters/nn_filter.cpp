#include "src/filters/nn_filter.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "src/common/error.hpp"

namespace ebbiot {

void NnFilterConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw ConfigError("NnFilterConfig: " + what);
  };
  if (width <= 0 || height <= 0) {
    fail("frame dimensions must be positive (got " + std::to_string(width) +
         "x" + std::to_string(height) + ")");
  }
  if (neighbourhood < 3 || neighbourhood % 2 == 0) {
    fail("neighbourhood p must be odd and >= 3 (got " +
         std::to_string(neighbourhood) + ")");
  }
  if (supportWindow <= 0 || supportWindow >= kMapTimeLimit / 2) {
    fail("supportWindow must lie in (0, 2^46) (got " +
         std::to_string(supportWindow) + ")");
  }
  if (timestampBits <= 0) {
    fail("timestampBits must be positive (got " +
         std::to_string(timestampBits) + ")");
  }
}

namespace {

const NnFilterConfig& validated(const NnFilterConfig& config) {
  config.validate();
  return config;
}

}  // namespace

NnFilter::NnFilter(const NnFilterConfig& config)
    : config_(validated(config)),
      stride_(static_cast<std::size_t>(config.width) +
              static_cast<std::size_t>(config.neighbourhood - 1)),
      lastT_(stride_ * (static_cast<std::size_t>(config.height) +
                        static_cast<std::size_t>(config.neighbourhood - 1)),
             kNeverFired) {}

void NnFilter::reset() {
  std::fill(lastT_.begin(), lastT_.end(), kNeverFired);
  newestT_ = kNeverFired;
}

EventPacket NnFilter::filter(const EventPacket& packet) {
  EventPacket out;
  filterInto(packet, out);
  return out;
}

void NnFilter::filterInto(const EventPacket& packet, EventPacket& out) {
  EBBIOT_ASSERT(&packet != &out);  // out.reset() below would clear the input
  EBBIOT_ASSERT(packet.isTimeSorted());
  EBBIOT_ASSERT(packet.tStart() > -kMapTimeLimit &&
                packet.tEnd() <= kMapTimeLimit);
  ops_.reset();
  out.reset(packet.tStart(), packet.tEnd());
  const std::span<const Event> events = packet.events();
  if (events.empty()) {
    return;
  }
  if (events.front().t < newestT_) {
    reset();  // time regressed: forget rather than serve "future" support
  }
  newestT_ = events.back().t;
  const int p = config_.neighbourhood;
  const int r = p / 2;
  // 64-bit values the loop reads stay in locals, and the ops add up in
  // one: a store to the int64 map may alias any 64-bit member, which
  // would force a reload per cell.
  const TimeUs window = config_.supportWindow;
  const std::size_t stride = stride_;
  TimeUs* const map = lastT_.data();
  // Survivors stream into a bulk-append span branch-free: every event is
  // stored unconditionally and the cursor advances only when supported,
  // instead of a data-dependent push() per survivor (whether a noise
  // event has support is close to a coin flip the predictor loses).
  Event* dst = out.appendBuffer(events.size()).data();
  std::size_t kept = 0;
  std::uint64_t cells = 0;
  // The patch rows are prefetched a few events ahead: far enough to cover
  // a map miss on large frames, near enough that the rows are still
  // resident when their event comes up.  A row of p cells can straddle two
  // cache lines, so both of its ends are fetched.
  constexpr std::size_t kPrefetchAhead = 8;
  for (std::size_t idx = 0; idx < events.size(); ++idx) {
    const Event& e = events[idx];
#if defined(__GNUC__) || defined(__clang__)
    if (idx + kPrefetchAhead < events.size()) {
      const Event& ahead = events[idx + kPrefetchAhead];
      const TimeUs* row = map + ahead.y * stride + ahead.x;
      for (int dy = 0; dy < p; ++dy, row += stride) {
        __builtin_prefetch(row, 0);
        __builtin_prefetch(row + p - 1, 0);
      }
    }
#endif
    EBBIOT_ASSERT(e.x < config_.width && e.y < config_.height);
    // Eq. (2) in closed form from the clamped patch bounds: one comparison
    // + one counter increment per neighbourhood cell (centre excluded).
    const int x0 = std::max(0, e.x - r);
    const int x1 = std::min(config_.width - 1, e.x + r);
    const int y0 = std::max(0, e.y - r);
    const int y1 = std::min(config_.height - 1, e.y + r);
    cells += static_cast<std::uint64_t>(x1 - x0 + 1) *
                 static_cast<std::uint64_t>(y1 - y0 + 1) -
             1;
    // The patch's top-left cell is (x, y) in padded coordinates; cells
    // outside the frame hold "never" and count for nothing.
    const TimeUs horizon = e.t - window;
    const TimeUs* row = map + e.y * stride + e.x;
    int recent = 0;
    for (int dy = 0; dy < p; ++dy, row += stride) {
      // p is small and known only at run time: unrolled, the row loop
      // spends fewer instructions per cell on its own bookkeeping.
#pragma GCC unroll 4
      for (int dx = 0; dx < p; ++dx) {
        recent += static_cast<int>(row[dx] >= horizon);
      }
    }
    TimeUs& centre = map[(e.y + r) * stride + e.x + r];
    recent -= static_cast<int>(centre >= horizon);
    centre = e.t;
    dst[kept] = e;
    kept += static_cast<std::size_t>(recent > 0);
  }
  ops_.compares += cells;
  ops_.adds += cells;
  // One Bt-bit timestamp write per event, charged as Bt bit-ops (Eq. (2)).
  ops_.memWrites +=
      static_cast<std::uint64_t>(config_.timestampBits) * events.size();
  out.commitAppended(kept);
}

std::size_t NnFilter::memoryBits() const {
  return static_cast<std::size_t>(config_.timestampBits) *
         static_cast<std::size_t>(config_.width) *
         static_cast<std::size_t>(config_.height);
}

}  // namespace ebbiot

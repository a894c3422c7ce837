#include "src/filters/nn_filter_reference.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace ebbiot {

namespace {

const NnFilterConfig& validated(const NnFilterConfig& config) {
  config.validate();
  return config;
}

}  // namespace

NnFilterReference::NnFilterReference(const NnFilterConfig& config)
    : config_(validated(config)),
      lastT_(static_cast<std::size_t>(config.width) *
                 static_cast<std::size_t>(config.height),
             0),
      fired_(lastT_.size(), 0) {}

void NnFilterReference::reset() {
  std::fill(fired_.begin(), fired_.end(), std::uint8_t{0});
  newestT_ = INT64_MIN;
}

EventPacket NnFilterReference::filter(const EventPacket& packet) {
  EventPacket out;
  filterInto(packet, out);
  return out;
}

void NnFilterReference::filterInto(const EventPacket& packet,
                                   EventPacket& out) {
  EBBIOT_ASSERT(&packet != &out);
  EBBIOT_ASSERT(packet.isTimeSorted());
  EBBIOT_ASSERT(packet.tStart() > -kMapTimeLimit &&
                packet.tEnd() <= kMapTimeLimit);
  ops_.reset();
  out.reset(packet.tStart(), packet.tEnd());
  const int r = config_.neighbourhood / 2;
  const auto bt = static_cast<std::uint64_t>(config_.timestampBits);
  const auto width = static_cast<std::size_t>(config_.width);
  for (const Event& e : packet) {
    EBBIOT_ASSERT(e.x < config_.width && e.y < config_.height);
    if (e.t < newestT_) {
      reset();  // time regressed: forget every recorded event
    }
    const int x0 = std::max(0, e.x - r);
    const int x1 = std::min(config_.width - 1, e.x + r);
    const int y0 = std::max(0, e.y - r);
    const int y1 = std::min(config_.height - 1, e.y + r);
    // Full Eq. (2) scan, metered cell by cell — no early exit, so the
    // counts equal the closed form the fast twin charges.
    bool supported = false;
    for (int yy = y0; yy <= y1; ++yy) {
      for (int xx = x0; xx <= x1; ++xx) {
        if (xx == e.x && yy == e.y) {
          continue;  // support must come from a *neighbouring* pixel
        }
        ++ops_.compares;
        ++ops_.adds;
        const std::size_t idx =
            static_cast<std::size_t>(yy) * width + static_cast<std::size_t>(xx);
        if (fired_[idx] != 0 && e.t - lastT_[idx] <= config_.supportWindow) {
          supported = true;
        }
      }
    }
    const std::size_t idx =
        static_cast<std::size_t>(e.y) * width + static_cast<std::size_t>(e.x);
    lastT_[idx] = e.t;
    fired_[idx] = 1;
    newestT_ = e.t;
    ops_.memWrites += bt;
    if (supported) {
      out.push(e);
    }
  }
}

}  // namespace ebbiot

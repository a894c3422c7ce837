#include "src/filters/refractory_filter.hpp"

#include <algorithm>
#include <string>

#include "src/common/error.hpp"

namespace ebbiot {

void RefractoryFilterConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw ConfigError("RefractoryFilterConfig: " + what);
  };
  if (width <= 0 || height <= 0) {
    fail("frame dimensions must be positive (got " + std::to_string(width) +
         "x" + std::to_string(height) + ")");
  }
  if (refractoryPeriod < 0) {
    fail("refractoryPeriod must be >= 0 (got " +
         std::to_string(refractoryPeriod) + ")");
  }
}

namespace {

const RefractoryFilterConfig& validated(const RefractoryFilterConfig& config) {
  config.validate();
  return config;
}

}  // namespace

RefractoryFilter::RefractoryFilter(const RefractoryFilterConfig& config)
    : config_(validated(config)),
      lastKept_(static_cast<std::size_t>(config.width) *
                    static_cast<std::size_t>(config.height),
                kNeverFired) {}

void RefractoryFilter::reset() {
  std::fill(lastKept_.begin(), lastKept_.end(), kNeverFired);
}

EventPacket RefractoryFilter::filter(const EventPacket& packet) {
  EventPacket out;
  filterInto(packet, out);
  return out;
}

void RefractoryFilter::filterInto(const EventPacket& packet,
                                  EventPacket& out) {
  EBBIOT_ASSERT(&packet != &out);
  EBBIOT_ASSERT(packet.isTimeSorted());
  EBBIOT_ASSERT(packet.tStart() > -kMapTimeLimit &&
                packet.tEnd() <= kMapTimeLimit);
  out.reset(packet.tStart(), packet.tEnd());
  const auto width = static_cast<std::size_t>(config_.width);
  for (const Event& e : packet) {
    EBBIOT_ASSERT(e.x < config_.width && e.y < config_.height);
    TimeUs& last = lastKept_[e.y * width + e.x];
    if (last == kNeverFired || e.t - last >= config_.refractoryPeriod) {
      last = e.t;
      out.push(e);
    }
  }
}

}  // namespace ebbiot

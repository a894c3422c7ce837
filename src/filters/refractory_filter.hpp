// Per-pixel refractory filter.
//
// A standard event-camera preprocessing stage (and a behaviour of the DAVIS
// pixel itself): after a pixel fires, further events from the same pixel
// within the refractory period are suppressed.  Used by the simulator's
// stream-mode output and available as a standalone stage; it bounds beta
// (mean fires per active pixel per frame) from above.
//
// State is one timestamp per pixel: the time of its last *kept* event, or
// kNeverFired (src/common/time.hpp), which the test checks before it
// subtracts, so "never fired" stays distinct from every legitimate time,
// including t = -1 after node-side unwrap rebasing.  Packets must lie
// inside (-kMapTimeLimit, kMapTimeLimit).
#pragma once

#include <vector>

#include "src/common/time.hpp"
#include "src/events/event_packet.hpp"

namespace ebbiot {

struct RefractoryFilterConfig {
  int width = 240;
  int height = 180;
  TimeUs refractoryPeriod = 10'000;  ///< us; 0 passes everything

  /// Throws ConfigError on non-positive dimensions or a negative period.
  void validate() const;
};

class RefractoryFilter {
 public:
  explicit RefractoryFilter(const RefractoryFilterConfig& config);

  /// Keep the first event per pixel per refractory window.  Events must be
  /// time-sorted.  Stateful across packets.
  [[nodiscard]] EventPacket filter(const EventPacket& packet);

  /// filter() into a reusable packet (capacity kept), for zero-alloc
  /// steady-state loops.  `out` must not alias `packet`.
  void filterInto(const EventPacket& packet, EventPacket& out);

  void reset();

  [[nodiscard]] const RefractoryFilterConfig& config() const {
    return config_;
  }

 private:
  RefractoryFilterConfig config_;
  std::vector<TimeUs> lastKept_;  ///< per pixel, row-major
};

}  // namespace ebbiot

// NnFilterReference — the scalar full-scan formulation of the NN-filt
// stage, retained as the differential pin for the padded-map fast path
// (src/filters/nn_filter.hpp), per the house reference-twin convention.
//
// It keeps a plain timestamp per pixel with an explicit fired/not-fired
// byte beside it (no sentinel, no padding), walks the full clamped
// p x p neighbourhood one timestamp at a time (no early exit) and
// *meters* the Eq. (2) cost as it goes: one comparison + one increment
// per visited cell, plus the Bt-bit timestamp write.  An event earlier
// than the newest recorded one clears the map first.  The fast twin
// charges the same counts in closed form; tests/test_nn_filter.cpp holds
// outputs and lastOps() bit-identical on random streams, clamped edge
// geometry and time regressions.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/events/event_packet.hpp"
#include "src/filters/nn_filter.hpp"

namespace ebbiot {

class NnFilterReference {
 public:
  explicit NnFilterReference(const NnFilterConfig& config);

  [[nodiscard]] EventPacket filter(const EventPacket& packet);

  void filterInto(const EventPacket& packet, EventPacket& out);

  void reset();

  /// Ops of the most recent filter() call.
  /// ops-model: metered — counts incremented cell by cell as the full
  /// neighbourhood scan runs; the closed-form fast twin is pinned to it.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  [[nodiscard]] const NnFilterConfig& config() const { return config_; }

 private:
  NnFilterConfig config_;
  std::vector<TimeUs> lastT_;        ///< newest time per pixel, row-major
  std::vector<std::uint8_t> fired_;  ///< explicit validity of lastT_
  TimeUs newestT_ = INT64_MIN;       ///< newest recorded time
  OpCounts ops_;
};

}  // namespace ebbiot

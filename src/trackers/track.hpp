// Track types shared by all three trackers (OT, KF, EBMS).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/geometry.hpp"

namespace ebbiot {

/// One reported track at one frame instant.
struct Track {
  std::uint32_t id = 0;      ///< stable across frames while the track lives
  BBox box;                  ///< current estimate, full-resolution px
  /// Frame-domain trackers (OT, KF, hybrid): px per frame.  EBMS: px/s,
  /// because its least-squares fit runs on event time (ebms_common.hpp).
  Vec2f velocity;
  int age = 0;               ///< frames since the track was seeded
  int hits = 0;              ///< frames with a matched measurement
  int misses = 0;            ///< consecutive frames without a measurement
  bool occluded = false;     ///< OT: currently coasting through occlusion

  friend bool operator==(const Track&, const Track&) = default;
};

using Tracks = std::vector<Track>;

}  // namespace ebbiot

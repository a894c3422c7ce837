// Ground-truth annotation types.
//
// The paper's recordings were manually annotated with tracker boxes
// (Section III-A).  Our scene generators know object poses exactly, so
// ground truth is emitted programmatically: at each evaluation instant the
// visible (frame-clipped) box of every sufficiently-visible object becomes
// a GtBox.  The same structures can be loaded/saved as CSV for interop.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/common/geometry.hpp"
#include "src/common/time.hpp"
#include "src/sim/object_models.hpp"
#include "src/sim/scene.hpp"

namespace ebbiot {

/// One annotated object at one instant.
struct GtBox {
  std::uint32_t trackId = 0;
  ObjectClass kind = ObjectClass::kCar;
  BBox box;  ///< clipped to the sensor frame

  friend bool operator==(const GtBox&, const GtBox&) = default;
};

/// All annotations for one evaluation instant.
struct GtFrame {
  TimeUs t = 0;
  std::vector<GtBox> boxes;
};

/// Full annotation track record of a recording.
struct GroundTruth {
  std::vector<GtFrame> frames;

  /// Number of distinct track ids across all frames — the weight used for
  /// cross-recording averaging in Fig. 4 ("weights correspond to the
  /// number of ground truth tracks present in a given recording").
  [[nodiscard]] std::size_t distinctTracks() const;

  /// Total number of ground-truth boxes (the recall denominator).
  [[nodiscard]] std::size_t totalBoxes() const;
};

/// Options controlling what counts as an annotatable object.
struct GtOptions {
  /// Minimum fraction of the object's area that must be inside the frame.
  float minVisibleFraction = 0.25F;
  /// Minimum visible box side in pixels.
  float minBoxSide = 2.0F;
};

/// Annotate one instant of a scene.
[[nodiscard]] GtFrame annotateScene(const SceneProvider& scene, TimeUs t,
                                    const GtOptions& options = {});

/// CSV round-trip: "t_us,track_id,class,x,y,w,h".
void writeGroundTruthCsv(std::ostream& os, const GroundTruth& gt);
[[nodiscard]] GroundTruth readGroundTruthCsv(std::istream& is);

}  // namespace ebbiot

// EBBI accumulation: events -> binary frame.
//
// Section II-A: the processor wakes every tF, reads the events latched since
// the last interrupt and forms an Event-Based Binary Image, ignoring
// polarity — one possible event per pixel.  The builder also measures the
// memory writes it performs so the pipelines can compare against the
// C_EBBI model of Eq. (1) (the "+2" term per pixel is the EBBI write plus
// the filtered-image write; the builder accounts the first of those).
#pragma once

#include "src/common/op_counter.hpp"
#include "src/ebbi/binary_image.hpp"
#include "src/events/event_packet.hpp"

namespace ebbiot {

class EbbiBuilder {
 public:
  EbbiBuilder(int width, int height);

  /// Build an EBBI from one frame-window packet into an existing image
  /// (cleared first).  Every event sets its pixel; duplicates are
  /// idempotent (the latch semantics of the sensor).  The writes also
  /// populate the image's conservative row-occupancy bitset: because the
  /// image is cleared first, the bitset (and the occupiedRowSpan() derived
  /// from it) is *exactly* the dirty row band touched by this window's
  /// events.  The image carries that band to the downstream word-parallel
  /// stages — MedianFilter, Downsampler and the CCA labeller seed their
  /// row loops from it, so quiet scenes skip untouched rows instead of
  /// rediscovering occupancy every frame.
  void buildInto(const EventPacket& packet, BinaryImage& image);

  /// Ops performed by the most recent build call.
  /// ops-model: metered — one write per latched event as it lands.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

 private:
  int width_;
  int height_;
  OpCounts ops_;
};

}  // namespace ebbiot

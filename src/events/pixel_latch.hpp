// PixelLatch — the sensor-as-memory readout kernel (Section II-A, Fig. 2).
//
// While the EBBIOT processor sleeps, a pixel that has fired is not reset,
// so at most one event per pixel survives per readout window: the first
// one.  This is the single implementation of that rule.  latchReadout()
// (src/sim/davis.hpp), the runner's front end and the node's
// PipelineSink all read windows out through it.
//
// State is one bit per pixel (rows padded to whole 64-bit words:
// 5,760 bytes at 240×180), cleared at the start of every window.  Each
// event costs its bounds check plus one branch-free append: the event is
// written unconditionally at the output cursor, and the cursor advances
// only if the pixel's bit was clear.  Survivors keep their input order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/events/event_packet.hpp"

namespace ebbiot {

class PixelLatch {
 public:
  /// Latch for a width × height sensor (both > 0).
  PixelLatch(int width, int height);

  /// Overwrite `out` with `window`'s [tStart, tEnd) and the first event
  /// of every pixel in `window`, in input order.  Every event must lie
  /// on the sensor (asserted).  `out` must not alias `window`.  Reusing
  /// `out` across windows allocates nothing once its capacity covers the
  /// largest window.
  void readoutInto(const EventPacket& window, EventPacket& out);

 private:
  int width_;
  int height_;
  std::size_t wordsPerRow_;
  std::vector<std::uint64_t> fired_;  ///< one bit per pixel, row-major
};

}  // namespace ebbiot

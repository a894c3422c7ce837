// PixelLatch — the sensor-as-memory readout kernel (Section II-A, Fig. 2).
//
// While the EBBIOT processor sleeps, a pixel that has fired is not reset,
// so at most one event per pixel survives per readout window: the first
// one.  latchPixel() below is the single implementation of that rule.
// Two writers apply it: PixelLatch reads a window out as an event packet
// — for runRecording's front end, whose frame variants share one latched
// packet per frame, and for latchReadout() (src/sim/davis.hpp) — and
// EbbiBuilder latches a window straight into the EBBI's words, which is
// why a frame pipeline gives the same result on a raw window and on its
// readout.
//
// PixelLatch's state is one bit per pixel (rows padded to whole 64-bit
// words: 5,760 bytes at 240×180), cleared at the start of every window.
// Each event costs its bounds check plus one branch-free append: the
// event is written unconditionally at the output cursor, and the cursor
// advances only if the pixel's bit was clear.  Survivors keep their
// input order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/events/event_packet.hpp"

namespace ebbiot {

/// The latch rule on one pixel of a row-major bitmask whose rows are
/// `wordsPerRow` 64-bit words (pixel x of a row is bit x % 64 of word
/// x / 64): set `e`'s bit and return 1 if it was clear — the event
/// latches — or 0 if the pixel already fired.  Branch-free; the caller
/// checks that `e` lies on the mask.
[[nodiscard]] inline std::size_t latchPixel(std::uint64_t* mask,
                                            std::size_t wordsPerRow,
                                            const Event& e) {
  std::uint64_t& word =
      mask[static_cast<std::size_t>(e.y) * wordsPerRow + (e.x >> 6)];
  const std::uint64_t bit = std::uint64_t{1} << (e.x & 63);
  const std::size_t fresh = (word & bit) == 0 ? 1 : 0;
  word |= bit;
  return fresh;
}

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

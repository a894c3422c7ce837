#include "src/events/pixel_latch.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace ebbiot {

PixelLatch::PixelLatch(int width, int height)
    : width_(width),
      height_(height),
      wordsPerRow_((static_cast<std::size_t>(width) + 63) / 64) {
  EBBIOT_ASSERT(width > 0 && height > 0);
  fired_.resize(wordsPerRow_ * static_cast<std::size_t>(height));
}

void PixelLatch::readoutInto(const EventPacket& window, EventPacket& out) {
  EBBIOT_ASSERT(&out != &window);
  std::fill(fired_.begin(), fired_.end(), std::uint64_t{0});
  out.reset(window.tStart(), window.tEnd());
  const std::span<Event> dst = out.appendBuffer(window.size());
  std::uint64_t* fired = fired_.data();
  std::size_t kept = 0;
  for (const Event& e : window) {
    EBBIOT_ASSERT(e.x < width_ && e.y < height_);
    dst[kept] = e;
    kept += latchPixel(fired, wordsPerRow_, e);
  }
  out.commitAppended(kept);
}

}  // namespace ebbiot

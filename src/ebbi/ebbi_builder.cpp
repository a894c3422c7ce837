#include "src/ebbi/ebbi_builder.hpp"

#include "src/common/error.hpp"
#include "src/events/pixel_latch.hpp"

namespace ebbiot {

EbbiBuilder::EbbiBuilder(int width, int height)
    : width_(width), height_(height) {
  EBBIOT_ASSERT(width > 0 && height > 0);
}

void EbbiBuilder::buildInto(const EventPacket& packet, BinaryImage& image) {
  EBBIOT_ASSERT(image.width() == width_ && image.height() == height_);
  std::size_t latched = 0;
  image.rewrite([&](std::uint64_t* words, std::size_t wordsPerRow) {
    for (const Event& e : packet) {
      EBBIOT_ASSERT(e.x < width_ && e.y < height_);
      latched += latchPixel(words, wordsPerRow, e);
    }
  });
  ops_.reset();
  ops_.memWrites = latched;
}

}  // namespace ebbiot

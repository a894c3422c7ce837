#include "src/ebbi/ebbi_builder.hpp"

#include "src/common/error.hpp"

namespace ebbiot {

EbbiBuilder::EbbiBuilder(int width, int height)
    : width_(width), height_(height) {
  EBBIOT_ASSERT(width > 0 && height > 0);
}

void EbbiBuilder::buildInto(const EventPacket& packet, BinaryImage& image) {
  EBBIOT_ASSERT(image.width() == width_ && image.height() == height_);
  ops_.reset();
  image.clear();
  for (const Event& e : packet) {
    EBBIOT_ASSERT(e.x < width_ && e.y < height_);
    image.set(e.x, e.y, true);
    ++ops_.memWrites;
  }
}

}  // namespace ebbiot

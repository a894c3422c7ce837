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

BinaryImage EbbiBuilder::buildWithPolarity(const EventPacket& packet,
                                           BinaryImage& onImage,
                                           BinaryImage& offImage) {
  onImage = BinaryImage(width_, height_);
  offImage = BinaryImage(width_, height_);
  BinaryImage combined(width_, height_);
  ops_.reset();
  for (const Event& e : packet) {
    EBBIOT_ASSERT(e.x < width_ && e.y < height_);
    combined.set(e.x, e.y, true);
    if (e.p == Polarity::kOn) {
      onImage.set(e.x, e.y, true);
    } else {
      offImage.set(e.x, e.y, true);
    }
    ops_.memWrites += 2;
  }
  return combined;
}

}  // namespace ebbiot

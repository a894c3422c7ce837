#include "src/common/error.hpp"
#include "src/events/pixel_latch.hpp"
#include "src/sim/davis.hpp"

namespace ebbiot {

EventPacket latchReadout(const EventPacket& packet, int width, int height) {
  EBBIOT_ASSERT(packet.isTimeSorted());
  PixelLatch latch(width, height);
  EventPacket out;
  latch.readoutInto(packet, out);
  return out;
}

}  // namespace ebbiot

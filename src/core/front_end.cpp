#include "src/core/front_end.hpp"

namespace ebbiot {

FrameFrontEnd::FrameFrontEnd(const FrontEndConfig& config)
    : config_(config),
      builder_(config.width, config.height),
      median_(config.medianPatch),
      rpn_(config.rpn),
      cca_(config.cca),
      ebbiImage_(config.width, config.height),
      filtered_(config.width, config.height) {}

const RegionProposals& FrameFrontEnd::process(const EventPacket& packet) {
  builder_.buildInto(packet, ebbiImage_);
  ops_.ebbi = builder_.lastOps();
  median_.applyInto(ebbiImage_, filtered_);
  ops_.medianFilter = median_.lastOps();
  if (config_.rpnKind == RpnKind::kHistogram) {
    proposals_ = &rpn_.propose(filtered_);
    ops_.rpn = rpn_.lastOps();
  } else {
    proposals_ = &cca_.propose(filtered_);
    ops_.rpn = cca_.lastOps();
  }
  return *proposals_;
}

}  // namespace ebbiot

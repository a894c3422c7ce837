// Shared frame-domain front end of the paper's Fig. 1 block diagram:
//
//   EventPacket -> EBBI build -> median filter -> region proposal
//                  (the latch,   (Sec. II-A)      (RPN or CCA)
//                   Sec. II-A)
//
// All six frame-domain variants of the registry (EBBIOT, EBBI+KF,
// EBBINNOT, Hybrid, EBBINNOT-Hybrid and EBBIOT-CCA) consume exactly this
// chain; they differ only in the proposer (histogram RPN or CCA), the
// optional NN region filter and the tracker back end.  One class keeps
// their front ends byte-identical by construction.  Every stage's
// measured OpCounts are recorded for the Fig. 5 resource comparison.
#pragma once

#include "src/common/op_counter.hpp"
#include "src/detect/cca.hpp"
#include "src/detect/histogram_rpn.hpp"
#include "src/ebbi/ebbi_builder.hpp"
#include "src/filters/median_filter.hpp"

namespace ebbiot {

/// Which region proposer the frame-domain front end uses.
enum class RpnKind {
  kHistogram,  ///< the paper's 1-D histogram RPN
  kCca,        ///< the future-work connected-components RPN
};

struct FrontEndConfig {
  int width = 240;
  int height = 180;
  int medianPatch = 3;  ///< p
  RpnKind rpnKind = RpnKind::kHistogram;
  HistogramRpnConfig rpn;
  CcaConfig cca;
};

/// Measured per-stage operation counts of one front-end pass.
struct FrontEndOps {
  OpCounts ebbi;
  OpCounts medianFilter;
  OpCounts rpn;

  [[nodiscard]] OpCounts total() const { return ebbi + medianFilter + rpn; }
};

/// EBBI -> median -> RPN/CCA over one frame window.
class FrameFrontEnd {
 public:
  explicit FrameFrontEnd(const FrontEndConfig& config);

  // The proposals view points into this instance's own proposer members;
  // copying would alias the source object, so front ends don't copy.
  FrameFrontEnd(const FrameFrontEnd&) = delete;
  FrameFrontEnd& operator=(const FrameFrontEnd&) = delete;

  /// Run the full chain on one window, raw or latched (the EBBI build
  /// latches it, so both give the same images, proposals and ops);
  /// returns this window's region proposals (valid until the next
  /// process() call).
  const RegionProposals& process(const EventPacket& packet);

  /// Intermediate products of the most recent window (for examples,
  /// debugging and tests).
  [[nodiscard]] const BinaryImage& lastEbbi() const { return ebbiImage_; }
  [[nodiscard]] const BinaryImage& lastFiltered() const { return filtered_; }
  [[nodiscard]] const RegionProposals& lastProposals() const {
    return *proposals_;
  }
  /// ops-model: composite — sum of the stage records below, each with its own model.
  [[nodiscard]] const FrontEndOps& lastOps() const { return ops_; }

  [[nodiscard]] const FrontEndConfig& config() const { return config_; }

 private:
  FrontEndConfig config_;
  EbbiBuilder builder_;
  MedianFilter median_;
  HistogramRpn rpn_;
  CcaLabeler cca_;
  BinaryImage ebbiImage_;
  BinaryImage filtered_;
  /// View of the active proposer's reused output vector (empty_ before the
  /// first window) — no per-frame copy or allocation.
  const RegionProposals* proposals_ = &empty_;
  RegionProposals empty_;
  FrontEndOps ops_;
};

}  // namespace ebbiot

// EBBINNOT-style NN region filter (Mohan et al., arXiv:2006.00422).
//
// The EBBINNOT line of work keeps EBBIOT's frame-domain front end (EBBI ->
// median -> RPN) but inserts a small neural network between the region
// proposer and the tracker: each proposal's EBBI patch is classified and
// distractor proposals (foliage flicker, sensor noise that survived the
// median filter) are rejected before they can seed ghost trackers.
//
// This implementation is the hardware-shaped skeleton of that stage: a
// fixed-point multilayer perceptron (int16 Q7 weights, int32 accumulators)
// over cheap EBBI patch features —
//   * a G x G occupancy grid of the proposal patch,
//   * overall fill density,
//   * normalised area and folded aspect ratio —
// with every operation metered into an OpCounts record like the other
// pipeline stages, so the Fig. 5 comparison can price the extra stage.
//
// Weights are *trained-weights-free*: the gate units are derived
// structurally (density / size / aspect detectors whose thresholds are
// spelled out in buildWeights), and the remaining hidden units carry
// low-amplitude deterministic mixing seeded from `weightSeed`.  They stand
// in for EBBINNOT's trained classifier with the same compute shape; tests
// pin the behaviour (vehicle-like patches pass, sparse noise is rejected)
// empirically on synthetic scenes.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/detect/region.hpp"
#include "src/ebbi/binary_image.hpp"

namespace ebbiot {

struct RegionFilterConfig {
  int patchGrid = 4;      ///< G: proposal patch pooled to a G x G grid
  int hiddenUnits = 8;    ///< H: MLP hidden layer width
  /// Area (px^2) of a "full-sized" object; the area feature saturates
  /// here.  Default is a ~50 x 24 px vehicle at the paper's geometry.
  float referenceArea = 1200.0F;
  std::uint32_t weightSeed = 0x9E3779B9U;  ///< deterministic mixing seed
};

/// Proposal-level NN filter between the RPN and the tracker back end.
class RegionFilter {
 public:
  explicit RegionFilter(const RegionFilterConfig& config);

  /// Classify every proposal against its patch in `ebbi` (the
  /// median-filtered binary image the proposals were cut from); returns
  /// the accepted subset, those with a positive logit, in order.
  RegionProposals apply(const BinaryImage& ebbi,
                        const RegionProposals& proposals);

  /// Q15 logit of one proposal (exposed for tests and threshold tuning).
  [[nodiscard]] std::int32_t score(const BinaryImage& ebbi,
                                   const RegionProposal& proposal);

  /// Ops of the most recent apply() call.
  /// ops-model: metered — patch fetches and MAC ops counted per scored proposal.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  /// Proposals rejected by the most recent apply() call.
  [[nodiscard]] std::size_t lastRejectedCount() const { return rejected_; }

  [[nodiscard]] const RegionFilterConfig& config() const { return config_; }

  /// Feature vector length: G*G occupancy cells + density + area + aspect.
  [[nodiscard]] int featureCount() const {
    return config_.patchGrid * config_.patchGrid + 3;
  }

 private:
  void buildWeights();
  /// Q8 features of one proposal patch (also meters the patch reads).
  void extractFeatures(const BinaryImage& ebbi, const BBox& box,
                       std::vector<std::int32_t>& features);

  RegionFilterConfig config_;
  // Layer 1: hiddenUnits x featureCount Q7 weights + Q15 biases.
  std::vector<std::int16_t> w1_;
  std::vector<std::int32_t> b1_;
  // Layer 2: 1 x hiddenUnits Q7 weights + Q15 bias.
  std::vector<std::int16_t> w2_;
  std::int32_t b2_ = 0;
  std::vector<std::int32_t> features_;
  std::vector<std::int32_t> hidden_;
  OpCounts ops_;
  std::size_t rejected_ = 0;
};

}  // namespace ebbiot

// Scalar reference implementation of connected-component labelling.
//
// This is the original pixel-at-a-time two-pass formulation with a
// union-find over provisional labels: pass 1 assigns each set pixel the
// label of its already-visited neighbours (merging when several disagree),
// pass 2 resolves labels to roots and accumulates per-component extents.
// It *meters* its operations as it goes (one compare per pixel scanned,
// one compare per in-bounds neighbour probe of a set pixel, one add per
// redundant labelled neighbour, one write per set pixel, one add per
// labelled pixel in pass 2), which makes it the ground truth the run-based
// CcaLabeler is pinned against: the fast path must produce bit-identical
// components (boxes, counts, order) and OpCounts equal to these metered
// values (see tests/test_cca_word.cpp).  It follows the same
// reference-pinning convention as MedianFilterReference and is not used in
// the steady-state pipelines.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/detect/cca.hpp"
#include "src/detect/region.hpp"
#include "src/ebbi/binary_image.hpp"

namespace ebbiot {

class CcaLabelerReference {
 public:
  explicit CcaLabelerReference(const CcaConfig& config);

  /// Label the binary image; same contract as CcaLabeler::label.
  [[nodiscard]] const std::vector<ConnectedComponent>& label(
      const BinaryImage& image);

  /// Region proposals from full-resolution labelling.
  [[nodiscard]] const RegionProposals& propose(const BinaryImage& image);

  /// Metered ops of the most recent call.
  /// ops-model: metered — every scan step counts as it runs; the fast twin's closed
  /// form is pinned to these values.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  [[nodiscard]] const CcaConfig& config() const { return config_; }

 private:
  struct UnionFind {
    std::vector<std::uint32_t> parent;
    std::uint32_t make();
    std::uint32_t find(std::uint32_t x);
    void unite(std::uint32_t a, std::uint32_t b);
  };

  struct Extent {
    int minX = 0;
    int maxX = 0;
    int minY = 0;
    int maxY = 0;
    std::size_t count = 0;
  };

  CcaConfig config_;
  OpCounts ops_;
  std::vector<std::uint32_t> labels_;
  UnionFind uf_;
  std::vector<Extent> extents_;
  std::vector<ConnectedComponent> components_;
  RegionProposals proposals_;
};

}  // namespace ebbiot

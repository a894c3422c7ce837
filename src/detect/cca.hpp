// Connected-component region proposal — the paper's future-work RPN.
//
// Section IV: "Future work will change the RPN to a general connected
// component approach [10] instead of relying on side views."  This module
// labels components *run-based and word-parallel*: each BinaryImage row is
// decomposed into maximal horizontal runs with ctz/clz bit scans over its
// 64-bit words (blank rows are skipped via the conservative row-occupancy
// bitset), and a union-find operates over runs instead of pixels — every
// run is merged against the runs of the previous row that touch it under
// 8-connectivity (column overlap with ±1 slack, so diagonal neighbours
// join).
// Component extents and pixel counts accumulate directly from run
// endpoints, so the classic second resolve pass over the label grid (and
// the grid itself) disappears; per frame the work is proportional to the
// number of *runs*, not pixels.
//
// The *reported* OpCounts stay the paper-faithful per-pixel accounting of
// the original two-pass formulation, evaluated in closed form from
// word-parallel popcounts of the neighbour bit-planes: they are pinned
// bit-identical to the metered values of the scalar CcaLabelerReference
// (src/detect/cca_reference.hpp) by differential tests, mirroring the
// MedianFilterReference convention.  Host-word parallelism changes
// wall-clock, not the abstract cost model of Fig. 5.
//
// Labelling runs directly on the full-resolution EBBI.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/detect/region.hpp"
#include "src/ebbi/binary_image.hpp"

namespace ebbiot {

struct CcaConfig {
  std::size_t minComponentPixels = 4;  ///< discard smaller components
};

/// One labelled component.
struct ConnectedComponent {
  BBox box;                 ///< tight bounding box, full image coordinates
  std::size_t pixelCount = 0;

  friend bool operator==(const ConnectedComponent&,
                         const ConnectedComponent&) = default;
};

/// Deterministic output order of labelled components: by bounding-box
/// bottom-left corner, then size, then pixel count.  Shared by CcaLabeler
/// and CcaLabelerReference so the differential tests can compare outputs
/// element-wise (components tying on every key compare equal anyway).
inline bool componentScanOrderLess(const ConnectedComponent& a,
                                   const ConnectedComponent& b) {
  if (a.box.y != b.box.y) {
    return a.box.y < b.box.y;
  }
  if (a.box.x != b.box.x) {
    return a.box.x < b.box.x;
  }
  if (a.box.w != b.box.w) {
    return a.box.w < b.box.w;
  }
  if (a.box.h != b.box.h) {
    return a.box.h < b.box.h;
  }
  return a.pixelCount < b.pixelCount;
}

class CcaLabeler {
 public:
  explicit CcaLabeler(const CcaConfig& config);

  /// Label the binary image; returns components of at least
  /// minComponentPixels pixels, in deterministic scan order (see
  /// componentScanOrderLess).  The reference is valid until the next
  /// label/propose call — the labeler reuses its scratch (run lists,
  /// union-find, extents) across calls so steady-state loops allocate
  /// nothing once warm.
  [[nodiscard]] const std::vector<ConnectedComponent>& label(
      const BinaryImage& image);

  /// Region proposals from full-resolution labelling (reference valid
  /// until the next call, like label()).
  [[nodiscard]] const RegionProposals& propose(const BinaryImage& image);

  /// Ops of the most recent call: the per-pixel two-pass accounting
  /// (neighbour probes + union merges + label writes + resolve adds),
  /// in closed form, bit-identical to CcaLabelerReference's metering.
  /// ops-model: closed-form — Eq.-style per-pixel accounting charged from word-parallel
  /// neighbour-plane popcounts; pinned against the metered reference by
  /// tests/test_cca_word.cpp.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  [[nodiscard]] const CcaConfig& config() const { return config_; }

 private:
  struct UnionFind {
    std::vector<std::uint32_t> parent;
    std::uint32_t make();
    std::uint32_t find(std::uint32_t x);
    void unite(std::uint32_t a, std::uint32_t b);
  };

  /// A labelled run: columns [begin, end) of one row.
  struct Run {
    int begin = 0;
    int end = 0;
    std::uint32_t label = 0;
  };

  struct Extent {
    int minX = 0;
    int maxX = 0;
    int minY = 0;
    int maxY = 0;
    std::size_t count = 0;
  };

  /// Closed-form two-pass accounting for one row: word-parallel popcounts
  /// of the preceding-neighbour bit-planes (W, and S/SW/SE against the
  /// previous row).  `prev` is null for the bottom image row.
  void meterRow(const std::uint64_t* cur, const std::uint64_t* prev,
                std::size_t nWords, int width);

  CcaConfig config_;
  OpCounts ops_;
  // Reused scratch + outputs (see label()).
  UnionFind uf_;
  std::vector<Run> prevRuns_;
  std::vector<Run> curRuns_;
  std::vector<Extent> extents_;
  std::vector<ConnectedComponent> components_;
  RegionProposals proposals_;
};

}  // namespace ebbiot

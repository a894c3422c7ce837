// Closed-form compute / memory models, Eqs. (1)-(8) of the paper.
//
// These are the analytic counterparts of the measured OpCounts: the paper
// argues EBBIOT's resource advantage entirely through these expressions,
// and Fig. 5 is their sum per pipeline.  Each function returns a
// CostEstimate evaluated at explicit parameters whose defaults are the
// paper's operating point (A x B = 240 x 180, p = 3, alpha = 0.1, beta = 2,
// Bt = 16, s1 = 6, s2 = 3, NT = 2 active trackers, NF = 650, CL = 2,
// gamma_merge = 0.1, CLmax = 8).
//
// Two places where the paper's printed numbers differ from its own
// formulas are modelled explicitly (README.md, "Model gaps", has the
// analysis):
//   * C_RPN: the formula (Eq. 5) gives 48.0 kops/frame at the defaults;
//     the printed "45.6 kop/frame" corresponds to charging only ONE of the
//     two histograms (A*B + A*B/(s1*s2)).  rpnCost() exposes both via
//     RpnCostParams::printedVariant.
//   * M_EBMS: Eq. (8) is stated in bits (408*CLmax + 56 = 3320 bits), but
//     the text reads it as "3.32 kB".  ebmsCost() returns the equation's
//     bits; bench_costmodels prints both readings.
#pragma once

#include <cstdint>
#include <string_view>

namespace ebbiot {

struct SensorGeometry {
  int width = 240;
  int height = 180;

  [[nodiscard]] double pixels() const {
    return static_cast<double>(width) * static_cast<double>(height);
  }
};

/// An analytic estimate: operations per frame + state memory in bits.
struct CostEstimate {
  double computesPerFrame = 0.0;
  double memoryBits = 0.0;

  [[nodiscard]] double memoryBytes() const { return memoryBits / 8.0; }
  [[nodiscard]] double memoryKB() const { return memoryBits / 8.0 / 1024.0; }

  CostEstimate& operator+=(const CostEstimate& o) {
    computesPerFrame += o.computesPerFrame;
    memoryBits += o.memoryBits;
    return *this;
  }
  friend CostEstimate operator+(CostEstimate a, const CostEstimate& b) {
    return a += b;
  }
};

// ---------------------------------------------------------------- Eq. (1)
struct EbbiCostParams {
  SensorGeometry geometry;
  int p = 3;            ///< median-filter patch size
  double alpha = 0.1;   ///< fraction of active pixels (conservative bound)
};
/// C_EBBI ~= (alpha*p^2 + 2) * A*B;  M_EBBI = 2*A*B bits.
[[nodiscard]] CostEstimate ebbiCost(const EbbiCostParams& params = {});

// ---------------------------------------------------------------- Eq. (2)
struct NnFiltCostParams {
  SensorGeometry geometry;
  int p = 3;
  int timestampBits = 16;  ///< Bt
  double alpha = 0.1;
  double beta = 2.0;       ///< mean fires per active pixel per frame
};
/// n = beta*alpha*A*B;  C_NN = (2(p^2-1) + Bt) * n;  M_NN = Bt*A*B bits.
[[nodiscard]] CostEstimate nnFiltCost(const NnFiltCostParams& params = {});

// ---------------------------------------------------------------- Eq. (5)
struct RpnCostParams {
  SensorGeometry geometry;
  int s1 = 6;
  int s2 = 3;
  /// false: the formula as written (two histogram passes).  true: the
  /// single-histogram accounting that reproduces the paper's printed
  /// 45.6 kops/frame.
  bool printedVariant = false;
};
[[nodiscard]] CostEstimate rpnCost(const RpnCostParams& params = {});

// ---------------------------------------------------------------- Eq. (6)
struct OtCostParams {
  double nT = 2.0;  ///< average number of valid trackers
  /// gamma_j * N_j residual terms (steps 3-5 of the tracker); defaults
  /// chosen to land on the paper's C_OT ~= 564 at NT = 2.
  double gamma3 = 0.1;
  double n3 = 100.0;
  double gamma4 = 0.5;
  double n4 = 20.0;
  double gamma5 = 0.1;
  double n5 = 80.0;
  int maxTrackers = 8;  ///< NT slots for the register-file memory bound
};
/// C_OT = 134*NT^2 + sum gamma_j*N_j;  memory: NT slot registers
/// (8 x 16-bit fields per tracker), "negligible (< 0.5 kB)".
[[nodiscard]] CostEstimate otCost(const OtCostParams& params = {});

// ---------------------------------------------------------------- Eq. (7)
struct KfCostParams {
  int nT = 2;  ///< tracks; state and measurement vectors are 2*NT long
};
/// C_KF = 4m^3 + 6m^2*n + 4m*n^2 + 4n^3 + 3n^2 with n = m = 2*NT.
/// Memory: state + covariance + model matrices + gain workspace as
/// doubles (~1.1 kB at NT = 2).
[[nodiscard]] CostEstimate kfCost(const KfCostParams& params = {});

// ---------------------------------------------------------------- Eq. (8)
struct EbmsCostParams {
  double nF = 650.0;        ///< events/frame after NN-filt
  double cl = 2.0;          ///< average active clusters
  double gammaMerge = 0.1;  ///< merge probability
  int clMax = 8;            ///< maximum clusters
};
/// C_EBMS = NF * [9*CL^2 + (169 + 16*gamma_merge)*CL + 11];
/// M_EBMS = 408*CLmax + 56 bits (as the equation is stated).
[[nodiscard]] CostEstimate ebmsCost(const EbmsCostParams& params = {});

// ----------------------------------------- back-end extensions (not in
// the paper; closed forms mirror the measured implementations so the
// registry variants can be priced next to Eqs. (1)-(8))

/// EBBINNOT-style NN region filter (src/detect/region_filter.hpp).
struct RegionFilterCostParams {
  double nProposals = 2.0;   ///< average proposals per frame reaching it
  double patchPixels = 800.0;  ///< average proposal patch area (px)
  int patchGrid = 4;         ///< G (features = G^2 + 3)
  int hiddenUnits = 8;       ///< H
};
/// C_RF = NP * (A_patch + 2*H*F + 3*H + G^2 + 4) with F = G^2 + 3;
/// memory: Q7 weights + Q15 biases + feature/hidden buffers.
[[nodiscard]] CostEstimate regionFilterCost(
    const RegionFilterCostParams& params = {});

/// Hybrid tracker (src/trackers/hybrid_tracker.hpp): overlap association
/// + one 4-state/2-measurement KF per track.
struct HybridTrackerCostParams {
  double nT = 2.0;          ///< average live tracks
  double nProposals = 2.0;  ///< average proposals per frame
  int maxTrackers = 8;      ///< NT slots for the memory bound
};
/// C_HT = NT * c_kf(4,2) + 6*NT*NP + NP, where c_kf(4,2) follows the
/// Eq. (7) matrix-op accounting at fixed state/measurement sizes.
[[nodiscard]] CostEstimate hybridTrackerCost(
    const HybridTrackerCostParams& params = {});

// ------------------------------------------------------------- pipelines
struct PipelineCostParams {
  EbbiCostParams ebbi;
  NnFiltCostParams nnFilt;
  RpnCostParams rpn;
  OtCostParams ot;
  KfCostParams kf;
  EbmsCostParams ebms;
  RegionFilterCostParams regionFilter;
  HybridTrackerCostParams hybrid;
};

/// EBBIOT = EBBI+median (Eq. 1) + RPN (Eq. 5) + OT (Eq. 6).
[[nodiscard]] CostEstimate ebbiotPipelineCost(
    const PipelineCostParams& params = {});
/// EBBI+KF = EBBI+median (Eq. 1) + RPN (Eq. 5) + KF (Eq. 7).
[[nodiscard]] CostEstimate ebbiKfPipelineCost(
    const PipelineCostParams& params = {});
/// EBMS pipeline = NN-filt (Eq. 2) + EBMS (Eq. 8).
[[nodiscard]] CostEstimate ebmsPipelineCost(
    const PipelineCostParams& params = {});
/// EBBINNOT = EBBI+median + RPN + NN region filter + OT.
[[nodiscard]] CostEstimate ebbinnotPipelineCost(
    const PipelineCostParams& params = {});
/// Hybrid = EBBI+median + RPN + hybrid (OT-association + KF) tracker.
[[nodiscard]] CostEstimate hybridPipelineCost(
    const PipelineCostParams& params = {});

/// Frame-based detector reference for the "> 1000X" claim (Section II-B):
/// a real-time CNN detector (YOLO-class) needs ~5.6 GFLOPs/frame and
/// > 1 GB of RAM.
[[nodiscard]] CostEstimate frameBasedDetectorReference();

/// Closed-form pipeline cost of the registry variant with this key, or
/// a zero CostEstimate when no model exists (e.g. "EBBIOT-CCA" is
/// measured-only).  The single source of truth for benches that print
/// model columns next to measured ones — keys match
/// registerBuiltinVariants().
[[nodiscard]] CostEstimate costModelForVariant(
    std::string_view variantKey, const PipelineCostParams& params = {});

}  // namespace ebbiot

// Parameterized property sweeps over the Eq. (1)-(8) cost models:
// formula identities and monotonicities that must hold at *every*
// operating point, not just the paper's.
#include <gtest/gtest.h>

#include <ostream>

#include "src/resource/cost_model.hpp"

namespace ebbiot {
namespace {

// ---------------------------------------------------------------- Eq. (1)
class EbbiCostSweep : public ::testing::TestWithParam<double> {};

TEST_P(EbbiCostSweep, FormulaIdentityAndMemoryInvariance) {
  const double alpha = GetParam();
  EbbiCostParams params;
  params.alpha = alpha;
  const CostEstimate est = ebbiCost(params);
  const double ab = 240.0 * 180.0;
  EXPECT_NEAR(est.computesPerFrame, (alpha * 9.0 + 2.0) * ab, 1e-6);
  // Memory is activity-independent: two bit-frames.
  EXPECT_NEAR(est.memoryBits, 2.0 * ab, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, EbbiCostSweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.1, 0.25,
                                           0.5, 1.0));

// ---------------------------------------------------------------- Eq. (2)
struct NnSweepCase {
  double alpha;
  double beta;
  int bt;
};

// Names the ctest case after the values; the default would print the
// struct's bytes, padding included, which differ between builds.
void PrintTo(const NnSweepCase& c, std::ostream* os) {
  *os << "alpha" << c.alpha << "_beta" << c.beta << "_bt" << c.bt;
}

class NnFiltCostSweep : public ::testing::TestWithParam<NnSweepCase> {};

TEST_P(NnFiltCostSweep, LinearInEventCount) {
  const auto& [alpha, beta, bt] = GetParam();
  NnFiltCostParams params;
  params.alpha = alpha;
  params.beta = beta;
  params.timestampBits = bt;
  const CostEstimate est = nnFiltCost(params);
  const double n = beta * alpha * 240.0 * 180.0;
  EXPECT_NEAR(est.computesPerFrame, (16.0 + bt) * n, 1e-6);
  EXPECT_NEAR(est.memoryBits, bt * 240.0 * 180.0, 1e-9);
  // The event-domain filter always stores more than the EBBI when
  // Bt > 2 (the paper's 8x claim generalised).
  EXPECT_NEAR(est.memoryBits / ebbiCost().memoryBits, bt / 2.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, NnFiltCostSweep,
    ::testing::Values(NnSweepCase{0.05, 1.0, 16}, NnSweepCase{0.1, 2.0, 16},
                      NnSweepCase{0.1, 2.0, 32}, NnSweepCase{0.2, 1.5, 8},
                      NnSweepCase{0.01, 3.0, 16}));

// ---------------------------------------------------------------- Eq. (5)
struct RpnSweepCase {
  int s1;
  int s2;
};

void PrintTo(const RpnSweepCase& c, std::ostream* os) {
  *os << c.s1 << "x" << c.s2;
}

class RpnCostSweep : public ::testing::TestWithParam<RpnSweepCase> {};

TEST_P(RpnCostSweep, ComputeDominatedByFullResolutionPass) {
  const auto& [s1, s2] = GetParam();
  RpnCostParams params;
  params.s1 = s1;
  params.s2 = s2;
  const CostEstimate est = rpnCost(params);
  const double ab = 240.0 * 180.0;
  EXPECT_NEAR(est.computesPerFrame, ab + 2.0 * ab / (s1 * s2), 1e-6);
  // The A*B downsampling read dominates for every factor > 1.
  if (s1 * s2 > 2) {
    EXPECT_GT(ab, est.computesPerFrame / 2.0);
  }
  EXPECT_GT(est.memoryBits, 0.0);
}

TEST_P(RpnCostSweep, CoarserIsNeverMoreExpensive) {
  const auto& [s1, s2] = GetParam();
  RpnCostParams fine;
  fine.s1 = s1;
  fine.s2 = s2;
  RpnCostParams coarse;
  coarse.s1 = s1 * 2;
  coarse.s2 = s2;
  EXPECT_LE(rpnCost(coarse).computesPerFrame,
            rpnCost(fine).computesPerFrame + 1e-9);
  // Memory monotonicity holds away from the degenerate (1, 1) point,
  // where Eq. (5)'s ceil(log2(s1*s2)) = 0 charges the count image
  // nothing (it *is* the binary image there).
  if (s1 * s2 > 1) {
    EXPECT_LE(rpnCost(coarse).memoryBits, rpnCost(fine).memoryBits + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, RpnCostSweep,
                         ::testing::Values(RpnSweepCase{1, 1},
                                           RpnSweepCase{2, 2},
                                           RpnSweepCase{4, 2},
                                           RpnSweepCase{6, 3},
                                           RpnSweepCase{8, 4},
                                           RpnSweepCase{12, 6}));

// ---------------------------------------------------------------- Eq. (7)
class KfCostSweep : public ::testing::TestWithParam<int> {};

TEST_P(KfCostSweep, CubicGrowthInTrackCount) {
  const int nT = GetParam();
  KfCostParams params;
  params.nT = nT;
  const double n = 2.0 * nT;
  const CostEstimate est = kfCost(params);
  EXPECT_NEAR(est.computesPerFrame,
              4.0 * n * n * n + 6.0 * n * n * n + 4.0 * n * n * n +
                  4.0 * n * n * n + 3.0 * n * n,
              1e-6);
  // Doubling the tracks costs ~8x compute (cubic), not 2x.
  if (nT <= 4) {
    KfCostParams doubled;
    doubled.nT = 2 * nT;
    const double ratio =
        kfCost(doubled).computesPerFrame / est.computesPerFrame;
    EXPECT_GT(ratio, 7.0);
    EXPECT_LT(ratio, 9.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Tracks, KfCostSweep, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------- Eq. (8)
class EbmsCostSweep : public ::testing::TestWithParam<double> {};

TEST_P(EbmsCostSweep, LinearInFilteredEvents) {
  const double nF = GetParam();
  EbmsCostParams params;
  params.nF = nF;
  const double perEvent = 9.0 * 4.0 + (169.0 + 1.6) * 2.0 + 11.0;
  EXPECT_NEAR(ebmsCost(params).computesPerFrame, nF * perEvent, 1e-6);
  // Memory depends only on CLmax, not on traffic.
  EXPECT_NEAR(ebmsCost(params).memoryBits, 408.0 * 8 + 56.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(EventRates, EbmsCostSweep,
                         ::testing::Values(0.0, 100.0, 650.0, 2'000.0,
                                           10'000.0));

// ------------------------------------------------------ crossover shape
TEST(PipelineCrossoverTest, EbmsWinsOnlyWhenScenesAreNearlyEmpty) {
  // EBBIOT's cost is ~fixed per frame; the event chain's scales with
  // activity.  The crossover must sit at very low activity — quantify
  // where.
  bool ebmsEverCheaper = false;
  double crossoverAlpha = -1.0;
  for (double alpha = 0.001; alpha <= 0.2; alpha += 0.001) {
    PipelineCostParams params;
    params.ebbi.alpha = alpha;
    params.nnFilt.alpha = alpha;
    params.nnFilt.beta = 1.5;
    params.ebms.nF = 0.3 * alpha * 240.0 * 180.0;  // post-filter share
    const double ours = ebbiotPipelineCost(params).computesPerFrame;
    const double theirs = ebmsPipelineCost(params).computesPerFrame;
    if (theirs < ours) {
      ebmsEverCheaper = true;
      crossoverAlpha = alpha;
    }
  }
  EXPECT_TRUE(ebmsEverCheaper);
  // The event chain only wins below ~2% active pixels — far below the
  // paper's surveillance operating point (alpha ~= 4-10%).
  EXPECT_LT(crossoverAlpha, 0.03);
}

}  // namespace
}  // namespace ebbiot

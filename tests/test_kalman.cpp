#include "src/trackers/kalman.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/trackers/hybrid_tracker.hpp"

namespace ebbiot {
namespace {

KalmanTrackerConfig testConfig() {
  KalmanTrackerConfig c;
  c.minHitsToReport = 2;
  c.minSeedArea = 4.0F;
  return c;
}

RegionProposals props(std::initializer_list<BBox> boxes) {
  RegionProposals out;
  for (const BBox& b : boxes) {
    out.push_back(RegionProposal{b, static_cast<std::uint64_t>(b.area())});
  }
  return out;
}

TEST(ConstantVelocityKalmanTest, InitialStateAtMeasurement) {
  ConstantVelocityKalman kf(Vec2f{10, 20}, KalmanConfig{});
  EXPECT_FLOAT_EQ(kf.position().x, 10.0F);
  EXPECT_FLOAT_EQ(kf.position().y, 20.0F);
  EXPECT_FLOAT_EQ(kf.velocity().x, 0.0F);
}

TEST(ConstantVelocityKalmanTest, ConvergesToConstantVelocity) {
  ConstantVelocityKalman kf(Vec2f{0, 0}, KalmanConfig{});
  for (int f = 1; f <= 30; ++f) {
    kf.predict();
    kf.update(Vec2f{3.0F * static_cast<float>(f),
                    -1.0F * static_cast<float>(f)});
  }
  EXPECT_NEAR(kf.velocity().x, 3.0F, 0.2F);
  EXPECT_NEAR(kf.velocity().y, -1.0F, 0.2F);
  EXPECT_NEAR(kf.position().x, 90.0F, 1.0F);
}

TEST(ConstantVelocityKalmanTest, PredictExtrapolatesLinearly) {
  ConstantVelocityKalman kf(Vec2f{0, 0}, KalmanConfig{});
  for (int f = 1; f <= 20; ++f) {
    kf.predict();
    kf.update(Vec2f{2.0F * static_cast<float>(f), 0.0F});
  }
  const float xBefore = kf.position().x;
  kf.predict();  // no measurement
  EXPECT_NEAR(kf.position().x - xBefore, 2.0F, 0.3F);
}

TEST(ConstantVelocityKalmanTest, NoisyMeasurementsSmoothed) {
  Rng rng(11);
  ConstantVelocityKalman kf(Vec2f{0, 0}, KalmanConfig{});
  double errSum = 0.0;
  double rawErrSum = 0.0;
  int n = 0;
  for (int f = 1; f <= 100; ++f) {
    kf.predict();
    const float truth = 2.0F * static_cast<float>(f);
    const float noisy = truth + static_cast<float>(rng.normal(0.0, 2.0));
    kf.update(Vec2f{noisy, 0.0F});
    if (f > 20) {
      errSum += std::abs(kf.position().x - truth);
      rawErrSum += std::abs(noisy - truth);
      ++n;
    }
  }
  // Filtered error beats raw measurement error.
  EXPECT_LT(errSum / n, rawErrSum / n);
}

TEST(ConstantVelocityKalmanTest, CovarianceShrinksWithUpdates) {
  ConstantVelocityKalman kf(Vec2f{0, 0}, KalmanConfig{});
  const double before = kf.covariance().d;  // velocity variance
  for (int f = 1; f <= 10; ++f) {
    kf.predict();
    kf.update(Vec2f{1.0F * static_cast<float>(f), 0.0F});
  }
  EXPECT_LT(kf.covariance().d, before);
}

TEST(ConstantVelocityKalmanTest, InnovationReported) {
  ConstantVelocityKalman kf(Vec2f{0, 0}, KalmanConfig{});
  kf.predict();
  kf.update(Vec2f{3, 4});
  EXPECT_NEAR(kf.lastInnovation(), 5.0, 1e-3);
}

/// One step of the pinned sequence: predict, then update when measured.
struct Step {
  bool measured;
  Vec2f z;
};

constexpr Step kSteps[] = {
    {true, {13.1F, 40.6F}}, {true, {16.4F, 39.2F}}, {false, {}},
    {true, {22.9F, 36.1F}}, {false, {}},            {false, {}},
    {true, {32.8F, 31.7F}}, {true, {35.2F, 30.3F}},
};

/// The filter after one step of kSteps, as the 4x4 matrix recursion
/// (with a Gauss-Jordan inverse of S) computed it.
struct Expected {
  Vec2f position;
  Vec2f velocity;
  ConstantVelocityKalman::Covariance x;
  ConstantVelocityKalman::Covariance y;
  double innovation;
};

// Recorded from the matrix form, started at (10, 42).  Note b != c: the
// covariance is not symmetrised.
const Expected kDefaultConfigSteps[] = {
    {{0x1.974424p+3F, 0x1.4625bap+5F},
     {0x1.305014p+1F, -0x1.12dd0cp+0F},
     {0x1.c267f099fc268p+1, 0x1.88a9622a588a9p+1, 0x1.88a9622a588bp+1,
      0x1.9c64171905c64p+2},
     {0x1.c267f099fc268p+1, 0x1.88a9622a588a9p+1, 0x1.88a9622a588bp+1,
      0x1.9c64171905c64p+2},
     0x1.b36368e7fe679p+1},
    {{0x1.025346p+4F, 0x1.3a60c8p+5F},
     {0x1.81e624p+1F, -0x1.512d64p+0F},
     {0x1.9b599b1d1088p+1, 0x1.f7d14508045a1p+0, 0x1.f7d14508045a8p+0,
      0x1.424cc3b803376p+1},
     {0x1.9b599b1d1088p+1, 0x1.f7d14508045a1p+0, 0x1.f7d14508045a8p+0,
      0x1.424cc3b803376p+1},
     0x1.63016fedf0afcp+0},
    {{0x1.32900ap+4F, 0x1.2fd75cp+5F},
     {0x1.81e624p+1F, -0x1.512d64p+0F},
     {0x1.3d5de8f746066p+3, 0x1.3f1ab31e02b23p+2, 0x1.3f1ab31e02b25p+2,
      0x1.c24cc3b803376p+1},
     {0x1.3d5de8f746066p+3, 0x1.3f1ab31e02b23p+2, 0x1.3f1ab31e02b25p+2,
      0x1.c24cc3b803376p+1},
     0x1.63016fedf0afcp+0},
    {{0x1.6cb8ecp+4F, 0x1.217392p+5F},
     {0x1.a01c28p+1F, -0x1.801a7p+0F},
     {0x1.b5f3ae60b5422p+1, 0x1.4d5d15b0d2875p+0, 0x1.4d5d15b0d2878p+0,
      0x1.963356aed2a48p+0},
     {0x1.b5f3ae60b5422p+1, 0x1.4d5d15b0d2875p+0, 0x1.4d5d15b0d2878p+0,
      0x1.963356aed2a48p+0},
     0x1.d5ff7146e2aabp-1},
    {{0x1.a0bc7p+4F, 0x1.1572bep+5F},
     {0x1.a01c28p+1F, -0x1.801a7p+0F},
     {0x1.f73537b4788dep+2, 0x1.b1c8362fd295ep+1, 0x1.b1c8362fd296p+1,
      0x1.4b19ab5769524p+1},
     {0x1.f73537b4788dep+2, 0x1.b1c8362fd295ep+1, 0x1.b1c8362fd296p+1,
      0x1.4b19ab5769524p+1},
     0x1.d5ff7146e2aabp-1},
    {{0x1.d4bff6p+4F, 0x1.0971ecp+5F},
     {0x1.a01c28p+1F, -0x1.801a7p+0F},
     {0x1.17a290e3fff34p+4, 0x1.9e70f0c39df41p+2, 0x1.9e70f0c39df42p+2,
      0x1.cb19ab5769524p+1},
     {0x1.17a290e3fff34p+4, 0x1.9e70f0c39df41p+2, 0x1.9e70f0c39df42p+2,
      0x1.cb19ab5769524p+1},
     0x1.d5ff7146e2aabp-1},
    {{0x1.063064p+5F, 0x1.fb2abcp+4F},
     {0x1.a905fap+1F, -0x1.7eb4ap+0F},
     {0x1.ca7a9153b05acp+1, 0x1.1aa7c256600cfp+0, 0x1.1aa7c256600c8p+0,
      0x1.abd2ce6159c2cp+0},
     {0x1.ca7a9153b05acp+1, 0x1.1aa7c256600cfp+0, 0x1.1aa7c256600c8p+0,
      0x1.abd2ce6159c2cp+0},
     0x1.031f5a5a0809dp-2},
    {{0x1.1c0b0ap+5F, 0x1.e44514p+4F},
     {0x1.890404p+1F, -0x1.77c294p+0F},
     {0x1.51204799af151p+1, 0x1.1e62078c131cp+0, 0x1.1e62078c131bep+0,
      0x1.c1534e0d26e38p+0},
     {0x1.51204799af151p+1, 0x1.1e62078c131cp+0, 0x1.1e62078c131bep+0,
      0x1.c1534e0d26e38p+0},
     0x1.cc7a21f4775b6p-1},
};

// KalmanConfig{processNoise 0.3, measurementNoise 1.5,
// initialVelocitySigma 8}.
const Expected kOtherConfigSteps[] = {
    {{0x1.9ff1f8p+3F, 0x1.452aep+5F},
     {0x1.733204p+1F, -0x1.4f4608p+0F},
     {0x1.168ced0de7ec7p+1, 0x1.0d6a7cdf9d729p+1, 0x1.0d6a7cdf9d72p+1,
      0x1.128694646be28p+2},
     {0x1.168ced0de7ec7p+1, 0x1.0d6a7cdf9d729p+1, 0x1.0d6a7cdf9d72p+1,
      0x1.128694646be28p+2},
     0x1.b36368e7fe679p+1},
    {{0x1.0502b4p+4F, 0x1.39c9e8p+5F},
     {0x1.93868p+1F, -0x1.60d5acp+0F},
     {0x1.dc4f49c1365f8p+0, 0x1.21f4b5062cd7ap+0, 0x1.21f4b5062cd78p+0,
      0x1.4b8bee6172f74p+0},
     {0x1.dc4f49c1365f8p+0, 0x1.21f4b5062cd7ap+0, 0x1.21f4b5062cd78p+0,
      0x1.4b8bee6172f74p+0},
     0x1.0a338be9b514fp-1},
    {{0x1.377384p+4F, 0x1.2ec33ap+5F},
     {0x1.93868p+1F, -0x1.60d5acp+0F},
     {0x1.5fbdf5588d8e5p+2, 0x1.49f384e7031aap+1, 0x1.49f384e7031a9p+1,
      0x1.9858bb2e3fc41p+0},
     {0x1.5fbdf5588d8e5p+2, 0x1.49f384e7031aap+1, 0x1.49f384e7031a9p+1,
      0x1.9858bb2e3fc41p+0},
     0x1.0a338be9b514fp-1},
    {{0x1.6db432p+4F, 0x1.2140ep+5F},
     {0x1.9e3976p+1F, -0x1.7cb638p+0F},
     {0x1.e70f4426e7d54p+0, 0x1.55c19435b9941p-1, 0x1.55c19435b9944p-1,
      0x1.39b053a01e266p-1},
     {0x1.e70f4426e7d54p+0, 0x1.55c19435b9941p-1, 0x1.55c19435b9944p-1,
      0x1.39b053a01e266p-1},
     0x1.d9d73999c5d73p-2},
    {{0x1.a17b62p+4F, 0x1.155b2ep+5F},
     {0x1.9e3976p+1F, -0x1.7cb638p+0F},
     {0x1.f66e1aaff1d7fp+1, 0x1.6e1f5a515243ap+0, 0x1.6e1f5a515243bp+0,
      0x1.d349ed39b7cp-1},
     {0x1.f66e1aaff1d7fp+1, 0x1.6e1f5a515243ap+0, 0x1.6e1f5a515243bp+0,
      0x1.d349ed39b7cp-1},
     0x1.d9d73999c5d73p-2},
    {{0x1.d5429p+4F, 0x1.09757cp+5F},
     {0x1.9e3976p+1F, -0x1.7cb638p+0F},
     {0x1.f17cc4f4a5d29p+2, 0x1.3f155baa4a45p+1, 0x1.3f155baa4a451p+1,
      0x1.3671c369a8acdp+0},
     {0x1.f17cc4f4a5d29p+2, 0x1.3f155baa4a45p+1, 0x1.3f155baa4a451p+1,
      0x1.3671c369a8acdp+0},
     0x1.d9d73999c5d73p-2},
    {{0x1.0623eap+5F, 0x1.fb307ep+4F},
     {0x1.a55834p+1F, -0x1.7c6bf4p+0F},
     {0x1.f079635243844p+0, 0x1.108b747fc7905p-1, 0x1.108b747fc7908p-1,
      0x1.33777801bf208p-1},
     {0x1.f079635243844p+0, 0x1.108b747fc7905p-1, 0x1.108b747fc7908p-1,
      0x1.33777801bf208p-1},
     0x1.e1a02d0d09cd4p-3},
    {{0x1.1c3562p+5F, 0x1.e44612p+4F},
     {0x1.8d8c72p+1F, -0x1.779eeep+0F},
     {0x1.656e8e6cdc88ep+0, 0x1.f27727de1877dp-2, 0x1.f27727de1878p-2,
      0x1.3ef78903e79e8p-1},
     {0x1.656e8e6cdc88ep+0, 0x1.f27727de1877dp-2, 0x1.f27727de1878p-2,
      0x1.3ef78903e79e8p-1},
     0x1.ba308be90f849p-1},
};

/// Exact equality, sign of zero included; floats widen exactly.
::testing::AssertionResult sameBits(double actual, double expected) {
  if (std::bit_cast<std::uint64_t>(actual) ==
      std::bit_cast<std::uint64_t>(expected)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << actual << " != " << expected;
}

/// The nearest point of the 1/64 px grid.  Grid coordinates are exact
/// in float, so test inputs built from them take no rounding step whose
/// precision the compiler may choose.
float gridPx(double px) {
  return static_cast<float>(std::llround(px * 64.0)) * 0x1p-6F;
}

/// The dense 4x4 recursion the per-axis filter replaced, kept as the
/// reference of the property tests below: state [xc, yc, vx, vy],
/// row-major products that sum a(r, k) * b(k, c) over k in order and skip
/// a zero a(r, k), and S inverted by Gauss-Jordan with partial pivoting,
/// a LogicError on a pivot below 1e-12.  It reproduces the recorded
/// tables above bit for bit.
class DenseKalman {
 public:
  template <std::size_t R, std::size_t C>
  using Mat = std::array<double, R * C>;

  DenseKalman(Vec2f position, const KalmanConfig& config) {
    const double r = config.measurementNoise * config.measurementNoise;
    const double v =
        config.initialVelocitySigma * config.initialVelocitySigma;
    const double q = config.processNoise;
    x_ = {position.x, position.y, 0.0, 0.0};
    p_ = {r, 0, 0, 0, 0, r, 0, 0, 0, 0, v, 0, 0, 0, 0, v};
    q_ = {q / 4.0, 0, q / 2.0, 0, 0, q / 4.0, 0, q / 2.0,
          q / 2.0, 0, q,       0, 0, q / 2.0, 0, q};
    r_ = {r, 0, 0, r};
  }

  void predict() {
    x_ = mul<4, 4, 1>(kF, x_);
    p_ = add(mul<4, 4, 4>(mul<4, 4, 4>(kF, p_), kFt), q_);
  }

  void update(Vec2f measured) {
    const Mat<2, 1> hx = mul<2, 4, 1>(kH, x_);
    const Mat<2, 1> innovation{static_cast<double>(measured.x) - hx[0],
                               static_cast<double>(measured.y) - hx[1]};
    const Mat<2, 2> s = add(mul<2, 4, 2>(mul<2, 4, 4>(kH, p_), kHt), r_);
    const Mat<4, 2> k = mul<4, 2, 2>(mul<4, 4, 2>(p_, kHt), inverted(s));
    x_ = add(x_, mul<4, 2, 1>(k, innovation));
    p_ = mul<4, 4, 4>(sub(kI, mul<4, 2, 4>(k, kH)), p_);
    lastInnovation_ = std::hypot(innovation[0], innovation[1]);
  }

  [[nodiscard]] Vec2f position() const {
    return {static_cast<float>(x_[0]), static_cast<float>(x_[1])};
  }
  [[nodiscard]] Vec2f velocity() const {
    return {static_cast<float>(x_[2]), static_cast<float>(x_[3])};
  }
  [[nodiscard]] double lastInnovation() const { return lastInnovation_; }

  /// Axis 0 (x) or 1 (y): rows and columns {axis, axis + 2} of P.
  [[nodiscard]] ConstantVelocityKalman::Covariance covariance(int axis) const {
    const auto p = static_cast<std::size_t>(axis);
    const std::size_t v = p + 2;
    return {p_[p * 4 + p], p_[p * 4 + v], p_[v * 4 + p], p_[v * 4 + v]};
  }

  /// True while every covariance entry coupling x and y is exactly zero.
  [[nodiscard]] bool axesUncoupled() const {
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        if (r % 2 != c % 2 && p_[r * 4 + c] != 0.0) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  template <std::size_t R, std::size_t K, std::size_t C>
  static Mat<R, C> mul(const Mat<R, K>& a, const Mat<K, C>& b) {
    Mat<R, C> out{};
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t k = 0; k < K; ++k) {
        const double f = a[r * K + k];
        if (f == 0.0) {
          continue;
        }
        for (std::size_t c = 0; c < C; ++c) {
          out[r * C + c] += f * b[k * C + c];
        }
      }
    }
    return out;
  }

  template <std::size_t N>
  static std::array<double, N> add(const std::array<double, N>& a,
                                   const std::array<double, N>& b) {
    std::array<double, N> out{};
    for (std::size_t i = 0; i < N; ++i) {
      out[i] = a[i] + b[i];
    }
    return out;
  }

  template <std::size_t N>
  static std::array<double, N> sub(const std::array<double, N>& a,
                                   const std::array<double, N>& b) {
    std::array<double, N> out{};
    for (std::size_t i = 0; i < N; ++i) {
      out[i] = a[i] - b[i];
    }
    return out;
  }

  static Mat<2, 2> inverted(Mat<2, 2> a) {
    constexpr std::size_t n = 2;
    Mat<2, 2> inv{1.0, 0.0, 0.0, 1.0};
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col + 1; r < n; ++r) {
        if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) {
          pivot = r;
        }
      }
      if (std::abs(a[pivot * n + col]) < 1e-12) {
        throw LogicError("DenseKalman: singular S");
      }
      if (pivot != col) {
        for (std::size_t c = 0; c < n; ++c) {
          std::swap(a[pivot * n + c], a[col * n + c]);
          std::swap(inv[pivot * n + c], inv[col * n + c]);
        }
      }
      const double d = a[col * n + col];
      for (std::size_t c = 0; c < n; ++c) {
        a[col * n + c] /= d;
        inv[col * n + c] /= d;
      }
      for (std::size_t r = 0; r < n; ++r) {
        const double f = a[r * n + col];
        if (r == col || f == 0.0) {
          continue;
        }
        for (std::size_t c = 0; c < n; ++c) {
          a[r * n + c] -= f * a[col * n + c];
          inv[r * n + c] -= f * inv[col * n + c];
        }
      }
    }
    return inv;
  }

  static constexpr Mat<4, 4> kF{1, 0, 1, 0, 0, 1, 0, 1,
                                0, 0, 1, 0, 0, 0, 0, 1};
  static constexpr Mat<4, 4> kFt{1, 0, 0, 0, 0, 1, 0, 0,
                                 1, 0, 1, 0, 0, 1, 0, 1};
  static constexpr Mat<2, 4> kH{1, 0, 0, 0, 0, 1, 0, 0};
  static constexpr Mat<4, 2> kHt{1, 0, 0, 1, 0, 0, 0, 0};
  static constexpr Mat<4, 4> kI{1, 0, 0, 0, 0, 1, 0, 0,
                                0, 0, 1, 0, 0, 0, 0, 1};

  Mat<4, 1> x_{};
  Mat<4, 4> p_{};
  Mat<4, 4> q_{};
  Mat<2, 2> r_{};
  double lastInnovation_ = 0.0;
};

bool sameCovariance(const ConstantVelocityKalman::Covariance& a,
                    const ConstantVelocityKalman::Covariance& b) {
  return sameBits(a.a, b.a) && sameBits(a.b, b.b) && sameBits(a.c, b.c) &&
         sameBits(a.d, b.d);
}

/// The x and y diagonal blocks of a filter's covariance: the per-axis
/// filter's one shared block twice, the dense reference's two blocks.
std::array<ConstantVelocityKalman::Covariance, 2> axisBlocks(
    const ConstantVelocityKalman& kf) {
  return {kf.covariance(), kf.covariance()};
}

std::array<ConstantVelocityKalman::Covariance, 2> axisBlocks(
    const DenseKalman& kf) {
  return {kf.covariance(0), kf.covariance(1)};
}

/// Position, velocity, both covariance blocks and the innovation agree
/// to the bit.
template <typename A, typename B>
::testing::AssertionResult sameState(const A& a, const B& b) {
  const auto differs = [](const char* what) {
    return ::testing::AssertionFailure() << what << " differs";
  };
  if (!sameBits(a.position().x, b.position().x) ||
      !sameBits(a.position().y, b.position().y)) {
    return differs("position");
  }
  if (!sameBits(a.velocity().x, b.velocity().x) ||
      !sameBits(a.velocity().y, b.velocity().y)) {
    return differs("velocity");
  }
  if (!sameCovariance(axisBlocks(a)[0], axisBlocks(b)[0])) {
    return differs("x covariance");
  }
  if (!sameCovariance(axisBlocks(a)[1], axisBlocks(b)[1])) {
    return differs("y covariance");
  }
  if (!sameBits(a.lastInnovation(), b.lastInnovation())) {
    return differs("innovation");
  }
  return ::testing::AssertionSuccess();
}

template <typename Filter>
void expectPinnedSequence(const KalmanConfig& config,
                          const Expected (&expected)[std::size(kSteps)]) {
  Filter kf(Vec2f{10.0F, 42.0F}, config);
  for (std::size_t i = 0; i < std::size(kSteps); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    kf.predict();
    if (kSteps[i].measured) {
      kf.update(kSteps[i].z);
    }
    const Expected& e = expected[i];
    EXPECT_TRUE(sameBits(kf.position().x, e.position.x));
    EXPECT_TRUE(sameBits(kf.position().y, e.position.y));
    EXPECT_TRUE(sameBits(kf.velocity().x, e.velocity.x));
    EXPECT_TRUE(sameBits(kf.velocity().y, e.velocity.y));
    for (int axis = 0; axis < 2; ++axis) {
      const ConstantVelocityKalman::Covariance got =
          axisBlocks(kf)[static_cast<std::size_t>(axis)];
      const ConstantVelocityKalman::Covariance& want = axis == 0 ? e.x : e.y;
      EXPECT_TRUE(sameBits(got.a, want.a)) << "axis " << axis;
      EXPECT_TRUE(sameBits(got.b, want.b)) << "axis " << axis;
      EXPECT_TRUE(sameBits(got.c, want.c)) << "axis " << axis;
      EXPECT_TRUE(sameBits(got.d, want.d)) << "axis " << axis;
    }
    EXPECT_TRUE(sameBits(kf.lastInnovation(), e.innovation));
  }
}

TEST(ConstantVelocityKalmanTest, MatchesMatrixRecursionBitForBit) {
  expectPinnedSequence<ConstantVelocityKalman>(KalmanConfig{},
                                               kDefaultConfigSteps);
  expectPinnedSequence<ConstantVelocityKalman>(KalmanConfig{0.3, 1.5, 8.0},
                                               kOtherConfigSteps);
}

TEST(DenseKalmanReferenceTest, ReproducesRecordedMatrixForm) {
  expectPinnedSequence<DenseKalman>(KalmanConfig{}, kDefaultConfigSteps);
  expectPinnedSequence<DenseKalman>(KalmanConfig{0.3, 1.5, 8.0},
                                    kOtherConfigSteps);
}

// Property: over random configurations, starts and predict/update mixes
// the per-axis filter equals the dense recursion bit for bit: both of the
// dense form's diagonal blocks equal the one shared block, and its
// cross-axis covariances stay exactly zero (the premises of the per-axis
// split).
class KalmanDenseReferenceProperty : public ::testing::TestWithParam<int> {
};

TEST_P(KalmanDenseReferenceProperty, MatchesDenseRecursionBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int sequence = 0; sequence < 25; ++sequence) {
    const KalmanConfig config{
        rng.chance(0.2) ? 0.0 : rng.uniform(0.0, 4.0),
        rng.uniform(0.25, 6.0),
        rng.chance(0.2) ? 0.0 : rng.uniform(0.0, 20.0)};
    double x = rng.uniform(0.0, 240.0);
    double y = rng.uniform(0.0, 180.0);
    const double vx = rng.uniform(-4.0, 4.0);
    const double vy = rng.uniform(-3.0, 3.0);
    const double measuredShare = rng.uniform(0.2, 1.0);
    const Vec2f start{gridPx(x), gridPx(y)};
    ConstantVelocityKalman kf(start, config);
    DenseKalman dense(start, config);
    for (int step = 0; step < 400; ++step) {
      kf.predict();
      dense.predict();
      x += vx;
      y += vy;
      if (rng.chance(measuredShare)) {
        const double nx = rng.normal(0.0, config.measurementNoise);
        const double ny = rng.normal(0.0, config.measurementNoise);
        const Vec2f z{gridPx(x + nx), gridPx(y + ny)};
        kf.update(z);
        dense.update(z);
      }
      ASSERT_TRUE(sameState(kf, dense))
          << "sequence " << sequence << " step " << step;
      ASSERT_TRUE(dense.axesUncoupled())
          << "sequence " << sequence << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KalmanDenseReferenceProperty,
                         ::testing::Range(1, 9));

TEST(ConstantVelocityKalmanTest, InitialCovarianceFromConfig) {
  const ConstantVelocityKalman kf(Vec2f{10, 20}, KalmanConfig{0.5, 2.0, 5.0});
  EXPECT_TRUE(sameCovariance(kf.covariance(), {4.0, 0.0, 0.0, 25.0}));
  EXPECT_EQ(kf.velocity(), (Vec2f{0, 0}));
  EXPECT_EQ(kf.lastInnovation(), 0.0);
}

TEST(ConstantVelocityKalmanTest, AxesEvolveIndependently) {
  // The same y measurements under different x measurements leave the y
  // state bit-identical.
  Rng rng(5);
  ConstantVelocityKalman a(Vec2f{10, 20}, KalmanConfig{});
  ConstantVelocityKalman b(Vec2f{90, 20}, KalmanConfig{});
  for (int f = 1; f <= 50; ++f) {
    a.predict();
    b.predict();
    const float y = 20.0F + 1.5F * static_cast<float>(f) +
                    static_cast<float>(rng.normal(0.0, 2.0));
    const float xa = 10.0F + 3.0F * static_cast<float>(f) +
                     static_cast<float>(rng.normal(0.0, 2.0));
    const float xb = 90.0F - 2.0F * static_cast<float>(f) +
                     static_cast<float>(rng.normal(0.0, 2.0));
    a.update(Vec2f{xa, y});
    b.update(Vec2f{xb, y});
    EXPECT_TRUE(sameBits(a.position().y, b.position().y)) << "frame " << f;
    EXPECT_TRUE(sameBits(a.velocity().y, b.velocity().y)) << "frame " << f;
  }
  EXPECT_LT(b.velocity().x, 0.0F);
  EXPECT_GT(a.velocity().x, 0.0F);
}

TEST(ConstantVelocityKalmanTest, CovarianceIgnoresMeasurementValues) {
  // P depends only on the config and the predict/update pattern: filters
  // fed different measurements on the same pattern agree.
  Rng rng(7);
  const KalmanConfig config{0.3, 1.5, 8.0};
  ConstantVelocityKalman a(Vec2f{0, 0}, config);
  ConstantVelocityKalman b(Vec2f{200, 140}, config);
  for (int f = 1; f <= 60; ++f) {
    a.predict();
    b.predict();
    if (f % 3 != 0) {
      a.update(Vec2f{static_cast<float>(rng.uniform(0.0, 240.0)),
                     static_cast<float>(rng.uniform(0.0, 180.0))});
      b.update(Vec2f{static_cast<float>(rng.uniform(0.0, 240.0)),
                     static_cast<float>(rng.uniform(0.0, 180.0))});
    }
    EXPECT_TRUE(sameCovariance(a.covariance(), b.covariance()))
        << "frame " << f;
  }
}

TEST(ConstantVelocityKalmanTest, CopyEvolvesIndependently) {
  ConstantVelocityKalman original(Vec2f{5, 5}, KalmanConfig{});
  for (int f = 1; f <= 5; ++f) {
    original.predict();
    original.update(Vec2f{5.0F + 2.0F * static_cast<float>(f),
                          5.0F + static_cast<float>(f)});
  }
  const ConstantVelocityKalman before = original;
  ConstantVelocityKalman copy = original;
  copy.predict();
  copy.update(Vec2f{100, 100});
  EXPECT_TRUE(sameState(original, before));  // the copy shares nothing
  EXPECT_FALSE(sameState(copy, before));
  original.predict();
  original.update(Vec2f{100, 100});
  EXPECT_TRUE(sameState(original, copy));
}

TEST(ConstantVelocityKalmanTest, SingularUpdateThrowsAndLeavesStateUnchanged) {
  // All-zero noise keeps P at zero, so each axis' pivot a + r is zero; a
  // 1e-7 px measurement sigma makes it 2e-14, still below 1e-12.
  for (const double sigma : {0.0, 1e-7}) {
    ConstantVelocityKalman kf(Vec2f{10, 20}, KalmanConfig{0.0, sigma, 0.0});
    kf.predict();
    EXPECT_THROW(kf.update(Vec2f{12, 21}), LogicError) << sigma;
    EXPECT_EQ(kf.position(), (Vec2f{10, 20}));
    EXPECT_EQ(kf.velocity(), (Vec2f{0, 0}));
    EXPECT_EQ(kf.covariance().a, sigma * sigma);
    EXPECT_EQ(kf.lastInnovation(), 0.0);
  }
}

/// Both filter-backed trackers validate their KalmanConfig at
/// construction: each field at -1, NaN and +inf is a ConfigError.  An
/// all-zero config is valid but leaves S singular, so the first update
/// throws LogicError.
template <typename Tracker>
void expectFilterConfigChecked(const typename Tracker::Config& base) {
  for (double KalmanConfig::*field :
       {&KalmanConfig::processNoise, &KalmanConfig::measurementNoise,
        &KalmanConfig::initialVelocitySigma}) {
    for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
      typename Tracker::Config config = base;
      config.filter.*field = bad;
      EXPECT_THROW(Tracker{config}, ConfigError) << bad;
    }
  }
  typename Tracker::Config zero = base;
  zero.filter = KalmanConfig{0.0, 0.0, 0.0};
  Tracker tracker(zero);
  (void)tracker.update(props({BBox{50, 50, 30, 20}}));  // seeds
  EXPECT_THROW((void)tracker.update(props({BBox{52, 50, 30, 20}})),
               LogicError);
}

TEST(KalmanConfigTest, TrackersCheckTheirFilterConfig) {
  expectFilterConfigChecked<KalmanTracker>(testConfig());
  expectFilterConfigChecked<HybridTracker>(HybridTrackerConfig{});
}

TEST(KalmanConfigTest, ValidateAcceptsZeroAndLargeFiniteValues) {
  const double big = std::numeric_limits<double>::max();
  for (const KalmanConfig& config :
       {KalmanConfig{}, KalmanConfig{0.0, 0.0, 0.0},
        KalmanConfig{-0.0, -0.0, -0.0}, KalmanConfig{big, big, big}}) {
    EXPECT_NO_THROW(config.validate()) << config.processNoise;
  }
}

TEST(KalmanConfigTest, ValidateNamesTheBadField) {
  const std::pair<double KalmanConfig::*, std::string> fields[] = {
      {&KalmanConfig::processNoise, "processNoise"},
      {&KalmanConfig::measurementNoise, "measurementNoise"},
      {&KalmanConfig::initialVelocitySigma, "initialVelocitySigma"},
  };
  for (const auto& [field, name] : fields) {
    for (const double bad :
         {-1.0, -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()}) {
      KalmanConfig config;
      config.*field = bad;
      try {
        config.validate();
        ADD_FAILURE() << name << " = " << bad << " accepted";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(KalmanTrackerTest, SeedsAndReports) {
  KalmanTracker tracker(testConfig());
  EXPECT_TRUE(tracker.update(props({BBox{10, 10, 20, 10}})).empty());
  const Tracks t = tracker.update(props({BBox{12, 10, 20, 10}}));
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(tracker.activeCount(), 1);
}

TEST(KalmanTrackerTest, TracksMovingObject) {
  KalmanTracker tracker(testConfig());
  Tracks last;
  for (int f = 0; f < 25; ++f) {
    const float x = 10.0F + 3.0F * static_cast<float>(f);
    last = tracker.update(props({BBox{x, 50, 30, 16}}));
  }
  ASSERT_EQ(last.size(), 1U);
  EXPECT_NEAR(last[0].velocity.x, 3.0F, 0.4F);
  EXPECT_NEAR(last[0].box.center().x, 10.0F + 3.0F * 24.0F + 15.0F, 3.0F);
  EXPECT_EQ(last[0].id, 1U);
}

TEST(KalmanTrackerTest, GateRejectsFarProposals) {
  KalmanTrackerConfig config = testConfig();
  config.gateDistance = 20.0;
  KalmanTracker tracker(config);
  (void)tracker.update(props({BBox{10, 10, 20, 10}}));
  // A proposal 100 px away cannot be associated: it seeds a second track
  // and the first coasts.
  (void)tracker.update(props({BBox{150, 10, 20, 10}}));
  EXPECT_EQ(tracker.activeCount(), 2);
}

TEST(KalmanTrackerTest, GreedyAssociationIsOneToOne) {
  KalmanTracker tracker(testConfig());
  (void)tracker.update(props({BBox{10, 50, 20, 10}, BBox{60, 50, 20, 10}}));
  (void)tracker.update(props({BBox{12, 50, 20, 10}, BBox{62, 50, 20, 10}}));
  EXPECT_EQ(tracker.activeCount(), 2);
  // One proposal near both tracks: only one track gets it.
  const Tracks t = tracker.update(props({BBox{36, 50, 20, 10}}));
  EXPECT_EQ(tracker.activeCount(), 2);
  int matched = 0;
  for (const Track& track : t) {
    if (track.misses == 0) {
      ++matched;
    }
  }
  EXPECT_EQ(matched, 1);
}

TEST(KalmanTrackerTest, CoastsAndDies) {
  KalmanTrackerConfig config = testConfig();
  config.maxMisses = 2;
  KalmanTracker tracker(config);
  for (int f = 0; f < 5; ++f) {
    (void)tracker.update(props({BBox{50.0F + 2.0F * f, 50, 20, 10}}));
  }
  EXPECT_EQ(tracker.activeCount(), 1);
  (void)tracker.update({});
  (void)tracker.update({});
  EXPECT_EQ(tracker.activeCount(), 1);
  (void)tracker.update({});
  EXPECT_EQ(tracker.activeCount(), 0);
}

TEST(KalmanTrackerTest, CapsAtMaxTracks) {
  KalmanTrackerConfig config = testConfig();
  config.maxTracks = 2;
  KalmanTracker tracker(config);
  (void)tracker.update(props(
      {BBox{10, 50, 20, 10}, BBox{60, 50, 20, 10}, BBox{110, 50, 20, 10}}));
  EXPECT_EQ(tracker.activeCount(), 2);
}

TEST(KalmanTrackerTest, SizeSmoothingDampsFlicker) {
  KalmanTracker tracker(testConfig());
  (void)tracker.update(props({BBox{50, 50, 30, 16}}));
  (void)tracker.update(props({BBox{52, 50, 30, 16}}));
  // A fragment proposal with half the width: the reported box shrinks
  // only partially.
  const Tracks t = tracker.update(props({BBox{54, 50, 15, 16}}));
  ASSERT_EQ(t.size(), 1U);
  EXPECT_GT(t[0].box.w, 22.0F);
}

TEST(KalmanTrackerTest, InvalidConfigRejected) {
  KalmanTrackerConfig bad = testConfig();
  bad.maxTracks = 0;
  EXPECT_THROW(KalmanTracker{bad}, LogicError);
  KalmanTrackerConfig bad2 = testConfig();
  bad2.gateDistance = 0.0;
  EXPECT_THROW(KalmanTracker{bad2}, LogicError);
}

// Property: invariants over random proposal streams.
class KalmanTrackerInvariantProperty : public ::testing::TestWithParam<int> {
};

TEST_P(KalmanTrackerInvariantProperty, FrameInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  KalmanTracker tracker(testConfig());
  for (int f = 0; f < 60; ++f) {
    RegionProposals p;
    const int count = static_cast<int>(rng.uniformInt(0, 4));
    for (int i = 0; i < count; ++i) {
      p.push_back(RegionProposal{
          BBox{static_cast<float>(rng.uniformInt(0, 219)),
               static_cast<float>(rng.uniformInt(0, 159)),
               static_cast<float>(rng.uniformInt(4, 64)),
               static_cast<float>(rng.uniformInt(4, 34))},
          10});
    }
    const Tracks tracks = tracker.update(p);
    EXPECT_LE(tracker.activeCount(), tracker.config().maxTracks);
    std::set<std::uint32_t> ids;
    for (const Track& t : tracks) {
      EXPECT_FALSE(t.box.empty());
      EXPECT_TRUE(ids.insert(t.id).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KalmanTrackerInvariantProperty,
                         ::testing::Range(1, 9));

/// SplitMix64, so the recorded streams below depend on no library
/// distribution.
class StreamRng {
 public:
  explicit StreamRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + static_cast<double>(next() >> 11) * 0x1p-53 * (hi - lo);
  }

 private:
  std::uint64_t state_;
};

/// Three boxes crossing a 240 x 180 frame at constant velocity with
/// +-1.5 px jitter, each missing one frame in six; a box whose centre
/// leaves the frame respawns elsewhere, and one frame in ten adds a small
/// spurious proposal.  Tracks seed, update, coast, die and reseed.
std::vector<RegionProposals> crossingStream(std::uint64_t seed, int frames) {
  struct Mover {
    double x, y, vx, vy, w, h;
  };
  StreamRng rng(seed);
  const auto spawn = [&rng] {
    Mover m{};
    m.w = rng.uniform(16.0, 40.0);
    m.h = rng.uniform(10.0, 24.0);
    m.x = rng.uniform(0.0, 240.0 - m.w);
    m.y = rng.uniform(0.0, 180.0 - m.h);
    m.vx = rng.uniform(-3.0, 3.0);
    m.vy = rng.uniform(-1.5, 1.5);
    return m;
  };
  std::vector<Mover> movers{spawn(), spawn(), spawn()};
  std::vector<RegionProposals> out(static_cast<std::size_t>(frames));
  for (RegionProposals& frame : out) {
    for (Mover& m : movers) {
      m.x += m.vx;
      m.y += m.vy;
      const double cx = m.x + m.w / 2.0;
      const double cy = m.y + m.h / 2.0;
      if (cx < 0.0 || cx >= 240.0 || cy < 0.0 || cy >= 180.0) {
        m = spawn();
      }
      if (rng.next() % 6 == 0) {
        continue;
      }
      const double jx = rng.uniform(-1.5, 1.5);
      const double jy = rng.uniform(-1.5, 1.5);
      const BBox b{gridPx(m.x + jx), gridPx(m.y + jy), gridPx(m.w),
                   gridPx(m.h)};
      frame.push_back(
          RegionProposal{b, static_cast<std::uint64_t>(b.area())});
    }
    if (rng.next() % 10 == 0) {
      const double x = rng.uniform(0.0, 220.0);
      const double y = rng.uniform(0.0, 170.0);
      const double w = rng.uniform(4.0, 12.0);
      const double h = rng.uniform(4.0, 10.0);
      frame.push_back(
          RegionProposal{BBox{gridPx(x), gridPx(y), gridPx(w), gridPx(h)},
                         8});
    }
  }
  return out;
}

/// FNV-1a over every reported track's id, box, velocity and counters,
/// frame by frame, plus the number of reports.
struct TrackDigest {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  std::size_t reports = 0;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ ((v >> (8 * i)) & 0xFFU)) * 0x100000001B3ULL;
    }
  }

  void add(const Tracks& tracks) {
    mix(tracks.size());
    for (const Track& t : tracks) {
      mix(t.id);
      for (const float v : {t.box.x, t.box.y, t.box.w, t.box.h,
                            t.velocity.x, t.velocity.y}) {
        mix(std::bit_cast<std::uint32_t>(v));
      }
      mix(static_cast<std::uint64_t>(t.age) << 32 |
          static_cast<std::uint32_t>(t.hits));
      mix(static_cast<std::uint32_t>(t.misses));
      ++reports;
    }
  }
};

struct Recording {
  std::uint64_t seed;
  std::uint64_t hash;
  std::size_t reports;
};

/// Runs 600 frames of crossingStream(seed) per recording through a fresh
/// tracker and compares the digest with one recorded from the dense
/// 4x4 Matrix filter the trackers ran on before the per-axis form.
template <typename Tracker>
void expectRecordedTracks(const typename Tracker::Config& config,
                          const Recording (&recorded)[3]) {
  for (const Recording& r : recorded) {
    Tracker tracker(config);
    TrackDigest digest;
    for (const RegionProposals& frame : crossingStream(r.seed, 600)) {
      digest.add(tracker.update(frame));
    }
    EXPECT_EQ(digest.reports, r.reports) << "seed " << r.seed;
    EXPECT_EQ(digest.hash, r.hash)
        << "seed " << r.seed << std::hex << ": 0x" << digest.hash;
  }
}

TEST(FilterTrackerRecordingTest, KalmanGreedy) {
  expectRecordedTracks<KalmanTracker>(
      KalmanTrackerConfig{}, {{1, 0x20F002C4DA6F2AE0ULL, 1799},
                              {2, 0x9EEBC018B320A5BBULL, 1804},
                              {3, 0xF8B8CCB6989E7159ULL, 1784}});
}

TEST(FilterTrackerRecordingTest, KalmanHungarian) {
  KalmanTrackerConfig config;
  config.association = AssociationMethod::kHungarian;
  expectRecordedTracks<KalmanTracker>(
      config, {{1, 0x20F002C4DA6F2AE0ULL, 1799},
               {2, 0x9DAF61A55466E933ULL, 1807},
               {3, 0xBAE9C0194AAFA337ULL, 1790}});
}

TEST(FilterTrackerRecordingTest, Hybrid) {
  expectRecordedTracks<HybridTracker>(
      HybridTrackerConfig{}, {{1, 0x9208BCF88645FA04ULL, 1799},
                              {2, 0xD0B7A4AA62577037ULL, 1804},
                              {3, 0x6B397F5FFD7ACD17ULL, 1761}});
}

}  // namespace
}  // namespace ebbiot

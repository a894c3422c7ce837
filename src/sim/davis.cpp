#include "src/sim/davis.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"

namespace ebbiot {
namespace {

constexpr double kBackgroundLuminance = 0.50;

/// Texture of an object at object-local coordinates (u, v): a dark body
/// with a smooth two-axis sinusoid (windows / wheel arches / panel lines).
/// Wavelengths derive from the texture seed so each object looks distinct
/// but stable over time.
double objectLuminance(const ObjectState& o, float u, float v) {
  const double lambdaU = 5.0 + static_cast<double>(o.textureSeed % 7U);
  const double lambdaV = 4.0 + static_cast<double>((o.textureSeed / 7U) % 5U);
  constexpr double kTwoPi = 6.283185307179586;
  const double s = std::sin(kTwoPi * u / lambdaU) *
                   std::sin(kTwoPi * v / lambdaV);
  // Interior contrast scales with the class interior event density: buses
  // and trucks have nearly flat sides (log-contrast swing below the event
  // threshold over most of the surface — the Fig. 3 fragmentation), cars
  // are busier.  The 0.4 gain calibrates interior event rates to the
  // statistical synthesizer (test_event_synth checks the agreement).
  const double amp = 0.02 + 0.4 * classModel(o.kind).interiorEventDensity;
  return std::clamp(0.33 + amp * s, 0.02, 0.98);
}

}  // namespace

DavisSimulator::DavisSimulator(const SceneProvider& scene,
                               const DavisConfig& config)
    : scene_(scene),
      config_(config),
      width_(scene.width()),
      height_(scene.height()),
      rng_(config.seed) {
  EBBIOT_ASSERT(config.contrastThreshold > 0.0);
  EBBIOT_ASSERT(config.simStep > 0);
  EBBIOT_ASSERT(config.refractoryPeriod >= 0);
  const std::size_t n = static_cast<std::size_t>(width_) *
                        static_cast<std::size_t>(height_);
  refLog_.assign(n, static_cast<float>(std::log(kBackgroundLuminance)));
  lastEvent_.assign(n, -1);
  // Hot pixel population: fixed for the lifetime of the sensor.
  const auto hotCount = static_cast<std::size_t>(
      config.hotPixelFraction * static_cast<double>(n));
  Rng hotRng = rng_.fork(0x55AA);
  for (std::size_t i = 0; i < hotCount; ++i) {
    hotPixels_.push_back(static_cast<std::uint32_t>(
        hotRng.uniformInt(0, static_cast<std::int64_t>(n) - 1)));
  }
}

double DavisSimulator::luminanceAt(int x, int y, TimeUs t) const {
  EBBIOT_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_);
  const auto objects = scene_.objectsAt(t);
  const float px = static_cast<float>(x) + 0.5F;
  const float py = static_cast<float>(y) + 0.5F;
  // Later objects in the provider's order are closer to the camera.
  for (auto it = objects.rbegin(); it != objects.rend(); ++it) {
    if (it->box.contains(px, py)) {
      return objectLuminance(*it, px - it->box.x, py - it->box.y);
    }
  }
  return kBackgroundLuminance;
}

EventPacket DavisSimulator::nextWindow(TimeUs duration) {
  EBBIOT_ASSERT(duration > 0);
  const TimeUs tEndWindow = now_ + duration;
  EventPacket out(now_, tEndWindow);
  while (now_ < tEndWindow) {
    const TimeUs t1 = std::min(now_ + config_.simStep, tEndWindow);
    stepOnce(now_, t1, out);
    emitNoise(now_, t1, out);
    now_ = t1;
  }
  out.sortByTime();
  return out;
}

void DavisSimulator::stepOnce(TimeUs t0, TimeUs t1, EventPacket& out) {
  const auto objects = scene_.objectsAt(t1);
  // Dirty region: where something is now or was at the previous step.
  std::vector<BBox> dirty = prevBoxes_;
  dirty.reserve(dirty.size() + objects.size());
  for (const ObjectState& o : objects) {
    dirty.push_back(o.box);
  }
  prevBoxes_.clear();
  for (const ObjectState& o : objects) {
    prevBoxes_.push_back(o.box);
  }

  // Visit each dirty pixel once (mark visited in a scratch bitmap only for
  // overlapping rects; cheap approach: iterate rects, skip pixels whose
  // last-visit tag equals this step).  We use a per-call visited list to
  // stay allocation-light.
  for (const BBox& rawBox : dirty) {
    const BBox box = clampToFrame(
        BBox{rawBox.x - 1.0F, rawBox.y - 1.0F, rawBox.w + 2.0F,
             rawBox.h + 2.0F},
        width_, height_);
    if (box.empty()) {
      continue;
    }
    const int x0 = static_cast<int>(std::floor(box.left()));
    const int x1 = static_cast<int>(std::ceil(box.right()));
    const int y0 = static_cast<int>(std::floor(box.bottom()));
    const int y1 = static_cast<int>(std::ceil(box.top()));
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        const std::size_t idx =
            static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) + x;
        // Refractory: pixel silent until the dead time has elapsed.
        if (lastEvent_[idx] >= 0 &&
            t1 - lastEvent_[idx] < config_.refractoryPeriod) {
          continue;
        }
        double lum = kBackgroundLuminance;
        const float pxC = static_cast<float>(x) + 0.5F;
        const float pyC = static_cast<float>(y) + 0.5F;
        for (auto it = objects.rbegin(); it != objects.rend(); ++it) {
          if (it->box.contains(pxC, pyC)) {
            lum = objectLuminance(*it, pxC - it->box.x, pyC - it->box.y);
            break;
          }
        }
        const double curLog = std::log(lum);
        const double diff = curLog - refLog_[idx];
        const double theta = config_.contrastThreshold;
        if (std::abs(diff) < theta) {
          continue;
        }
        const auto crossings =
            static_cast<int>(std::floor(std::abs(diff) / theta));
        const Polarity p = diff > 0 ? Polarity::kOn : Polarity::kOff;
        // One event per step per pixel (the refractory period exceeds half
        // a step anyway); the reference catches up fully so a single fast
        // edge does not ring for many steps.
        Event e;
        e.x = static_cast<std::uint16_t>(x);
        e.y = static_cast<std::uint16_t>(y);
        e.p = p;
        e.t = t0 + rng_.uniformInt(0, t1 - t0 - 1);
        out.push(e);
        lastEvent_[idx] = e.t;
        refLog_[idx] +=
            static_cast<float>((diff > 0 ? 1.0 : -1.0) * crossings * theta);
      }
    }
  }
}

void DavisSimulator::emitNoise(TimeUs t0, TimeUs t1, EventPacket& out) {
  const double dtS = usToSeconds(t1 - t0);
  const std::size_t n = static_cast<std::size_t>(width_) *
                        static_cast<std::size_t>(height_);
  const double meanNoise =
      config_.backgroundActivityHz * static_cast<double>(n) * dtS;
  const std::int64_t count = rng_.poisson(meanNoise);
  for (std::int64_t i = 0; i < count; ++i) {
    Event e;
    const std::int64_t pix =
        rng_.uniformInt(0, static_cast<std::int64_t>(n) - 1);
    e.x = static_cast<std::uint16_t>(pix % width_);
    e.y = static_cast<std::uint16_t>(pix / width_);
    e.p = rng_.chance(0.5) ? Polarity::kOn : Polarity::kOff;
    e.t = t0 + rng_.uniformInt(0, t1 - t0 - 1);
    out.push(e);
  }
  // Hot pixels fire on top of the uniform background.
  for (std::uint32_t pix : hotPixels_) {
    const std::int64_t fires = rng_.poisson(config_.hotPixelRateHz * dtS);
    for (std::int64_t i = 0; i < fires; ++i) {
      Event e;
      e.x = static_cast<std::uint16_t>(pix % width_);
      e.y = static_cast<std::uint16_t>(pix / width_);
      e.p = rng_.chance(0.5) ? Polarity::kOn : Polarity::kOff;
      e.t = t0 + rng_.uniformInt(0, t1 - t0 - 1);
      out.push(e);
    }
  }
}

}  // namespace ebbiot

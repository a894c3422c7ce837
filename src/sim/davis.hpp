// Behavioural DAVIS simulator.
//
// The paper's data came from a stationary DAVIS240 (240x180) overlooking a
// traffic junction — hardware we substitute with this simulator (see
// DESIGN.md).  The model reproduces the properties the EBBIOT pipeline
// actually depends on:
//
//   * log-intensity change detection: each pixel remembers the log
//     intensity at its last event; when the current log intensity departs
//     by more than the contrast threshold, an ON/OFF event fires and the
//     reference steps toward the new value (so a fast edge yields several
//     events — the beta >= 1 of Eq. (2));
//   * per-pixel refractory period;
//   * background-activity (shot) noise: a Poisson process per pixel,
//     polarity random, independent of the scene — the salt-and-pepper
//     noise the median filter and NN-filt exist to remove;
//   * hot pixels: a small population firing at a much higher rate;
//   * scene texture: objects are textured rectangles whose pattern moves
//     with them, so interiors emit events proportional to texture gradient
//     and speed, while big flat vehicle sides emit few (the fragmentation
//     phenomenon of Fig. 3).
//
// The simulator only rasterises "dirty" pixels (union of object boxes now
// and at the previous step), so cost scales with scene activity, not with
// sensor area.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/time.hpp"
#include "src/events/event_packet.hpp"
#include "src/sim/scene.hpp"

namespace ebbiot {

/// Common interface of the two sensor models (DavisSimulator and
/// FastEventSynth): pull event packets window by window.
class EventSource {
 public:
  virtual ~EventSource() = default;

  /// Produce all events in [now, now + duration) and advance the clock.
  [[nodiscard]] virtual EventPacket nextWindow(TimeUs duration) = 0;

  [[nodiscard]] virtual TimeUs now() const = 0;
  [[nodiscard]] virtual int width() const = 0;
  [[nodiscard]] virtual int height() const = 0;
};

struct DavisConfig {
  double contrastThreshold = 0.15;     ///< log-intensity step per event
  TimeUs refractoryPeriod = 2'000;     ///< per-pixel dead time, us
  double backgroundActivityHz = 0.2;   ///< noise rate per pixel
  double hotPixelFraction = 0.0002;    ///< share of pixels that are hot
  double hotPixelRateHz = 20.0;        ///< firing rate of a hot pixel
  TimeUs simStep = 2'000;              ///< raster step, us
  std::uint64_t seed = 42;
};

class DavisSimulator final : public EventSource {
 public:
  /// The scene must outlive the simulator.
  DavisSimulator(const SceneProvider& scene, const DavisConfig& config);

  [[nodiscard]] EventPacket nextWindow(TimeUs duration) override;
  [[nodiscard]] TimeUs now() const override { return now_; }
  [[nodiscard]] int width() const override { return width_; }
  [[nodiscard]] int height() const override { return height_; }

  [[nodiscard]] const DavisConfig& config() const { return config_; }

  /// Scene luminance at pixel (x, y) for the objects visible at time t.
  /// Exposed for tests of the intensity model.
  [[nodiscard]] double luminanceAt(int x, int y, TimeUs t) const;

 private:
  void stepOnce(TimeUs t0, TimeUs t1, EventPacket& out);
  void emitNoise(TimeUs t0, TimeUs t1, EventPacket& out);

  const SceneProvider& scene_;
  DavisConfig config_;
  int width_;
  int height_;
  TimeUs now_ = 0;
  std::vector<float> refLog_;       ///< per-pixel reference log intensity
  std::vector<TimeUs> lastEvent_;   ///< per-pixel last signal event time
  std::vector<BBox> prevBoxes_;     ///< dirty rects from the previous step
  std::vector<std::uint32_t> hotPixels_;
  Rng rng_;
};

/// Latch ("sensor as memory") readout, Section II-A: while the processor
/// sleeps, a pixel that has fired is not reset, so at most one event per
/// pixel survives per readout window.  This adapter keeps the *first*
/// event of each pixel in the packet and drops the rest — applying it to a
/// stream-mode packet yields exactly what the duty-cycled EBBIOT processor
/// would read.
[[nodiscard]] EventPacket latchReadout(const EventPacket& packet, int width,
                                       int height);

}  // namespace ebbiot

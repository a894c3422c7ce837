#include "inputs.hpp"

#include <stdexcept>

#include "src/common/rng.hpp"
#include "src/core/variant_registry.hpp"
#include "src/events/stats.hpp"
#include "src/node/fault_injection.hpp"
#include "src/node/wire_format.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/recording.hpp"

namespace perfbench {
namespace {

using ebbiot::TimeUs;

constexpr TimeUs kFramePeriod = ebbiot::kDefaultFramePeriodUs;

struct NodeShape {
  int sensors;
  std::size_t windows;
};

/// Running means of the input properties every workload reports.
struct PropertyTally {
  double windows = 0.0;
  double events = 0.0;
  double bytes = 0.0;
  double gtObjects = 0.0;
  double alphaSum = 0.0;
  double betaSum = 0.0;
  double activeWindows = 0.0;

  void add(const ebbiot::EventPacket& window, int width, int height,
           std::size_t frameBytes, std::size_t gtBoxes) {
    const ebbiot::FrameStats s = ebbiot::computeFrameStats(window, width, height);
    windows += 1.0;
    events += static_cast<double>(s.eventCount);
    bytes += static_cast<double>(frameBytes);
    gtObjects += static_cast<double>(gtBoxes);
    if (s.activePixels > 0) {
      alphaSum += s.alpha;
      betaSum += s.beta;
      activeWindows += 1.0;
    }
  }

  void report(Metrics& m) const {
    const double w = windows > 0.0 ? windows : 1.0;
    const double a = activeWindows > 0.0 ? activeWindows : 1.0;
    m.set("input.events_per_window", events / w, "events");
    m.set("input.bytes_per_window", bytes / w, "B");
    m.set("input.alpha", alphaSum / a, "ratio");
    m.set("input.beta", betaSum / a, "events/px");
    m.set("input.gt_objects_per_window", gtObjects / w, "objects");
  }
};

/// The recording of one sensor.  Like the paper's fixed recordings, the
/// traffic scene (object schedule) of each sensor is fixed; the run seed
/// draws the sensor's events — signal sampling and background noise — so
/// accuracy varies across seeds only by event noise, not by which
/// objects happen to cross.
ebbiot::RecordingSpec sensorSpec(const std::string& workload, int sensor,
                                 std::uint64_t seed, std::size_t windows) {
  const std::uint64_t scene = mixSeed(0x5CE4E, static_cast<std::uint64_t>(sensor));
  ebbiot::RecordingSpec spec = workload == "fleet_faults"
                                   ? ebbiot::makeSyntheticLt4(scene)
                                   : ebbiot::makeSyntheticEng(scene);
  spec.synth.seed = seed;
  if (workload == "wide_ebms") {
    // A wide-area 640x480 sensor: the ENG traffic mix seen through a
    // longer lens (objects twice the ENG size) over dense background
    // activity, so per-event and per-byte layers dominate.
    spec.traffic.width = 640;
    spec.traffic.height = 480;
    spec.traffic.lensScale = 2.0F;
    spec.traffic.lanes = ebbiot::makeDefaultLanes(480, 2.0F);
    spec.synth.backgroundActivityHz = 1.0;
  }
  // Two windows beyond the last one, so every window end has a GT frame.
  spec.durationS = static_cast<double>(windows + 2) *
                   static_cast<double>(kFramePeriod) / 1e6;
  return spec;
}

/// fleet_faults' transport faults.  The rates are not measured on a real
/// link: they are the mixed-fault profiles of the repository's chaos soak
/// (tests/test_node_live.cpp), cycled across sensors — clean, corruption,
/// loss, duplication + flood, ordering + stall.  Timestamp regression,
/// which the soak does not inject, joins the ordering profile at the
/// soak's 2 % rate for ordering faults.  Each frame gets at most one
/// fault, so every fault is counted by kind.
struct FaultDraw {
  ebbiot::FaultKind kind = ebbiot::FaultKind::kTruncate;
  double prob = 0.0;
};
using FaultMix = std::array<FaultDraw, 3>;
constexpr std::array<FaultMix, 5> kFleetProfiles = {{
    {},
    {{{ebbiot::FaultKind::kBitFlip, 0.05}}},
    {{{ebbiot::FaultKind::kTruncate, 0.05}, {ebbiot::FaultKind::kDrop, 0.02}}},
    {{{ebbiot::FaultKind::kDuplicate, 0.02},
      {ebbiot::FaultKind::kBurstFlood, 0.02}}},
    {{{ebbiot::FaultKind::kReorder, 0.02},
      {ebbiot::FaultKind::kTimestampRegress, 0.02},
      {ebbiot::FaultKind::kStall, 0.02}}},
}};
constexpr int kFloodCopies = 8;
constexpr std::size_t kChunkBytes = 1500;

}  // namespace

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::unique_ptr<ebbiot::Pipeline> makeSensorPipeline(
    const SensorStream& sensor) {
  if (sensor.nnPatch > 0) {
    ebbiot::EbmsPipelineConfig config;
    config.nnFilter.width = sensor.width;
    config.nnFilter.height = sensor.height;
    config.nnFilter.neighbourhood = sensor.nnPatch;
    return std::make_unique<ebbiot::EbmsPipeline>(config);
  }
  return ebbiot::variantRegistry().build(
      sensor.variant, ebbiot::VariantContext{sensor.width, sensor.height});
}

NodeInputs makeNodeInputs(const Options& options) {
  const std::string& w = options.workload;
  NodeInputs in;
  in.framePeriod = kFramePeriod;
  NodeShape shape{};
  if (w == "eng_ebbiot") {
    shape = options.tiny ? NodeShape{2, 40} : NodeShape{8, 250};
  } else if (w == "wide_ebms") {
    shape = options.tiny ? NodeShape{1, 20} : NodeShape{2, 100};
    in.node.width = 640;
    in.node.height = 480;
  } else if (w == "fleet_faults") {
    shape = options.tiny ? NodeShape{8, 40} : NodeShape{32, 150};
    in.clean = false;
    in.poolThreads = 2;
    in.node.shedBacklogWindows = static_cast<std::size_t>(shape.sensors) + 4;
  } else {
    throw std::invalid_argument("unknown node workload " + w);
  }
  in.windowsPerSensor = shape.windows;
  in.node.backpressure = ebbiot::BackpressurePolicy::kDropOldestWindow;

  static const std::array<const char*, 4> kFleetVariants = {
      "EBBIOT", "EBBI+KF", "Hybrid", "EBBINNOT"};
  PropertyTally tally;
  Fnv fingerprint;
  ebbiot::Rng faultRng(mixSeed(options.seed, 0xFA17));
  for (int s = 0; s < shape.sensors; ++s) {
    SensorStream sensor;
    sensor.id = static_cast<std::uint16_t>(s);
    sensor.width = in.node.width;
    sensor.height = in.node.height;
    if (w == "eng_ebbiot") {
      sensor.variant = "EBBIOT";
    } else if (w == "wide_ebms") {
      sensor.variant = "EBMS";
      sensor.nnPatch = 7;
    } else {
      sensor.variant = kFleetVariants[static_cast<std::size_t>(s) % 4];
      sensor.priority = (s / 4) % 4;
    }
    const std::uint64_t seed = mixSeed(options.seed, 1000 + static_cast<std::uint64_t>(s));
    ebbiot::Recording rec =
        ebbiot::openRecording(sensorSpec(w, s, seed, shape.windows));
    const ebbiot::GroundTruth gt = rec.scenario->groundTruth(kFramePeriod);
    std::unique_ptr<ebbiot::Pipeline> bare;
    if (in.clean) {
      bare = makeSensorPipeline(sensor);
    }
    std::vector<std::vector<std::byte>> frames(shape.windows);
    sensor.windows = shape.windows;
    sensor.gt.resize(shape.windows);
    for (std::size_t k = 0; k < shape.windows; ++k) {
      const ebbiot::EventPacket window = rec.source->nextWindow(kFramePeriod);
      ebbiot::encodeFrame(frames[k], static_cast<std::uint32_t>(k), sensor.id, window);
      const ebbiot::GtFrame& g = gt.frames.at(k);  // sampled at (k+1) * tF
      if (g.t != window.tEnd()) {
        throw std::logic_error("ground truth not aligned with window ends");
      }
      sensor.gt[k] = g.boxes;
      tally.add(window, sensor.width, sensor.height, frames[k].size(), g.boxes.size());
      if (bare != nullptr) {
        if (bare->inputDomain() == ebbiot::InputDomain::kLatchedFrame) {
          sensor.reference.push_back(bare->processWindow(
              ebbiot::latchReadout(window, sensor.width, sensor.height)));
        } else {
          sensor.reference.push_back(bare->processWindow(window));
        }
      }
    }
    if (in.clean) {
      for (std::size_t k = 0; k < frames.size(); ++k) {
        sensor.deliveries.push_back(
            Delivery{std::move(frames[k]), static_cast<TimeUs>(k + 1) * kFramePeriod});
      }
    } else {
      ebbiot::FaultInjector injector(mixSeed(seed, 0x1A7));
      injector.setFloodCopies(kFloodCopies);
      injector.setChunkBytes(kChunkBytes);
      const FaultMix& mix =
          kFleetProfiles[static_cast<std::size_t>(s) % kFleetProfiles.size()];
      for (std::size_t k = 0; k < frames.size(); ++k) {
        double u = faultRng.uniform();
        for (const FaultDraw& d : mix) {
          if (u < d.prob) {
            if (d.kind == ebbiot::FaultKind::kBitFlip) {
              // A seed-drawn bit anywhere in the frame, as the injector's
              // profiled mode flips (its scripted flips always hit the
              // window-start LSB), so corrupted length and count fields
              // reach the parser's over-cap and wait-for-bytes paths.
              std::vector<std::byte>& frame = frames[k];
              const auto bit = static_cast<std::size_t>(faultRng.uniformInt(
                  0, static_cast<std::int64_t>(frame.size() * 8) - 1));
              frame[bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
            } else {
              injector.script(ebbiot::FaultOp{d.kind, k});
            }
            ++in.faults[static_cast<std::size_t>(d.kind)];
            if (d.kind == ebbiot::FaultKind::kBurstFlood) {
              sensor.floodCopies += kFloodCopies;
            }
            break;
          }
          u -= d.prob;
        }
      }
      TimeUs due = 0;
      for (ebbiot::DeliveryChunk& chunk : injector.corrupt(frames)) {
        due += chunk.delayUs;
        sensor.deliveries.push_back(Delivery{std::move(chunk.bytes), due});
      }
    }
    for (const Delivery& d : sensor.deliveries) {
      fingerprint.add(d.bytes.data(), d.bytes.size());
      fingerprint.addValue(d.due);
    }
    in.sensors.push_back(std::move(sensor));
  }
  in.fingerprint = fingerprint.value();
  tally.report(in.properties);
  in.properties.set("input.sensors", static_cast<double>(shape.sensors), "sensors");
  in.properties.set("input.windows_per_sensor", static_cast<double>(shape.windows),
                    "windows");
  for (int f = 0; f < kFaultKinds; ++f) {
    in.properties.set(
        std::string("input.faults.") +
            ebbiot::toString(static_cast<ebbiot::FaultKind>(f)),
        static_cast<double>(in.faults[static_cast<std::size_t>(f)]), "faults");
  }
  return in;
}

EvalInputs makeEvalInputs(const Options& options) {
  EvalInputs in;
  in.framePeriod = kFramePeriod;
  const std::size_t frames = options.tiny ? 40 : 300;
  PropertyTally tally;
  Fnv fingerprint;
  const ebbiot::GtOptions gtOptions;  // the runner's default annotation
  for (int r = 0; r < 2; ++r) {
    // Fixed scenes, seed-drawn events (see sensorSpec).
    const std::uint64_t scene = mixSeed(0x5CE4E, 2000 + static_cast<std::uint64_t>(r));
    ebbiot::RecordingSpec spec =
        r == 0 ? ebbiot::makeSyntheticEng(scene) : ebbiot::makeSyntheticLt4(scene);
    spec.synth.seed = mixSeed(options.seed, 2000 + static_cast<std::uint64_t>(r));
    spec.durationS = static_cast<double>(frames + 2) *
                     static_cast<double>(kFramePeriod) / 1e6;
    ebbiot::Recording rec = ebbiot::openRecording(spec);
    EvalRecording out;
    out.name = spec.name;
    const int w = rec.scenario->width();
    const int h = rec.scenario->height();
    for (std::size_t k = 0; k < frames; ++k) {
      out.windows.push_back(rec.source->nextWindow(kFramePeriod));
      const ebbiot::EventPacket& window = out.windows.back();
      out.gt.push_back(ebbiot::annotateScene(*rec.scenario, window.tEnd(), gtOptions));
      tally.add(window, w, h, ebbiot::frameSizeBytes(window.size()),
                out.gt.back().boxes.size());
      for (const ebbiot::Event& e : window) {
        fingerprint.addValue(e.x);
        fingerprint.addValue(e.y);
        fingerprint.addValue(e.p);
        fingerprint.addValue(e.t);
      }
    }
    out.scenario = std::move(rec.scenario);
    in.recordings.push_back(std::move(out));
  }
  in.fingerprint = fingerprint.value();
  tally.report(in.properties);
  in.properties.set("input.sensors", 2.0, "sensors");
  in.properties.set("input.windows_per_sensor", static_cast<double>(frames), "windows");
  for (int f = 0; f < kFaultKinds; ++f) {
    in.properties.set(
        std::string("input.faults.") +
            ebbiot::toString(static_cast<ebbiot::FaultKind>(f)),
        0.0, "faults");
  }
  return in;
}

}  // namespace perfbench

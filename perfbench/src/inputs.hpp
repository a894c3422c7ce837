// Workload inputs, generated from the seed before anything is timed.
//
// Node workloads: per sensor, src/sim traffic windows encoded as EBF1
// frames (seeded faults through FaultInjector and chunked delivery where
// the workload has faults), the ground truth of every window, and the tracks
// of a bare in-process Pipeline fed the same windows.  The evaluation
// workload: pre-generated SyntheticENG and SyntheticLT4 windows with
// their scenarios.  The program under test only ever sees these bytes
// or packets.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/core/pipeline.hpp"
#include "src/node/node_config.hpp"
#include "src/node/pipeline_sink.hpp"
#include "src/sim/ground_truth.hpp"
#include "src/sim/traffic.hpp"

namespace perfbench {

/// One transport delivery at a due time on the virtual ingest clock.
struct Delivery {
  std::vector<std::byte> bytes;
  ebbiot::TimeUs due = 0;
};

struct SensorStream {
  std::uint16_t id = 0;
  int priority = 0;
  std::string variant;  ///< registry key
  int nnPatch = 0;      ///< > 0: EBMS with this NN neighbourhood instead
  int width = 240;
  int height = 180;
  std::vector<Delivery> deliveries;
  std::size_t windows = 0;      ///< pristine windows the sensor emitted
  std::size_t floodCopies = 0;  ///< extra valid frames from flood faults
  /// Bare-pipeline tracks per window (clean workloads only).
  std::vector<ebbiot::Tracks> reference;
  /// Ground truth at each window's end.
  std::vector<std::vector<ebbiot::GtBox>> gt;
};

inline constexpr int kFaultKinds = 8;  ///< ebbiot::FaultKind values

struct NodeInputs {
  ebbiot::NodeConfig node;
  ebbiot::PipelineSinkConfig sink;
  int poolThreads = 1;
  bool clean = true;
  ebbiot::TimeUs framePeriod = 66'000;
  std::size_t windowsPerSensor = 0;
  std::vector<SensorStream> sensors;
  std::array<std::uint64_t, kFaultKinds> faults{};
  std::uint64_t fingerprint = 0;
  Metrics properties;
};

/// eng_ebbiot, wide_ebms or fleet_faults; throws on an unknown name.
[[nodiscard]] NodeInputs makeNodeInputs(const Options& options);

/// The pipeline a sensor runs (registry variant or the wide EBMS).
[[nodiscard]] std::unique_ptr<ebbiot::Pipeline> makeSensorPipeline(
    const SensorStream& sensor);

struct EvalRecording {
  std::string name;
  std::unique_ptr<ebbiot::TrafficScenario> scenario;
  std::vector<ebbiot::EventPacket> windows;
  std::vector<ebbiot::GtFrame> gt;  ///< annotateScene at each window end
};

struct EvalInputs {
  ebbiot::TimeUs framePeriod = 66'000;
  std::vector<EvalRecording> recordings;
  std::uint64_t fingerprint = 0;
  Metrics properties;
};

[[nodiscard]] EvalInputs makeEvalInputs(const Options& options);

/// Deterministic 64-bit mix of the run seed with a salt.
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench

// Span tracing for the traced benchmark run.
//
// Spans are recorded at each layer boundary the benchmark can reach from
// outside the program (offerBytes, pump, the sink's onWindow, each
// pipeline's processWindow, runRecording, the event source) into a
// preallocated buffer, and analysed after each pass: a span's self time
// is its duration minus the union of its children's intervals.  Stage
// times inside a pipeline come from replaying the window through
// standalone stage objects (traced_pipeline.hpp) and are accumulated in
// StageAccum; replay work is recorded as kReplay spans so it is reported
// as tracing overhead, never as a layer's time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kOffer,     ///< SensorSession::offerBytes via NodeSupervisor
  kPump,      ///< tickWatchdogs + NodeSupervisor::pump + idle coasting
  kSink,      ///< PipelineSink::onWindow / coastIdle
  kPipeline,  ///< Pipeline::processWindow of the real pipeline
  kReplay,    ///< standalone stage replays and their checks (overhead)
  kRunner,    ///< runRecording
  kSource,    ///< the benchmark's in-memory EventSource::nextWindow
  kCount,
};

inline constexpr int kSpanKinds = static_cast<int>(SpanKind::kCount);
[[nodiscard]] const char* toString(SpanKind kind);

/// Registry variant keys, in registration order.
inline constexpr int kVariants = 7;
inline constexpr std::array<const char*, kVariants> kVariantKeys = {
    "EBBIOT", "EBBI+KF", "EBMS", "EBBINNOT", "Hybrid", "EBBINNOT-Hybrid",
    "EBBIOT-CCA"};
/// "EBBI+KF" -> "ebbi_kf": lower case, every other character '_'.
[[nodiscard]] std::string nameSafe(const std::string& key);
/// Index into kVariantKeys, or -1.
[[nodiscard]] int variantIndex(const std::string& name);

struct Span {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int32_t parent = -1;
  std::uint32_t thread = 0;
  std::uint32_t seq = 0;
  std::uint16_t sensor = 0;
  SpanKind kind = SpanKind::kOffer;
  std::int8_t variant = -1;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity);

  /// Parent of spans opened on a thread with no open span (pool workers
  /// running sink drains or pipeline tasks).
  void setFallbackParent(std::int32_t id) {
    fallback_.store(id, std::memory_order_release);
  }

  /// Open a span; returns its id, or -1 when the buffer is full.
  std::int32_t open(SpanKind kind, std::uint16_t sensor, std::uint32_t seq,
                    std::int8_t variant);
  void close(std::int32_t id);

  /// Valid only while no span is being opened or closed.
  [[nodiscard]] std::span<const Span> spans() const;
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }
  void clear();

 private:
  std::vector<Span> buf_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::int32_t> fallback_{-1};
};

/// RAII span; a null recorder makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanKind kind, std::uint16_t sensor = 0,
             std::uint32_t seq = 0, std::int8_t variant = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::int32_t id_ = -1;
  std::int32_t saved_ = -1;
};

/// Self times of one or more analysed passes, in nanoseconds.
struct SpanTotals {
  std::array<double, kSpanKinds> selfNs{};
  std::array<double, kVariants> pipelineNs{};
  std::array<std::uint64_t, kVariants> pipelineCalls{};
  double rootNs = 0.0;     ///< summed duration of parentless spans
  double overlapNs = 0.0;  ///< child time that ran in parallel siblings

  void add(std::span<const Span> spans);
};

/// The last traced pass as tab-separated text (one span per line).
[[nodiscard]] std::string spansToTsv(std::span<const Span> spans);

/// Stages the replay times, in the order of the per-layer metric names.
enum class Stage : std::uint8_t {
  kEbbiBuild,
  kMedian,
  kRpn,
  kRpnDownsample,  ///< component of kRpn, timed by its own call
  kRpnHistogram,   ///< component of kRpn, timed by its own call
  kCca,
  kRegionFilter,
  kNn,
  kOverlap,
  kKalman,
  kHybrid,
  kEbms,
  kLatch,      ///< latchReadout (evaluation front end)
  kAnnotate,   ///< annotateScene (evaluation front end)
  kFrameStats, ///< computeFrameStats (evaluation front end)
  kMatch,      ///< matchFrame over the IoU sweep
  kCount,
};
inline constexpr int kStages = static_cast<int>(Stage::kCount);

/// True for stages that partition a pipeline's processWindow time.
[[nodiscard]] bool isPipelineStage(Stage stage);

/// Replay measurements, summed over windows.  One instance per pipeline
/// decorator (each is driven by one thread at a time); merged at the end.
struct StageAccum {
  std::array<double, kStages> ns{};
  std::array<std::uint64_t, kStages> ops{};
  std::array<std::uint64_t, kStages> calls{};
  // Cost-model operating point, summed over calls.
  double latchedEvents = 0.0;    ///< frame pipelines: latched events
  double framePixels = 0.0;      ///< frame pipelines: A*B per call
  double proposals = 0.0;        ///< RPN/CCA proposals
  double rfProposals = 0.0;      ///< proposals reaching the region filter
  double rfPatchArea = 0.0;      ///< their summed box area
  std::array<double, kStages> tracksOut{};  ///< tracks by tracker stage
  double streamEvents = 0.0;     ///< event pipelines: events in
  double streamActivePixels = 0.0;
  double streamPixels = 0.0;     ///< event pipelines: A*B per call
  double nnPassed = 0.0;
  double ebmsClusters = 0.0;
  // Stage parameters (identical across the calls of one workload).
  int frameWidth = 240;
  int frameHeight = 180;
  int streamWidth = 240;
  int streamHeight = 180;
  int medianPatch = 3;
  int rpnS1 = 6;
  int rpnS2 = 3;
  int nnPatch = 3;
  int nnTimestampBits = 16;
  int ebmsMaxClusters = 8;
  std::array<std::uint64_t, kVariants> trackerAllocs{};
  std::array<std::uint64_t, kVariants> trackerCalls{};
  std::uint64_t checks = 0;

  void merge(const StageAccum& o);
};

}  // namespace perfbench

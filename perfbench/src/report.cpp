#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <iostream>
#include <limits>
#include <string>

#include "src/resource/cost_model.hpp"

namespace perfbench {
namespace {

constexpr std::size_t idx(Stage s) { return static_cast<std::size_t>(s); }

struct StageName {
  Stage stage;
  const char* name;       ///< metric prefix
  const char* perWindow;  ///< suffix: "_us_per_window" or "_us_per_frame"
  bool reportsOps;        ///< has <name>_ops_per_window
};

constexpr StageName kStageNames[] = {
    {Stage::kEbbiBuild, "ebbi.build", "_us_per_window", true},
    {Stage::kMedian, "filters.median", "_us_per_window", true},
    {Stage::kRpn, "detect.rpn", "_us_per_window", true},
    {Stage::kRpnDownsample, "detect.rpn_downsample", "_us_per_window", false},
    {Stage::kRpnHistogram, "detect.rpn_histogram", "_us_per_window", false},
    {Stage::kCca, "detect.cca", "_us_per_window", true},
    {Stage::kRegionFilter, "detect.region_filter", "_us_per_window", true},
    {Stage::kNn, "filters.nn", "_us_per_window", true},
    {Stage::kOverlap, "trackers.overlap", "_us_per_window", true},
    {Stage::kKalman, "trackers.kalman", "_us_per_window", true},
    {Stage::kHybrid, "trackers.hybrid", "_us_per_window", true},
    {Stage::kEbms, "trackers.ebms", "_us_per_window", true},
    {Stage::kLatch, "sim.latch", "_us_per_window", false},
    {Stage::kAnnotate, "sim.annotate", "_us_per_frame", false},
    {Stage::kFrameStats, "events.stats", "_us_per_frame", false},
    {Stage::kMatch, "eval.match", "_us_per_frame", false},
};

/// Stages with a closed-form model, in report order.
constexpr const char* kModelled[] = {
    "filters.median", "detect.rpn",      "detect.region_filter",
    "filters.nn",     "trackers.overlap", "trackers.kalman",
    "trackers.hybrid", "trackers.ebms"};

}  // namespace

// ---- shared helpers (bench.hpp) ----------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

void Checker::expect(bool ok, const std::string& what) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++checks_;
  if (ok) {
    return;
  }
  if (++failures_ <= 10) {
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
}

std::uint64_t Checker::failures() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

std::uint64_t Checker::checks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return checks_;
}

void Fnv::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ = (h_ ^ p[i]) * 1099511628211ull;
  }
}

void Fnv::addTracks(const ebbiot::Tracks& tracks) {
  addValue(tracks.size());
  for (const ebbiot::Track& t : tracks) {
    addValue(t.id);
    addValue(t.box.x);
    addValue(t.box.y);
    addValue(t.box.w);
    addValue(t.box.h);
    addValue(t.velocity.x);
    addValue(t.velocity.y);
    addValue(t.age);
    addValue(t.hits);
    addValue(t.misses);
    addValue(t.occluded);
  }
}

void Fnv::addEvents(const ebbiot::EventPacket& packet) {
  for (const ebbiot::Event& e : packet) {
    addValue(e.x);
    addValue(e.y);
    addValue(e.t);
  }
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double medianOfBlockMinima(const std::vector<double>& samples) {
  constexpr std::size_t kBlock = 8;
  std::vector<double> minima;
  for (std::size_t b = 0; b < samples.size(); b += kBlock) {
    const std::size_t end = std::min(samples.size(), b + kBlock);
    if (end - b == kBlock || b == 0) {
      minima.push_back(*std::min_element(samples.begin() + static_cast<std::ptrdiff_t>(b),
                                         samples.begin() + static_cast<std::ptrdiff_t>(end)));
    }
  }
  return median(std::move(minima));
}

void ItemTimes::addPass(std::span<const double> samples) {
  if (best_.size() < samples.size()) {
    best_.resize(samples.size(), std::numeric_limits<double>::infinity());
  }
  for (std::size_t k = 0; k < samples.size(); ++k) {
    best_[k] = std::min(best_[k], samples[k]);
  }
  samples_ += samples.size();
}

double ItemTimes::percentile(double p) const {
  return perfbench::percentile(best_, p);
}

double ItemTimes::total() const {
  double sum = 0.0;
  for (const double t : best_) {
    sum += t;
  }
  return sum;
}

namespace {
double statusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::char_traits<char>::length(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::stod(line.substr(n));
    }
  }
  return 0.0;
}
}  // namespace

double rssMb() { return statusKb("VmRSS:") / 1024.0; }
double peakRssMb() { return statusKb("VmHWM:") / 1024.0; }

void resetPeakRss() {
  malloc_trim(0);  // return freed input-generation memory first
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

ebbiot::Track bogusTrack() {
  ebbiot::Track t;
  t.id = 999'999;
  t.box = ebbiot::BBox{1.0F, 1.0F, 9.0F, 7.0F};
  return t;
}

// ---- per-layer metrics --------------------------------------------------

void setLayerDefaults(Metrics& m) {
  const char* us = "us";
  m.set("node.offer_us_per_window", 0.0, us);
  m.set("node.bytes_per_window", 0.0, "B");
  m.set("node.pump_self_us_per_window", 0.0, us);
  m.set("node.backlog_max", 0.0, "windows");
  m.set("node.windows_shed", 0.0, "windows");
  m.set("node.resyncs", 0.0, "count");
  m.set("node.frames_corrupted", 0.0, "frames");
  m.set("node.sink_self_us_per_window", 0.0, us);
  m.set("node.windows_coasted", 0.0, "windows");
  m.set("node.resync_restores", 0.0, "count");
  m.set("node.latency_samples", 0.0, "samples");
  m.set("precision_iou50", 0.0, "ratio");
  m.set("recall_iou50", 0.0, "ratio");
  m.set("windows_lost_ratio", 0.0, "ratio");
  m.set("steady_allocs_per_window", 0.0, "allocs");
  for (const char* key : kVariantKeys) {
    m.set("core.pipeline_us_per_window." + nameSafe(key), 0.0, us);
  }
  m.set("core.stage_residual_us_per_window", 0.0, us);
  m.set("core.runner_residual_us_per_frame", 0.0, us);
  m.set("sim.source_us_per_frame", 0.0, us);
  for (const StageName& s : kStageNames) {
    m.set(std::string(s.name) + s.perWindow, 0.0, us);
  }
  m.set("ebbi.active_pixel_fraction", 0.0, "ratio");
  m.set("detect.proposals_per_window", 0.0, "proposals");
  m.set("filters.nn_pass_ratio", 0.0, "ratio");
  m.set("trackers.tracks_per_window", 0.0, "tracks");
  for (const char* key : kVariantKeys) {
    m.set("trackers.allocs_per_window." + nameSafe(key), 0.0, "allocs");
  }
  for (const StageName& s : kStageNames) {
    if (s.reportsOps) {
      m.set(std::string(s.name) + "_ops_per_window", 0.0, "ops");
    }
  }
  for (const char* name : kModelled) {
    m.set(std::string(name) + "_ops_vs_model", 0.0, "ratio");
  }
  m.set("input.events_per_window", 0.0, "events");
  m.set("input.bytes_per_window", 0.0, "B");
  m.set("input.alpha", 0.0, "ratio");
  m.set("input.beta", 0.0, "events/px");
  m.set("input.gt_objects_per_window", 0.0, "objects");
  m.set("input.sensors", 0.0, "sensors");
  m.set("input.windows_per_sensor", 0.0, "windows");
  for (const char* kind : {"truncate", "bitflip", "duplicate", "reorder", "drop",
                           "regress", "flood", "stall"}) {
    m.set(std::string("input.faults.") + kind, 0.0, "faults");
  }
  m.set("trace.overhead_ratio", 0.0, "ratio");
  m.set("trace.e2e_us_per_window", 0.0, us);
  m.set("trace.attributed_us_per_window", 0.0, us);
  m.set("trace.unattributed_us_per_window", 0.0, us);
  m.set("trace.replay_us_per_window", 0.0, us);
  m.set("trace.parallel_overlap_us_per_window", 0.0, us);
  m.set("trace.replay_checks", 0.0, "count");
  m.set("trace.spans_dropped", 0.0, "count");
}

void reportSpans(const SpanTotals& spans, double windows, double wallNs,
                 double untracedWps, Metrics& m) {
  const auto self = [&](SpanKind k) {
    return ratioOf(spans.selfNs[static_cast<std::size_t>(k)], windows) / 1e3;
  };
  const char* us = "us";
  m.set("node.offer_us_per_window", self(SpanKind::kOffer), us);
  m.set("node.pump_self_us_per_window", self(SpanKind::kPump), us);
  m.set("node.sink_self_us_per_window", self(SpanKind::kSink), us);
  m.set("sim.source_us_per_frame", self(SpanKind::kSource), us);
  for (int v = 0; v < kVariants; ++v) {
    const auto i = static_cast<std::size_t>(v);
    m.set("core.pipeline_us_per_window." + nameSafe(kVariantKeys[i]),
          ratioOf(spans.pipelineNs[i],
                  static_cast<double>(spans.pipelineCalls[i])) / 1e3,
          us);
  }
  const double e2e = ratioOf(wallNs, windows) / 1e3;
  const double attributed = ratioOf(spans.rootNs, windows) / 1e3;
  m.set("trace.e2e_us_per_window", e2e, us);
  m.set("trace.attributed_us_per_window", attributed, us);
  m.set("trace.unattributed_us_per_window", e2e - attributed, us);
  m.set("trace.replay_us_per_window", self(SpanKind::kReplay), us);
  m.set("trace.parallel_overlap_us_per_window",
        ratioOf(spans.overlapNs, windows) / 1e3, us);
  const double tracedWps = ratioOf(windows, wallNs / 1e9);
  m.set("trace.overhead_ratio", ratioOf(tracedWps, untracedWps), "ratio");
}

double pipelineStageNs(const StageAccum& acc) {
  double ns = 0.0;
  for (int s = 0; s < kStages; ++s) {
    if (isPipelineStage(static_cast<Stage>(s))) {
      ns += acc.ns[static_cast<std::size_t>(s)];
    }
  }
  return ns;
}

void reportStages(const StageAccum& acc, const SpanTotals& spans,
                  double windows, Metrics& m) {
  for (const StageName& s : kStageNames) {
    m.set(std::string(s.name) + s.perWindow,
          ratioOf(acc.ns[idx(s.stage)], windows) / 1e3, "us");
    if (s.reportsOps) {
      m.set(std::string(s.name) + "_ops_per_window",
            ratioOf(static_cast<double>(acc.ops[idx(s.stage)]), windows),
            "ops");
    }
  }
  const double pipelineSelf =
      spans.selfNs[static_cast<std::size_t>(SpanKind::kPipeline)];
  m.set("core.stage_residual_us_per_window",
        ratioOf(pipelineSelf - pipelineStageNs(acc), windows) / 1e3, "us");

  const auto calls = [&](Stage s) {
    return static_cast<double>(acc.calls[idx(s)]);
  };
  const double frameCalls = calls(Stage::kMedian);
  const double proposerCalls = calls(Stage::kRpn) + calls(Stage::kCca);
  const double alphaFrame = ratioOf(acc.latchedEvents, acc.framePixels);
  m.set("ebbi.active_pixel_fraction", alphaFrame, "ratio");
  m.set("detect.proposals_per_window", ratioOf(acc.proposals, proposerCalls),
        "proposals");
  m.set("filters.nn_pass_ratio", ratioOf(acc.nnPassed, acc.streamEvents),
        "ratio");
  double tracks = 0.0;
  double trackerCalls = 0.0;
  for (const Stage s :
       {Stage::kOverlap, Stage::kKalman, Stage::kHybrid, Stage::kEbms}) {
    tracks += acc.tracksOut[idx(s)];
    trackerCalls += calls(s);
  }
  m.set("trackers.tracks_per_window", ratioOf(tracks, trackerCalls), "tracks");
  for (int v = 0; v < kVariants; ++v) {
    const auto i = static_cast<std::size_t>(v);
    m.set("trackers.allocs_per_window." + nameSafe(kVariantKeys[i]),
          ratioOf(static_cast<double>(acc.trackerAllocs[i]),
                  static_cast<double>(acc.trackerCalls[i])),
          "allocs");
  }

  // Cost-model cross-check: measured ops per call of the stage over the
  // closed form at the operating point measured on the same calls.
  const auto perCall = [&](Stage s) {
    return ratioOf(static_cast<double>(acc.ops[idx(s)]), calls(s));
  };
  const auto ratio = [&](const char* name, double measured, double model) {
    m.set(std::string(name) + "_ops_vs_model", ratioOf(measured, model),
          "ratio");
  };
  const ebbiot::SensorGeometry frameGeom{acc.frameWidth, acc.frameHeight};
  if (frameCalls > 0.0) {
    ebbiot::EbbiCostParams p;
    p.geometry = frameGeom;
    p.p = acc.medianPatch;
    p.alpha = alphaFrame;
    ratio("filters.median", perCall(Stage::kEbbiBuild) + perCall(Stage::kMedian),
          ebbiot::ebbiCost(p).computesPerFrame);
  }
  if (calls(Stage::kRpn) > 0.0) {
    ebbiot::RpnCostParams p;
    p.geometry = frameGeom;
    p.s1 = acc.rpnS1;
    p.s2 = acc.rpnS2;
    ratio("detect.rpn", perCall(Stage::kRpn), ebbiot::rpnCost(p).computesPerFrame);
  }
  if (calls(Stage::kRegionFilter) > 0.0) {
    ebbiot::RegionFilterCostParams p;
    p.nProposals = ratioOf(acc.rfProposals, calls(Stage::kRegionFilter));
    p.patchPixels = ratioOf(acc.rfPatchArea, acc.rfProposals);
    ratio("detect.region_filter", perCall(Stage::kRegionFilter),
          ebbiot::regionFilterCost(p).computesPerFrame);
  }
  if (calls(Stage::kNn) > 0.0) {
    ebbiot::NnFiltCostParams p;
    p.geometry = ebbiot::SensorGeometry{acc.streamWidth, acc.streamHeight};
    p.p = acc.nnPatch;
    p.timestampBits = acc.nnTimestampBits;
    p.alpha = ratioOf(acc.streamActivePixels, acc.streamPixels);
    p.beta = ratioOf(acc.streamEvents, acc.streamActivePixels);
    ratio("filters.nn", perCall(Stage::kNn), ebbiot::nnFiltCost(p).computesPerFrame);
  }
  const auto meanTracks = [&](Stage s) {
    return ratioOf(acc.tracksOut[idx(s)], calls(s));
  };
  if (calls(Stage::kOverlap) > 0.0) {
    ebbiot::OtCostParams p;
    p.nT = meanTracks(Stage::kOverlap);
    ratio("trackers.overlap", perCall(Stage::kOverlap),
          ebbiot::otCost(p).computesPerFrame);
  }
  if (calls(Stage::kKalman) > 0.0) {
    ebbiot::KfCostParams p;
    p.nT = std::max(1, static_cast<int>(std::lround(meanTracks(Stage::kKalman))));
    ratio("trackers.kalman", perCall(Stage::kKalman),
          ebbiot::kfCost(p).computesPerFrame);
  }
  if (calls(Stage::kHybrid) > 0.0) {
    ebbiot::HybridTrackerCostParams p;
    p.nT = meanTracks(Stage::kHybrid);
    p.nProposals = ratioOf(acc.proposals, proposerCalls);
    ratio("trackers.hybrid", perCall(Stage::kHybrid),
          ebbiot::hybridTrackerCost(p).computesPerFrame);
  }
  if (calls(Stage::kEbms) > 0.0) {
    ebbiot::EbmsCostParams p;
    p.nF = ratioOf(acc.nnPassed, calls(Stage::kEbms));
    p.cl = ratioOf(acc.ebmsClusters, calls(Stage::kEbms));
    p.clMax = acc.ebmsMaxClusters;
    ratio("trackers.ebms", perCall(Stage::kEbms),
          ebbiot::ebmsCost(p).computesPerFrame);
  }
  m.set("trace.replay_checks", static_cast<double>(acc.checks), "count");
}

}  // namespace perfbench

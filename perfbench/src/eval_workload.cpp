// eval_fig4: the Fig. 4 / Table I reproduction harness.  runRecording
// reads pre-generated SyntheticENG and SyntheticLT4 windows from an
// in-memory EventSource and evaluates every registered variant with the
// IoU sweep on a 2-thread stage graph.  The variants enter through
// extraPipelines as forwarding decorators with the registry's names and
// order; the RunResult must equal the one of the bare registry config.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "inputs.hpp"
#include "report.hpp"
#include "src/core/runner.hpp"
#include "src/events/stats.hpp"
#include "src/sim/davis.hpp"
#include "trace.hpp"
#include "traced_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ebbiot::TimeUs;

constexpr int kThreads = 2;
constexpr int kSetupBuilds = 8;
constexpr std::size_t kPerturbFrame = 5;
constexpr std::size_t kSpanCapacity = 200'000;
constexpr float kIou = 0.5F;

enum class PassKind { kReference, kMeasured, kTraced };

/// State shared by the source and the decorators of one runRecording.
struct RecordingPass {
  SpanRecorder* spans = nullptr;
  StageAccum* sourceAccum = nullptr;  ///< traced: front-end replays
  ebbiot::GtOptions gtOptions;
  std::vector<std::uint64_t> latchDigests;
  /// processWindow wall time per variant slot and frame.
  std::vector<std::vector<std::int64_t>> callNs;
  std::atomic<std::uint64_t> sourceAllocs{0};
  std::int64_t dropFrame = -1;
};

/// The benchmark's in-memory EventSource: hands out copies of the
/// pre-generated windows in order.
class MemorySource final : public ebbiot::EventSource {
 public:
  MemorySource(const EvalRecording& rec, RecordingPass& pass)
      : rec_(rec), pass_(pass) {}

  [[nodiscard]] ebbiot::EventPacket nextWindow(TimeUs duration) override {
    const std::uint64_t allocs0 = allocsThisThread();
    const std::size_t k = next_++;
    ebbiot::EventPacket out;
    {
      const ScopedSpan span(pass_.spans, SpanKind::kSource, 0,
                            static_cast<std::uint32_t>(k));
      if (k < rec_.windows.size() &&
          static_cast<std::int64_t>(k) != pass_.dropFrame) {
        out = rec_.windows[k];
      } else {
        out = ebbiot::EventPacket(now_, now_ + duration);
      }
    }
    now_ += duration;
    pass_.sourceAllocs.fetch_add(allocsThisThread() - allocs0);
    if (pass_.sourceAccum != nullptr) {
      replayFrontEnd(k, out);
    }
    return out;
  }

  [[nodiscard]] TimeUs now() const override { return now_; }
  [[nodiscard]] int width() const override { return rec_.scenario->width(); }
  [[nodiscard]] int height() const override { return rec_.scenario->height(); }

 private:
  /// The runner's per-frame front end (latch readout, GT annotation,
  /// stream statistics), replayed through the same public functions.
  void replayFrontEnd(std::size_t k, const ebbiot::EventPacket& window) {
    const ScopedSpan span(pass_.spans, SpanKind::kReplay, 0,
                          static_cast<std::uint32_t>(k));
    StageAccum& acc = *pass_.sourceAccum;
    const auto time = [&](Stage s, auto&& f) {
      const std::int64_t t0 = nowNs();
      f();
      acc.ns[static_cast<std::size_t>(s)] += static_cast<double>(nowNs() - t0);
      ++acc.calls[static_cast<std::size_t>(s)];
    };
    ebbiot::EventPacket latched;
    time(Stage::kLatch,
         [&] { latched = ebbiot::latchReadout(window, width(), height()); });
    if (k < pass_.latchDigests.size()) {
      Fnv digest;
      digest.addEvents(latched);
      pass_.latchDigests[k] = digest.value();
    }
    time(Stage::kAnnotate, [&] {
      (void)ebbiot::annotateScene(*rec_.scenario, window.tEnd(), pass_.gtOptions);
    });
    time(Stage::kFrameStats,
         [&] { (void)ebbiot::computeFrameStats(window, width(), height()); });
  }

  const EvalRecording& rec_;
  RecordingPass& pass_;
  std::size_t next_ = 0;
  TimeUs now_ = 0;
};

bool sameResult(const ebbiot::RunResult& a, const ebbiot::RunResult& b) {
  if (a.thresholds != b.thresholds || a.pipelines.size() != b.pipelines.size() ||
      a.gtTracks != b.gtTracks || a.gtBoxes != b.gtBoxes || a.frames != b.frames ||
      a.streamEvents != b.streamEvents || a.latchedEvents != b.latchedEvents ||
      a.meanAlpha != b.meanAlpha || a.meanBeta != b.meanBeta ||
      a.meanEventsPerFrame != b.meanEventsPerFrame) {
    return false;
  }
  for (std::size_t i = 0; i < a.pipelines.size(); ++i) {
    const ebbiot::PipelineRunStats& p = a.pipelines[i];
    const ebbiot::PipelineRunStats& q = b.pipelines[i];
    if (p.name != q.name || !(p.totalOps == q.totalOps) || p.frames != q.frames ||
        p.filteredEventsPerFrame != q.filteredEventsPerFrame ||
        p.counts.size() != q.counts.size()) {
      return false;
    }
    for (std::size_t t = 0; t < p.counts.size(); ++t) {
      if (p.counts[t].truePositives != q.counts[t].truePositives ||
          p.counts[t].predictions != q.counts[t].predictions ||
          p.counts[t].groundTruths != q.counts[t].groundTruths) {
        return false;
      }
    }
  }
  return true;
}

struct EvalPassResult {
  double wallNs = 0.0;
  std::vector<double> recordingUs;  ///< runRecording wall time per recording
  std::uint64_t frames = 0;
  std::uint64_t netAllocs = 0;
  std::vector<double> setupS;
  std::vector<double> latencyUs;
  std::vector<ebbiot::RunResult> results;
};

struct TraceState {
  SpanRecorder recorder{kSpanCapacity};
  StageAccum source;
  std::vector<StageAccum> slots;
  std::vector<std::vector<ebbiot::PrCounts>> matchCounts;
};

EvalPassResult runEvalPass(const EvalInputs& in, const Options& options,
                           PassKind kind, TraceState* trace, Checker& checker) {
  EvalPassResult res;
  for (const EvalRecording& rec : in.recordings) {
    const std::size_t frames = rec.windows.size();
    const int w = rec.scenario->width();
    const int h = rec.scenario->height();
    RecordingPass pass;
    const bool traced = kind == PassKind::kTraced && trace != nullptr;
    ebbiot::RunnerConfig config = ebbiot::makeRegistryRunnerConfig(w, h);
    config.threads = kThreads;
    pass.gtOptions = config.gtOptions;
    if (traced) {
      pass.spans = &trace->recorder;
      pass.sourceAccum = &trace->source;
      pass.latchDigests.assign(frames, 0);
    }
    if (kind != PassKind::kReference && options.perturb == Perturb::kDropWindow) {
      pass.dropFrame = static_cast<std::int64_t>(kPerturbFrame);
    }
    MatchReplay match;
    match.gt = &rec.gt;
    match.thresholds = config.iouThresholds;
    match.width = w;
    match.height = h;
    if (kind != PassKind::kReference) {
      const std::vector<std::string> keys = config.variants;
      config.variants.clear();
      pass.callNs.assign(keys.size(), std::vector<std::int64_t>(frames, 0));
      if (traced) {
        trace->slots.resize(keys.size());
        trace->matchCounts.resize(keys.size());
      }
      for (std::size_t slot = 0; slot < keys.size(); ++slot) {
        ForwardingHooks hooks;
        hooks.framePeriod = in.framePeriod;
        hooks.onDone = [&pass](std::size_t f, int s, std::int64_t ns) {
          auto& calls = pass.callNs[static_cast<std::size_t>(s)];
          if (f < calls.size()) {
            calls[f] = ns;
          }
        };
        if (traced) {
          hooks.spans = &trace->recorder;
          hooks.accum = &trace->slots[slot];
          hooks.checker = &checker;
          hooks.match = &match;
          hooks.matchCounts = &trace->matchCounts[slot];
          hooks.latchDigests = &pass.latchDigests;
        }
        if (options.perturb == Perturb::kAlterTrack) {
          hooks.alterFrame = static_cast<std::int64_t>(kPerturbFrame);
        }
        config.extraPipelines.push_back([key = keys[slot], hooks, slot, w, h] {
          return std::make_unique<ForwardingPipeline>(
              ebbiot::variantRegistry().build(key, ebbiot::VariantContext{w, h}),
              hooks, static_cast<int>(slot));
        });
      }
    }

    // Set-up sample: building the same config's pipelines, averaged over
    // a few builds (one build takes tens of microseconds).
    const std::uint64_t buildAllocs0 = allocsTotal();
    const std::int64_t b0 = nowNs();
    for (int i = 0; i < kSetupBuilds; ++i) {
      const auto pipelines = ebbiot::buildPipelines(config);
    }
    res.setupS.push_back(static_cast<double>(nowNs() - b0) / 1e9 / kSetupBuilds);
    const std::uint64_t buildAllocs = (allocsTotal() - buildAllocs0) / kSetupBuilds;

    MemorySource source(rec, pass);
    const std::uint64_t allocs0 = allocsTotal();
    const std::int64_t t0 = nowNs();
    ebbiot::RunResult result;
    {
      const ScopedSpan root(pass.spans, SpanKind::kRunner);
      if (pass.spans != nullptr) {
        pass.spans->setFallbackParent(root.id());
      }
      result = ebbiot::runRecording(source, *rec.scenario,
                                    static_cast<TimeUs>(frames) * in.framePeriod,
                                    config);
      if (pass.spans != nullptr) {
        pass.spans->setFallbackParent(-1);
      }
    }
    const std::int64_t t1 = nowNs();
    const std::uint64_t allocs = allocsTotal() - allocs0;
    res.wallNs += static_cast<double>(t1 - t0);
    res.recordingUs.push_back(static_cast<double>(t1 - t0) / 1e3);
    res.frames += result.frames;
    const std::uint64_t excluded = buildAllocs + pass.sourceAllocs.load();
    res.netAllocs += allocs > excluded ? allocs - excluded : 0;
    // A frame's latency: every variant's processWindow on it, back to back.
    for (std::size_t k = 0; k < frames && !pass.callNs.empty(); ++k) {
      std::int64_t ns = 0;
      for (const auto& slotCalls : pass.callNs) {
        ns += slotCalls[k];
      }
      res.latencyUs.push_back(static_cast<double>(ns) / 1e3);
    }
    if (traced) {
      for (std::size_t slot = 0; slot < result.pipelines.size(); ++slot) {
        const auto& replayed = trace->matchCounts[slot];
        const auto& counts = result.pipelines[slot].counts;
        bool same = replayed.size() == counts.size();
        for (std::size_t t = 0; same && t < counts.size(); ++t) {
          same = replayed[t].truePositives == counts[t].truePositives &&
                 replayed[t].predictions == counts[t].predictions &&
                 replayed[t].groundTruths == counts[t].groundTruths;
        }
        checker.expect(same, result.pipelines[slot].name +
                                 ": replayed matching differs from RunResult");
      }
    }
    res.results.push_back(std::move(result));
  }
  return res;
}

}  // namespace

RunOutput runEvalWorkload(const Options& options, Checker& checker) {
  const EvalInputs in = makeEvalInputs(options);
  RunOutput out;
  out.inputs = in.properties;
  out.inputFingerprint = in.fingerprint;
  // Reference: the bare registry config, no decorators; also the pass the
  // memory figure is taken from.
  resetPeakRss();
  const double rssBase = rssMb();
  const EvalPassResult ref =
      runEvalPass(in, options, PassKind::kReference, nullptr, checker);
  const double peakGrowth = peakRssMb() - rssBase;
  std::uint64_t offered = 0;
  for (const EvalRecording& rec : in.recordings) {
    offered += rec.windows.size();
  }
  const auto compare = [&](const EvalPassResult& p, const char* what) {
    for (std::size_t r = 0; r < p.results.size(); ++r) {
      checker.expect(sameResult(p.results[r], ref.results[r]),
                     in.recordings[r].name + ": " + what +
                         " RunResult differs from the bare run");
    }
  };

  const std::int64_t start = nowNs();
  const auto elapsedS = [&] { return static_cast<double>(nowNs() - start) / 1e9; };
  const double untracedBudget = options.trace ? options.seconds / 2 : options.seconds;
  const int minPasses = options.tiny ? 1 : 3;
  std::vector<double> wps;
  std::vector<double> setup;
  // Every pass serves the same frames in the same order.
  ItemTimes latency;
  ItemTimes recordingTimes;
  std::uint64_t allocs = 0;
  std::uint64_t frames = 0;
  std::uint64_t passFrames = 0;
  double wallNs = 0.0;
  for (int pass = 0; pass < minPasses || elapsedS() < untracedBudget; ++pass) {
    const EvalPassResult p =
        runEvalPass(in, options, PassKind::kMeasured, nullptr, checker);
    compare(p, "decorated");
    out.attempted += offered;
    out.failed += offered - std::min<std::uint64_t>(offered, p.frames);
    wps.push_back(ratioOf(static_cast<double>(p.frames), p.wallNs / 1e9));
    setup.insert(setup.end(), p.setupS.begin(), p.setupS.end());
    latency.addPass(p.latencyUs);
    recordingTimes.addPass(p.recordingUs);
    allocs += p.netAllocs;
    frames += p.frames;
    passFrames = p.frames;
    wallNs += p.wallNs;
  }
  // A pass's frames over the sum of every recording's fastest time (see
  // runNodeWorkload).
  const double untracedWps =
      ratioOf(static_cast<double>(passFrames), recordingTimes.total() / 1e6);
  out.passWindowsPerS = wps;

  std::uint64_t refFrames = 0;
  double ops = 0.0;
  ebbiot::PrCounts pooled;
  for (const ebbiot::RunResult& r : ref.results) {
    refFrames += r.frames;
    const auto it = std::find(r.thresholds.begin(), r.thresholds.end(), kIou);
    const auto t = static_cast<std::size_t>(it - r.thresholds.begin());
    checker.expect(it != r.thresholds.end(), "IoU sweep lacks 0.5");
    for (const ebbiot::PipelineRunStats& p : r.pipelines) {
      ops += static_cast<double>(p.totalOps.total());
      if (t < p.counts.size()) {
        pooled += p.counts[t];
      }
    }
  }
  Metrics& e = out.endToEnd;
  e.set("windows_per_s", untracedWps, "windows/s");
  e.set("window_latency_p50_us", latency.percentile(0.50), "us");
  e.set("window_latency_p99_us", latency.percentile(0.99), "us");
  e.set("ops_per_window", ratioOf(ops, static_cast<double>(refFrames)), "ops");
  e.set("windows_tracked_ratio",
        ratioOf(static_cast<double>(refFrames), static_cast<double>(offered)),
        "ratio");
  e.set("peak_rss_growth_mb", peakGrowth, "MB");
  e.set("setup_s", median(setup), "s");

  Metrics& l = out.layers;
  setLayerDefaults(l);
  for (const Metric& m : in.properties.items()) {
    l.set(m.name, m.value, m.unit);
  }
  l.set("precision_iou50", pooled.precision(), "ratio");
  l.set("recall_iou50", pooled.recall(), "ratio");
  l.set("node.latency_samples", static_cast<double>(latency.samples()), "samples");
  l.set("windows_lost_ratio",
        ratioOf(static_cast<double>(offered - std::min(offered, refFrames)),
                static_cast<double>(offered)),
        "ratio");
  l.set("steady_allocs_per_window",
        ratioOf(static_cast<double>(allocs), static_cast<double>(frames)),
        "allocs");

  if (options.trace) {
    TraceState trace;
    SpanTotals spanTotals;
    double tracedWallNs = 0.0;
    double tracedFrames = 0.0;
    for (int pass = 0; pass < 1 || elapsedS() < options.seconds; ++pass) {
      trace.recorder.clear();
      const EvalPassResult p =
          runEvalPass(in, options, PassKind::kTraced, &trace, checker);
      compare(p, "traced");
      spanTotals.add(trace.recorder.spans());
      out.spansTsv = spansToTsv(trace.recorder.spans());
      tracedWallNs += p.wallNs;
      tracedFrames += static_cast<double>(p.frames);
    }
    StageAccum merged = trace.source;
    for (const StageAccum& a : trace.slots) {
      merged.merge(a);
    }
    // Traced and untraced throughput both pooled over every pass.
    reportSpans(spanTotals, tracedFrames, tracedWallNs,
                ratioOf(static_cast<double>(frames), wallNs / 1e9), l);
    reportStages(merged, spanTotals, tracedFrames, l);
    const auto ns = [&](Stage s) {
      return merged.ns[static_cast<std::size_t>(s)];
    };
    const double runnerSelf =
        spanTotals.selfNs[static_cast<std::size_t>(SpanKind::kRunner)];
    l.set("core.runner_residual_us_per_frame",
          ratioOf(runnerSelf - ns(Stage::kLatch) - ns(Stage::kAnnotate) -
                      ns(Stage::kFrameStats) - ns(Stage::kMatch),
                  tracedFrames) / 1e3,
          "us");
    l.set("trace.spans_dropped", static_cast<double>(trace.recorder.dropped()),
          "count");
  }
  return out;
}

}  // namespace perfbench

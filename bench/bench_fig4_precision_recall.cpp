// Figure 4 — precision and recall vs IoU threshold for EBMS, KF and
// EBBIOT, weighted across the two recordings by ground-truth track count.
//
// Paper's qualitative result: "EBBIOT outperforms others and shows more
// stable precision and recall values for varying thresholds."
//
// Default: 90 s of each recording (set EBBIOT_BENCH_SECONDS to change;
// the traffic process is stationary so the curves converge quickly).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/runner.hpp"
#include "src/sim/recording.hpp"

namespace {

double benchSeconds() {
  if (const char* env = std::getenv("EBBIOT_BENCH_SECONDS")) {
    const double v = std::atof(env);
    if (v > 0.0) {
      return v;
    }
  }
  return 90.0;
}

}  // namespace

int main() {
  using namespace ebbiot;
  const double seconds = benchSeconds();
  std::printf("Figure 4 — precision/recall vs IoU threshold "
              "(%.0f s per recording)\n\n",
              seconds);

  // The recordings are independent syntheses, so the sweep shards them
  // across the shared scheduler (one task per recording); RunResults
  // land in per-recording slots and everything prints in fixed order
  // afterwards, identical to the serial sweep.
  std::vector<RecordingSpec> specs;
  for (const RecordingSpec& fullSpec :
       {makeSyntheticEng(), makeSyntheticLt4()}) {
    RecordingSpec spec = fullSpec;
    spec.durationS = seconds;
    specs.push_back(spec);
  }
  std::vector<RunResult> results(specs.size());
  globalThreadPool().parallelFor(specs.size(), [&](std::size_t i) {
    const RecordingSpec& spec = specs[i];
    Recording rec = openRecording(spec);
    const int width = spec.traffic.width;
    const int height = spec.traffic.height;
    RunnerConfig config = makeDefaultRunnerConfig(width, height);
    // Annotate objects as soon as a tenth is visible so entering/leaving
    // vehicles score against their tracks rather than as false positives.
    config.gtOptions.minVisibleFraction = 0.10F;
    if (spec.traffic.lensScale < 1.0F) {
      // 6 mm lens: smaller objects, relax the seed gates proportionally.
      config.variants.clear();
      config.extraPipelines = {
          [width, height] {
            EbbiotPipelineConfig c;
            c.width = width;
            c.height = height;
            c.tracker.minSeedArea = 6.0F;
            return std::make_unique<EbbiotPipeline>(c);
          },
          [width, height] {
            KalmanPipelineConfig c;
            c.width = width;
            c.height = height;
            c.tracker.minSeedArea = 6.0F;
            return std::make_unique<KalmanPipeline>(c);
          },
          [width, height] {
            EbmsPipelineConfig c;
            c.nnFilter.width = width;
            c.nnFilter.height = height;
            c.ebms.captureRadius = 18.0F;
            return std::make_unique<EbmsPipeline>(c);
          }};
    }
    results[i] = runRecording(*rec.source, *rec.scenario,
                              secondsToUs(spec.durationS), config);
  });

  std::vector<RecordingResult> ebbiotResults;
  std::vector<RecordingResult> kalmanResults;
  std::vector<RecordingResult> ebmsResults;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RecordingSpec& spec = specs[i];
    const RunResult& result = results[i];
    std::printf("  %s: %zu frames, %zu GT tracks, %zu GT boxes, "
                "%.0f events/frame\n",
                spec.name.c_str(), result.frames, result.gtTracks,
                result.gtBoxes, result.meanEventsPerFrame);
    ebbiotResults.push_back(
        result.toRecordingResult(*result.stats("EBBIOT"), spec.name));
    kalmanResults.push_back(
        result.toRecordingResult(*result.stats("EBBI+KF"), spec.name));
    ebmsResults.push_back(
        result.toRecordingResult(*result.stats("EBMS"), spec.name));
  }

  const auto ebbiotAvg = weightedAverage(ebbiotResults);
  const auto kalmanAvg = weightedAverage(kalmanResults);
  const auto ebmsAvg = weightedAverage(ebmsResults);

  std::printf("\n%-10s | %-21s | %-21s | %-21s\n", "", "EBMS", "KF (EBBI+KF)",
              "EBBIOT");
  std::printf("%-10s | %10s %10s | %10s %10s | %10s %10s\n", "IoU thr",
              "precision", "recall", "precision", "recall", "precision",
              "recall");
  std::printf("%.*s\n", 82,
              "----------------------------------------------------------"
              "--------------------------");
  for (std::size_t i = 0; i < ebbiotAvg.size(); ++i) {
    std::printf("%-10.2f | %10.3f %10.3f | %10.3f %10.3f | %10.3f %10.3f\n",
                ebbiotAvg[i].threshold, ebmsAvg[i].precision,
                ebmsAvg[i].recall, kalmanAvg[i].precision,
                kalmanAvg[i].recall, ebbiotAvg[i].precision,
                ebbiotAvg[i].recall);
  }

  // Stability summary (the paper's second claim for Fig. 4).
  auto stability = [](const std::vector<WeightedPr>& sweep) {
    // Relative drop in recall from the loosest threshold to IoU 0.5.
    double first = sweep.front().recall;
    double mid = first;
    for (const WeightedPr& p : sweep) {
      if (p.threshold >= 0.499F && p.threshold <= 0.501F) {
        mid = p.recall;
      }
    }
    return first > 0.0 ? (first - mid) / first : 1.0;
  };
  std::printf("\nRecall drop 0.1 -> 0.5 IoU (lower = more stable): "
              "EBMS %.2f, KF %.2f, EBBIOT %.2f\n",
              stability(ebmsAvg), stability(kalmanAvg),
              stability(ebbiotAvg));
  return 0;
}

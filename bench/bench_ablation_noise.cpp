// Ablation — sensor noise rate vs denoising strategy (Section II-A).
//
// Sweeps the background-activity rate and compares EBBIOT quality with
// the median filter enabled (paper pipeline) against a median-less
// variant (p = 1), plus the event-domain NN-filt + EBMS chain on the same
// streams.  Shows the salt-and-pepper robustness the EBBI + median design
// buys, and where everything degrades.
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/runner.hpp"
#include "src/sim/recording.hpp"

namespace {

ebbiot::RunResult runAt(double noiseHz, int medianPatch, bool withEbms) {
  using namespace ebbiot;
  RecordingSpec spec = makeSyntheticEng();
  spec.durationS = 40.0;
  spec.synth.backgroundActivityHz = noiseHz;
  Recording rec = openRecording(spec);
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.variants.clear();
  if (withEbms) {
    config.variants = {"EBMS"};
  }
  config.extraPipelines.push_back([medianPatch] {
    EbbiotPipelineConfig ebbiot;
    ebbiot.medianPatch = medianPatch;
    return std::make_unique<EbbiotPipeline>(ebbiot);
  });
  return runRecording(*rec.source, *rec.scenario,
                      secondsToUs(spec.durationS), config);
}

}  // namespace

int main() {
  using namespace ebbiot;
  std::printf("Noise ablation — SyntheticENG traffic, 40 s per setting, "
              "F1 at IoU 0.3\n\n");
  std::printf("%-14s %14s %14s %14s\n", "noise [Hz/px]", "EBBIOT p=3",
              "EBBIOT p=1", "NN-filt+EBMS");
  std::printf("%.*s\n", 60,
              "------------------------------------------------------------");

  // Every (noise, config) cell synthesizes its own recording, so the
  // grid shards across the shared scheduler; rows print in fixed order
  // from the per-cell slots, identical to the serial sweep.
  const std::vector<double> noiseLevels{0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0};
  std::vector<RunResult> withMedian(noiseLevels.size());
  std::vector<RunResult> noMedian(noiseLevels.size());
  globalThreadPool().parallelFor(2 * noiseLevels.size(), [&](std::size_t i) {
    const std::size_t level = i / 2;
    if (i % 2 == 0) {
      withMedian[level] = runAt(noiseLevels[level], 3, true);
    } else {
      noMedian[level] = runAt(noiseLevels[level], 1, false);
    }
  });
  for (std::size_t level = 0; level < noiseLevels.size(); ++level) {
    std::printf("%-14.1f %14.3f %14.3f %14.3f\n", noiseLevels[level],
                withMedian[level].stats("EBBIOT")->counts[2].f1(),
                noMedian[level].stats("EBBIOT")->counts[2].f1(),
                withMedian[level].stats("EBMS")->counts[2].f1());
  }
  std::printf("\n(The p = 3 median keeps the RPN clean well past typical "
              "DAVIS noise rates;\nwithout it, noise pixels seed ghost "
              "regions and precision collapses first.)\n");
  return 0;
}

// Ablation — region-proposal design (Section II-B + the paper's stated
// future work), one runRecording per sweep.
//
// Sweeps:
//   1. downsample factors (s1, s2): each grid point is a named pipeline
//      factory and a single runRecording evaluates the whole grid on the
//      same recording — proposal quality (end-to-end EBBIOT F1) vs RPN
//      compute, including the paper's (6, 3);
//   2. every pipeline in the *global* registry (histogram RPN, CCA,
//      NN-filtered, hybrid back ends, ...), same recording, one run.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/runner.hpp"
#include "src/sim/recording.hpp"

namespace {

ebbiot::RunResult runVariants(const ebbiot::RunnerConfig& config,
                              double seconds) {
  using namespace ebbiot;
  RecordingSpec spec = makeSyntheticEng();
  spec.durationS = seconds;
  Recording rec = openRecording(spec);
  return runRecording(*rec.source, *rec.scenario,
                      secondsToUs(spec.durationS), config);
}

}  // namespace

int main() {
  using namespace ebbiot;
  constexpr double kSeconds = 45.0;
  std::printf("RPN ablation — SyntheticENG, %.0f s "
              "(F1 at IoU 0.3 / 0.5)\n\n",
              kSeconds);

  std::printf("Downsample factor sweep (histogram RPN), one run over the "
              "registered grid:\n");
  std::printf("%-16s %10s %10s %14s\n", "variant", "F1@0.3", "F1@0.5",
              "pipe ops/fr");
  std::printf("%.*s\n", 54,
              "------------------------------------------------------");
  RunnerConfig grid = makeDefaultRunnerConfig(240, 180);
  grid.variants.clear();
  const std::pair<int, int> factors[] = {{1, 1}, {2, 2}, {4, 2}, {6, 3},
                                         {8, 4}, {12, 6}, {24, 12}};
  for (const auto& [s1, s2] : factors) {
    grid.extraPipelines.push_back([s1 = s1, s2 = s2] {
      EbbiotPipelineConfig pipe;
      pipe.rpn.s1 = s1;
      pipe.rpn.s2 = s2;
      return std::make_unique<EbbiotPipeline>(
          pipe, "EBBIOT-s" + std::to_string(s1) + "x" + std::to_string(s2));
    });
  }
  const RunnerConfig zoo = makeRegistryRunnerConfig(240, 180);
  // The grid run and the global-registry zoo run synthesize independent
  // recordings, so they shard across the shared scheduler as two tasks;
  // rows still print in fixed order below.
  std::vector<RunResult> sharded(2);
  globalThreadPool().parallelFor(sharded.size(), [&](std::size_t i) {
    sharded[i] = runVariants(i == 0 ? grid : zoo, kSeconds);
  });
  const RunResult& gridRun = sharded[0];
  for (const PipelineRunStats& stats : gridRun.pipelines) {
    std::printf("%-16s %10.3f %10.3f %14.0f\n", stats.name.c_str(),
                stats.counts[2].f1(), stats.counts[4].f1(),
                stats.meanOpsPerFrame());
  }

  std::printf("\nRegistered pipeline variants (global registry), one "
              "run:\n");
  std::printf("%-18s %10s %10s %14s\n", "variant", "F1@0.3", "F1@0.5",
              "pipe ops/fr");
  std::printf("%.*s\n", 56,
              "--------------------------------------------------------");
  for (const PipelineRunStats& stats : sharded[1].pipelines) {
    std::printf("%-18s %10.3f %10.3f %14.0f\n", stats.name.c_str(),
                stats.counts[2].f1(), stats.counts[4].f1(),
                stats.meanOpsPerFrame());
  }

  std::printf("\n(The histogram RPN trades a little box tightness for a "
              "large compute cut;\nregister new grid points or back ends "
              "with variantRegistry().add(...) to\nextend either sweep.)\n");
  return 0;
}

// Variant zoo — every registered pipeline, one recording, one call.
//
// Demonstrates the variant registry (src/core/variant_registry.hpp):
// makeRegistryRunnerConfig() asks runRecording() for *all registered
// variants* — the paper's three built-ins plus the EBBINNOT NN-filtered,
// hybrid-tracker and CCA back ends — and prints each variant's
// precision/recall and measured cost side by side.  Registering your own
// variant is the one add() call at the top.
#include <cstdio>
#include <memory>

#include "src/core/runner.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/scene.hpp"

int main() {
  using namespace ebbiot;

  // A custom variant rides along with one registration: the paper
  // pipeline with coarser 12 x 6 RPN blocks.
  if (!variantRegistry().contains("EBBIOT-s12x6")) {
    variantRegistry().add(
        "EBBIOT-s12x6", "paper pipeline with 12x6 RPN blocks",
        [](const VariantContext& ctx) {
          EbbiotPipelineConfig config;
          config.width = ctx.width;
          config.height = ctx.height;
          config.rpn.s1 = 12;
          config.rpn.s2 = 6;
          return std::make_unique<EbbiotPipeline>(config, "EBBIOT-s12x6");
        });
  }

  // Two vehicles crossing over light background noise.
  ScriptedScene scene(240, 180);
  scene.addLinear(ObjectClass::kCar, BBox{-48, 60, 48, 22}, Vec2f{60, 0}, 0,
                  secondsToUs(12.0));
  scene.addLinear(ObjectClass::kVan, BBox{240, 100, 60, 28}, Vec2f{-45, 0},
                  secondsToUs(1.0), secondsToUs(12.0));
  EventSynthConfig synthConfig;
  synthConfig.backgroundActivityHz = 0.3;
  synthConfig.seed = 17;
  FastEventSynth synth(scene, synthConfig);

  // One call evaluates the whole registry under the same protocol.
  const RunnerConfig config = makeRegistryRunnerConfig(240, 180);
  const RunResult run =
      runRecording(synth, scene, secondsToUs(10.0), config);

  std::printf("Variant zoo — %zu registered pipelines, %zu frames, "
              "%zu GT tracks\n\n",
              run.pipelines.size(), run.frames, run.gtTracks);
  std::printf("%-18s %10s %10s %10s %14s %14s\n", "variant", "P@0.3",
              "R@0.3", "F1@0.3", "kops/frame", "accesses/fr");
  std::printf("%.*s\n", 80,
              "----------------------------------------------------------"
              "----------------------");
  for (const PipelineRunStats& stats : run.pipelines) {
    const double frames = static_cast<double>(stats.frames);
    std::printf("%-18s %10.3f %10.3f %10.3f %14.1f %14.0f\n",
                stats.name.c_str(), stats.counts[2].precision(),
                stats.counts[2].recall(), stats.counts[2].f1(),
                stats.meanOpsPerFrame() / 1e3,
                frames > 0.0
                    ? static_cast<double>(stats.totalOps.memAccesses()) /
                          frames
                    : 0.0);
  }

  std::printf("\nDescriptions:\n");
  for (const VariantInfo& v : variantRegistry().variants()) {
    std::printf("  %-18s %s\n", v.key.c_str(), v.description.c_str());
  }
  return 0;
}

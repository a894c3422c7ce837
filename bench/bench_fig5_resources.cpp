// Figure 5 — total computes per frame and total memory of the EBMS chain
// and EBBI+KF, relative to EBBIOT — extended to every pipeline in the
// variant registry (the EBBINNOT NN-filtered and hybrid back ends ride
// along in the same run).
//
// Two independent columns:
//   * "model": the paper's own accounting, Eqs. (1)-(8) (bench_costmodels
//     breaks these down block by block), plus the extension models for
//     the registry variants;
//   * "measured": operation counts metered inside the running pipelines
//     on SyntheticENG traffic (exact counts of compares / adds /
//     multiplies / memory writes the implementations actually performed).
//     Memory *reads* are tracked separately (the paper's op budget
//     excludes them) and reported as accesses/frame — this column now
//     includes the RPN tighten pass and the median patch fetches.
//
// The paper's claims: EBMS chain ~3x computes and ~7x memory of EBBIOT;
// EBBI+KF is compute-comparable (front-end dominated).
#include <cstdio>
#include <cstdlib>

#include "src/core/runner.hpp"
#include "src/resource/cost_model.hpp"
#include "src/sim/recording.hpp"

namespace {

double benchSeconds() {
  if (const char* env = std::getenv("EBBIOT_BENCH_SECONDS")) {
    const double v = std::atof(env);
    if (v > 0.0) {
      return v;
    }
  }
  return 60.0;
}

}  // namespace

int main() {
  using namespace ebbiot;
  const double seconds = benchSeconds();

  // --- Measured side: one run sweeps every registered variant, with
  // the variants sharded across the scheduler's stage graph (threads = 0
  // resolves to the hardware width; the front end of window N+1 overlaps
  // the pipeline evaluations of window N).  The RunResult is
  // bit-identical to the serial run, so every number below is too.
  RecordingSpec spec = makeSyntheticEng();
  spec.durationS = seconds;
  Recording rec = openRecording(spec);
  RunnerConfig config = makeRegistryRunnerConfig(spec.traffic.width,
                                                 spec.traffic.height);
  config.threads = 0;
  const RunResult run = runRecording(*rec.source, *rec.scenario,
                                     secondsToUs(spec.durationS), config);

  const PipelineRunStats& ebms = *run.stats("EBMS");
  const double measuredOurs = run.stats("EBBIOT")->meanOpsPerFrame();

  // --- Model side, at the operating point measured from this very run
  // (alpha, beta, NF feed Eqs. (1), (2), (8)).
  PipelineCostParams params;
  params.ebbi.alpha = run.meanAlpha;
  params.nnFilt.alpha = run.meanAlpha;
  params.nnFilt.beta = run.meanBeta;
  params.ebms.nF = ebms.filteredEventsPerFrame;
  const CostEstimate modelOurs = ebbiotPipelineCost(params);

  // Closed-form counterpart of each registered variant (0 = no model).
  auto modelFor = [&](const std::string& name) {
    return costModelForVariant(name, params);
  };

  std::printf("Figure 5 — resource comparison (SyntheticENG, %.0f s, "
              "%zu frames, %zu registered variants)\n",
              seconds, run.frames, run.pipelines.size());
  std::printf("operating point: alpha = %.4f, beta = %.2f, NF = %.0f "
              "events/frame after NN-filt\n\n",
              run.meanAlpha, run.meanBeta, ebms.filteredEventsPerFrame);

  std::printf("%-16s %16s %16s %14s %16s\n", "pipeline", "model ops/fr",
              "measured ops/fr", "model mem[kB]", "measured acc/fr");
  std::printf("%.*s\n", 84,
              "----------------------------------------------------------"
              "--------------------------");
  for (const PipelineRunStats& stats : run.pipelines) {
    const CostEstimate model = modelFor(stats.name);
    const double frames = static_cast<double>(stats.frames);
    const double accesses =
        frames > 0.0
            ? static_cast<double>(stats.totalOps.memAccesses()) / frames
            : 0.0;
    if (model.computesPerFrame > 0.0) {
      std::printf("%-16s %16.0f %16.0f %14.2f %16.0f\n", stats.name.c_str(),
                  model.computesPerFrame, stats.meanOpsPerFrame(),
                  model.memoryBits / 8.0 / 1024.0, accesses);
    } else {
      std::printf("%-16s %16s %16.0f %14s %16.0f\n", stats.name.c_str(),
                  "-", stats.meanOpsPerFrame(), "-", accesses);
    }
  }

  std::printf("\nRelative to EBBIOT (the Fig. 5 bars):\n");
  std::printf("%-16s %14s %14s %14s\n", "pipeline", "model ops",
              "measured ops", "model memory");
  for (const PipelineRunStats& stats : run.pipelines) {
    if (stats.name == "EBBIOT") {
      continue;
    }
    const CostEstimate model = modelFor(stats.name);
    if (model.computesPerFrame > 0.0) {
      std::printf("%-16s %14.2fx %14.2fx %14.2fx\n", stats.name.c_str(),
                  model.computesPerFrame / modelOurs.computesPerFrame,
                  stats.meanOpsPerFrame() / measuredOurs,
                  model.memoryBits / modelOurs.memoryBits);
    } else {
      std::printf("%-16s %14s %14.2fx %14s\n", stats.name.c_str(), "-",
                  stats.meanOpsPerFrame() / measuredOurs, "-");
    }
  }
  std::printf("\n(paper: EBMS chain ~3x computes, ~7x memory of EBBIOT)\n");

  const double measuredEbms = ebms.meanOpsPerFrame();
  std::printf(
      "\nNote on measured EBMS ops: Eq. (8) charges ~%.0f ops per filtered\n"
      "event (9*CL^2 + (169 + 16*g)*CL + 11 at CL = 2), the cost of the\n"
      "jAER-style cluster tracker the paper assumed.  Our lean\n"
      "reimplementation measures ~%.0f ops/event, so the *measured* EBMS\n"
      "bar sits below the model's.  The memory comparison and the\n"
      "frame-domain measurements are implementation-faithful; see\n"
      "README.md, \"Model gaps\", for the discussion.\n",
      9.0 * 4.0 + (169.0 + 1.6) * 2.0 + 11.0,
      ebms.filteredEventsPerFrame > 0.0
          ? (measuredEbms -
             run.meanEventsPerFrame * 32.0) /  // NN-filt share (Eq. 2)
                ebms.filteredEventsPerFrame
          : 0.0);
  std::printf(
      "\nNote on the median stage: measured compute is Eq. (1)'s fixed\n"
      "2*A*B floor (activity-independent); the ~p^2*A*B patch fetches are\n"
      "reported in the accesses/frame column, not in ops/frame — Section\n"
      "II-A keeps reads out of the op budget.  The model column still\n"
      "charges the paper's alpha*p^2*A*B counter term, so measured\n"
      "frame-domain ops sit slightly below the model at alpha ~ 0.1.\n");
  return 0;
}

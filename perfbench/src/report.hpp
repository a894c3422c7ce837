// Metric naming and derivation shared by the workloads: the full
// per-layer metric list (zero where a layer is idle on a workload), the
// per-layer numbers derived from span totals and stage replays, and the
// cost-model cross-check (measured ops next to Eqs. (1)-(8)).
#pragma once

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

/// Every per-layer metric, value 0, in report order.
void setLayerDefaults(Metrics& m);

/// node.* self times, core.pipeline_us_per_window.<variant> and trace.*
/// from the analysed spans of the traced passes.  `windows` is the
/// number of end-to-end windows (node) or frames (evaluation) traced;
/// `wallNs` the wall time of the traced loops; `untracedWps` the untraced
/// throughput of the same run, for trace.overhead_ratio.
void reportSpans(const SpanTotals& spans, double windows, double wallNs,
                 double untracedWps, Metrics& m);

/// Stage times, ops and operating point from the replays, the
/// core.stage_residual_us_per_window closure term, and the
/// <layer>.<stage>_ops_vs_model cost-model ratios.
void reportStages(const StageAccum& acc, const SpanTotals& spans,
                  double windows, Metrics& m);

/// Stage-replay time summed over the stages that partition a
/// pipeline's processWindow.
[[nodiscard]] double pipelineStageNs(const StageAccum& acc);

}  // namespace perfbench

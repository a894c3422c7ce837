// The four workloads.  Each generates its inputs from the seed, then
// runs passes until the measurement time is spent: a reference pass that
// is checked in full, then measured passes whose outputs must repeat the
// reference exactly.  With Options::trace the first half of the time is
// measured untraced (the baseline for trace.overhead_ratio) and the
// second half traced.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// eng_ebbiot, wide_ebms, fleet_faults: closed-loop node on the virtual
/// clock — each round offers every sensor's due bytes, then pumps.
[[nodiscard]] RunOutput runNodeWorkload(const Options& options,
                                        Checker& checker);

/// eval_fig4: runRecording over pre-generated ENG + LT4 windows with
/// every registered variant.
[[nodiscard]] RunOutput runEvalWorkload(const Options& options,
                                        Checker& checker);

}  // namespace perfbench

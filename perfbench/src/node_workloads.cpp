// Node workloads: wire bytes -> SensorSession -> NodeSupervisor::pump ->
// PipelineSink -> tracks, driven as a closed loop by one thread on the
// sessions' virtual clock.  Round r (virtual time (r+1) * tF) offers every
// sensor's deliveries that are due, then ticks the watchdogs, pumps, and
// idles-coasts stalled sensors — so every node decision (watchdog,
// backoff, shedding, coasting) is the same on every host and run.
#include <algorithm>
#include <memory>
#include <utility>

#include "inputs.hpp"
#include "report.hpp"
#include "src/common/thread_pool.hpp"
#include "src/eval/matching.hpp"
#include "src/node/node_supervisor.hpp"
#include "src/node/pipeline_sink.hpp"
#include "trace.hpp"
#include "traced_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ebbiot::TimeUs;

/// Rounds of every pass that count as set-up (warm-up), not measurement.
constexpr std::size_t kWarmupRounds = 8;
/// Sensor 0's delivery the drop perturbation withholds, and the frame
/// whose tracks the alter perturbation changes.
constexpr std::uint32_t kPerturbIndex = 5;
constexpr std::size_t kSpanCapacity = 400'000;
constexpr float kIou = 0.5F;

/// State every probe of a pass shares.  The feeding thread writes it
/// between rounds; the drains it triggers read it (the pool's task
/// hand-off orders the accesses).
struct PassState {
  SpanRecorder* spans = nullptr;
  bool timing = false;        ///< inside the measured rounds
  bool recordTracks = false;  ///< reference pass: keep every window's tracks
  std::vector<std::int64_t> offerStamp;  ///< per sensor, last offerBytes
};

/// Thin forwarding WindowSink around PipelineSink: the latency probe
/// (completion stamp against the feeding thread's last offer of the sensor in
/// the round), a digest of every window's tracks, and in the traced run
/// the node.sink span.  Allocates nothing outside the reference pass.
class ProbeSink final : public ebbiot::WindowSink {
 public:
  ProbeSink(ebbiot::PipelineSink& inner, PassState& pass, std::uint16_t sensor,
            std::size_t latencyCapacity)
      : inner_(inner), pass_(pass), sensor_(sensor), latency_(latencyCapacity) {}

  void onWindow(const ebbiot::EventPacket& window, std::uint32_t seq,
                TimeUs ingestTime) override {
    {
      const ScopedSpan span(pass_.spans, SpanKind::kSink, sensor_, seq);
      inner_.onWindow(window, seq, ingestTime);
    }
    const std::int64_t done = nowNs();
    ++windows_;
    ops_ += inner_.pipeline().lastOps().total();
    if (pass_.timing && latencyCount_ < latency_.size()) {
      latency_[latencyCount_++] = done - pass_.offerStamp[sensor_];
    }
    const ebbiot::Tracks& tracks = inner_.lastTracks();
    digest_.addValue(seq);
    digest_.addTracks(tracks);
    if (pass_.recordTracks) {
      recorded_.emplace_back(seq, tracks);
    }
  }

  bool coastIdle() {
    const ScopedSpan span(pass_.spans, SpanKind::kSink, sensor_);
    return inner_.coastIdle();
  }

  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_.value(); }
  [[nodiscard]] std::span<const std::int64_t> latencies() const {
    return {latency_.data(), latencyCount_};
  }
  [[nodiscard]] std::vector<std::pair<std::uint32_t, ebbiot::Tracks>>&
  recorded() {
    return recorded_;
  }

 private:
  ebbiot::PipelineSink& inner_;
  PassState& pass_;
  std::uint16_t sensor_;
  std::vector<std::int64_t> latency_;
  std::size_t latencyCount_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t ops_ = 0;
  Fnv digest_;
  std::vector<std::pair<std::uint32_t, ebbiot::Tracks>> recorded_;
};

/// One node instance; rebuilt for every pass.  Members are destroyed in
/// reverse order: the supervisor before the probes it points to, the
/// probes before the sinks they forward to.
struct Node {
  std::vector<std::unique_ptr<ebbiot::PipelineSink>> sinks;
  std::vector<std::unique_ptr<ProbeSink>> probes;
  std::vector<ebbiot::SensorSession*> sessions;
  std::unique_ptr<ebbiot::NodeSupervisor> supervisor;
};

enum class PassKind { kReference, kMeasured, kTraced };

struct PassResult {
  double setupNs = 0.0;   ///< construction + warm-up rounds
  double timedNs = 0.0;   ///< rounds after warm-up
  double roundsNs = 0.0;  ///< every round
  std::uint64_t timedWindows = 0;
  std::uint64_t windows = 0;
  std::uint64_t timedAllocs = 0;
  std::uint64_t backlogMax = 0;
  std::uint64_t bytesOffered = 0;
  std::uint64_t ops = 0;
  std::vector<double> latencyUs;
  std::vector<double> roundUs;  ///< every round after warm-up
  std::vector<std::uint64_t> digests;
  std::vector<ebbiot::SessionCounters> sessions;
  std::vector<ebbiot::PipelineSink::Counters> sinks;
  std::vector<std::uint64_t> probeWindows;
  std::vector<std::vector<std::pair<std::uint32_t, ebbiot::Tracks>>> recorded;
};

/// `accums` set: traced pass.  `alterTrack`: sensor 0's pipeline appends a
/// bogus track to frame kPerturbIndex, so the sink emits the altered tracks.
Node buildNode(const NodeInputs& in, ebbiot::ThreadPool& pool, PassState& pass,
               std::vector<StageAccum>* accums, bool alterTrack,
               Checker& checker) {
  Node node;
  node.supervisor = std::make_unique<ebbiot::NodeSupervisor>(in.node, pool);
  for (std::size_t s = 0; s < in.sensors.size(); ++s) {
    const SensorStream& sensor = in.sensors[s];
    std::unique_ptr<ebbiot::Pipeline> pipeline = makeSensorPipeline(sensor);
    const bool alter = alterTrack && s == 0;
    if (accums != nullptr || alter) {
      ForwardingHooks hooks;
      if (accums != nullptr) {
        hooks.spans = pass.spans;
        hooks.accum = &(*accums)[s];
        hooks.checker = &checker;
      }
      if (alter) {
        hooks.alterFrame = kPerturbIndex;
      }
      hooks.framePeriod = in.framePeriod;
      hooks.sensor = sensor.id;
      pipeline = std::make_unique<ForwardingPipeline>(std::move(pipeline),
                                                      std::move(hooks), 0);
    }
    node.sinks.push_back(std::make_unique<ebbiot::PipelineSink>(
        std::move(pipeline), sensor.width, sensor.height, in.sink));
    node.probes.push_back(std::make_unique<ProbeSink>(
        *node.sinks.back(), pass, sensor.id,
        sensor.windows + sensor.floodCopies + kWarmupRounds));
    node.sessions.push_back(&node.supervisor->addSensor(
        {sensor.id, sensor.priority, node.probes.back().get()}));
  }
  return node;
}

void runRound(Node& node, const NodeInputs& in, PassState& pass,
              std::vector<std::size_t>& cursor, TimeUs now, bool dropOne,
              PassResult& res) {
  for (std::size_t s = 0; s < in.sensors.size(); ++s) {
    const SensorStream& sensor = in.sensors[s];
    std::size_t& c = cursor[s];
    for (; c < sensor.deliveries.size() && sensor.deliveries[c].due <= now; ++c) {
      if (dropOne && s == 0 && c == kPerturbIndex) {
        continue;
      }
      const Delivery& d = sensor.deliveries[c];
      pass.offerStamp[s] = nowNs();
      {
        const ScopedSpan span(pass.spans, SpanKind::kOffer, sensor.id,
                              static_cast<std::uint32_t>(c));
        node.supervisor->offerBytes(sensor.id, d.bytes, d.due);
      }
      res.bytesOffered += d.bytes.size();
    }
  }
  const ScopedSpan span(pass.spans, SpanKind::kPump);
  if (pass.spans != nullptr) {
    pass.spans->setFallbackParent(span.id());
  }
  res.backlogMax = std::max<std::uint64_t>(res.backlogMax,
                                           node.supervisor->totalBacklog());
  node.supervisor->tickWatchdogs(now);
  (void)node.supervisor->pump(now);
  for (std::size_t s = 0; s < node.sessions.size(); ++s) {
    if (node.sessions[s]->state() == ebbiot::SessionState::kStalled) {
      (void)node.probes[s]->coastIdle();
    }
  }
  if (pass.spans != nullptr) {
    pass.spans->setFallbackParent(-1);
  }
}

PassResult runPass(const NodeInputs& in, ebbiot::ThreadPool& pool,
                   const Options& options, PassKind kind, SpanRecorder* spans,
                   std::vector<StageAccum>* accums, Checker& checker) {
  PassResult res;
  PassState pass;
  pass.spans = kind == PassKind::kTraced ? spans : nullptr;
  pass.recordTracks = kind == PassKind::kReference;
  // A perturbation must trip the check against an independent witness:
  // the bare pipeline on the clean workloads (so the reference pass is
  // perturbed too), the reference pass on fleet_faults.
  const bool perturbed = in.clean || kind != PassKind::kReference;
  const bool dropOne = perturbed && options.perturb == Perturb::kDropWindow;
  const bool alterTrack = perturbed && options.perturb == Perturb::kAlterTrack;
  pass.offerStamp.assign(in.sensors.size(), 0);

  TimeUs lastDue = 0;
  for (const SensorStream& sensor : in.sensors) {
    if (!sensor.deliveries.empty()) {
      lastDue = std::max(lastDue, sensor.deliveries.back().due);
    }
  }
  // Round r runs at (r+1) * tF; the last one is a flush after every due
  // delivery.
  const auto rounds = static_cast<std::size_t>(lastDue / in.framePeriod) + 1;

  const std::int64_t t0 = nowNs();
  Node node = buildNode(in, pool, pass,
                        kind == PassKind::kTraced ? accums : nullptr, alterTrack,
                        checker);
  std::vector<std::size_t> cursor(in.sensors.size(), 0);
  const auto now = [&](std::size_t r) {
    return static_cast<TimeUs>(r + 1) * in.framePeriod;
  };
  const std::int64_t roundsStart = nowNs();
  std::size_t r = 0;
  for (; r < kWarmupRounds && r < rounds; ++r) {
    runRound(node, in, pass, cursor, now(r), dropOne, res);
  }
  const std::int64_t timedStart = nowNs();
  res.setupNs = static_cast<double>(timedStart - t0);
  std::uint64_t windowsBefore = 0;
  for (const auto& p : node.probes) {
    windowsBefore += p->windows();
  }
  pass.timing = true;
  res.roundUs.reserve(rounds - r);
  const std::uint64_t allocs0 = allocsTotal();
  std::int64_t roundStart = timedStart;
  for (; r < rounds; ++r) {
    runRound(node, in, pass, cursor, now(r), dropOne, res);
    const std::int64_t roundEnd = nowNs();
    res.roundUs.push_back(static_cast<double>(roundEnd - roundStart) / 1e3);
    roundStart = roundEnd;
  }
  const std::uint64_t allocs1 = allocsTotal();
  const std::int64_t timedEnd = roundStart;
  pass.timing = false;
  res.timedNs = static_cast<double>(timedEnd - timedStart);
  res.roundsNs = static_cast<double>(timedEnd - roundsStart);
  res.timedAllocs = allocs1 - allocs0;

  for (std::size_t s = 0; s < in.sensors.size(); ++s) {
    ProbeSink& probe = *node.probes[s];
    res.windows += probe.windows();
    res.ops += probe.ops();
    for (const std::int64_t ns : probe.latencies()) {
      res.latencyUs.push_back(static_cast<double>(ns) / 1e3);
    }
    res.digests.push_back(probe.digest());
    res.sessions.push_back(node.sessions[s]->counters());
    res.sinks.push_back(node.sinks[s]->counters());
    res.probeWindows.push_back(probe.windows());
    checker.expect(node.sessions[s]->backlog() == 0,
                   "sensor " + std::to_string(s) + ": backlog left after flush");
    if (pass.recordTracks) {
      res.recorded.push_back(std::move(probe.recorded()));
    }
  }
  res.timedWindows = res.windows - windowsBefore;
  return res;
}

/// Windows a pass leaves unaccounted for, after checking every identity
/// between the feeding thread, the sessions, the sinks and the probes.
std::uint64_t checkPass(const NodeInputs& in, const PassResult* ref,
                        const PassResult& res, Checker& checker) {
  std::uint64_t unaccounted = 0;
  for (std::size_t s = 0; s < in.sensors.size(); ++s) {
    const std::string who = "sensor " + std::to_string(s) + ": ";
    const ebbiot::SessionCounters& c = res.sessions[s];
    const ebbiot::PipelineSink::Counters& k = res.sinks[s];
    const std::uint64_t out = c.windowsDelivered + c.windowsShedStale +
                              c.windowsShedOverload + c.windowsRejected;
    checker.expect(c.framesAccepted == out,
                   who + "accepted != delivered + shed + rejected");
    unaccounted += c.framesAccepted > out ? c.framesAccepted - out
                                          : out - c.framesAccepted;
    if (c.bytesIgnoredQuarantined == 0) {
      checker.expect(c.framesDecoded == c.framesAccepted + c.outOfOrderDropped +
                                            c.timestampRegressions,
                     who + "decoded != accepted + out-of-order + regressed");
    }
    checker.expect(k.windowsTracked == c.windowsDelivered &&
                       res.probeWindows[s] == c.windowsDelivered,
                   who + "sink/probe windows != session deliveries");
    if (in.clean) {
      const SensorStream& sensor = in.sensors[s];
      unaccounted += sensor.windows - std::min<std::uint64_t>(
                                          sensor.windows, k.windowsTracked);
      checker.expect(k.windowsTracked == sensor.windows &&
                         c.framesCorrupted == 0 && k.windowsCoasted == 0,
                     who + "clean stream lost, corrupted or coasted windows");
    }
    if (ref != nullptr) {
      checker.expect(res.digests[s] == ref->digests[s],
                     who + "tracks differ from the reference pass");
      checker.expect(c == ref->sessions[s] && k == ref->sinks[s],
                     who + "node counters differ from the reference pass");
    }
  }
  return unaccounted;
}

/// Reference pass of a clean workload: every window's tracks are
/// bit-identical to the bare in-process pipeline's.
void checkAgainstBare(const NodeInputs& in, const PassResult& ref,
                      Checker& checker) {
  for (std::size_t s = 0; s < in.sensors.size(); ++s) {
    const auto& rec = ref.recorded[s];
    const SensorStream& sensor = in.sensors[s];
    bool same = rec.size() == sensor.reference.size();
    for (std::size_t k = 0; same && k < rec.size(); ++k) {
      same = rec[k].first == k && rec[k].second == sensor.reference[k];
    }
    checker.expect(same, "sensor " + std::to_string(s) +
                             ": node tracks differ from the bare pipeline");
  }
}

struct Accuracy {
  std::uint64_t truePositives = 0;
  std::uint64_t predictions = 0;
  std::uint64_t groundTruths = 0;
};

/// Pooled IoU-0.5 matching of the reference pass's tracks against every
/// pristine window's ground truth; windows never tracked count their GT
/// boxes as misses.
Accuracy scoreAccuracy(const NodeInputs& in, const PassResult& ref) {
  Accuracy acc;
  for (std::size_t s = 0; s < in.sensors.size(); ++s) {
    const SensorStream& sensor = in.sensors[s];
    std::vector<const ebbiot::Tracks*> bySeq(sensor.windows, nullptr);
    for (const auto& [seq, tracks] : ref.recorded[s]) {
      if (seq < bySeq.size()) {
        bySeq[seq] = &tracks;
      }
    }
    for (std::size_t k = 0; k < sensor.windows; ++k) {
      ebbiot::Tracks clipped;
      if (bySeq[k] != nullptr) {
        for (const ebbiot::Track& t : *bySeq[k]) {
          ebbiot::Track c = t;
          c.box = ebbiot::clampToFrame(t.box, sensor.width, sensor.height);
          if (!c.box.empty()) {
            clipped.push_back(c);
          }
        }
      }
      const ebbiot::FrameMatchResult r =
          ebbiot::matchFrame(clipped, sensor.gt[k], kIou);
      acc.truePositives += r.truePositives();
      acc.predictions += r.predictions;
      acc.groundTruths += r.groundTruths;
    }
  }
  return acc;
}

}  // namespace

RunOutput runNodeWorkload(const Options& options, Checker& checker) {
  const NodeInputs in = makeNodeInputs(options);
  RunOutput out;
  out.inputs = in.properties;
  out.inputFingerprint = in.fingerprint;

  ebbiot::ThreadPool referencePool(1);
  std::unique_ptr<ebbiot::ThreadPool> wide;
  if (in.poolThreads > 1) {
    wide = std::make_unique<ebbiot::ThreadPool>(in.poolThreads);
  }
  ebbiot::ThreadPool& pool = wide != nullptr ? *wide : referencePool;

  // Reference pass (single-thread pump): checked in full, and the source
  // of the accuracy, node-counter and memory figures, which do not depend
  // on thread scheduling.
  resetPeakRss();
  const double rssBase = rssMb();
  const PassResult ref = runPass(in, referencePool, options, PassKind::kReference,
                                 nullptr, nullptr, checker);
  const double peakGrowth = peakRssMb() - rssBase;
  (void)checkPass(in, nullptr, ref, checker);
  if (in.clean) {
    checkAgainstBare(in, ref, checker);
  }
  std::uint64_t offered = 0;
  for (const SensorStream& sensor : in.sensors) {
    offered += sensor.windows + sensor.floodCopies;
  }
  std::uint64_t tracked = 0;
  ebbiot::SessionCounters totals;
  ebbiot::PipelineSink::Counters sinkTotals;
  for (std::size_t s = 0; s < in.sensors.size(); ++s) {
    const ebbiot::SessionCounters& c = ref.sessions[s];
    tracked += ref.sinks[s].windowsTracked;
    totals.windowsShedStale += c.windowsShedStale;
    totals.windowsShedOverload += c.windowsShedOverload;
    totals.resyncs += c.resyncs;
    totals.framesCorrupted += c.framesCorrupted;
    sinkTotals.windowsCoasted += ref.sinks[s].windowsCoasted;
    sinkTotals.idleCoastWindows += ref.sinks[s].idleCoastWindows;
    sinkTotals.resyncRestores += ref.sinks[s].resyncRestores;
  }
  const Accuracy accuracy = scoreAccuracy(in, ref);

  const std::int64_t start = nowNs();
  const auto elapsedS = [&] { return static_cast<double>(nowNs() - start) / 1e9; };
  const double untracedBudget = options.trace ? options.seconds / 2 : options.seconds;
  const int minPasses = options.tiny ? 1 : 3;
  std::vector<double> wps;
  std::vector<double> setup;
  // Every pass delivers the same windows in the same rounds (checkPass
  // holds it to the reference pass's digests and counters).
  ItemTimes latency;
  ItemTimes roundTimes;
  std::uint64_t allocs = 0;
  std::uint64_t timedWindows = 0;
  std::uint64_t passWindows = 0;
  double allWindows = 0.0;
  double allRoundsNs = 0.0;
  for (int pass = 0; pass < minPasses || elapsedS() < untracedBudget; ++pass) {
    PassResult p = runPass(in, pool, options, PassKind::kMeasured, nullptr,
                           nullptr, checker);
    out.failed += checkPass(in, &ref, p, checker);
    out.attempted += offered;
    wps.push_back(ratioOf(static_cast<double>(p.timedWindows), p.timedNs / 1e9));
    setup.push_back(p.setupNs / 1e9);
    latency.addPass(p.latencyUs);
    roundTimes.addPass(p.roundUs);
    allocs += p.timedAllocs;
    timedWindows += p.timedWindows;
    passWindows = p.timedWindows;
    allWindows += static_cast<double>(p.windows);
    allRoundsNs += p.roundsNs;
  }
  // A pass's windows over the sum of every round's fastest time: the
  // host's speed shifts between levels for seconds at a time, and any
  // average over passes moves with whichever level held the run.
  const double untracedWps =
      ratioOf(static_cast<double>(passWindows), roundTimes.total() / 1e6);
  out.passWindowsPerS = wps;

  Metrics& e = out.endToEnd;
  e.set("windows_per_s", untracedWps, "windows/s");
  e.set("window_latency_p50_us", latency.percentile(0.50), "us");
  e.set("window_latency_p99_us", latency.percentile(0.99), "us");
  e.set("ops_per_window", ratioOf(static_cast<double>(ref.ops),
                                  static_cast<double>(ref.windows)), "ops");
  e.set("windows_tracked_ratio",
        ratioOf(static_cast<double>(tracked), static_cast<double>(offered)),
        "ratio");
  e.set("peak_rss_growth_mb", peakGrowth, "MB");
  e.set("setup_s", medianOfBlockMinima(setup), "s");

  Metrics& l = out.layers;
  setLayerDefaults(l);
  for (const Metric& m : in.properties.items()) {
    l.set(m.name, m.value, m.unit);
  }
  l.set("precision_iou50", ratioOf(static_cast<double>(accuracy.truePositives),
                                   static_cast<double>(accuracy.predictions)),
        "ratio");
  l.set("recall_iou50", ratioOf(static_cast<double>(accuracy.truePositives),
                                static_cast<double>(accuracy.groundTruths)),
        "ratio");
  l.set("node.bytes_per_window",
        ratioOf(static_cast<double>(ref.bytesOffered), static_cast<double>(offered)),
        "B");
  l.set("node.backlog_max", static_cast<double>(ref.backlogMax), "windows");
  l.set("node.windows_shed",
        static_cast<double>(totals.windowsShedStale + totals.windowsShedOverload),
        "windows");
  l.set("node.resyncs", static_cast<double>(totals.resyncs), "count");
  l.set("node.frames_corrupted", static_cast<double>(totals.framesCorrupted),
        "frames");
  l.set("node.windows_coasted",
        static_cast<double>(sinkTotals.windowsCoasted + sinkTotals.idleCoastWindows),
        "windows");
  l.set("node.resync_restores", static_cast<double>(sinkTotals.resyncRestores),
        "count");
  l.set("node.latency_samples", static_cast<double>(latency.samples()), "samples");
  l.set("windows_lost_ratio",
        ratioOf(static_cast<double>(offered - std::min(offered, tracked)),
                static_cast<double>(offered)),
        "ratio");
  l.set("steady_allocs_per_window",
        ratioOf(static_cast<double>(allocs), static_cast<double>(timedWindows)),
        "allocs");

  if (options.trace) {
    SpanRecorder recorder(kSpanCapacity);
    std::vector<StageAccum> accums(in.sensors.size());
    SpanTotals spanTotals;
    double wallNs = 0.0;
    double windows = 0.0;
    for (int pass = 0; pass < 1 || elapsedS() < options.seconds; ++pass) {
      recorder.clear();
      const PassResult p = runPass(in, pool, options, PassKind::kTraced,
                                   &recorder, &accums, checker);
      // Decorated and bare node runs must produce identical tracks.
      (void)checkPass(in, &ref, p, checker);
      spanTotals.add(recorder.spans());
      out.spansTsv = spansToTsv(recorder.spans());
      wallNs += p.roundsNs;
      windows += static_cast<double>(p.windows);
    }
    StageAccum merged;
    for (const StageAccum& a : accums) {
      merged.merge(a);
    }
    // Traced and untraced throughput both pooled over every round.
    reportSpans(spanTotals, windows, wallNs,
                ratioOf(allWindows, allRoundsNs / 1e9), l);
    reportStages(merged, spanTotals, windows, l);
    l.set("trace.spans_dropped", static_cast<double>(recorder.dropped()), "count");
  }
  return out;
}

}  // namespace perfbench

#include "traced_pipeline.hpp"

#include <optional>
#include <string>

#include "src/eval/matching.hpp"
#include "src/events/stats.hpp"

namespace perfbench {
namespace {

using ebbiot::EventPacket;
using ebbiot::Tracks;

constexpr std::size_t idx(Stage s) { return static_cast<std::size_t>(s); }

/// Time one call into a stage, adding the nanoseconds to `acc`.
template <typename F>
void timed(StageAccum& acc, Stage stage, F&& f) {
  const std::int64_t t0 = nowNs();
  f();
  acc.ns[idx(stage)] += static_cast<double>(nowNs() - t0);
  ++acc.calls[idx(stage)];
}

/// Frame-domain replay: EBBI -> median -> RPN (downsample, histograms)
/// or CCA -> optional region filter -> tracker.
template <typename Tracker>
class FrameReplay final : public StageReplay {
 public:
  using Real = ebbiot::FramePipeline<Tracker>;

  FrameReplay(Real& real, StageAccum& acc, Checker& checker, Stage trackerStage,
              int variant)
      : real_(real),
        acc_(acc),
        checker_(checker),
        trackerStage_(trackerStage),
        variant_(variant),
        config_(real.config()),
        builder_(config_.width, config_.height),
        median_(config_.medianPatch),
        down_(config_.rpn.s1, config_.rpn.s2),
        rpn_(config_.rpn),
        cca_(config_.cca),
        ebbi_(config_.width, config_.height),
        filtered_(config_.width, config_.height),
        before_(real.makeSnapshot()),
        snap_(dynamic_cast<typename Real::Snapshot*>(before_.get())) {
    if (config_.regionFilter.has_value()) {
      regionFilter_.emplace(*config_.regionFilter);
    }
    checker_.expect(snap_ != nullptr, real.name() + ": snapshot type");
    acc_.frameWidth = config_.width;
    acc_.frameHeight = config_.height;
    acc_.medianPatch = config_.medianPatch;
    acc_.rpnS1 = config_.rpn.s1;
    acc_.rpnS2 = config_.rpn.s2;
  }

  void saveBefore() override {
    if (snap_ != nullptr) {
      (void)real_.saveState(*snap_);
    }
  }

  void replay(const EventPacket& packet, const Tracks& tracks) override {
    if (snap_ == nullptr) {
      return;
    }
    const ebbiot::StageOps& ops = real_.stageOps();
    const std::string& name = real_.name();
    std::uint64_t checks = 0;
    auto expect = [&](bool ok, const char* what) {
      ++checks;
      checker_.expect(ok, name + ": replayed " + what + " differs");
    };

    timed(acc_, Stage::kEbbiBuild, [&] { builder_.buildInto(packet, ebbi_); });
    expect(ebbi_ == real_.lastEbbi(), "EBBI");
    expect(builder_.lastOps() == ops.frontEnd.ebbi, "EBBI ops");
    acc_.ops[idx(Stage::kEbbiBuild)] += builder_.lastOps().total();

    timed(acc_, Stage::kMedian, [&] { median_.applyInto(ebbi_, filtered_); });
    expect(filtered_ == real_.lastFiltered(), "median output");
    expect(median_.lastOps() == ops.frontEnd.medianFilter, "median ops");
    acc_.ops[idx(Stage::kMedian)] += median_.lastOps().total();

    const ebbiot::RegionProposals* proposals = nullptr;
    if (config_.rpnKind == ebbiot::RpnKind::kHistogram) {
      timed(acc_, Stage::kRpnDownsample,
            [&] { down_.downsampleInto(filtered_, down_img_); });
      timed(acc_, Stage::kRpnHistogram,
            [&] { hist_.buildInto(down_img_, hist_pair_); });
      timed(acc_, Stage::kRpn, [&] { proposals = &rpn_.propose(filtered_); });
      expect(rpn_.lastDownsampled() == down_img_, "RPN downsample");
      expect(rpn_.lastHistograms().hx == hist_pair_.hx &&
                 rpn_.lastHistograms().hy == hist_pair_.hy,
             "RPN histograms");
      expect(rpn_.lastOps() == ops.frontEnd.rpn, "RPN ops");
      acc_.ops[idx(Stage::kRpn)] += rpn_.lastOps().total();
      acc_.ops[idx(Stage::kRpnDownsample)] += down_.lastOps().total();
      acc_.ops[idx(Stage::kRpnHistogram)] += hist_.lastOps().total();
    } else {
      timed(acc_, Stage::kCca, [&] { proposals = &cca_.propose(filtered_); });
      expect(cca_.lastOps() == ops.frontEnd.rpn, "CCA ops");
      acc_.ops[idx(Stage::kCca)] += cca_.lastOps().total();
    }
    expect(*proposals == real_.lastProposals(), "proposals");
    acc_.proposals += static_cast<double>(proposals->size());

    const ebbiot::RegionProposals* toTrack = proposals;
    if (regionFilter_.has_value()) {
      timed(acc_, Stage::kRegionFilter,
            [&] { accepted_ = regionFilter_->apply(filtered_, *proposals); });
      expect(accepted_ == real_.lastTrackedProposals(), "region filter");
      expect(regionFilter_->lastOps() == ops.regionFilter, "region filter ops");
      acc_.ops[idx(Stage::kRegionFilter)] += regionFilter_->lastOps().total();
      acc_.rfProposals += static_cast<double>(proposals->size());
      for (const ebbiot::RegionProposal& p : *proposals) {
        acc_.rfPatchArea += static_cast<double>(p.box.area());
      }
      toTrack = &accepted_;
    }

    const std::uint64_t allocs0 = allocsThisThread();
    timed(acc_, trackerStage_,
          [&] { trackerOut_ = snap_->tracker.update(*toTrack); });
    acc_.trackerAllocs[static_cast<std::size_t>(variant_)] +=
        allocsThisThread() - allocs0;
    ++acc_.trackerCalls[static_cast<std::size_t>(variant_)];
    expect(trackerOut_ == tracks, "tracks");
    expect(snap_->tracker.lastOps() == ops.tracker, "tracker ops");
    acc_.ops[idx(trackerStage_)] += snap_->tracker.lastOps().total();
    acc_.tracksOut[idx(trackerStage_)] += static_cast<double>(tracks.size());

    acc_.latchedEvents += static_cast<double>(packet.size());
    acc_.framePixels += static_cast<double>(config_.width) *
                        static_cast<double>(config_.height);
    acc_.checks += checks;
  }

 private:
  Real& real_;
  StageAccum& acc_;
  Checker& checker_;
  Stage trackerStage_;
  int variant_;
  typename Real::Config config_;
  ebbiot::EbbiBuilder builder_;
  ebbiot::MedianFilter median_;
  ebbiot::Downsampler down_;
  ebbiot::HistogramBuilder hist_;
  ebbiot::HistogramRpn rpn_;
  ebbiot::CcaLabeler cca_;
  std::optional<ebbiot::RegionFilter> regionFilter_;
  ebbiot::BinaryImage ebbi_;
  ebbiot::BinaryImage filtered_;
  ebbiot::CountImage down_img_;
  ebbiot::HistogramPair hist_pair_;
  ebbiot::RegionProposals accepted_;
  Tracks trackerOut_;
  std::unique_ptr<ebbiot::PipelineSnapshot> before_;
  typename Real::Snapshot* snap_;
};

/// Event-domain replay: (refractory) -> NN filter -> EBMS.
class EbmsReplay final : public StageReplay {
 public:
  EbmsReplay(ebbiot::EbmsPipeline& real, StageAccum& acc, Checker& checker,
             int variant)
      : real_(real),
        acc_(acc),
        checker_(checker),
        variant_(variant),
        before_(real.makeSnapshot()),
        snap_(dynamic_cast<ebbiot::EbmsPipelineSnapshot*>(before_.get())) {
    checker_.expect(snap_ != nullptr, real.name() + ": snapshot type");
    acc_.streamWidth = real.config().nnFilter.width;
    acc_.streamHeight = real.config().nnFilter.height;
    acc_.nnPatch = real.config().nnFilter.neighbourhood;
    acc_.nnTimestampBits = real.config().nnFilter.timestampBits;
    acc_.ebmsMaxClusters = real.config().ebms.maxClusters;
  }

  void saveBefore() override {
    if (snap_ != nullptr) {
      (void)real_.saveState(*snap_);
    }
  }

  void replay(const EventPacket& packet, const Tracks& tracks) override {
    if (snap_ == nullptr) {
      return;
    }
    const ebbiot::EbmsStageOps& ops = real_.stageOps();
    const std::string& name = real_.name();
    std::uint64_t checks = 0;
    auto expect = [&](bool ok, const char* what) {
      ++checks;
      checker_.expect(ok, name + ": replayed " + what + " differs");
    };
    const EventPacket* in = &packet;
    if (snap_->refractory.has_value()) {
      snap_->refractory->filterInto(packet, refracted_);
      in = &refracted_;
    }
    timed(acc_, Stage::kNn, [&] { snap_->nnFilter.filterInto(*in, filtered_); });
    expect(filtered_.size() == real_.lastFilteredEventCount(), "NN output");
    expect(snap_->nnFilter.lastOps() == ops.nnFilter, "NN ops");
    acc_.ops[idx(Stage::kNn)] += snap_->nnFilter.lastOps().total();

    const std::uint64_t allocs0 = allocsThisThread();
    timed(acc_, Stage::kEbms, [&] {
      snap_->tracker.processPacket(filtered_);
      snap_->tracker.visibleTracksInto(trackerOut_);
    });
    acc_.trackerAllocs[static_cast<std::size_t>(variant_)] +=
        allocsThisThread() - allocs0;
    ++acc_.trackerCalls[static_cast<std::size_t>(variant_)];
    expect(trackerOut_ == tracks, "tracks");
    expect(snap_->tracker.lastOps() == ops.ebms, "EBMS ops");
    acc_.ops[idx(Stage::kEbms)] += snap_->tracker.lastOps().total();
    acc_.tracksOut[idx(Stage::kEbms)] += static_cast<double>(tracks.size());

    const int w = real_.config().nnFilter.width;
    const int h = real_.config().nnFilter.height;
    const ebbiot::FrameStats stats = ebbiot::computeFrameStats(packet, w, h);
    acc_.streamEvents += static_cast<double>(packet.size());
    acc_.streamActivePixels += static_cast<double>(stats.activePixels);
    acc_.streamPixels += static_cast<double>(w) * static_cast<double>(h);
    acc_.nnPassed += static_cast<double>(filtered_.size());
    acc_.ebmsClusters += static_cast<double>(tracks.size());
    acc_.checks += checks;
  }

 private:
  ebbiot::EbmsPipeline& real_;
  StageAccum& acc_;
  Checker& checker_;
  int variant_;
  std::unique_ptr<ebbiot::PipelineSnapshot> before_;
  ebbiot::EbmsPipelineSnapshot* snap_;
  EventPacket refracted_;
  EventPacket filtered_;
  Tracks trackerOut_;
};

}  // namespace

ForwardingPipeline::ForwardingPipeline(std::unique_ptr<ebbiot::Pipeline> inner,
                                       ForwardingHooks hooks, int slot)
    : inner_(std::move(inner)),
      hooks_(std::move(hooks)),
      slot_(slot),
      variant_(static_cast<std::int8_t>(variantIndex(inner_->name()))) {
  if (hooks_.match != nullptr && hooks_.matchCounts != nullptr) {
    hooks_.matchCounts->assign(hooks_.match->thresholds.size(), {});
  }
  if (hooks_.accum == nullptr || hooks_.checker == nullptr) {
    return;
  }
  const int v = variant_ >= 0 ? variant_ : 0;
  StageAccum& acc = *hooks_.accum;
  Checker& checker = *hooks_.checker;
  ebbiot::Pipeline* p = inner_.get();
  if (auto* ot = dynamic_cast<ebbiot::EbbiotPipeline*>(p)) {
    replay_ = std::make_unique<FrameReplay<ebbiot::OverlapTracker>>(
        *ot, acc, checker, Stage::kOverlap, v);
  } else if (auto* kf = dynamic_cast<ebbiot::KalmanPipeline*>(p)) {
    replay_ = std::make_unique<FrameReplay<ebbiot::KalmanTracker>>(
        *kf, acc, checker, Stage::kKalman, v);
  } else if (auto* hy = dynamic_cast<ebbiot::HybridPipeline*>(p)) {
    replay_ = std::make_unique<FrameReplay<ebbiot::HybridTracker>>(
        *hy, acc, checker, Stage::kHybrid, v);
  } else if (auto* em = dynamic_cast<ebbiot::EbmsPipeline*>(p)) {
    replay_ = std::make_unique<EbmsReplay>(*em, acc, checker, v);
  }
}

WindowTracks ForwardingPipeline::processWindow(const EventPacket& packet) {
  const ebbiot::TimeUs tEnd = packet.tEnd();
  const std::size_t frame =
      tEnd >= hooks_.framePeriod
          ? static_cast<std::size_t>(tEnd / hooks_.framePeriod - 1)
          : 0;
  if (replay_ != nullptr) {
    ScopedSpan span(hooks_.spans, SpanKind::kReplay, hooks_.sensor,
                    static_cast<std::uint32_t>(frame), variant_);
    replay_->saveBefore();
  }
  std::int32_t span = -1;
  if (hooks_.spans != nullptr) {
    span = hooks_.spans->open(SpanKind::kPipeline, hooks_.sensor,
                              static_cast<std::uint32_t>(frame), variant_);
  }
  const std::int64_t t0 = nowNs();
  WindowTracks result = inner_->processWindow(packet);
  const std::int64_t t1 = nowNs();
  if (hooks_.spans != nullptr) {
    hooks_.spans->close(span);
  }
  if (hooks_.onDone) {
    hooks_.onDone(frame, slot_, t1 - t0);
  }
  if (replay_ != nullptr || hooks_.match != nullptr ||
      hooks_.latchDigests != nullptr) {
    ScopedSpan replaySpan(hooks_.spans, SpanKind::kReplay, hooks_.sensor,
                          static_cast<std::uint32_t>(frame), variant_);
    const Tracks& tracks = result;
    if (hooks_.latchDigests != nullptr &&
        inner_->inputDomain() == ebbiot::InputDomain::kLatchedFrame &&
        frame < hooks_.latchDigests->size() && hooks_.checker != nullptr) {
      Fnv digest;
      digest.addEvents(packet);
      hooks_.checker->expect(digest.value() == (*hooks_.latchDigests)[frame],
                             name() + ": input differs from replayed latch");
    }
    if (replay_ != nullptr) {
      replay_->replay(packet, tracks);
    }
    if (hooks_.match != nullptr) {
      replayMatch(frame, tracks);
    }
  }
  if (hooks_.alterFrame >= 0 &&
      frame == static_cast<std::size_t>(hooks_.alterFrame)) {
    altered_ = result;
    altered_.push_back(bogusTrack());
    return altered_;
  }
  return result;
}

void ForwardingPipeline::replayMatch(std::size_t frame, const Tracks& tracks) {
  const MatchReplay& m = *hooks_.match;
  if (m.gt == nullptr || frame >= m.gt->size() || hooks_.accum == nullptr ||
      hooks_.matchCounts == nullptr) {
    return;
  }
  std::vector<ebbiot::PrCounts>& counts = *hooks_.matchCounts;
  timed(*hooks_.accum, Stage::kMatch, [&] {
    Tracks clipped;
    clipped.reserve(tracks.size());
    for (const ebbiot::Track& t : tracks) {
      ebbiot::Track c = t;
      c.box = ebbiot::clampToFrame(t.box, m.width, m.height);
      if (!c.box.empty()) {
        clipped.push_back(c);
      }
    }
    for (std::size_t i = 0; i < m.thresholds.size(); ++i) {
      counts[i].add(
          ebbiot::matchFrame(clipped, (*m.gt)[frame].boxes, m.thresholds[i]));
    }
  });
}

}  // namespace perfbench

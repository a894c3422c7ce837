#include "trace.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {
namespace {

thread_local std::int32_t tOpen = -1;
std::atomic<std::uint32_t> gThreadIds{0};
thread_local std::uint32_t tThreadId = gThreadIds.fetch_add(1);

}  // namespace

const char* toString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOffer:
      return "node.offer";
    case SpanKind::kPump:
      return "node.pump";
    case SpanKind::kSink:
      return "node.sink";
    case SpanKind::kPipeline:
      return "core.pipeline";
    case SpanKind::kReplay:
      return "trace.replay";
    case SpanKind::kRunner:
      return "core.runner";
    case SpanKind::kSource:
      return "sim.source";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

std::string nameSafe(const std::string& key) {
  std::string out;
  for (const char c : key) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0
                      ? static_cast<char>(
                            std::tolower(static_cast<unsigned char>(c)))
                      : '_');
  }
  return out;
}

int variantIndex(const std::string& name) {
  for (int i = 0; i < kVariants; ++i) {
    if (name == kVariantKeys[static_cast<std::size_t>(i)]) {
      return i;
    }
  }
  return -1;
}

SpanRecorder::SpanRecorder(std::size_t capacity) : buf_(capacity) {}

std::int32_t SpanRecorder::open(SpanKind kind, std::uint16_t sensor,
                                std::uint32_t seq, std::int8_t variant) {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& s = buf_[i];
  s.parent = tOpen >= 0 ? tOpen : fallback_.load(std::memory_order_acquire);
  s.thread = tThreadId;
  s.seq = seq;
  s.sensor = sensor;
  s.kind = kind;
  s.variant = variant;
  s.t1 = 0;
  s.t0 = nowNs();
  return static_cast<std::int32_t>(i);
}

void SpanRecorder::close(std::int32_t id) {
  if (id >= 0) {
    buf_[static_cast<std::size_t>(id)].t1 = nowNs();
  }
}

std::span<const Span> SpanRecorder::spans() const {
  return {buf_.data(), std::min(next_.load(), buf_.size())};
}

void SpanRecorder::clear() {
  next_.store(0);
  fallback_.store(-1);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, SpanKind kind,
                       std::uint16_t sensor, std::uint32_t seq,
                       std::int8_t variant)
    : recorder_(recorder) {
  if (recorder_ != nullptr) {
    id_ = recorder_->open(kind, sensor, seq, variant);
    saved_ = tOpen;
    if (id_ >= 0) {
      tOpen = id_;
    }
  }
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) {
    recorder_->close(id_);
    tOpen = saved_;
  }
}

void SpanTotals::add(std::span<const Span> spans) {
  const std::size_t n = spans.size();
  // Children of every span, grouped by parent (counting sort).
  std::vector<std::uint32_t> start(n + 1, 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      ++start[static_cast<std::size_t>(s.parent) + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    start[i + 1] += start[i];
  }
  std::vector<std::uint32_t> children(start[n]);
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) {
      children[fill[static_cast<std::size_t>(spans[i].parent)]++] =
          static_cast<std::uint32_t>(i);
    }
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const auto k = static_cast<std::size_t>(s.kind);
    const double dur = static_cast<double>(s.t1 - s.t0);
    iv.clear();
    double childSum = 0.0;
    for (std::uint32_t c = start[i]; c < start[i + 1]; ++c) {
      const Span& ch = spans[children[c]];
      const std::int64_t a = std::max(ch.t0, s.t0);
      const std::int64_t b = std::min(ch.t1, s.t1);
      if (b > a) {
        iv.emplace_back(a, b);
        childSum += static_cast<double>(b - a);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    std::int64_t curA = 0;
    std::int64_t curB = -1;
    for (const auto& [a, b] : iv) {
      if (curB < a) {
        covered += curB > curA ? static_cast<double>(curB - curA) : 0.0;
        curA = a;
        curB = b;
      } else {
        curB = std::max(curB, b);
      }
    }
    covered += curB > curA ? static_cast<double>(curB - curA) : 0.0;
    selfNs[k] += dur - covered;
    overlapNs += childSum - covered;
    if (s.parent < 0) {
      rootNs += dur;
    }
    if (s.kind == SpanKind::kPipeline && s.variant >= 0) {
      pipelineNs[static_cast<std::size_t>(s.variant)] += dur;
      ++pipelineCalls[static_cast<std::size_t>(s.variant)];
    }
  }
}

std::string spansToTsv(std::span<const Span> spans) {
  std::string out = "id\tkind\tparent\tthread\tsensor\tseq\tvariant\tt0_ns\tt1_ns\n";
  char line[192];
  const std::int64_t base = spans.empty() ? 0 : spans.front().t0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line), "%zu\t%s\t%d\t%u\t%u\t%u\t%d\t%lld\t%lld\n",
                  i, toString(s.kind), s.parent, s.thread,
                  static_cast<unsigned>(s.sensor), s.seq,
                  static_cast<int>(s.variant),
                  static_cast<long long>(s.t0 - base),
                  static_cast<long long>(s.t1 - base));
    out += line;
  }
  return out;
}

bool isPipelineStage(Stage stage) {
  switch (stage) {
    case Stage::kRpnDownsample:
    case Stage::kRpnHistogram:
    case Stage::kLatch:
    case Stage::kAnnotate:
    case Stage::kFrameStats:
    case Stage::kMatch:
      return false;
    default:
      return true;
  }
}

void StageAccum::merge(const StageAccum& o) {
  for (int i = 0; i < kStages; ++i) {
    const auto k = static_cast<std::size_t>(i);
    ns[k] += o.ns[k];
    ops[k] += o.ops[k];
    calls[k] += o.calls[k];
    tracksOut[k] += o.tracksOut[k];
  }
  latchedEvents += o.latchedEvents;
  framePixels += o.framePixels;
  proposals += o.proposals;
  rfProposals += o.rfProposals;
  rfPatchArea += o.rfPatchArea;
  streamEvents += o.streamEvents;
  streamActivePixels += o.streamActivePixels;
  streamPixels += o.streamPixels;
  nnPassed += o.nnPassed;
  ebmsClusters += o.ebmsClusters;
  for (int v = 0; v < kVariants; ++v) {
    trackerAllocs[static_cast<std::size_t>(v)] +=
        o.trackerAllocs[static_cast<std::size_t>(v)];
    trackerCalls[static_cast<std::size_t>(v)] +=
        o.trackerCalls[static_cast<std::size_t>(v)];
  }
  checks += o.checks;
  if (o.calls[static_cast<std::size_t>(Stage::kMedian)] > 0) {
    medianPatch = o.medianPatch;
    frameWidth = o.frameWidth;
    frameHeight = o.frameHeight;
  }
  if (o.calls[static_cast<std::size_t>(Stage::kRpn)] > 0) {
    rpnS1 = o.rpnS1;
    rpnS2 = o.rpnS2;
  }
  if (o.calls[static_cast<std::size_t>(Stage::kNn)] > 0) {
    streamWidth = o.streamWidth;
    streamHeight = o.streamHeight;
    nnPatch = o.nnPatch;
    nnTimestampBits = o.nnTimestampBits;
  }
  if (o.calls[static_cast<std::size_t>(Stage::kEbms)] > 0) {
    ebmsMaxClusters = o.ebmsMaxClusters;
  }
}

}  // namespace perfbench

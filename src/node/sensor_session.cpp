#include "src/node/sensor_session.hpp"

#include <bit>

#include "src/common/error.hpp"

namespace ebbiot {

const char* toString(SessionState state) {
  switch (state) {
    case SessionState::kSyncing:
      return "SYNCING";
    case SessionState::kStreaming:
      return "STREAMING";
    case SessionState::kDegraded:
      return "DEGRADED";
    case SessionState::kStalled:
      return "STALLED";
    case SessionState::kRecovering:
      return "RECOVERING";
    case SessionState::kQuarantined:
      return "QUARANTINED";
  }
  return "?";
}

SensorSession::SensorSession(std::uint16_t sensorId, const NodeConfig& config)
    : sensorId_(sensorId),
      config_(config),
      parser_(config),  // validates the config
      queue_(config.queueCapacity) {
  latency_.resize(config.latencySampleCapacity);
}

void SensorSession::offerBytes(std::span<const std::byte> bytes, TimeUs now) {
  if (state() == SessionState::kQuarantined) {
    produced_.bytesIgnoredQuarantined += bytes.size();
    return;
  }
  if (!clockPrimed_) {
    clockPrimed_ = true;
    lastProgress_ = now;
  }
  checkWatchdog(now);
  parser_.offer(bytes);
  for (;;) {
    const std::uint64_t corruptedBefore = parser_.counters().framesCorrupted;
    const FrameParser::Status status = parser_.next(frame_);
    // Every frame the parser had to condemn on the way is one fault
    // outcome for the health register.
    for (std::uint64_t i = parser_.counters().framesCorrupted - corruptedBefore;
         i > 0; --i) {
      recordOutcome(true, now);
    }
    if (parser_.counters().resyncs >= config_.quarantineResyncLimit) {
      setState(SessionState::kQuarantined);
      return;
    }
    if (state() == SessionState::kQuarantined) {
      // Retry budget exhausted mid-buffer; later bytes are ignored.
      return;
    }
    if (status != FrameParser::Status::kFrame) {
      return;
    }
    processFrame(frame_, now);
    if (state() == SessionState::kQuarantined) {
      return;
    }
  }
}

void SensorSession::onIdleTick(TimeUs now) {
  if (state() == SessionState::kQuarantined) {
    return;
  }
  if (!clockPrimed_) {
    clockPrimed_ = true;
    lastProgress_ = now;
  }
  checkWatchdog(now);
}

void SensorSession::processFrame(const DecodedFrame& frame, TimeUs now) {
  if (seqPrimed_) {
    const std::uint32_t ahead = frame.seq - expectedSeq_;
    if (ahead >= 0x80000000u) {
      // Behind the stream: a duplicate or a reordered straggler.  Never
      // delivered — ordering is preserved by dropping, not reinsertion.
      ++produced_.outOfOrderDropped;
      recordOutcome(true, now);
      return;
    }
    if (ahead > 0) {
      ++produced_.seqGaps;
      produced_.framesLostToGaps += ahead;
    }
  }
  // The sensor demonstrably emitted this seq; later frames are judged
  // against it even if this one is now rejected on timestamp grounds.
  seqPrimed_ = true;
  expectedSeq_ = frame.seq + 1;

  const TimestampUnwrapper::Result when = unwrapper_.unwrap(frame.windowStart32);
  if (when.regressed) {
    ++produced_.timestampRegressions;
    recordOutcome(true, now);
    return;
  }
  if (when.wrapped) {
    ++produced_.wrapEpochs;
  }

  ++produced_.framesAccepted;
  noteAccepted(now);
  const TimeUs tStart = when.t;
  const TimeUs tEnd = tStart + frame.durationUs;
  const bool queued = queue_.tryEmplace([&](WindowSlot& slot) {
    slot.window.reset(tStart, tEnd);
    decodeEventsInto(frame, tStart, slot.window);
    slot.seq = frame.seq;
    slot.ingestTime = now;
  });
  if (!queued) {
    // Tail rejection: both policies refuse new work when the queue is
    // full (the producer can never evict a slot the consumer may read).
    ++produced_.windowsRejected;
  }
  recordOutcome(false, now);
}

void SensorSession::recordOutcome(bool fault, TimeUs now) {
  faultHistory_ = (faultHistory_ << 1) | (fault ? 1u : 0u);
  cleanStreak_ = fault ? 0 : cleanStreak_ + 1;
  const std::uint64_t mask =
      config_.degradeFrameWindow == 64
          ? ~std::uint64_t{0}
          : (std::uint64_t{1} << config_.degradeFrameWindow) - 1;
  const int recentFaults = std::popcount(faultHistory_ & mask);
  switch (state()) {
    case SessionState::kStreaming:
      if (recentFaults >= config_.degradeFaultThreshold) {
        enterDegraded(now);
      }
      break;
    case SessionState::kDegraded:
      // Recovery ladder: a clean streak alone is not enough — the
      // hold-down for this attempt must also have elapsed, so a flapping
      // sensor retries ever more slowly instead of thrashing.
      if (cleanStreak_ >= config_.recoverCleanFrames &&
          now - degradedSince_ >= recoveryBackoffUs(recoveryAttempt_)) {
        setState(SessionState::kRecovering);
        ++produced_.recoveryAttempts;
        cleanStreak_ = 0;  // STREAMING must be earned by a fresh streak
      }
      break;
    case SessionState::kRecovering:
      if (fault) {
        // Failed attempt: back to DEGRADED with the next-longer
        // hold-down, or QUARANTINED once the budget is exhausted.
        ++produced_.recoveryFailures;
        ++recoveryAttempt_;
        if (recoveryAttempt_ >= config_.recoveryMaxAttempts) {
          setState(SessionState::kQuarantined);
          break;
        }
        enterDegraded(now);
        break;
      }
      if (cleanStreak_ >= config_.recoverCleanFrames) {
        setState(SessionState::kStreaming);
        ++produced_.recoveries;
        faultHistory_ = 0;     // trust is re-earned; old faults age out
        recoveryAttempt_ = 0;  // ladder rewinds on a full recovery
      }
      break;
    default:
      break;
  }
}

void SensorSession::enterDegraded(TimeUs now) {
  setState(SessionState::kDegraded);
  ++produced_.degradeEntries;
  degradedSince_ = now;
}

TimeUs SensorSession::recoveryBackoffUs(int attempt) const {
  TimeUs backoff = config_.recoveryBackoffInitialUs;
  for (int i = 0; i < attempt; ++i) {
    if (backoff >= config_.recoveryBackoffMaxUs / config_.recoveryBackoffFactor) {
      return config_.recoveryBackoffMaxUs;
    }
    backoff *= config_.recoveryBackoffFactor;
  }
  return backoff < config_.recoveryBackoffMaxUs ? backoff
                                                : config_.recoveryBackoffMaxUs;
}

void SensorSession::noteAccepted(TimeUs now) {
  lastProgress_ = now;
  switch (state()) {
    case SessionState::kSyncing:
      setState(SessionState::kStreaming);
      break;
    case SessionState::kStalled:
      // Watchdog re-adopt: frames are flowing again, so attempt a
      // recovery immediately (the stall already re-armed the ladder).
      setState(SessionState::kRecovering);
      ++produced_.recoveryAttempts;
      break;
    default:
      break;
  }
}

void SensorSession::checkWatchdog(TimeUs now) {
  switch (state()) {
    case SessionState::kSyncing:
    case SessionState::kStreaming:
    case SessionState::kDegraded:
    case SessionState::kRecovering:
      if (now - lastProgress_ > config_.watchdogTimeoutUs) {
        enterStalled();
      }
      break;
    default:
      break;
  }
}

void SensorSession::enterStalled() {
  setState(SessionState::kStalled);
  ++produced_.watchdogStalls;
  // Re-arm synchronisation: a sensor that returns may have rebooted into
  // a fresh sequence space and clock, so adopt whatever comes next.  The
  // recovery ladder rewinds too — quarantineResyncLimit still bounds the
  // total corruption a flapping sensor can spend.
  seqPrimed_ = false;
  unwrapper_.reset();
  faultHistory_ = 0;
  cleanStreak_ = 0;
  recoveryAttempt_ = 0;
}

std::size_t SensorSession::drainInto(WindowSink& sink, TimeUs now) {
  if (config_.backpressure == BackpressurePolicy::kDropOldestWindow) {
    // Freshness: shed backlog beyond the allowed lag before processing.
    std::size_t pending = queue_.sizeApprox();
    while (pending > config_.freshnessLagWindows) {
      if (!queue_.tryConsume([](WindowSlot&) {})) {
        break;
      }
      ++windowsShedStale_;
      --pending;
    }
  }
  std::size_t delivered = 0;
  while (queue_.tryConsume([&](WindowSlot& slot) {
    sink.onWindow(slot.window, slot.seq, slot.ingestTime);
    latency_[latencyNext_] = now - slot.ingestTime;
    if (++latencyNext_ == latency_.size()) {
      latencyNext_ = 0;
      latencyWrapped_ = true;
    }
  })) {
    ++delivered;
  }
  windowsDelivered_ += delivered;
  return delivered;
}

std::size_t SensorSession::discardBacklog() {
  std::size_t shed = 0;
  while (queue_.tryConsume([](WindowSlot&) {})) {
    ++shed;
  }
  windowsShedOverload_ += shed;
  return shed;
}

SessionCounters SensorSession::counters() const {
  SessionCounters c = produced_;
  const FrameParser::Counters& p = parser_.counters();
  c.bytesOffered = p.bytesOffered;
  c.bytesDroppedOverflow = p.bytesDroppedOverflow;
  c.bytesSkipped = p.bytesSkipped;
  c.resyncs = p.resyncs;
  c.framesCorrupted = p.framesCorrupted;
  c.framesDecoded = p.framesDecoded;
  c.windowsDelivered = windowsDelivered_;
  c.windowsShedStale = windowsShedStale_;
  c.windowsShedOverload = windowsShedOverload_;
  return c;
}

std::span<const TimeUs> SensorSession::latencySamples() const {
  // Unordered sample set (callers compute percentiles); the ring's fill
  // level is all that matters.
  return {latency_.data(), latencyWrapped_ ? latency_.size() : latencyNext_};
}

}  // namespace ebbiot

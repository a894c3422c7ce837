// Per-sensor ingestion session: framing, validation, health state
// machine, and the bounded queue between transport and pipeline.
//
// One SensorSession sits between one sensor's transport byte stream and
// the pipeline consuming its windows:
//
//       transport thread (producer)          pipeline thread (consumer)
//   offerBytes() ── FrameParser ── seq/time ──▶ SpscQueue ──▶ drainInto()
//                    resync        discipline                 backpressure
//                                  watchdog                   policy
//
// The session's health is an explicit state machine:
//
//   SYNCING ──accepted frame──▶ STREAMING
//   STREAMING ──fault rate over threshold──▶ DEGRADED
//   DEGRADED ──clean streak + backoff hold-down elapsed──▶ RECOVERING
//   RECOVERING ──recoverCleanFrames clean──▶ STREAMING
//   RECOVERING ──fault──▶ DEGRADED (attempt+1, hold-down multiplied)
//   {SYNCING,STREAMING,DEGRADED,RECOVERING} ──watchdog timeout──▶ STALLED
//   STALLED ──accepted frame──▶ RECOVERING
//   any ──resyncs exceed quarantineResyncLimit──▶ QUARANTINED (terminal)
//   RECOVERING ──attempts exhaust recoveryMaxAttempts──▶ QUARANTINED
//
// Fault-rate tracking is a 64-bit shift register of per-frame outcomes
// (1 = fault: corrupt frame, out-of-order drop, timestamp regression;
// 0 = accepted): the session degrades when at least
// degradeFaultThreshold of the last degradeFrameWindow outcomes were
// faults.
//
// Leaving DEGRADED is governed by a bounded exponential-backoff
// recovery ladder rather than an immediate retry: the session must hold
// recoverCleanFrames consecutive clean outcomes AND sit out a hold-down
// of recoveryBackoffInitialUs * recoveryBackoffFactor^attempt
// microseconds (clamped at recoveryBackoffMaxUs) counted from the
// DEGRADED entry.  Only then does it enter RECOVERING, where a fresh
// clean streak earns STREAMING back; any fault while RECOVERING fails
// the attempt and returns to DEGRADED with the next-longer hold-down.
// recoveryMaxAttempts failed attempts quarantine the sensor.
//
// Entering STALLED re-arms synchronisation: the sequence expectation,
// the timestamp unwrapper, the fault history and the recovery ladder
// are reset, so a sensor that rebooted (new seq space, new clock) is
// re-adopted instead of having its entire fresh stream rejected as
// out-of-order.  Consequently unwrapped time is monotonic within a
// streaming run but re-bases across a stall.
//
// Ordering guarantee: windows are delivered to the sink in strictly
// increasing sequence order.  Backpressure and overload shed windows,
// never reorder them; an out-of-order frame is dropped, never delivered.
//
// Threading: offerBytes/onIdleTick are producer-side; drainInto /
// discardBacklog are consumer-side; the two sides may run concurrently
// (the SPSC queue is the only shared mutable state, plus the atomic
// state flag).  counters() reads both sides' tallies and is only exact
// when both sides are quiescent.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/time.hpp"
#include "src/events/event_packet.hpp"
#include "src/node/node_config.hpp"
#include "src/node/spsc_queue.hpp"
#include "src/node/wire_format.hpp"

namespace ebbiot {

enum class SessionState : std::uint8_t {
  kSyncing,      ///< no frame accepted yet
  kStreaming,    ///< healthy
  kDegraded,     ///< streaming, but fault rate over threshold
  kStalled,      ///< watchdog expired; waiting for the sensor to return
  kRecovering,   ///< frames flowing again after a stall; not yet trusted
  kQuarantined,  ///< corruption budget exhausted; terminal
};

[[nodiscard]] const char* toString(SessionState state);

/// Tallies of everything the session decided.  Producer-side fields are
/// written by offerBytes/onIdleTick, consumer-side fields by drainInto /
/// discardBacklog; within one side every count is exact and
/// deterministic (the fault-matrix test pins them with EXPECT_EQ).
struct SessionCounters {
  // -- transport / parser (producer side; mirrors FrameParser::Counters)
  std::uint64_t bytesOffered = 0;
  std::uint64_t bytesDroppedOverflow = 0;  ///< reassembly buffer full
  std::uint64_t bytesSkipped = 0;          ///< discarded during resync
  std::uint64_t resyncs = 0;               ///< contiguous skip episodes
  std::uint64_t framesCorrupted = 0;       ///< failed structural/CRC check
  std::uint64_t framesDecoded = 0;         ///< structurally valid frames
  // -- session discipline (producer side)
  std::uint64_t framesAccepted = 0;     ///< passed seq + timestamp checks
  std::uint64_t seqGaps = 0;            ///< forward jump episodes
  std::uint64_t framesLostToGaps = 0;   ///< summed jump widths
  std::uint64_t outOfOrderDropped = 0;  ///< stale/duplicate seq, dropped
  std::uint64_t timestampRegressions = 0;  ///< window start went backward
  std::uint64_t wrapEpochs = 0;     ///< 32-bit timestamp wraps unwrapped
  std::uint64_t windowsRejected = 0;  ///< accepted but queue full (tail)
  std::uint64_t bytesIgnoredQuarantined = 0;
  // -- state machine (producer side)
  std::uint64_t watchdogStalls = 0;
  std::uint64_t degradeEntries = 0;      ///< every entry into DEGRADED
  std::uint64_t recoveryAttempts = 0;    ///< every entry into RECOVERING
  std::uint64_t recoveryFailures = 0;    ///< fault while RECOVERING
  std::uint64_t recoveries = 0;  ///< transitions back into STREAMING
  // -- delivery (consumer side)
  std::uint64_t windowsDelivered = 0;
  std::uint64_t windowsShedStale = 0;     ///< kDropOldestWindow freshness
  std::uint64_t windowsShedOverload = 0;  ///< supervisor shed this sensor

  friend bool operator==(const SessionCounters&,
                         const SessionCounters&) = default;
};

/// Where drained windows go (one implementation per sensor: a pipeline
/// adapter, a test capture, a bench counter).
class WindowSink {
 public:
  virtual ~WindowSink() = default;

  /// One in-order window.  `ingestTime` is the producer clock value at
  /// which the window was queued (drain-side latency = now - ingestTime).
  virtual void onWindow(const EventPacket& window, std::uint32_t seq,
                        TimeUs ingestTime) = 0;
};

class SensorSession {
 public:
  /// Throws ConfigError if the config is invalid.
  SensorSession(std::uint16_t sensorId, const NodeConfig& config);

  // ---- producer side (transport thread) ----------------------------

  /// Feed transport bytes at producer-clock time `now`; parses, applies
  /// sequence/timestamp discipline, advances the state machine and
  /// enqueues accepted windows.
  void offerBytes(std::span<const std::byte> bytes, TimeUs now);

  /// Advance the producer clock without data (heartbeat) so the
  /// watchdog can expire a silent sensor.
  void onIdleTick(TimeUs now);

  // ---- consumer side (pipeline thread) -----------------------------

  /// Apply the backpressure policy and deliver pending windows to the
  /// sink in order; returns the number delivered.  `now` is the
  /// consumer clock used for latency samples.
  std::size_t drainInto(WindowSink& sink, TimeUs now);

  /// Discard every pending window unprocessed (supervisor overload
  /// shedding); returns the number shed.
  std::size_t discardBacklog();

  // ---- shared (any thread) -----------------------------------------

  [[nodiscard]] SessionState state() const {
    return state_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint16_t sensorId() const { return sensorId_; }
  /// Windows currently queued (approximate off-thread).
  [[nodiscard]] std::size_t backlog() const { return queue_.sizeApprox(); }

  /// Exact only when producer and consumer are quiescent.
  [[nodiscard]] SessionCounters counters() const;

  /// Drain-side latency samples (consumer clock minus ingest time): an
  /// unordered ring of the most recent <= latencySampleCapacity values.
  [[nodiscard]] std::span<const TimeUs> latencySamples() const;

  [[nodiscard]] const NodeConfig& config() const { return config_; }

 private:
  struct WindowSlot {
    EventPacket window;
    std::uint32_t seq = 0;
    TimeUs ingestTime = 0;
  };

  void processFrame(const DecodedFrame& frame, TimeUs now);
  void recordOutcome(bool fault, TimeUs now);
  void noteAccepted(TimeUs now);
  void checkWatchdog(TimeUs now);
  void enterStalled();
  void enterDegraded(TimeUs now);
  /// Hold-down before recovery attempt `attempt` (0-based): initial *
  /// factor^attempt, clamped at the configured cap (overflow-safe).
  [[nodiscard]] TimeUs recoveryBackoffUs(int attempt) const;
  void setState(SessionState next) {
    state_.store(next, std::memory_order_relaxed);
  }

  std::uint16_t sensorId_;
  NodeConfig config_;
  FrameParser parser_;
  TimestampUnwrapper unwrapper_;
  SpscQueue<WindowSlot> queue_;
  DecodedFrame frame_;  ///< header + record view of the frame in hand

  std::atomic<SessionState> state_{SessionState::kSyncing};

  // -- producer-owned discipline state
  bool seqPrimed_ = false;
  std::uint32_t expectedSeq_ = 0;
  bool clockPrimed_ = false;
  TimeUs lastProgress_ = 0;  ///< last accepted frame (or session start)
  std::uint64_t faultHistory_ = 0;  ///< shift register, LSB = newest
  int cleanStreak_ = 0;
  int recoveryAttempt_ = 0;   ///< failed attempts since last full recovery
  TimeUs degradedSince_ = 0;  ///< producer clock at the DEGRADED entry

  // -- counters: producer-owned block + consumer-owned block
  SessionCounters produced_;  ///< producer-side fields only
  std::uint64_t windowsDelivered_ = 0;
  std::uint64_t windowsShedStale_ = 0;
  std::uint64_t windowsShedOverload_ = 0;

  // -- consumer-owned latency ring
  std::vector<TimeUs> latency_;
  std::size_t latencyNext_ = 0;
  bool latencyWrapped_ = false;
};

}  // namespace ebbiot

// Framed AER wire format ("EBF1") for the IoVT node ingest layer.
//
// The file container in src/events/stream_io.* stores one pristine
// recording; a *transport* needs framing that survives byte loss and
// corruption.  Each window of events travels as one self-delimiting
// frame:
//
//   offset size  field
//   0      4     magic "EBF1"
//   4      4     sequence number (per sensor, monotonically increasing)
//   8      2     sensor id
//   10     2     flags (reserved, 0)
//   12     4     event count n
//   16     4     window start, microseconds, low 32 bits (wraps ~71.6 min)
//   20     4     window duration, microseconds
//   24     9*n   events: x u16, y u16, polarity i8, dt u32 (us from start)
//   24+9n  4     CRC32 (IEEE) over bytes [4, 24+9n)
//
// All little-endian.  The 32-bit window-start field deliberately wraps:
// real AER transports carry 32-bit timestamps, and the receiver must
// reconstruct monotonic 64-bit time across the wrap (TimestampUnwrapper).
// Event timestamps are deltas from the window start, so they are exact
// for any window shorter than ~71 minutes.
//
// FrameParser is the defensive receiving half: it reassembles frames
// from arbitrary byte chunks, validates structure (declared length,
// event bounds) and integrity (CRC32), and — critically — *resyncs* on
// corruption by scanning to the next plausible frame header instead of
// aborting the stream.  All of its buffers are bounded and reused; the
// steady state allocates nothing (gated by tools/hot_path_manifest.json
// and pinned by tests/test_allocation.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/events/event_packet.hpp"
#include "src/node/node_config.hpp"

namespace ebbiot {

inline constexpr std::uint32_t kFrameMagic = 0x31464245u;  // "EBF1" LE
inline constexpr std::size_t kFrameMagicOffset = 0;
inline constexpr std::size_t kFrameSeqOffset = 4;
inline constexpr std::size_t kFrameSensorIdOffset = 8;
inline constexpr std::size_t kFrameFlagsOffset = 10;
inline constexpr std::size_t kFrameEventCountOffset = 12;
inline constexpr std::size_t kFrameWindowStartOffset = 16;
inline constexpr std::size_t kFrameDurationOffset = 20;
inline constexpr std::size_t kFrameHeaderSize = 24;
inline constexpr std::size_t kFrameEventSize = 9;
inline constexpr std::size_t kFrameCrcSize = 4;
// Field offsets inside one kFrameEventSize-byte event record.
inline constexpr std::size_t kRecordXOffset = 0;
inline constexpr std::size_t kRecordYOffset = 2;
inline constexpr std::size_t kRecordPolarityOffset = 4;
inline constexpr std::size_t kRecordDtOffset = 5;

/// Serialized size of a frame carrying `eventCount` events.
[[nodiscard]] constexpr std::size_t frameSizeBytes(std::size_t eventCount) {
  return kFrameHeaderSize + eventCount * kFrameEventSize + kFrameCrcSize;
}

/// CRC32 (IEEE 802.3, reflected 0xEDB88320) of a byte span.  Runs the
/// carry-less-multiply kernel where the CPU has PCLMULQDQ and SSE4.1
/// (checked once per process), the portable slice-by-8 kernel elsewhere;
/// both return the same value for every input.
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> bytes);

namespace detail {
/// The kernels behind crc32(), exposed so tests can pin each one against
/// a bitwise reference on any host.
using Crc32Kernel = std::uint32_t (*)(std::span<const std::byte>);
[[nodiscard]] std::uint32_t crc32Portable(std::span<const std::byte> bytes);
/// The PCLMULQDQ kernel, or nullptr where the CPU cannot run it.
[[nodiscard]] Crc32Kernel crc32ClmulKernel();

/// What a CRC-valid record may hold: x < width, y < height, polarity +1
/// or -1, and dt < durationUs.
struct RecordLimits {
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  std::uint32_t durationUs = 0;
};

/// The kernels behind FrameParser's record checks and decodeEventsInto(),
/// exposed so tests can pin each one against the portable pair on any
/// host.  `records` holds whole kFrameEventSize-byte records, and no
/// kernel reads a byte outside it.  `check` is true when any record breaks
/// `limits`.  `decode` writes record i to out[i] at tStart + dt, whatever
/// the records hold, and is true when any dt >= durationUs; `out` has one
/// event per record (asserted).
struct RecordKernels {
  bool (*check)(std::span<const std::byte> records, const RecordLimits& limits);
  bool (*decode)(std::span<const std::byte> records, TimeUs tStart,
                 std::uint32_t durationUs, std::span<Event> out);
};
/// The scalar loops: the reference for every other kernel.
[[nodiscard]] const RecordKernels& portableRecordKernels();
/// The AVX-512 VBMI kernels, or nullptr where the CPU cannot run them.
[[nodiscard]] const RecordKernels* vbmiRecordKernels();
/// The kernels FrameParser and decodeEventsInto() run: VBMI where the CPU
/// has it (checked once per process), portable elsewhere.
[[nodiscard]] const RecordKernels& recordKernels();
}  // namespace detail

/// Append one encoded frame for `window` to `out`.  The window duration
/// and every event delta must fit 32 bits (window < ~71.6 min — asserted);
/// the window start is truncated to its low 32 bits on the wire.
void encodeFrame(std::vector<std::byte>& out, std::uint32_t seq,
                 std::uint16_t sensorId, const EventPacket& window);

/// Recompute and overwrite the trailing CRC of an encoded frame so a
/// deliberately mutated frame (FaultInjector's timestamp faults) stays
/// structurally valid.  `frame` must be exactly one frame.
void refreshFrameCrc(std::span<std::byte> frame);

/// Read / overwrite the 32-bit window-start field of an encoded frame
/// (FaultInjector and tests poke it to script timestamp faults).
[[nodiscard]] std::uint32_t frameWindowStart32(std::span<const std::byte> frame);
void setFrameWindowStart32(std::span<std::byte> frame, std::uint32_t value);

/// Read / overwrite the sequence-number field of an encoded frame
/// (FaultInjector synthesises flood copies with fresh sequence numbers).
[[nodiscard]] std::uint32_t frameSeq(std::span<const std::byte> frame);
void setFrameSeq(std::span<std::byte> frame, std::uint32_t value);

/// One structurally valid, CRC-checked frame: the header decoded, the
/// events validated but still encoded.  `records` views the frame's
/// event records inside the FrameParser's reassembly buffer; it is valid
/// only until the next offer() or next() on that parser.  Decode the
/// events with decodeEventsInto() before then.
struct DecodedFrame {
  std::uint32_t seq = 0;
  std::uint16_t sensorId = 0;
  std::uint32_t windowStart32 = 0;
  std::uint32_t durationUs = 0;
  std::uint32_t eventCount = 0;
  std::span<const std::byte> records;  ///< eventCount encoded events
};

/// Append `frame`'s events to `out` in wire order, each at absolute time
/// tStart + dt.  `out`'s window must hold [tStart, tStart + durationUs)
/// (checked), every dt must be below durationUs (checked in the decode's
/// own pass; on failure `out` is left as it was), and `frame.records` must
/// still be valid.  Runs the record kernel recordKernels() chose.
void decodeEventsInto(const DecodedFrame& frame, TimeUs tStart,
                      EventPacket& out);

/// Reconstructs monotonic 64-bit microsecond time from the wrapping
/// 32-bit window-start values on the wire.  Forward steps (shortest
/// signed 32-bit distance >= 0) advance time, bumping an epoch each time
/// the raw value wraps past 2^32; backward steps are reported as
/// regressions and do not advance the clock (the session drops those
/// frames).  Genuine gaps longer than ~35.8 min (2^31 us) are
/// indistinguishable from regressions — the watchdog stalls the session
/// long before that.
class TimestampUnwrapper {
 public:
  struct Result {
    TimeUs t = 0;            ///< unwrapped absolute time of the sample
    bool wrapped = false;    ///< this step crossed a 2^32 boundary
    bool regressed = false;  ///< sample is behind the stream (rejected)
  };

  [[nodiscard]] Result unwrap(std::uint32_t t32);

  /// Forget the stream position (a RECOVERING session re-primes on its
  /// next accepted frame rather than misreading a long stall as a wrap).
  void reset();

 private:
  bool primed_ = false;
  std::uint32_t last32_ = 0;
  TimeUs epochBase_ = 0;  ///< multiple of 2^32 microseconds
};

/// Streaming frame reassembler + validator with resync-on-corruption.
///
/// offer() appends transport bytes (dropping, with a counter, anything
/// beyond the bounded reassembly buffer); next() yields validated frames
/// until the buffer holds no complete frame.  A corrupt prefix — wrong
/// magic, implausible header, CRC mismatch, out-of-bounds event — is
/// skipped byte by byte to the next magic candidate; each contiguous
/// skip is one resync episode.
class FrameParser {
 public:
  /// Geometry and limits come from the validated NodeConfig.
  explicit FrameParser(const NodeConfig& config);

  /// Producer side: append transport bytes.
  void offer(std::span<const std::byte> bytes);

  enum class Status {
    kNeedMore,  ///< no complete frame in the buffer
    kFrame,     ///< `out` holds the next valid frame
  };
  /// Producer side: extract the next valid frame, resyncing past any
  /// corruption encountered on the way.
  Status next(DecodedFrame& out);

  /// Transport/corruption tallies (producer side; read when quiescent).
  struct Counters {
    std::uint64_t bytesOffered = 0;
    std::uint64_t bytesDroppedOverflow = 0;  ///< reassembly buffer full
    std::uint64_t bytesSkipped = 0;          ///< discarded during resync
    std::uint64_t resyncs = 0;               ///< contiguous skip episodes
    std::uint64_t framesCorrupted = 0;  ///< plausible header, failed check
    std::uint64_t framesDecoded = 0;

    friend bool operator==(const Counters&, const Counters&) = default;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Bytes currently buffered (pending reassembly).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  /// Result of examining the frame candidate at pos_.
  enum class Probe { kNeedMore, kFrame, kCorrupt, kNoMagic };
  /// Checks the candidate in place; fills `out` only for kFrame.
  Probe probe(DecodedFrame& out);
  void compact();
  void skipForward();  ///< advance pos_ to the next magic candidate

  std::uint16_t width_;
  std::uint16_t height_;
  std::uint32_t maxEvents_;
  std::size_t maxBuffer_;
  std::vector<std::byte> buf_;  ///< reassembly buffer; reserved up front
  std::size_t pos_ = 0;         ///< parse cursor into buf_
  bool skipping_ = false;       ///< inside a resync episode
  Counters counters_;
};

}  // namespace ebbiot

#include "src/node/wire_format.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/common/error.hpp"

namespace ebbiot {
namespace {

template <typename T>
void putLe(std::vector<std::byte>& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::byte>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xFF));
  }
}

template <typename T>
T getLe(const std::byte* p) {
  std::uint64_t v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) {
    v = (v << 8) | static_cast<std::uint64_t>(p[i]);
  }
  return static_cast<T>(v);
}

template <typename T>
void storeLe(std::byte* p, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::byte>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xFF);
  }
}

}  // namespace

void encodeFrame(std::vector<std::byte>& out, std::uint32_t seq,
                 std::uint16_t sensorId, const EventPacket& window) {
  const TimeUs duration = window.duration();
  EBBIOT_ASSERT(duration > 0 &&
                duration <= std::numeric_limits<std::uint32_t>::max());
  EBBIOT_ASSERT(window.size() <=
                std::numeric_limits<std::uint32_t>::max() / kFrameEventSize);
  const std::size_t start = out.size();
  putLe(out, kFrameMagic);
  putLe(out, seq);
  putLe(out, sensorId);
  putLe(out, static_cast<std::uint16_t>(0));  // flags
  putLe(out, static_cast<std::uint32_t>(window.size()));
  putLe(out, static_cast<std::uint32_t>(
                 static_cast<std::uint64_t>(window.tStart()) & 0xFFFFFFFFu));
  putLe(out, static_cast<std::uint32_t>(duration));
  for (const Event& e : window) {
    // EventPacket guarantees tStart <= t < tEnd, so dt fits [0, duration).
    const TimeUs dt = e.t - window.tStart();
    putLe(out, e.x);
    putLe(out, e.y);
    putLe(out, static_cast<std::int8_t>(e.p));
    putLe(out, static_cast<std::uint32_t>(dt));
  }
  const std::uint32_t crc = crc32(std::span<const std::byte>(
      out.data() + start + kFrameSeqOffset,
      out.size() - start - kFrameSeqOffset));
  putLe(out, crc);
}

void refreshFrameCrc(std::span<std::byte> frame) {
  EBBIOT_ASSERT(frame.size() >= frameSizeBytes(0));
  const std::size_t crcOffset = frame.size() - kFrameCrcSize;
  const std::uint32_t crc = crc32(
      frame.subspan(kFrameSeqOffset, crcOffset - kFrameSeqOffset));
  storeLe(frame.data() + crcOffset, crc);
}

std::uint32_t frameWindowStart32(std::span<const std::byte> frame) {
  EBBIOT_ASSERT(frame.size() >= kFrameHeaderSize);
  return getLe<std::uint32_t>(frame.data() + kFrameWindowStartOffset);
}

void setFrameWindowStart32(std::span<std::byte> frame, std::uint32_t value) {
  EBBIOT_ASSERT(frame.size() >= kFrameHeaderSize);
  storeLe(frame.data() + kFrameWindowStartOffset, value);
}

std::uint32_t frameSeq(std::span<const std::byte> frame) {
  EBBIOT_ASSERT(frame.size() >= kFrameHeaderSize);
  return getLe<std::uint32_t>(frame.data() + kFrameSeqOffset);
}

void setFrameSeq(std::span<std::byte> frame, std::uint32_t value) {
  EBBIOT_ASSERT(frame.size() >= kFrameHeaderSize);
  storeLe(frame.data() + kFrameSeqOffset, value);
}

namespace detail {
namespace {

bool checkRecordsPortable(std::span<const std::byte> records,
                          const RecordLimits& limits) {
  // The four checks of every record fold into one flag instead of a
  // branch.
  bool impossible = false;
  for (const std::byte* rec = records.data();
       rec != records.data() + records.size(); rec += kFrameEventSize) {
    const auto x = getLe<std::uint16_t>(rec + kRecordXOffset);
    const auto y = getLe<std::uint16_t>(rec + kRecordYOffset);
    const auto rawP = getLe<std::int8_t>(rec + kRecordPolarityOffset);
    const auto dt = getLe<std::uint32_t>(rec + kRecordDtOffset);
    impossible |= ((rawP != 1) & (rawP != -1)) | (x >= limits.width) |
                  (y >= limits.height) | (dt >= limits.durationUs);
  }
  return impossible;
}

bool decodeRecordsPortable(std::span<const std::byte> records, TimeUs tStart,
                           std::uint32_t durationUs, std::span<Event> out) {
  EBBIOT_ASSERT(records.size() == out.size() * kFrameEventSize);
  const std::byte* rec = records.data();
  bool late = false;
  for (Event& e : out) {
    const auto dt = getLe<std::uint32_t>(rec + kRecordDtOffset);
    e.x = getLe<std::uint16_t>(rec + kRecordXOffset);
    e.y = getLe<std::uint16_t>(rec + kRecordYOffset);
    e.p = static_cast<Polarity>(
        getLe<std::int8_t>(rec + kRecordPolarityOffset));
    e.t = tStart + static_cast<TimeUs>(dt);
    late |= dt >= durationUs;
    rec += kFrameEventSize;
  }
  return late;
}

}  // namespace

const RecordKernels& portableRecordKernels() {
  static constexpr RecordKernels kPortable{&checkRecordsPortable,
                                           &decodeRecordsPortable};
  return kPortable;
}

const RecordKernels& recordKernels() {
  static const RecordKernels& kernels = []() -> const RecordKernels& {
    const RecordKernels* vbmi = vbmiRecordKernels();
    return vbmi != nullptr ? *vbmi : portableRecordKernels();
  }();
  return kernels;
}

}  // namespace detail

void decodeEventsInto(const DecodedFrame& frame, TimeUs tStart,
                      EventPacket& out) {
  EBBIOT_ASSERT(frame.records.size() ==
                std::size_t{frame.eventCount} * kFrameEventSize);
  EBBIOT_ASSERT(tStart >= out.tStart() &&
                tStart + TimeUs{frame.durationUs} <= out.tEnd());
  // Every event lies in [tStart, tStart + durationUs), inside out's
  // window, iff every dt is below durationUs: the kernel checks that in
  // its one pass, so the commit need not read the events again.
  const bool late = detail::recordKernels().decode(
      frame.records, tStart, frame.durationUs,
      out.appendBuffer(frame.eventCount));
  out.commitAppendedUnchecked(late ? 0 : frame.eventCount);
  EBBIOT_ASSERT(!late);
}

TimestampUnwrapper::Result TimestampUnwrapper::unwrap(std::uint32_t t32) {
  Result r;
  if (!primed_) {
    primed_ = true;
    last32_ = t32;
    r.t = static_cast<TimeUs>(t32);
    return r;
  }
  // Shortest signed distance on the 32-bit circle decides the direction.
  const std::uint32_t delta = t32 - last32_;
  if (delta < 0x80000000u) {
    if (t32 < last32_) {
      epochBase_ += static_cast<TimeUs>(1) << 32;
      r.wrapped = true;
    }
    last32_ = t32;
    r.t = epochBase_ + static_cast<TimeUs>(t32);
  } else {
    r.regressed = true;
    // Where the sample would sit relative to the current stream position
    // (informational only; the caller rejects the frame).
    r.t = t32 <= last32_
              ? epochBase_ + static_cast<TimeUs>(t32)
              : epochBase_ - (static_cast<TimeUs>(1) << 32) +
                    static_cast<TimeUs>(t32);
  }
  return r;
}

void TimestampUnwrapper::reset() {
  primed_ = false;
  last32_ = 0;
  epochBase_ = 0;
}

FrameParser::FrameParser(const NodeConfig& config)
    : width_(static_cast<std::uint16_t>(config.width)),
      height_(static_cast<std::uint16_t>(config.height)),
      maxEvents_(config.maxEventsPerFrame),
      maxBuffer_(config.effectiveBufferBytes()) {
  config.validate();
  buf_.reserve(maxBuffer_);
}

void FrameParser::offer(std::span<const std::byte> bytes) {
  counters_.bytesOffered += bytes.size();
  compact();
  const std::size_t room =
      maxBuffer_ > buf_.size() ? maxBuffer_ - buf_.size() : 0;
  const std::size_t take = std::min(room, bytes.size());
  counters_.bytesDroppedOverflow += bytes.size() - take;
  buf_.insert(buf_.end(), bytes.begin(), bytes.begin() + take);
}

void FrameParser::compact() {
  // Reclaim the consumed prefix once it dominates the buffer, keeping
  // amortised cost linear without reallocating (capacity was reserved in
  // the constructor).
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ * 2 >= maxBuffer_)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

void FrameParser::skipForward() {
  // Advance at least one byte, then to the next magic candidate (or the
  // point where a partial magic could still complete).
  if (!skipping_) {
    skipping_ = true;
    ++counters_.resyncs;
  }
  const std::byte m0 = static_cast<std::byte>(kFrameMagic & 0xFF);
  std::size_t p = pos_ + 1;
  while (p < buf_.size() && buf_[p] != m0) {
    ++p;
  }
  counters_.bytesSkipped += p - pos_;
  pos_ = p;
}

FrameParser::Probe FrameParser::probe(DecodedFrame& out) {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderSize) {
    // A partial magic prefix may still complete; a mismatching prefix is
    // already corrupt.
    const std::size_t check = std::min(avail, sizeof(std::uint32_t));
    for (std::size_t i = 0; i < check; ++i) {
      if (buf_[pos_ + i] !=
          static_cast<std::byte>((kFrameMagic >> (8 * i)) & 0xFF)) {
        return Probe::kNoMagic;
      }
    }
    return Probe::kNeedMore;
  }
  const std::byte* p = buf_.data() + pos_;
  if (getLe<std::uint32_t>(p + kFrameMagicOffset) != kFrameMagic) {
    return Probe::kNoMagic;
  }
  const std::uint32_t eventCount = getLe<std::uint32_t>(
      p + kFrameEventCountOffset);
  const std::uint32_t duration = getLe<std::uint32_t>(p + kFrameDurationOffset);
  if (eventCount > maxEvents_ || duration == 0) {
    return Probe::kCorrupt;
  }
  const std::size_t total = frameSizeBytes(eventCount);
  if (avail < total) {
    return Probe::kNeedMore;
  }
  const std::uint32_t storedCrc =
      getLe<std::uint32_t>(p + total - kFrameCrcSize);
  const std::uint32_t actualCrc = crc32(std::span<const std::byte>(
      p + kFrameSeqOffset, total - kFrameSeqOffset - kFrameCrcSize));
  if (storedCrc != actualCrc) {
    return Probe::kCorrupt;
  }
  // CRC-valid but semantically impossible events (a buggy or hostile
  // sender) condemn the frame.  The records are checked in place.
  const std::span<const std::byte> records(
      p + kFrameHeaderSize, std::size_t{eventCount} * kFrameEventSize);
  if (detail::recordKernels().check(records, {width_, height_, duration})) {
    return Probe::kCorrupt;
  }
  out.seq = getLe<std::uint32_t>(p + kFrameSeqOffset);
  out.sensorId = getLe<std::uint16_t>(p + kFrameSensorIdOffset);
  out.windowStart32 = getLe<std::uint32_t>(p + kFrameWindowStartOffset);
  out.durationUs = duration;
  out.eventCount = eventCount;
  out.records = records;
  pos_ += total;
  return Probe::kFrame;
}

FrameParser::Status FrameParser::next(DecodedFrame& out) {
  for (;;) {
    compact();
    if (pos_ >= buf_.size()) {
      return Status::kNeedMore;
    }
    switch (probe(out)) {
      case Probe::kFrame:
        skipping_ = false;
        ++counters_.framesDecoded;
        return Status::kFrame;
      case Probe::kNeedMore:
        return Status::kNeedMore;
      case Probe::kCorrupt:
        ++counters_.framesCorrupted;
        skipForward();
        break;
      case Probe::kNoMagic:
        skipForward();
        break;
    }
  }
}

}  // namespace ebbiot

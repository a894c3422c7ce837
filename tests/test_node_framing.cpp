// Wire-format codec, frame parser (reassembly + resync) and timestamp
// unwrapper of the node ingest layer.
#include "src/node/wire_format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/node/node_config.hpp"
#include "src/sim/recording.hpp"

namespace ebbiot {
namespace {

NodeConfig testConfig() {
  NodeConfig config;
  config.width = 64;
  config.height = 48;
  config.maxEventsPerFrame = 64;
  return config;
}

/// Deterministic window: 5 events, seq-dependent content.
EventPacket makeWindow(std::uint32_t i, TimeUs duration = 10'000) {
  const TimeUs tStart = static_cast<TimeUs>(i) * duration;
  EventPacket p(tStart, tStart + duration);
  for (std::uint32_t j = 0; j < 5; ++j) {
    Event e;
    e.x = static_cast<std::uint16_t>((i + 7 * j) % 64);
    e.y = static_cast<std::uint16_t>((3 * i + j) % 48);
    e.p = (i + j) % 2 == 0 ? Polarity::kOn : Polarity::kOff;
    e.t = tStart + static_cast<TimeUs>(j) * 100;
    p.push(e);
  }
  return p;
}

/// Bit-at-a-time IEEE CRC32 straight from the reflected polynomial: the
/// reference that pins both kernels behind crc32() and the dispatch.
std::uint32_t crc32Bitwise(const std::byte* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= static_cast<std::uint32_t>(data[i]);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFU;
}

std::vector<std::byte> encodeOne(std::uint32_t seq, std::uint16_t sensor,
                                 const EventPacket& window) {
  std::vector<std::byte> out;
  encodeFrame(out, seq, sensor, window);
  return out;
}

TEST(WireFormatTest, FrameSizeIsClosedForm) {
  EXPECT_EQ(frameSizeBytes(0), 28U);
  EXPECT_EQ(frameSizeBytes(5), 28U + 45U);
  const EventPacket w = makeWindow(3);
  EXPECT_EQ(encodeOne(3, 7, w).size(), frameSizeBytes(w.size()));
}

TEST(WireFormatTest, RoundTripPreservesEverything) {
  const EventPacket w = makeWindow(4);
  const std::vector<std::byte> bytes = encodeOne(4, 7, w);

  FrameParser parser(testConfig());
  parser.offer(bytes);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 4U);
  EXPECT_EQ(frame.sensorId, 7U);
  EXPECT_EQ(frame.windowStart32, static_cast<std::uint32_t>(w.tStart()));
  EXPECT_EQ(frame.durationUs, static_cast<std::uint32_t>(w.duration()));
  ASSERT_EQ(frame.eventCount, w.size());
  // Decode at a start other than the wire's 32-bit field: every event
  // must come out at tStart + its delta from the window start.
  const TimeUs tStart = w.tStart() + (TimeUs{3} << 32);
  EventPacket decoded(tStart, tStart + w.duration());
  decodeEventsInto(frame, tStart, decoded);
  ASSERT_EQ(decoded.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(decoded[i].x, w[i].x);
    EXPECT_EQ(decoded[i].y, w[i].y);
    EXPECT_EQ(decoded[i].p, w[i].p);
    EXPECT_EQ(decoded[i].t, tStart + (w[i].t - w.tStart()));
  }
  EXPECT_EQ(parser.next(frame), FrameParser::Status::kNeedMore);
  EXPECT_EQ(parser.counters().framesDecoded, 1U);
  EXPECT_EQ(parser.counters().framesCorrupted, 0U);
  EXPECT_EQ(parser.counters().resyncs, 0U);
}

TEST(WireFormatTest, EmptyWindowRoundTrips) {
  const EventPacket w(5'000, 15'000);
  const std::vector<std::byte> bytes = encodeOne(9, 1, w);
  EXPECT_EQ(bytes.size(), frameSizeBytes(0));

  FrameParser parser(testConfig());
  parser.offer(bytes);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 9U);
  EXPECT_EQ(frame.eventCount, 0U);
  EXPECT_TRUE(frame.records.empty());
  EXPECT_EQ(frame.windowStart32, 5'000U);
  EXPECT_EQ(frame.durationUs, 10'000U);
}

TEST(WireFormatTest, ByteAtATimeReassembly) {
  const std::vector<std::byte> bytes = encodeOne(2, 7, makeWindow(2));
  FrameParser parser(testConfig());
  DecodedFrame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    parser.offer({&bytes[i], 1});
    ASSERT_EQ(parser.next(frame), FrameParser::Status::kNeedMore);
  }
  parser.offer({&bytes.back(), 1});
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 2U);
  EXPECT_EQ(parser.counters().framesDecoded, 1U);
  EXPECT_EQ(parser.counters().resyncs, 0U);
}

TEST(WireFormatTest, CrcCorruptionResyncsToNextFrame) {
  std::vector<std::byte> f0 = encodeOne(0, 7, makeWindow(0));
  const std::vector<std::byte> f1 = encodeOne(1, 7, makeWindow(1));
  f0[kFrameWindowStartOffset] ^= std::byte{1};  // CRC now mismatches

  FrameParser parser(testConfig());
  parser.offer(f0);
  parser.offer(f1);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 1U);
  EXPECT_EQ(parser.next(frame), FrameParser::Status::kNeedMore);
  EXPECT_EQ(parser.counters().framesDecoded, 1U);
  EXPECT_EQ(parser.counters().framesCorrupted, 1U);
  EXPECT_EQ(parser.counters().resyncs, 1U);
  // The whole corrupted frame was scanned past, byte by byte.
  EXPECT_EQ(parser.counters().bytesSkipped, f0.size());
}

TEST(WireFormatTest, GarbagePrefixResyncs) {
  const std::vector<std::byte> garbage(37, std::byte{0xAB});
  const std::vector<std::byte> f0 = encodeOne(0, 7, makeWindow(0));
  FrameParser parser(testConfig());
  parser.offer(garbage);
  parser.offer(f0);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 0U);
  EXPECT_EQ(parser.counters().resyncs, 1U);
  EXPECT_EQ(parser.counters().bytesSkipped, garbage.size());
  // Garbage never presented a plausible header, so nothing was counted
  // as a corrupted *frame*.
  EXPECT_EQ(parser.counters().framesCorrupted, 0U);
}

TEST(WireFormatTest, ImplausibleEventCountRejectedWithoutAllocation) {
  // A CRC-valid frame declaring more events than the config admits must
  // be treated as corruption (and never allocated for), not trusted.
  std::vector<std::byte> f0 = encodeOne(0, 7, makeWindow(0));
  f0[kFrameEventCountOffset + 3] = std::byte{0x7F};
  refreshFrameCrc(f0);
  const std::vector<std::byte> f1 = encodeOne(1, 7, makeWindow(1));

  FrameParser parser(testConfig());
  parser.offer(f0);
  parser.offer(f1);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 1U);
  EXPECT_EQ(parser.counters().framesCorrupted, 1U);
  EXPECT_EQ(parser.counters().resyncs, 1U);
}

TEST(WireFormatTest, CrcValidButSemanticallyImpossibleEventsRejected) {
  // Each of the four per-record checks, with a refreshed CRC: a buggy or
  // hostile sender the checksum alone cannot catch.  The bad record goes
  // first, in the middle and last, since the validation loop checks every
  // record before it decides; each time a valid frame follows.
  struct Poison {
    const char* what;
    std::size_t offset;  ///< byte within the record
    std::byte value;
  };
  const Poison poisons[] = {
      {"x 255 >= width 64", 0, std::byte{0xFF}},
      {"y 255 >= height 48", 2, std::byte{0xFF}},
      {"polarity 3", 4, std::byte{3}},
      {"polarity 0", 4, std::byte{0}},
      {"dt >= duration", 8, std::byte{0x01}},  // dt += 2^24 us
  };
  FrameParser parser(testConfig());
  DecodedFrame frame;
  std::uint32_t seq = 0;
  std::uint64_t corrupted = 0;
  for (const Poison& poison : poisons) {
    for (const std::size_t record : {0U, 2U, 4U}) {
      const EventPacket bad = makeWindow(seq);
      ASSERT_EQ(bad.size(), 5U);
      std::vector<std::byte> f0 = encodeOne(seq, 7, bad);
      f0[kFrameHeaderSize + record * kFrameEventSize + poison.offset] =
          poison.value;
      refreshFrameCrc(f0);
      const EventPacket good = makeWindow(seq + 1);
      const std::vector<std::byte> f1 = encodeOne(seq + 1, 7, good);

      parser.offer(f0);
      parser.offer(f1);
      ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame)
          << poison.what << " in record " << record;
      EXPECT_EQ(frame.seq, seq + 1) << poison.what << " in record " << record;
      EXPECT_EQ(parser.counters().framesCorrupted, ++corrupted)
          << poison.what << " in record " << record;
      EventPacket decoded(good.tStart(), good.tEnd());
      decodeEventsInto(frame, good.tStart(), decoded);
      EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(), good.begin(),
                             good.end()))
          << poison.what << " in record " << record;
      EXPECT_EQ(parser.next(frame), FrameParser::Status::kNeedMore);
      seq += 2;
    }
  }
  EXPECT_EQ(parser.counters().framesDecoded, corrupted);
}

TEST(WireFormatTest, ReassemblyBufferIsBounded) {
  NodeConfig config = testConfig();
  config.maxBufferedBytes = config.maxFrameBytes();  // tightest legal cap
  FrameParser parser(config);
  // Offer three frames' worth of junk at once: everything beyond the cap
  // must be dropped and counted, not buffered.
  const std::vector<std::byte> junk(3 * config.maxFrameBytes(),
                                    std::byte{0x00});
  parser.offer(junk);
  EXPECT_EQ(parser.counters().bytesOffered, junk.size());
  EXPECT_EQ(parser.counters().bytesDroppedOverflow,
            junk.size() - config.maxFrameBytes());
  EXPECT_EQ(parser.buffered(), config.maxFrameBytes());
}

TEST(WireFormatTest, SeqAndWindowStartFieldAccessors) {
  std::vector<std::byte> f0 = encodeOne(41, 7, makeWindow(41));
  EXPECT_EQ(frameSeq(f0), 41U);
  EXPECT_EQ(frameWindowStart32(f0), 410'000U);
  setFrameSeq(f0, 99);
  setFrameWindowStart32(f0, 123'456);
  refreshFrameCrc(f0);
  EXPECT_EQ(frameSeq(f0), 99U);
  EXPECT_EQ(frameWindowStart32(f0), 123'456U);

  FrameParser parser(testConfig());
  parser.offer(f0);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.seq, 99U);
  EXPECT_EQ(frame.windowStart32, 123'456U);
}

/// Pins `kernel` to crc32Bitwise.  Lengths 0-1100 cover inputs under 64
/// bytes (the slice-by-8 loop alone), 1-17 fold steps of 64 bytes, 0-3
/// trailing 16-byte blocks and every 0-15-byte tail after them; start
/// offsets 0-15 cover every misalignment of the 8- and 16-byte loads.
void expectMatchesBitwise(detail::Crc32Kernel kernel) {
  Rng rng(77);
  std::vector<std::byte> buf(16 + 1100);
  for (std::byte& b : buf) {
    b = static_cast<std::byte>(rng.uniformInt(0, 255));
  }
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::byte> bytes(buf.data() + offset, len);
      ASSERT_EQ(kernel(bytes), crc32Bitwise(bytes.data(), bytes.size()))
          << "offset " << offset << " length " << len;
    }
  }
  // A 64 KiB random buffer: 1024 fold steps of 64 bytes.
  std::vector<std::byte> big(64 * 1024);
  for (std::byte& b : big) {
    b = static_cast<std::byte>(rng.uniformInt(0, 255));
  }
  EXPECT_EQ(kernel(big), crc32Bitwise(big.data(), big.size()));
  // All-zero and all-ones inputs stress the table rows and the fold
  // lanes at both ends.
  for (const std::byte fill : {std::byte{0x00}, std::byte{0xFF}}) {
    for (const std::size_t len : {77U, 4099U}) {
      const std::vector<std::byte> flat(len, fill);
      EXPECT_EQ(kernel(flat), crc32Bitwise(flat.data(), flat.size()))
          << "fill " << static_cast<int>(fill) << " length " << len;
    }
  }
}

TEST(WireFormatTest, Crc32MatchesKnownVector) {
  // IEEE CRC32 of "123456789" is the classic check value 0xCBF43926.
  const char* digits = "123456789";
  std::vector<std::byte> bytes;
  for (const char* p = digits; *p != '\0'; ++p) {
    bytes.push_back(static_cast<std::byte>(*p));
  }
  EXPECT_EQ(crc32(bytes), 0xCBF43926U);
  EXPECT_EQ(detail::crc32Portable(bytes), 0xCBF43926U);
  if (const detail::Crc32Kernel clmul = detail::crc32ClmulKernel()) {
    EXPECT_EQ(clmul(bytes), 0xCBF43926U);
  }
}

TEST(WireFormatTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // The dispatched crc32(), whichever kernel this CPU runs.
  expectMatchesBitwise(&crc32);
}

TEST(WireFormatTest, Crc32PortableKernelMatchesBitwiseReference) {
  expectMatchesBitwise(&detail::crc32Portable);
}

TEST(WireFormatTest, Crc32ClmulKernelMatchesBitwiseReference) {
  const detail::Crc32Kernel clmul = detail::crc32ClmulKernel();
  if (clmul == nullptr) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ or SSE4.1";
  }
  expectMatchesBitwise(clmul);
}

TEST(WireFormatTest, Crc32MatchesBitwiseReferenceOnEncodedEngFrames) {
  // Real traffic: SyntheticENG windows encoded as EBF1 frames, each
  // thousands of bytes, must carry the reference CRC and parse back.
  Recording rec = openRecording(scaledRecording(makeSyntheticEng(5), 0.01));
  NodeConfig config;
  FrameParser parser(config);
  DecodedFrame frame;
  EventPacket decoded;  // reused across frames, as a queue slot is
  std::size_t checkedBytes = 0;
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    const EventPacket window = rec.source->nextWindow(kDefaultFramePeriodUs);
    const std::vector<std::byte> bytes = encodeOne(seq, 3, window);
    const std::size_t crcOffset = bytes.size() - kFrameCrcSize;
    const std::span<const std::byte> covered(bytes.data() + kFrameSeqOffset,
                                             crcOffset - kFrameSeqOffset);
    const std::uint32_t want = crc32Bitwise(covered.data(), covered.size());
    EXPECT_EQ(crc32(covered), want) << "frame " << seq;
    EXPECT_EQ(crc32(covered), detail::crc32Portable(covered))
        << "frame " << seq;
    std::uint32_t stored = 0;
    for (std::size_t i = kFrameCrcSize; i-- > 0;) {
      stored = (stored << 8) | static_cast<std::uint32_t>(bytes[crcOffset + i]);
    }
    EXPECT_EQ(stored, want) << "frame " << seq;
    parser.offer(bytes);
    ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
    EXPECT_EQ(frame.seq, seq);
    ASSERT_EQ(frame.eventCount, window.size());
    decoded.reset(window.tStart(), window.tEnd());
    decodeEventsInto(frame, window.tStart(), decoded);
    EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(), window.begin(),
                           window.end()))
        << "frame " << seq;
    checkedBytes += bytes.size();
  }
  EXPECT_GT(checkedBytes, 4U * 1000U);  // frames long enough to matter
}

/// One record's fields; the polarity is the raw wire byte.
struct RecordFields {
  std::uint16_t x = 0;
  std::uint16_t y = 0;
  std::int8_t p = 1;
  std::uint32_t dt = 0;
};

void writeRecord(std::byte* rec, const RecordFields& f) {
  const auto put = [rec](std::size_t offset, std::uint64_t value,
                         std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) {
      rec[offset + i] = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
    }
  };
  put(kRecordXOffset, f.x, 2);
  put(kRecordYOffset, f.y, 2);
  put(kRecordPolarityOffset, static_cast<std::uint8_t>(f.p), 1);
  put(kRecordDtOffset, f.dt, 4);
}

std::vector<std::byte> writeRecords(const std::vector<RecordFields>& fields) {
  std::vector<std::byte> records(fields.size() * kFrameEventSize);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    writeRecord(records.data() + i * kFrameEventSize, fields[i]);
  }
  return records;
}

/// n valid records under `limits`, spread over the range.
std::vector<RecordFields> validFields(std::size_t n,
                                      const detail::RecordLimits& limits) {
  std::vector<RecordFields> fields;
  for (std::size_t i = 0; i < n; ++i) {
    fields.push_back(RecordFields{
        static_cast<std::uint16_t>((7 * i) % limits.width),
        static_cast<std::uint16_t>((5 * i) % limits.height),
        static_cast<std::int8_t>(i % 2 == 0 ? 1 : -1),
        static_cast<std::uint32_t>((1009 * i) % limits.durationUs)});
  }
  return fields;
}

/// One field of one record set to a value at or just inside a limit.
struct BoundaryEdit {
  std::string what;
  void (*apply)(RecordFields&, const detail::RecordLimits&);
  bool accepted;
};

std::vector<BoundaryEdit> boundaryEdits() {
  using F = RecordFields;
  using L = detail::RecordLimits;
  std::vector<BoundaryEdit> edits = {
      {"x = width - 1", [](F& f, const L& l) { f.x = l.width - 1; }, true},
      {"x = width", [](F& f, const L& l) { f.x = l.width; }, false},
      {"y = height - 1", [](F& f, const L& l) { f.y = l.height - 1; }, true},
      {"y = height", [](F& f, const L& l) { f.y = l.height; }, false},
      {"dt = duration - 1",
       [](F& f, const L& l) { f.dt = l.durationUs - 1; }, true},
      {"dt = duration", [](F& f, const L& l) { f.dt = l.durationUs; }, false},
      {"p = -1", [](F& f, const L&) { f.p = -1; }, true},
      {"p = 1", [](F& f, const L&) { f.p = 1; }, true},
      {"p = 0", [](F& f, const L&) { f.p = 0; }, false},
      {"p = 2", [](F& f, const L&) { f.p = 2; }, false},
      {"p = -2", [](F& f, const L&) { f.p = -2; }, false},
      {"p = 127", [](F& f, const L&) { f.p = 127; }, false},
      {"p = -128", [](F& f, const L&) { f.p = -128; }, false},
  };
  return edits;
}

Event expectedEvent(const RecordFields& f, TimeUs tStart) {
  return Event{f.x, f.y, static_cast<Polarity>(f.p),
               tStart + static_cast<TimeUs>(f.dt)};
}

/// Every boundary edit at every position of frames of 1-13 records, so
/// each of the four lanes of a 4-record step and every tail length 0-3
/// meets each edit.  Limits at the bottom and top of their ranges catch
/// signed compares and off-by-one bounds.  Every record decodes to its
/// fields, and the decode flags exactly the frames with dt >= duration.
void expectBoundaryVerdicts(const detail::RecordKernels& kernels) {
  const TimeUs tStart = (TimeUs{5} << 32) + 77;
  const detail::RecordLimits limitSets[] = {
      {64, 48, 10'000}, {1, 1, 1}, {65535, 65535, 0xFFFF'FFFFU}};
  for (const detail::RecordLimits& limits : limitSets) {
    for (std::size_t n = 0; n <= 13; ++n) {
      const std::vector<std::byte> clean = writeRecords(validFields(n, limits));
      ASSERT_FALSE(kernels.check(clean, limits)) << n << " valid records";
    }
    for (const BoundaryEdit& edit : boundaryEdits()) {
      for (std::size_t n = 1; n <= 13; ++n) {
        for (std::size_t i = 0; i < n; ++i) {
          std::vector<RecordFields> fields = validFields(n, limits);
          edit.apply(fields[i], limits);
          const std::vector<std::byte> records = writeRecords(fields);
          ASSERT_EQ(kernels.check(records, limits), !edit.accepted)
              << edit.what << " in record " << i << " of " << n
              << ", width " << limits.width;
          const bool late = fields[i].dt >= limits.durationUs;
          std::vector<Event> out(n);
          ASSERT_EQ(kernels.decode(records, tStart, limits.durationUs, out),
                    late)
              << edit.what << " in record " << i << " of " << n
              << ", width " << limits.width;
          for (std::size_t k = 0; k < n; ++k) {
            ASSERT_EQ(out[k], expectedEvent(fields[k], tStart))
                << edit.what << " in record " << i << " of " << n
                << ", event " << k;
          }
        }
      }
    }
  }
}

TEST(RecordKernelsTest, PortableKernelsAtEveryBoundaryLaneAndTail) {
  expectBoundaryVerdicts(detail::portableRecordKernels());
}

TEST(RecordKernelsTest, VbmiKernelsAtEveryBoundaryLaneAndTail) {
  const detail::RecordKernels* vbmi = detail::vbmiRecordKernels();
  if (vbmi == nullptr) {
    GTEST_SKIP() << "CPU lacks AVX-512 VBMI";
  }
  expectBoundaryVerdicts(*vbmi);
}

TEST(RecordKernelsTest, VbmiKernelsMatchPortableOnRandomRecords) {
  // Mostly valid records with dt up to duration - 1, some with a byte
  // overwritten at random, at every start misalignment: the VBMI kernels
  // must give the portable verdict and write the same Events, starting
  // beyond 2^32 us, and nothing past the last one.
  const detail::RecordKernels* vbmi = detail::vbmiRecordKernels();
  if (vbmi == nullptr) {
    GTEST_SKIP() << "CPU lacks AVX-512 VBMI";
  }
  const detail::RecordKernels& portable = detail::portableRecordKernels();
  const detail::RecordLimits limits{240, 180, 66'000};
  const TimeUs tStart = (TimeUs{9} << 32) + 4'321;
  const Event sentinel{1, 2, Polarity::kOff, -5};
  Rng rng(21);
  std::size_t verdicts[2] = {0, 0};
  std::size_t lateFrames = 0;
  for (int round = 0; round < 3000; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniformInt(0, 40));
    const auto offset = static_cast<std::size_t>(rng.uniformInt(0, 15));
    std::vector<RecordFields> fields(n);
    for (RecordFields& f : fields) {
      f.x = static_cast<std::uint16_t>(rng.uniformInt(0, limits.width - 1));
      f.y = static_cast<std::uint16_t>(rng.uniformInt(0, limits.height - 1));
      f.p = rng.chance(0.5) ? 1 : -1;
      f.dt = static_cast<std::uint32_t>(
          rng.chance(0.2) ? limits.durationUs - 1
                          : rng.uniformInt(0, limits.durationUs - 1));
    }
    const std::vector<std::byte> written = writeRecords(fields);
    std::vector<std::byte> buf(offset + written.size());
    std::copy(written.begin(), written.end(), buf.begin() + offset);
    if (n > 0 && rng.chance(0.5)) {
      const auto at = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(written.size()) - 1));
      buf[offset + at] = static_cast<std::byte>(rng.uniformInt(0, 255));
    }
    const std::span<const std::byte> records(buf.data() + offset,
                                             written.size());
    const bool impossible = portable.check(records, limits);
    ASSERT_EQ(vbmi->check(records, limits), impossible)
        << "round " << round << ", " << n << " records";
    ++verdicts[impossible ? 1 : 0];
    std::vector<Event> want(n + 1, sentinel);
    std::vector<Event> got(n + 1, sentinel);
    const bool late =
        portable.decode(records, tStart, limits.durationUs, {want.data(), n});
    ASSERT_EQ(vbmi->decode(records, tStart, limits.durationUs,
                           {got.data(), n}),
              late)
        << "round " << round << ", " << n << " records";
    ASSERT_EQ(got, want) << "round " << round << ", " << n << " records";
    lateFrames += late ? 1 : 0;
  }
  // Both verdicts occur often enough to matter.
  EXPECT_GT(verdicts[0], 1000U);
  EXPECT_GT(verdicts[1], 500U);
  EXPECT_GT(lateFrames, 100U);
}

TEST(WireFormatTest, RecordBoundariesThroughTheParserAtEveryLaneAndTail) {
  // The dispatched checks, end to end: each boundary edit at every
  // position of 1-13-event frames with a refreshed CRC.  An accepted
  // edit decodes to its fields; a rejected one is counted as corrupt and
  // the valid frame behind it parses.
  const NodeConfig config = testConfig();
  const detail::RecordLimits limits{64, 48, 10'000};
  FrameParser parser(config);
  DecodedFrame frame;
  std::uint32_t seq = 0;
  std::uint64_t corrupted = 0;
  for (const BoundaryEdit& edit : boundaryEdits()) {
    for (std::size_t n = 1; n <= 13; ++n) {
      for (std::size_t i = 0; i < n; ++i) {
        const TimeUs tStart = TimeUs{seq} * limits.durationUs;
        std::vector<RecordFields> fields = validFields(n, limits);
        edit.apply(fields[i], limits);
        std::vector<std::byte> f0 =
            encodeOne(seq, 7, EventPacket(tStart, tStart + limits.durationUs));
        const std::vector<std::byte> records = writeRecords(fields);
        f0.insert(f0.begin() + kFrameHeaderSize, records.begin(),
                  records.end());
        f0[kFrameEventCountOffset] = static_cast<std::byte>(n);
        refreshFrameCrc(f0);
        const EventPacket good = makeWindow(seq + 1);
        parser.offer(f0);
        parser.offer(encodeOne(seq + 1, 7, good));
        const std::string where = edit.what + " in record " +
                                  std::to_string(i) + " of " +
                                  std::to_string(n);
        ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame) << where;
        if (edit.accepted) {
          ASSERT_EQ(frame.seq, seq) << where;
          EventPacket decoded(tStart, tStart + limits.durationUs);
          decodeEventsInto(frame, tStart, decoded);
          ASSERT_EQ(decoded.size(), n) << where;
          for (std::size_t k = 0; k < n; ++k) {
            ASSERT_EQ(decoded[k], expectedEvent(fields[k], tStart))
                << where << ", event " << k;
          }
          ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame) << where;
        } else {
          ++corrupted;
        }
        ASSERT_EQ(frame.seq, seq + 1) << where;
        ASSERT_EQ(parser.counters().framesCorrupted, corrupted) << where;
        ASSERT_EQ(parser.next(frame), FrameParser::Status::kNeedMore) << where;
        seq += 2;
      }
    }
  }
  EXPECT_EQ(corrupted, 8U * (13U * 14U / 2U));  // 8 rejected edits
}

TEST(WireFormatTest, DispatchedRecordKernelsMatchPortableOnEngAndLt4Frames) {
  // Real traffic through the parser's checks and decodeEventsInto, on
  // whichever kernels this CPU runs, against the portable kernels and
  // the windows that were encoded.
  const detail::RecordKernels& portable = detail::portableRecordKernels();
  const RecordingSpec specs[] = {scaledRecording(makeSyntheticEng(5), 0.01),
                                 scaledRecording(makeSyntheticLt4(5), 0.03)};
  const TimeUs epoch = TimeUs{3} << 32;
  for (const RecordingSpec& spec : specs) {
    Recording rec = openRecording(spec);
    FrameParser parser{NodeConfig{}};
    DecodedFrame frame;
    EventPacket decoded;  // reused across frames, as a queue slot is
    std::vector<Event> reference;
    std::size_t events = 0;
    for (std::uint32_t seq = 0; seq < 12; ++seq) {
      const EventPacket window = rec.source->nextWindow(kDefaultFramePeriodUs);
      parser.offer(encodeOne(seq, 3, window));
      ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
      ASSERT_EQ(frame.eventCount, window.size());
      EXPECT_FALSE(portable.check(frame.records,
                                  {240, 180, frame.durationUs}));
      const TimeUs tStart = epoch + window.tStart();
      decoded.reset(tStart, tStart + window.duration());
      decodeEventsInto(frame, tStart, decoded);
      reference.resize(frame.eventCount);
      EXPECT_FALSE(
          portable.decode(frame.records, tStart, frame.durationUs, reference));
      ASSERT_TRUE(std::equal(decoded.begin(), decoded.end(),
                             reference.begin(), reference.end()))
          << "frame " << seq;
      for (std::size_t i = 0; i < window.size(); ++i) {
        ASSERT_EQ(decoded[i].t - epoch, window[i].t) << "frame " << seq;
      }
      events += window.size();
    }
    EXPECT_GT(events, 1000U);
  }
}

TEST(WireFormatTest, DecodeChecksTheWindowAndEveryEvent) {
  const EventPacket w = makeWindow(4);
  const std::vector<std::byte> bytes = encodeOne(4, 7, w);
  FrameParser parser(testConfig());
  parser.offer(bytes);
  DecodedFrame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  const TimeUs tStart = w.tStart();
  const TimeUs d = w.duration();
  // out's window must hold [tStart, tStart + duration): too late a start,
  // too early an end, or a window beside it are refused before any
  // event is written.
  const std::pair<TimeUs, TimeUs> misfits[] = {
      {tStart + 1, tStart + d}, {tStart, tStart + d - 1}, {tStart - d, tStart}};
  for (const auto& [lo, hi] : misfits) {
    EventPacket out(lo, hi);
    EXPECT_THROW(decodeEventsInto(frame, tStart, out), LogicError)
        << "[" << lo << ", " << hi << ")";
    EXPECT_TRUE(out.empty());
  }
  // The window is checked even when no event would be.
  DecodedFrame empty = frame;
  empty.eventCount = 0;
  empty.records = {};
  EventPacket tooShort(tStart, tStart + d - 1);
  EXPECT_THROW(decodeEventsInto(empty, tStart, tooShort), LogicError);
  // A wider window holds the frame.
  EventPacket wide(tStart - 1, tStart + d + 1);
  decodeEventsInto(frame, tStart, wide);
  EXPECT_EQ(wide.size(), w.size());
  // Records the parser never checked: an event at dt = duration falls
  // outside the window, so the per-event check drops the whole frame.
  std::vector<std::byte> records(frame.records.begin(), frame.records.end());
  writeRecord(records.data() + 2 * kFrameEventSize,
              RecordFields{1, 1, 1, static_cast<std::uint32_t>(d)});
  DecodedFrame unchecked = frame;
  unchecked.records = records;
  EventPacket exact(tStart, tStart + d);
  EXPECT_THROW(decodeEventsInto(unchecked, tStart, exact), LogicError);
  EXPECT_TRUE(exact.empty());
}

TEST(WireFormatTest, DecodeBoundsEveryDtAtEveryLaneAndTail) {
  // decodeEventsInto's window check runs inside the record kernel's one
  // pass.  Records the parser never checked, with one dt at the limit,
  // in every lane and tail position of 1-13-record frames, decoded after
  // two events already in the packet: dt = duration - 1 appends the
  // frame, and dt = duration throws and leaves the packet's events and
  // window as they were.
  const TimeUs d = 10'000;
  const TimeUs tStart = (TimeUs{7} << 32) + 11;
  const detail::RecordLimits limits{64, 48, static_cast<std::uint32_t>(d)};
  for (std::size_t n = 1; n <= 13; ++n) {
    for (std::size_t i = 0; i < n; ++i) {
      for (const bool atLimit : {false, true}) {
        std::vector<RecordFields> fields = validFields(n, limits);
        fields[i].dt = static_cast<std::uint32_t>(atLimit ? d : d - 1);
        const std::vector<std::byte> records = writeRecords(fields);
        DecodedFrame frame;
        frame.durationUs = static_cast<std::uint32_t>(d);
        frame.eventCount = static_cast<std::uint32_t>(n);
        frame.records = records;
        EventPacket out(tStart - 5, tStart + d);
        out.push(Event{3, 4, Polarity::kOn, tStart - 5});
        out.push(Event{5, 6, Polarity::kOff, tStart - 1});
        const std::vector<Event> before(out.begin(), out.end());
        const std::string where = "dt = duration" +
                                  std::string(atLimit ? "" : " - 1") +
                                  " in record " + std::to_string(i) + " of " +
                                  std::to_string(n);
        if (atLimit) {
          EXPECT_THROW(decodeEventsInto(frame, tStart, out), LogicError)
              << where;
          EXPECT_EQ(std::vector<Event>(out.begin(), out.end()), before)
              << where;
        } else {
          decodeEventsInto(frame, tStart, out);
          ASSERT_EQ(out.size(), before.size() + n) << where;
          for (std::size_t k = 0; k < n; ++k) {
            ASSERT_EQ(out[before.size() + k],
                      expectedEvent(fields[k], tStart))
                << where << ", event " << k;
          }
        }
        EXPECT_EQ(out.tStart(), tStart - 5) << where;
        EXPECT_EQ(out.tEnd(), tStart + d) << where;
      }
    }
  }
}

TEST(WireFormatTest, ParserRejectsInvalidConfig) {
  NodeConfig config = testConfig();
  config.maxEventsPerFrame = 0;
  EXPECT_THROW(FrameParser{config}, ConfigError);
}

TEST(TimestampUnwrapperTest, ForwardStepsAccumulate) {
  TimestampUnwrapper u;
  EXPECT_EQ(u.unwrap(100).t, 100);
  const auto r = u.unwrap(2'000'000'000U);
  EXPECT_EQ(r.t, 2'000'000'000);
  EXPECT_FALSE(r.wrapped);
  EXPECT_FALSE(r.regressed);
}

TEST(TimestampUnwrapperTest, WrapAdvancesEpoch) {
  TimestampUnwrapper u;
  (void)u.unwrap(2'000'000'000U);
  (void)u.unwrap(4'000'000'000U);
  const auto r = u.unwrap(294'967'295U);  // numerically smaller: wrapped
  EXPECT_TRUE(r.wrapped);
  EXPECT_FALSE(r.regressed);
  EXPECT_EQ(r.t, (TimeUs{1} << 32) + 294'967'295);
  // A second lap keeps accumulating.
  (void)u.unwrap(2'400'000'000U);
  const auto r2 = u.unwrap(100U);
  EXPECT_TRUE(r2.wrapped);
  EXPECT_EQ(r2.t, (TimeUs{2} << 32) + 100);
}

TEST(TimestampUnwrapperTest, BackwardStepIsRegression) {
  TimestampUnwrapper u;
  (void)u.unwrap(2'000'000'000U);
  const auto r = u.unwrap(1'999'000'000U);
  EXPECT_TRUE(r.regressed);
  EXPECT_FALSE(r.wrapped);
  EXPECT_EQ(r.t, 1'999'000'000);  // informational position
  // The stream position did not move: the next forward sample unwraps
  // against the *accepted* history.
  EXPECT_EQ(u.unwrap(2'000'000'100U).t, 2'000'000'100);
}

TEST(TimestampUnwrapperTest, ResetForgetsEpoch) {
  TimestampUnwrapper u;
  (void)u.unwrap(2'000'000'000U);
  (void)u.unwrap(4'000'000'000U);
  (void)u.unwrap(294'967'295U);  // epoch 1
  u.reset();
  const auto r = u.unwrap(50U);
  EXPECT_FALSE(r.wrapped);
  EXPECT_FALSE(r.regressed);
  EXPECT_EQ(r.t, 50);
}

}  // namespace
}  // namespace ebbiot

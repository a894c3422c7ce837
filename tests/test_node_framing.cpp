// Wire-format codec, frame parser (reassembly + resync) and timestamp
// unwrapper of the node ingest layer.
#include "src/node/wire_format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
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

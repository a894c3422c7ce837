#include "src/ebbi/ebbi_builder.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"

namespace ebbiot {
namespace {

TEST(EbbiBuilderTest, SetsPixelsOfEvents) {
  EbbiBuilder builder(32, 32);
  EventPacket p(0, 1000);
  p.push(Event{5, 6, Polarity::kOn, 10});
  p.push(Event{7, 8, Polarity::kOff, 20});
  BinaryImage img(32, 32);
  builder.buildInto(p, img);
  EXPECT_TRUE(img.get(5, 6));
  EXPECT_TRUE(img.get(7, 8));
  EXPECT_EQ(img.popcount(), 2U);
}

TEST(EbbiBuilderTest, DuplicateEventsIdempotent) {
  // The latch semantics: one bit per pixel regardless of fire count.
  EbbiBuilder builder(16, 16);
  EventPacket p(0, 1000);
  for (int i = 0; i < 10; ++i) {
    p.push(Event{3, 3, Polarity::kOn, static_cast<TimeUs>(i)});
  }
  BinaryImage img(16, 16);
  builder.buildInto(p, img);
  EXPECT_EQ(img.popcount(), 1U);
}

TEST(EbbiBuilderTest, PolarityIgnoredInCombinedImage) {
  EbbiBuilder builder(16, 16);
  EventPacket p(0, 1000);
  p.push(Event{1, 1, Polarity::kOn, 1});
  p.push(Event{2, 2, Polarity::kOff, 2});
  BinaryImage img(16, 16);
  builder.buildInto(p, img);
  EXPECT_TRUE(img.get(1, 1));
  EXPECT_TRUE(img.get(2, 2));
}

TEST(EbbiBuilderTest, BuildIntoClearsPreviousFrame) {
  EbbiBuilder builder(16, 16);
  BinaryImage img(16, 16);
  EventPacket a(0, 1000);
  a.push(Event{1, 1, Polarity::kOn, 1});
  builder.buildInto(a, img);
  EventPacket b(1000, 2000);
  b.push(Event{2, 2, Polarity::kOn, 1500});
  builder.buildInto(b, img);
  EXPECT_FALSE(img.get(1, 1));  // previous frame cleared
  EXPECT_TRUE(img.get(2, 2));
}

TEST(EbbiBuilderTest, BuildIntoShapeMismatchThrows) {
  EbbiBuilder builder(16, 16);
  BinaryImage wrong(8, 8);
  EventPacket p(0, 1000);
  EXPECT_THROW(builder.buildInto(p, wrong), LogicError);
}

TEST(EbbiBuilderTest, OutOfFrameEventThrows) {
  EbbiBuilder builder(8, 8);
  EventPacket p(0, 1000);
  p.push(Event{200, 1, Polarity::kOn, 10});
  BinaryImage img(8, 8);
  EXPECT_THROW(builder.buildInto(p, img), LogicError);
}

TEST(EbbiBuilderTest, OpsCountMemoryWritesPerEvent) {
  EbbiBuilder builder(16, 16);
  EventPacket p(0, 1000);
  for (int i = 0; i < 7; ++i) {
    p.push(Event{static_cast<std::uint16_t>(i), 0, Polarity::kOn,
                 static_cast<TimeUs>(i)});
  }
  BinaryImage img(16, 16);
  builder.buildInto(p, img);
  EXPECT_EQ(builder.lastOps().memWrites, 7U);
  EXPECT_EQ(builder.lastOps().total(), 7U);
}

TEST(EbbiBuilderTest, PolaritySplitImages) {
  EbbiBuilder builder(16, 16);
  EventPacket p(0, 1000);
  p.push(Event{1, 1, Polarity::kOn, 1});
  p.push(Event{2, 2, Polarity::kOff, 2});
  p.push(Event{3, 3, Polarity::kOn, 3});
  BinaryImage on;
  BinaryImage off;
  const BinaryImage combined = builder.buildWithPolarity(p, on, off);
  EXPECT_EQ(combined.popcount(), 3U);
  EXPECT_EQ(on.popcount(), 2U);
  EXPECT_EQ(off.popcount(), 1U);
  EXPECT_TRUE(on.get(1, 1));
  EXPECT_TRUE(off.get(2, 2));
  EXPECT_FALSE(on.get(2, 2));
}

TEST(EbbiBuilderTest, EmptyPacketGivesBlankImage) {
  EbbiBuilder builder(16, 16);
  BinaryImage img(16, 16);
  builder.buildInto(EventPacket(0, 1000), img);
  EXPECT_EQ(img.popcount(), 0U);
  EXPECT_EQ(builder.lastOps().total(), 0U);
}

}  // namespace
}  // namespace ebbiot

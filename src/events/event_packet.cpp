#include "src/events/event_packet.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "src/common/error.hpp"

namespace ebbiot {

EventPacket::EventPacket(TimeUs tStart, TimeUs tEnd)
    : tStart_(tStart), tEnd_(tEnd) {
  EBBIOT_ASSERT(tStart <= tEnd);
}

EventPacket::EventPacket(TimeUs tStart, TimeUs tEnd,
                         std::vector<Event> events)
    : tStart_(tStart),
      tEnd_(tEnd),
      events_(std::move(events)),
      size_(events_.size()) {
  EBBIOT_ASSERT(tStart <= tEnd);
  for (const Event& e : events_) {
    EBBIOT_ASSERT(e.t >= tStart_ && e.t < tEnd_);
  }
}

EventPacket::EventPacket(const EventPacket& other)
    : tStart_(other.tStart_),
      tEnd_(other.tEnd_),
      events_(other.begin(), other.end()),
      size_(other.size_) {}

EventPacket& EventPacket::operator=(const EventPacket& other) {
  if (this != &other) {
    tStart_ = other.tStart_;
    tEnd_ = other.tEnd_;
    size_ = 0;
    std::copy(other.begin(), other.end(), grow(other.size_));
  }
  return *this;
}

EventPacket::EventPacket(EventPacket&& other) noexcept
    : tStart_(other.tStart_),
      tEnd_(other.tEnd_),
      events_(std::move(other.events_)),
      size_(std::exchange(other.size_, 0)) {}

EventPacket& EventPacket::operator=(EventPacket&& other) noexcept {
  if (this != &other) {
    tStart_ = other.tStart_;
    tEnd_ = other.tEnd_;
    events_ = std::move(other.events_);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

const Event& EventPacket::operator[](std::size_t i) const {
  EBBIOT_ASSERT(i < size_);
  return events_[i];
}

void EventPacket::reset(TimeUs tStart, TimeUs tEnd) {
  EBBIOT_ASSERT(tStart <= tEnd);
  tStart_ = tStart;
  tEnd_ = tEnd;
  size_ = 0;
}

Event* EventPacket::grow(std::size_t count) {
  const std::size_t needed = size_ + count;
  if (needed > events_.size()) {
    if (needed > events_.capacity()) {
      // Power-of-two capacities, as push_back() reaches from empty:
      // resize() alone would reallocate to the exact size at every new
      // largest window of a stream.
      events_.reserve(std::bit_ceil(needed));
    }
    events_.resize(needed);
  }
  Event* first = events_.data() + size_;
  size_ = needed;
  return first;
}

void EventPacket::push(const Event& e) {
  EBBIOT_ASSERT(e.t >= tStart_ && e.t < tEnd_);
  *grow(1) = e;
}

std::span<Event> EventPacket::appendBuffer(std::size_t count) {
  appendBase_ = size_;
  return {grow(count), count};
}

void EventPacket::commitAppended(std::size_t kept) {
  EBBIOT_ASSERT(kept <= size_ - appendBase_);
  // tStart_ <= t < tEnd_ as one unsigned compare: an event before the
  // window wraps to an offset no smaller than its duration.
  const auto start = static_cast<std::uint64_t>(tStart_);
  const auto duration = static_cast<std::uint64_t>(tEnd_ - tStart_);
  const Event* first = events_.data() + appendBase_;
  bool outside = false;
  for (const Event* e = first; e != first + kept; ++e) {
    outside |= static_cast<std::uint64_t>(e->t) - start >= duration;
  }
  size_ = appendBase_;
  EBBIOT_ASSERT(!outside);
  size_ += kept;
}

void EventPacket::commitAppendedUnchecked(std::size_t kept) {
  EBBIOT_ASSERT(kept <= size_ - appendBase_);
  size_ = appendBase_ + kept;
}

void EventPacket::append(const EventPacket& other) {
  EBBIOT_ASSERT(other.tStart_ >= tStart_ && other.tEnd_ <= tEnd_);
  // grow() may reallocate, and other may be this packet: read its
  // storage only afterwards.
  const std::size_t count = other.size_;
  Event* dst = grow(count);
  std::copy_n(other.events_.data(), count, dst);
}

void EventPacket::sortByTime() {
  std::stable_sort(events_.begin(),
                   events_.begin() + static_cast<std::ptrdiff_t>(size_),
                   EventTimeOrder{});
}

bool EventPacket::isTimeSorted() const {
  return std::is_sorted(begin(), end(), [](const Event& a, const Event& b) {
    return a.t < b.t;
  });
}

EventPacket EventPacket::slice(TimeUs t0, TimeUs t1) const {
  EBBIOT_ASSERT(t0 <= t1);
  EBBIOT_ASSERT(isTimeSorted());
  const auto lo = std::lower_bound(
      begin(), end(), t0, [](const Event& e, TimeUs t) { return e.t < t; });
  const auto hi = std::lower_bound(
      lo, end(), t1, [](const Event& e, TimeUs t) { return e.t < t; });
  EventPacket out(std::max(t0, tStart_), std::min(t1, tEnd_));
  std::copy(lo, hi, out.grow(static_cast<std::size_t>(hi - lo)));
  return out;
}

EventPacket EventPacket::filterByRegion(const BBox& region) const {
  EventPacket out(tStart_, tEnd_);
  for (const Event& e : events()) {
    if (region.contains(static_cast<float>(e.x), static_cast<float>(e.y))) {
      *out.grow(1) = e;
    }
  }
  return out;
}

std::size_t EventPacket::countOn() const {
  return static_cast<std::size_t>(
      std::count_if(begin(), end(),
                    [](const Event& e) { return e.p == Polarity::kOn; }));
}

std::vector<Event> EventPacket::takeEvents() && {
  events_.resize(size_);
  size_ = 0;
  return std::move(events_);
}

EventPacket mergePackets(const EventPacket& a, const EventPacket& b) {
  EBBIOT_ASSERT(a.isTimeSorted() && b.isTimeSorted());
  EventPacket out(std::min(a.tStart(), b.tStart()),
                  std::max(a.tEnd(), b.tEnd()));
  std::vector<Event> merged;
  merged.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged),
             [](const Event& x, const Event& y) { return x.t < y.t; });
  return EventPacket(out.tStart(), out.tEnd(), std::move(merged));
}

}  // namespace ebbiot

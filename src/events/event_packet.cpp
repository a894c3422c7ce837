#include "src/events/event_packet.hpp"

#include <algorithm>
#include <bit>

#include "src/common/error.hpp"

namespace ebbiot {

EventPacket::EventPacket(TimeUs tStart, TimeUs tEnd)
    : tStart_(tStart), tEnd_(tEnd) {
  EBBIOT_ASSERT(tStart <= tEnd);
}

EventPacket::EventPacket(TimeUs tStart, TimeUs tEnd,
                         std::vector<Event> events)
    : tStart_(tStart), tEnd_(tEnd), events_(std::move(events)) {
  EBBIOT_ASSERT(tStart <= tEnd);
  for (const Event& e : events_) {
    EBBIOT_ASSERT(e.t >= tStart_ && e.t < tEnd_);
  }
}

const Event& EventPacket::operator[](std::size_t i) const {
  EBBIOT_ASSERT(i < events_.size());
  return events_[i];
}

void EventPacket::reset(TimeUs tStart, TimeUs tEnd) {
  EBBIOT_ASSERT(tStart <= tEnd);
  tStart_ = tStart;
  tEnd_ = tEnd;
  events_.clear();
}

void EventPacket::push(const Event& e) {
  EBBIOT_ASSERT(e.t >= tStart_ && e.t < tEnd_);
  events_.push_back(e);
}

std::span<Event> EventPacket::appendBuffer(std::size_t count) {
  appendBase_ = events_.size();
  const std::size_t needed = appendBase_ + count;
  if (needed > events_.capacity()) {
    // Power-of-two capacities, as push() reaches from empty: resize()
    // alone would reallocate to the exact size at every new largest
    // window of a stream.
    events_.reserve(std::bit_ceil(needed));
  }
  events_.resize(needed);
  return {events_.data() + appendBase_, count};
}

void EventPacket::commitAppended(std::size_t kept) {
  EBBIOT_ASSERT(kept <= events_.size() - appendBase_);
  for (std::size_t i = appendBase_; i < appendBase_ + kept; ++i) {
    EBBIOT_ASSERT(events_[i].t >= tStart_ && events_[i].t < tEnd_);
  }
  events_.resize(appendBase_ + kept);
}

void EventPacket::append(const EventPacket& other) {
  EBBIOT_ASSERT(other.tStart_ >= tStart_ && other.tEnd_ <= tEnd_);
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

void EventPacket::sortByTime() {
  std::stable_sort(events_.begin(), events_.end(), EventTimeOrder{});
}

bool EventPacket::isTimeSorted() const {
  return std::is_sorted(events_.begin(), events_.end(),
                        [](const Event& a, const Event& b) { return a.t < b.t; });
}

EventPacket EventPacket::slice(TimeUs t0, TimeUs t1) const {
  EBBIOT_ASSERT(t0 <= t1);
  EBBIOT_ASSERT(isTimeSorted());
  const auto lo = std::lower_bound(
      events_.begin(), events_.end(), t0,
      [](const Event& e, TimeUs t) { return e.t < t; });
  const auto hi = std::lower_bound(
      lo, events_.end(), t1,
      [](const Event& e, TimeUs t) { return e.t < t; });
  EventPacket out(std::max(t0, tStart_), std::min(t1, tEnd_));
  out.events_.assign(lo, hi);
  return out;
}

EventPacket EventPacket::filterByRegion(const BBox& region) const {
  EventPacket out(tStart_, tEnd_);
  for (const Event& e : events_) {
    if (region.contains(static_cast<float>(e.x), static_cast<float>(e.y))) {
      out.events_.push_back(e);
    }
  }
  return out;
}

std::size_t EventPacket::countOn() const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [](const Event& e) { return e.p == Polarity::kOn; }));
}

std::vector<Event> EventPacket::takeEvents() && { return std::move(events_); }

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

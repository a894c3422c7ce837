// EventPacket: a time-bounded batch of AER events.
//
// The EBBIOT processor wakes up every tF and reads out the events latched
// since the previous interrupt (Figure 2).  An EventPacket models exactly
// that readout: the events plus the [tStart, tEnd) window they came from.
// Packets are also the unit of file I/O and of the event-domain filters.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/geometry.hpp"
#include "src/common/time.hpp"
#include "src/events/event.hpp"

namespace ebbiot {

struct DecodedFrame;

class EventPacket {
 public:
  EventPacket() = default;

  /// Packet covering [tStart, tEnd).  Events may be appended afterwards;
  /// each append is checked against the window.
  EventPacket(TimeUs tStart, TimeUs tEnd);

  /// Wrap an existing event vector (must already lie within the window;
  /// verified).  Events need not be time-sorted.
  EventPacket(TimeUs tStart, TimeUs tEnd, std::vector<Event> events);

  /// Copies carry the live events only, not the storage behind them.
  EventPacket(const EventPacket& other);
  EventPacket& operator=(const EventPacket& other);
  EventPacket(EventPacket&& other) noexcept;
  EventPacket& operator=(EventPacket&& other) noexcept;

  [[nodiscard]] TimeUs tStart() const { return tStart_; }
  [[nodiscard]] TimeUs tEnd() const { return tEnd_; }
  [[nodiscard]] TimeUs duration() const { return tEnd_ - tStart_; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::span<const Event> events() const {
    return {events_.data(), size_};
  }

  [[nodiscard]] auto begin() const { return events_.begin(); }
  [[nodiscard]] auto end() const {
    return events_.begin() + static_cast<std::ptrdiff_t>(size_);
  }
  [[nodiscard]] const Event& operator[](std::size_t i) const;

  /// Append one event; throws LogicError if outside the packet window.
  void push(const Event& e);

  /// Bulk-append window for selector and decode stages: extends the
  /// packet by `count` events and returns the span over them.  Their
  /// contents are unspecified (storage an earlier, larger window used is
  /// handed back as it was left), so the caller writes every event it
  /// keeps: it overwrites a prefix (e.g. writing each surviving event
  /// unconditionally and bumping its cursor branch-free) and then calls
  /// commitAppended() to drop the unused tail.  No other mutation may
  /// run between the two calls.
  std::span<Event> appendBuffer(std::size_t count);

  /// Keep only the first `kept` events of the last appendBuffer() span.
  /// The window check push() does runs here instead, over all `kept`
  /// events in one branch-free pass; if any lies outside the window, the
  /// whole span is dropped and LogicError is thrown.
  void commitAppended(std::size_t kept);

  /// Drop all events and retarget the window to [tStart, tEnd), keeping
  /// the storage — lets streaming stages reuse one packet per window
  /// without per-call allocation or re-initialisation (see
  /// NnFilter::filterInto).
  void reset(TimeUs tStart, TimeUs tEnd);

  /// Append all events of another packet (windows must be compatible:
  /// other's window must lie within this packet's window).
  void append(const EventPacket& other);

  /// Sort events into canonical time order (stable w.r.t. EventTimeOrder).
  void sortByTime();

  /// True if events are non-decreasing in time.
  [[nodiscard]] bool isTimeSorted() const;

  /// Sub-packet with events in [t0, t1) (requires time-sorted packet).
  [[nodiscard]] EventPacket slice(TimeUs t0, TimeUs t1) const;

  /// Events whose coordinates fall inside the given box.
  [[nodiscard]] EventPacket filterByRegion(const BBox& region) const;

  /// Count of ON-polarity events.
  [[nodiscard]] std::size_t countOn() const;

  /// Release the underlying storage (moves out).
  std::vector<Event> takeEvents() &&;

 private:
  // The EBF1 decode checks every event's window offset inside its record
  // kernel's single pass, so it commits without reading the events again.
  friend void decodeEventsInto(const DecodedFrame& frame, TimeUs tStart,
                               EventPacket& out);
  /// commitAppended() without the window check.
  void commitAppendedUnchecked(std::size_t kept);

  /// Extends the packet by `count` events and returns the first.  Only
  /// storage past every earlier size is value-initialised.
  Event* grow(std::size_t count);

  TimeUs tStart_ = 0;
  TimeUs tEnd_ = 0;
  /// The packet's events are events_[0, size_).  The rest is storage an
  /// earlier, larger window initialised, kept for grow() to refill.
  std::vector<Event> events_;
  std::size_t size_ = 0;
  std::size_t appendBase_ = 0;  ///< start of the open appendBuffer() span
};

/// Merge time-sorted packets into one time-sorted packet spanning the
/// union of their windows.  Used to combine signal and noise streams.
[[nodiscard]] EventPacket mergePackets(const EventPacket& a,
                                       const EventPacket& b);

}  // namespace ebbiot

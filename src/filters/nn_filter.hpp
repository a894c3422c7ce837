// Nearest-Neighbour event filter (NN-filt), Section II-A / Eq. (2).
//
// The conventional event-domain denoiser the paper compares against
// (Padala, Basu & Orchard 2018): a timestamp map stores, per pixel, the
// time of its most recent event (Bt bits each).  An incoming event is kept
// iff some *other* pixel of its p x p neighbourhood fired within the last
// `supportWindow` microseconds — i.e. the event has spatio-temporal
// support.  Isolated shot-noise events have none and are dropped.
//
// Cost accounting per event matches Eq. (2): p^2 - 1 comparisons plus
// p^2 - 1 increments, plus one Bt-bit memory write for the timestamp
// update (the paper charges that write as Bt single-bit ops).
//
// The implementation is that map: one int64 time per pixel, padded by
// r = p/2 cells of "never" (kNeverFired) on every side, so each event
// scans a full p x p patch without clamping.  It counts the cells that
// fired at or after t - supportWindow, takes off the centre's own cell
// and writes t.  The *reported* OpCounts stay Eq. (2)'s cost over the
// clamped neighbourhood, charged in closed form; tests/test_nn_filter.cpp
// pins outputs and ops against the metered NnFilterReference
// (nn_filter_reference.hpp), following the same reference-pinning
// convention as the median filter and the CCA labeller.
//
// Time only moves forward in a streaming deployment: a packet whose first
// event precedes the newest recorded one restarts support from an empty
// map (both twins, identically).  Packets must lie inside
// (-kMapTimeLimit, kMapTimeLimit) (src/common/time.hpp), which keeps
// "never" below every t - supportWindow.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/common/time.hpp"
#include "src/events/event_packet.hpp"

namespace ebbiot {

struct NnFilterConfig {
  int width = 240;
  int height = 180;
  int neighbourhood = 3;          ///< p
  TimeUs supportWindow = 5'000;   ///< temporal support window, us
  int timestampBits = 16;         ///< Bt, for the memory/ops accounting

  /// Throws ConfigError unless p >= 3 and odd, dimensions are positive,
  /// the support window lies in (0, kMapTimeLimit / 2), and Bt >= 1.
  void validate() const;
};

class NnFilter {
 public:
  explicit NnFilter(const NnFilterConfig& config);

  /// Filter a packet; events must be time-sorted.  Stateful across calls:
  /// the timestamp map persists, as in a streaming deployment.
  [[nodiscard]] EventPacket filter(const EventPacket& packet);

  /// Filter into a reusable output packet (reset to the input's window,
  /// capacity kept), so steady-state event-domain loops allocate nothing
  /// once warm.  `out` must not alias `packet`.
  void filterInto(const EventPacket& packet, EventPacket& out);

  /// Reset the timestamp map to "never fired".
  void reset();

  /// Ops of the most recent filter() call (Eq. (2) accounting).
  /// ops-model: closed-form — Eq. (2) support-scan cost from clamped neighbourhood
  /// bounds; pinned against the metered NnFilterReference in tests/test_nn_filter.cpp.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  /// Memory footprint of the paper's timestamp map in bits: Bt * A * B
  /// (Eq. (2) — the abstract model the resource comparisons quote).
  [[nodiscard]] std::size_t memoryBits() const;

  [[nodiscard]] const NnFilterConfig& config() const { return config_; }

 private:
  NnFilterConfig config_;
  std::size_t stride_;  ///< padded row length, width + 2r
  /// Newest event time per padded cell, row-major; pixel (x, y) is cell
  /// (x + r, y + r), and the padding stays kNeverFired.
  std::vector<TimeUs> lastT_;
  TimeUs newestT_ = kNeverFired;  ///< newest recorded time
  OpCounts ops_;
};

}  // namespace ebbiot

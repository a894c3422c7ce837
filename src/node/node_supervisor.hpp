// Node-level supervision of many sensor sessions.
//
// A NodeSupervisor owns one SensorSession per registered sensor and
// drives the consumer half of all of them:
//
//   * pump(now) drains every session into its sensor's WindowSink
//     through ThreadPool::parallelFor — one index per session, each
//     writing into its own pre-sized slot, so which thread drains which
//     sensor never changes any result.  On a single-thread pool that is
//     an in-order loop in registration order, and it allocates nothing.
//   * Overload valve: when the summed backlog across sessions exceeds
//     NodeConfig::shedBacklogWindows, pump() sheds *whole sensors* —
//     lowest priority first — by discarding their entire pending
//     backlog (counted per session as windowsShedOverload).  A stream
//     is either drained in order or shed in order; no stream is ever
//     reordered to make room for another.
//
// Producer calls (offerBytes / tickWatchdogs) are routed to the owning
// session and follow its threading rules: one producer per sensor, free
// to run concurrently with pump().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/node/sensor_session.hpp"

namespace ebbiot {

class NodeSupervisor {
 public:
  /// The pool must outlive the supervisor.  Throws ConfigError if the
  /// config is invalid.
  NodeSupervisor(const NodeConfig& config, ThreadPool& pool);

  struct SensorSpec {
    std::uint16_t sensorId = 0;
    /// Higher keeps its backlog longer under overload.
    int priority = 0;
    /// Consumer of the sensor's windows; must outlive the supervisor.
    WindowSink* sink = nullptr;
  };

  /// Register a sensor (before streaming starts).  Throws ConfigError on
  /// a duplicate id or missing sink.
  SensorSession& addSensor(const SensorSpec& spec);

  /// Session of a sensor, or nullptr if the id is unknown.
  [[nodiscard]] SensorSession* find(std::uint16_t sensorId);

  /// Producer side: route transport bytes to the owning session.
  /// Unknown sensor ids are a programming error (asserted).
  void offerBytes(std::uint16_t sensorId, std::span<const std::byte> bytes,
                  TimeUs now);

  /// Producer side: advance every session's watchdog clock.  Must not
  /// run concurrently with offerBytes for the same sensor.
  void tickWatchdogs(TimeUs now);

  struct PumpStats {
    std::size_t windowsDelivered = 0;
    std::size_t windowsShedOverload = 0;
    std::size_t sensorsShed = 0;  ///< sensors that lost backlog this pump

    friend bool operator==(const PumpStats&, const PumpStats&) = default;
  };

  /// Consumer side: apply the overload valve, then drain every session
  /// into its sink across the pool.
  PumpStats pump(TimeUs now);

  /// Summed queue backlog across sessions (approximate off-thread).
  [[nodiscard]] std::size_t totalBacklog() const;

  [[nodiscard]] std::size_t sensorCount() const { return entries_.size(); }
  [[nodiscard]] const NodeConfig& config() const { return config_; }

 private:
  struct Entry {
    std::uint16_t sensorId;
    int priority;
    WindowSink* sink;
    std::unique_ptr<SensorSession> session;
    std::size_t delivered = 0;  ///< per-pump slot (task-owned)
  };

  NodeConfig config_;
  ThreadPool& pool_;
  std::vector<Entry> entries_;
  /// Entry indices in shed order: ascending priority, then ascending id.
  std::vector<std::size_t> shedOrder_;
};

}  // namespace ebbiot

#include "src/node/node_supervisor.hpp"

#include <algorithm>
#include <string>

#include "src/common/error.hpp"

namespace ebbiot {

NodeSupervisor::NodeSupervisor(const NodeConfig& config, ThreadPool& pool)
    : config_(config), pool_(pool) {
  config_.validate();
}

SensorSession& NodeSupervisor::addSensor(const SensorSpec& spec) {
  if (spec.sink == nullptr) {
    throw ConfigError("NodeSupervisor: sensor " +
                      std::to_string(spec.sensorId) + " has no sink");
  }
  if (find(spec.sensorId) != nullptr) {
    throw ConfigError("NodeSupervisor: duplicate sensor id " +
                      std::to_string(spec.sensorId));
  }
  Entry entry;
  entry.sensorId = spec.sensorId;
  entry.priority = spec.priority;
  entry.sink = spec.sink;
  entry.session = std::make_unique<SensorSession>(spec.sensorId, config_);
  entries_.push_back(std::move(entry));

  shedOrder_.resize(entries_.size());
  for (std::size_t i = 0; i < shedOrder_.size(); ++i) {
    shedOrder_[i] = i;
  }
  std::sort(shedOrder_.begin(), shedOrder_.end(),
            [this](std::size_t a, std::size_t b) {
              if (entries_[a].priority != entries_[b].priority) {
                return entries_[a].priority < entries_[b].priority;
              }
              return entries_[a].sensorId < entries_[b].sensorId;
            });
  return *entries_.back().session;
}

SensorSession* NodeSupervisor::find(std::uint16_t sensorId) {
  for (Entry& entry : entries_) {
    if (entry.sensorId == sensorId) {
      return entry.session.get();
    }
  }
  return nullptr;
}

void NodeSupervisor::offerBytes(std::uint16_t sensorId,
                                std::span<const std::byte> bytes, TimeUs now) {
  SensorSession* session = find(sensorId);
  EBBIOT_ASSERT(session != nullptr);
  session->offerBytes(bytes, now);
}

void NodeSupervisor::tickWatchdogs(TimeUs now) {
  for (Entry& entry : entries_) {
    entry.session->onIdleTick(now);
  }
}

NodeSupervisor::PumpStats NodeSupervisor::pump(TimeUs now) {
  PumpStats stats;
  if (config_.shedBacklogWindows > 0) {
    std::size_t total = totalBacklog();
    for (const std::size_t idx : shedOrder_) {
      if (total <= config_.shedBacklogWindows) {
        break;
      }
      const std::size_t shed = entries_[idx].session->discardBacklog();
      if (shed > 0) {
        stats.windowsShedOverload += shed;
        ++stats.sensorsShed;
        total -= std::min(shed, total);
      }
    }
  }
  pool_.parallelFor(entries_.size(), [this, now](std::size_t i) {
    entries_[i].delivered =
        entries_[i].session->drainInto(*entries_[i].sink, now);
  });
  for (const Entry& entry : entries_) {
    stats.windowsDelivered += entry.delivered;
  }
  return stats;
}

std::size_t NodeSupervisor::totalBacklog() const {
  std::size_t total = 0;
  for (const Entry& entry : entries_) {
    total += entry.session->backlog();
  }
  return total;
}

}  // namespace ebbiot

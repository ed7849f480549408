#pragma once
// Thread-safe LRU cache of finished schedules, keyed by the request's exact
// content key (service/request_key.hpp).
//
// Cache semantics (see README "Scheduling as a service"): a hit compares the
// whole key, which holds the workflow content, the cluster, and every
// schedule-relevant configuration field, so a hit returns a schedule
// bit-identical to what a cold solve of the same request would produce (the
// concurrent differential test pins this). Entries never expire by time;
// capacity evicts the least-recently-used key. Each entry stores its key
// once: the index views the key its list entry owns.

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "scheduler/solution.hpp"

namespace dagpm::service {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

class ScheduleCache {
 public:
  /// Capacity 0 disables the cache (every lookup misses, inserts drop).
  explicit ScheduleCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns a copy of the cached schedule and refreshes its recency.
  [[nodiscard]] std::optional<scheduler::ScheduleResult> lookup(
      std::string_view key);

  /// Inserts (or refreshes) the schedule for `key`, evicting the
  /// least-recently-used entry when over capacity.
  void insert(std::string key, const scheduler::ScheduleResult& schedule);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] CacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    scheduler::ScheduleResult schedule;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  CacheStats stats_;
};

}  // namespace dagpm::service

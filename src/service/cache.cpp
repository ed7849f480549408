#include "service/cache.hpp"

#include <utility>

namespace dagpm::service {

std::optional<scheduler::ScheduleResult> ScheduleCache::lookup(
    std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->schedule;
}

void ScheduleCache::insert(std::string key,
                           const scheduler::ScheduleResult& schedule) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh: the key fully determines the schedule, so the stored value
    // can only be replaced by an identical one.
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->schedule = schedule;
    return;
  }
  lru_.push_front(Entry{std::move(key), schedule});
  index_.emplace(lru_.front().key, lru_.begin());
  ++stats_.insertions;
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::size_t ScheduleCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

CacheStats ScheduleCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dagpm::service

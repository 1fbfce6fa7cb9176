#include "casc/exec/loop_pool.hpp"

#include <algorithm>
#include <utility>

#include "casc/common/check.hpp"

namespace casc::exec {

LoopLease& LoopLease::operator=(LoopLease&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr && loop_ != nullptr) {
      pool_->release(key_, std::move(loop_));
    }
    pool_ = std::exchange(other.pool_, nullptr);
    key_ = std::move(other.key_);
    loop_ = std::move(other.loop_);
    reused_ = other.reused_;
  }
  return *this;
}

LoopLease::~LoopLease() {
  if (pool_ != nullptr && loop_ != nullptr) {
    pool_->release(key_, std::move(loop_));
  }
}

LoopPool::LoopPool(std::size_t max_idle_per_key, std::size_t max_idle_total)
    : max_idle_per_key_(max_idle_per_key), max_idle_total_(max_idle_total) {
  CASC_CHECK(max_idle_per_key >= 1, "LoopPool: max_idle_per_key must be >= 1");
  CASC_CHECK(max_idle_total >= 1, "LoopPool: max_idle_total must be >= 1");
}

LoopLease LoopPool::acquire(const loopir::LoopSpec& spec, const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Bucket& bucket = idle_[key];
    bucket.last_leased = ++clock_;
    if (!bucket.idle.empty()) {
      std::unique_ptr<MaterializedLoop> loop = std::move(bucket.idle.back());
      bucket.idle.pop_back();
      --idle_count_;
      ++hits_;
      return LoopLease(this, key, std::move(loop), /*reused=*/true);
    }
  }
  // Materialize outside the lock: it is the expensive path, and concurrent
  // misses on different keys must not serialize on each other.
  auto loop = std::make_unique<MaterializedLoop>(spec);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
  }
  return LoopLease(this, key, std::move(loop), /*reused=*/false);
}

bool LoopPool::evict_lru_locked() {
  Bucket* victim = nullptr;
  for (auto& [key, bucket] : idle_) {
    if (bucket.idle.empty()) continue;
    if (victim == nullptr || bucket.last_leased < victim->last_leased) {
      victim = &bucket;
    }
  }
  if (victim == nullptr) return false;
  victim->idle.pop_back();
  --idle_count_;
  ++evicted_;
  return true;
}

void LoopPool::release(const std::string& key,
                       std::unique_ptr<MaterializedLoop> loop) {
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = idle_[key];
  if (bucket.idle.size() >= max_idle_per_key_) {
    ++discarded_;
    return;  // `loop` is destroyed here, outside any hot path
  }
  // At the total cap, make room by evicting the least-recently-leased idle
  // instance: the incoming release belongs to a key leased moments ago,
  // which is better evidence of future demand than a bucket nobody has
  // touched since.
  if (idle_count_ >= max_idle_total_ && !evict_lru_locked()) {
    ++discarded_;
    return;
  }
  bucket.idle.push_back(std::move(loop));
  ++idle_count_;
}

LoopPoolStats LoopPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  LoopPoolStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.discarded = discarded_;
  s.evicted = evicted_;
  s.idle = idle_count_;
  std::uint64_t keys = 0;
  for (const auto& [key, bucket] : idle_) keys += bucket.idle.empty() ? 0 : 1;
  s.distinct_keys = keys;
  return s;
}

}  // namespace casc::exec

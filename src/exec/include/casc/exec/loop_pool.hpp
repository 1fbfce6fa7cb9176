// A reuse pool for MaterializedLoops, keyed by the spec's canonical text.
//
// Materialization is the expensive step of executing a LoopSpec on the real
// runtime: instantiating the nest, filling index arrays, and resolving the
// whole dynamic reference stream (O(total refs)).  A service executing
// thousands of small jobs that mostly repeat a handful of specs pays that
// cost once per distinct spec instead of once per job: acquire() hands out
// an EXCLUSIVE lease on an idle instance (run_* entry points reset() the
// arrays, so a reused instance is indistinguishable from a fresh one) and
// materializes only on a pool miss.  A reused instance also keeps the
// restructure proofs its earlier runs paid for
// (MaterializedLoop::restructure_proof), so a repeat job skips the analyzer
// as well, and keeps the staging region its first restructure run
// allocated.
//
// Thread-safe.  A lease is move-only RAII: destruction returns the instance
// to the pool.  The per-key cap drops a release whose bucket is already full
// (idle instances of one key are interchangeable, so evicting a sibling for
// the incoming one would be a no-op).  The TOTAL idle cap evicts the
// least-recently-leased key's idle instance to make room for the incoming
// release — keys in active rotation stay warm, keys the workload has moved
// away from age out first.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "casc/exec/materialize.hpp"

namespace casc::exec {

class LoopPool;

/// Exclusive ownership of one pooled MaterializedLoop.  Returns the loop to
/// the pool on destruction; a default-constructed lease is empty.
class LoopLease {
 public:
  LoopLease() = default;
  LoopLease(LoopLease&& other) noexcept { *this = std::move(other); }
  LoopLease& operator=(LoopLease&& other) noexcept;
  LoopLease(const LoopLease&) = delete;
  LoopLease& operator=(const LoopLease&) = delete;
  ~LoopLease();

  [[nodiscard]] bool valid() const noexcept { return loop_ != nullptr; }
  [[nodiscard]] MaterializedLoop& loop() noexcept { return *loop_; }
  [[nodiscard]] const MaterializedLoop& loop() const noexcept { return *loop_; }
  /// True when acquire() found an idle instance (no materialization ran).
  [[nodiscard]] bool reused() const noexcept { return reused_; }

 private:
  friend class LoopPool;
  LoopLease(LoopPool* pool, std::string key,
            std::unique_ptr<MaterializedLoop> loop, bool reused)
      : pool_(pool), key_(std::move(key)), loop_(std::move(loop)), reused_(reused) {}

  LoopPool* pool_ = nullptr;
  std::string key_;
  std::unique_ptr<MaterializedLoop> loop_;
  bool reused_ = false;
};

struct LoopPoolStats {
  std::uint64_t hits = 0;        ///< acquire() served from the pool
  std::uint64_t misses = 0;      ///< acquire() had to materialize
  std::uint64_t discarded = 0;   ///< releases dropped by the per-key cap
  std::uint64_t evicted = 0;     ///< idle instances LRU-evicted by the total cap
  std::uint64_t idle = 0;        ///< loops currently pooled
  std::uint64_t distinct_keys = 0;
};

class LoopPool {
 public:
  /// `max_idle_per_key` / `max_idle_total` bound how many idle instances the
  /// pool retains; both must be >= 1.
  explicit LoopPool(std::size_t max_idle_per_key = 4,
                    std::size_t max_idle_total = 64);

  LoopPool(const LoopPool&) = delete;
  LoopPool& operator=(const LoopPool&) = delete;

  /// Leases an instance of `spec`.  `key` identifies the spec across calls —
  /// callers that parsed from text pass the raw text (cheap, exact); callers
  /// with programmatic specs can pass spec.to_text().  Materializes on a
  /// miss, which may throw (CheckFailure on unmaterializable specs) — the
  /// pool is unchanged in that case.
  [[nodiscard]] LoopLease acquire(const loopir::LoopSpec& spec,
                                  const std::string& key);

  [[nodiscard]] LoopPoolStats stats() const;

 private:
  friend class LoopLease;

  struct Bucket {
    std::vector<std::unique_ptr<MaterializedLoop>> idle;
    std::uint64_t last_leased = 0;  ///< logical clock of the newest acquire
  };

  void release(const std::string& key, std::unique_ptr<MaterializedLoop> loop);
  /// Drops one idle instance from the least-recently-leased non-empty
  /// bucket.  Returns false when nothing is idle.  mutex_ held.
  bool evict_lru_locked();

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Bucket> idle_;
  std::size_t max_idle_per_key_;
  std::size_t max_idle_total_;
  std::size_t idle_count_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace casc::exec

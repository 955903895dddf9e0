#pragma once
/// \file plan_cache.hpp
/// \brief Process-wide LRU cache of ready-to-run FFT executors.
///
/// Building an FftExecutor clones the plan tree and synthesizes every
/// twiddle matrix — O(n) work and allocation that used to be repaid on
/// *every* execute_tree() call. The PlanCache keeps one executor per tree
/// shape (keyed by the plan grammar string, e.g. "ctddl(ct(32,32),1024)")
/// so the entry points pay construction once and amortize it across calls.
///
/// Executors are stateful (they own scratch arenas), so each cache entry
/// carries a mutex; lock it for the duration of a transform when several
/// threads may share the entry. execute_tree() does this automatically.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "ddl/fft/executor.hpp"
#include "ddl/plan/tree.hpp"

namespace ddl::fft {

class PlanCache {
 public:
  /// A cached executor plus the mutex that serializes its use.
  struct Entry {
    std::shared_ptr<FftExecutor> exec;
    std::shared_ptr<std::mutex> guard;
  };

  /// The process-wide cache used by execute_tree() and fft() helpers.
  static PlanCache& instance();

  /// Executor for `tree`, building and inserting it on first sight.
  /// The returned Entry stays valid after eviction (shared ownership).
  Entry get(const plan::Node& tree);

  /// Executor for a plan grammar string (parsed on miss).
  Entry get(const std::string& grammar);

  /// Entries currently cached.
  [[nodiscard]] std::size_t size() const;

  /// Lifetime lookup counters (for tests and cache-efficacy diagnostics).
  /// All three also feed the ddl::obs plan_cache_* counters, so cache
  /// thrash shows up in traces; without the eviction count, thrash at
  /// small capacity looks identical to cold misses.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

  /// Max entries kept; least-recently-used beyond that are evicted.
  /// Shrinking evicts (and counts) immediately; capacity 0 disables
  /// caching entirely — every entry is evicted now and every future get()
  /// builds, returns, and immediately evicts its entry (still counted).
  /// Entries already handed out stay valid through shared ownership.
  [[nodiscard]] std::size_t capacity() const;
  void set_capacity(std::size_t cap);

  /// Drop all entries and reset the counters.
  void clear();

 private:
  PlanCache() = default;

  Entry get_keyed(const std::string& key, const plan::Node* tree);
  void evict_over_capacity();

  mutable std::mutex mutex_;
  std::list<std::pair<std::string, Entry>> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<std::pair<std::string, Entry>>::iterator> index_;
  std::size_t capacity_ = 32;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ddl::fft

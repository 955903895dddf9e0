#pragma once
/// \file sharded.hpp
/// \brief Sharded transform service: N TransformService instances behind
///        one submit() front-end.
///
/// One TransformService has one batcher thread, so its dispatch pipeline
/// is a single lane no matter how many tenants push through it. On a
/// multi-socket host the natural scale-out unit is **one service instance
/// per socket**: each shard's batcher, executors, and lane scratch stay on
/// one set of cores, and the shards share nothing hot. ShardedService
/// provides that shape without changing the tenant-facing API:
///
///  * **Routing** — a request's tenant id is hashed (a fixed splitmix-
///    style mixer, stable across runs and builds) onto a shard, so one
///    tenant's requests always land on one shard. That keeps the per-
///    tenant guarantees — admission quota, weighted fair dispatch, FIFO
///    within a bucket — exactly as strong as the single-instance service's
///    (they are *that shard's* guarantees), at the cost of static load
///    spreading rather than work stealing.
///  * **Shared wisdom** — all shards plan against one process-wide CostDb
///    and Wisdom (either caller-provided via ShardedConfig::shard, or
///    owned by the ShardedService). A size first planned on shard 0 is a
///    wisdom hit on shard 3. The stores are not thread-safe, so planner
///    access is serialized by a process-wide planning mutex inside the
///    service (planning is rare — first-seen sizes and idle upgrades —
///    and never holds a dispatch lock).
///
/// Shard counts are validated by verify::verify_shard_config
/// ([1, verify::kMaxServiceShards]); construction throws on violation,
/// mirroring TransformService. The CLI front door is
/// `ddlfft serve --inproc --shards N`. See docs/SERVICE.md.

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "ddl/svc/service.hpp"

namespace ddl::svc {

/// Configuration for a sharded front-end.
struct ShardedConfig {
  /// Service instances. Validated against [1, verify::kMaxServiceShards].
  int shards = 1;

  /// Per-shard configuration. If `shard.cost_db` / `shard.wisdom` are
  /// null, the ShardedService creates and owns process-wide stores and
  /// injects them into every shard; non-null pointers are passed through
  /// (caller keeps ownership), so snapshots can be shipped in and out.
  ServiceConfig shard;
};

/// Tenant-hash routed fan-out over N TransformService instances.
///
/// Thread-safety: submit() may be called from any number of threads
/// (TransformService::submit already is); stats()/drain()/shutdown_now()
/// fan out to every shard.
class ShardedService {
 public:
  /// Validates the shard count and each shard's config (throws
  /// std::invalid_argument with the verify report) and starts the shards.
  explicit ShardedService(ShardedConfig config = {});

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Drains every shard.
  ~ShardedService();

  /// Route by tenant hash and submit to the owning shard. Counter:
  /// obs::Counter::svc_shard_routed.
  std::future<Result> submit(Request req);

  /// Convenience mirrors of the TransformService entry points.
  std::future<Result> submit_fft(std::span<cplx> data,
                                 Direction dir = Direction::forward,
                                 std::uint64_t deadline_ns = 0,
                                 std::uint32_t tenant = 0, bool critical = false);
  std::future<Result> submit_wht(std::span<real_t> data,
                                 Direction dir = Direction::forward,
                                 std::uint64_t deadline_ns = 0,
                                 std::uint32_t tenant = 0, bool critical = false);

  /// Shard a tenant routes to (stable across runs; exposed for tests and
  /// for operators staring at per-shard stats).
  [[nodiscard]] int shard_for(std::uint32_t tenant) const noexcept;

  [[nodiscard]] int shards() const noexcept { return static_cast<int>(shards_.size()); }

  /// Direct access to one shard (per-shard stats, tests).
  [[nodiscard]] TransformService& shard(int i) { return *shards_.at(static_cast<std::size_t>(i)); }

  /// Tallies summed across shards (tenant maps merged; backlog/queue_peak
  /// are summed gauges, so peak is an upper bound on any instant's total).
  [[nodiscard]] TransformService::Stats stats() const;

  /// The process-wide planner stores every shard plans against (owned or
  /// caller-provided). Never null after construction.
  [[nodiscard]] plan::CostDb& cost_db() noexcept { return *cost_db_; }
  [[nodiscard]] plan::Wisdom& wisdom() noexcept { return *wisdom_; }

  void drain();
  void shutdown_now();

 private:
  std::unique_ptr<plan::CostDb> owned_cost_db_;  ///< set when the caller passed null
  std::unique_ptr<plan::Wisdom> owned_wisdom_;
  plan::CostDb* cost_db_ = nullptr;              ///< the store shards actually use
  plan::Wisdom* wisdom_ = nullptr;
  std::vector<std::unique_ptr<TransformService>> shards_;
};

}  // namespace ddl::svc

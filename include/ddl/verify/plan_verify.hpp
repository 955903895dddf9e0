#pragma once
/// \file plan_verify.hpp
/// \brief Static whole-plan verification: prove a factorization tree safe
///        to execute before running a single butterfly.
///
/// PR 1 parallelized the executors; this pass makes their safety story
/// static. Given any plan::Node tree (including one corrupted after
/// construction — Node fields are plain data), verify_plan() checks the
/// full rule catalogue of diagnostics.hpp without executing the plan:
///
///   * sizes:   every split's size is the product of its children's
///   * strides: the implied Property-1 access set of every subtree stays
///              inside the index range its parent hands it
///   * layout:  no ddl flag on degenerate splits
///   * leaves:  every leaf is executable (codelet, or a fallback that
///              accepts the size; strict mode requires a generated codelet)
///   * scratch: the symbolic serial-arena demand fits the 2n the executor
///              provisions (and every subtree fits the 2*n_sub lane arena)
///   * races:   every parallel stage's chunk family is pairwise disjoint
///              (footprint.hpp)
///   * grammar: the tree round-trips through its textual form
///
/// Violations are collected into a Report, never thrown one-by-one.
///
/// ## Admission gate
///
/// FftExecutor/WhtExecutor (and therefore every plan admitted to the
/// PlanCache, which builds executors) verify plans at construction when
/// enforcement is enabled: always in debug builds (!NDEBUG), opt-in via the
/// DDL_VERIFY_PLANS environment variable in release builds, overridable
/// programmatically with set_enforcement() for tests.

#include "ddl/plan/tree.hpp"
#include "ddl/verify/diagnostics.hpp"
#include "ddl/verify/footprint.hpp"

namespace ddl::verify {

/// Knobs for verify_plan.
struct VerifyOptions {
  Transform transform = Transform::fft;

  /// Physical stride of the root node (forward_strided contexts). Rules are
  /// stride-scale-invariant, so this only scales reported extents.
  index_t root_stride = 1;

  /// Scratch elements available to the serial executor; negative means
  /// "what the executor provisions", i.e. 2 * tree.n.
  index_t scratch_capacity = -1;

  /// Strict leaf coverage: require a generated codelet for every leaf
  /// (default accepts the direct O(n^2) / iterative fallbacks).
  bool require_codelets = false;

  bool check_footprint = true;
  bool check_round_trip = true;
};

/// Verify `tree` against the full rule catalogue; never throws on rule
/// violations (only on contract misuse, e.g. a null tree).
Report verify_plan(const plan::Node& tree, const VerifyOptions& opts = {});

/// Symbolic serial-arena demand of the tree in elements: the maximum, over
/// all root-to-leaf execution paths, of parked ddl regions plus the
/// permutation scratch. The executors provision 2 * tree.n, which this
/// never exceeds for a structurally consistent tree.
index_t scratch_requirement(const plan::Node& tree, Transform kind);

/// True when executors must verify plans at construction: the
/// set_enforcement() override if set, else the DDL_VERIFY_PLANS environment
/// variable (any value except "0"), else on in debug builds (!NDEBUG) and
/// off in release builds.
bool enforcement_enabled();

/// Programmatic override of the admission gate: 1 = always verify,
/// 0 = never, -1 = restore the environment/build-type default.
void set_enforcement(int mode);

/// Admission gate body: verify `tree` with default options for `kind` and
/// throw std::invalid_argument carrying the rendered report (prefixed with
/// `context`) if it does not verify clean. Callers check
/// enforcement_enabled() first.
void require_verified(const plan::Node& tree, Transform kind, const char* context);

// ---------------------------------------------------------------------------
// Service configuration validation (ddl::svc)
// ---------------------------------------------------------------------------

/// Widest queue the service may be configured with. A bounded queue is the
/// backpressure mechanism; "effectively unbounded" defeats it and turns
/// overload into unbounded memory growth.
inline constexpr long long kMaxServiceQueue = 1 << 20;

/// Widest size bucket one dispatch may coalesce.
inline constexpr long long kMaxServiceBatch = 4096;

/// Longest the batcher may hold a partial bucket waiting for co-batchable
/// requests (10 s — far beyond any sane latency budget).
inline constexpr long long kMaxServiceDelayNs = 10'000'000'000LL;

/// Largest deficit-round-robin weight a tenant may carry. The weight is a
/// per-rotation work credit multiplier; beyond this ratio "weighted fair"
/// is indistinguishable from starving every other tenant.
inline constexpr long long kMaxTenantWeight = 1024;

/// Shape-only view of a svc::ServiceConfig. Plain numbers so ddl::verify
/// stays below ddl::svc in the layer order (svc calls down into verify; the
/// rule catalogue must not include service headers).
struct ServiceLimits {
  long long queue_capacity = 0;
  long long max_batch = 0;
  long long batch_delay_ns = 0;
  index_t min_points = 0;  ///< smallest transform the service admits
  index_t max_points = 0;  ///< largest transform the service admits

  /// Per-tenant policy shapes (svc::ServiceConfig::TenantPolicy mirrors).
  struct TenantShape {
    long long id = 0;         ///< tenant id (must be unique)
    long long weight = 1;     ///< DRR weight, [1, kMaxTenantWeight]
    long long max_queued = 0; ///< outstanding quota, [0, queue_capacity]
                              ///< (0 = defaulted to the queue capacity)
  };
  std::vector<TenantShape> tenants;
  long long default_tenant_weight = 1;  ///< weight for unlisted tenant ids
  long long default_tenant_quota = 0;   ///< quota for unlisted ids (0 = cap)
  long long critical_reserve = 0;       ///< queue slots held for the priority lane
};

/// Validate service bounds against the svc_queue_bounds / svc_bucket_limits
/// rules: queue capacity in [1, kMaxServiceQueue], batch width in
/// [1, min(queue capacity, kMaxServiceBatch)], hold delay in
/// [0, kMaxServiceDelayNs], and a non-empty size window with min_points
/// >= 2. Tenant policies are checked against svc_tenant_policy (weights in
/// [1, kMaxTenantWeight], quotas within the queue, unique ids — diagnostics
/// carry positioned paths like "config.tenants[2].weight") and the
/// priority lane against svc_lane_rules (critical_reserve in
/// [0, queue_capacity - 1]: the reserve may never consume the whole
/// queue). Same contract as verify_plan: violations collect into the
/// Report, nothing throws.
Report verify_service_config(const ServiceLimits& limits);

/// Most per-socket service instances a sharded front-end may spread load
/// over. Far above any real socket count; bounds batcher-thread growth
/// against misconfiguration the same way kMaxThreads bounds the pool.
inline constexpr long long kMaxServiceShards = 64;

/// Validate a sharded-service configuration: the shard count must lie in
/// [1, kMaxServiceShards] (svc_shard_rules), and the per-shard limits must
/// pass verify_service_config — every shard runs the same config, so one
/// validation covers all instances. Same collect-don't-throw contract as
/// verify_plan.
Report verify_shard_config(long long shards, const ServiceLimits& limits);

// ---------------------------------------------------------------------------
// Streaming configuration validation (ddl::stream)
// ---------------------------------------------------------------------------

/// Widest batch an Rfft may preallocate packing lanes for (matches the
/// service batch ceiling: streaming sessions feed the same dispatch).
inline constexpr long long kMaxStreamBatch = kMaxServiceBatch;

/// Shape-only view of a streaming component's geometry. Plain numbers so
/// ddl::verify stays below ddl::stream in the layer order, mirroring
/// ServiceLimits. Fields left at -1 are "not applicable" and unchecked;
/// each stream constructor fills in only the shapes it owns.
struct StreamLimits {
  index_t rfft_n = -1;         ///< real transform length (even, >= 2)
  index_t rfft_batch = -1;     ///< packed batch lanes ([1, kMaxStreamBatch])
  index_t stft_fft = -1;       ///< STFT frame length (even, >= 2)
  index_t stft_hop = -1;       ///< STFT hop ([1, fft], divides fft)
  index_t stft_window = -1;    ///< window kind (0 = periodic Hann, 1 =
                               ///< rectangular); the COLA denominator
                               ///< min_r sum_k w^2[r + k*hop] is evaluated
                               ///< numerically and must stay positive
  index_t conv_block = -1;     ///< convolver block size (>= 1)
  index_t conv_taps = -1;      ///< FIR length (>= 1)
  index_t conv_fft = -1;       ///< convolver FFT size (even, >= block +
                               ///< min(block, taps) - 1: overlap-save validity)
};

/// Validate streaming geometry against the stream_geometry rule, plus
/// footprint disjointness (chunk_overlap) of the concurrently-written
/// packing/MAC chunk families the ddl::stream hot paths fan out. Same
/// contract as verify_plan: violations collect into the Report, nothing
/// throws; stream constructors turn a non-empty report into one
/// std::invalid_argument with position-annotated paths ("stream.rfft.n",
/// "stream.stft.hop", ...).
Report verify_stream_config(const StreamLimits& limits);

}  // namespace ddl::verify

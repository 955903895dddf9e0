#pragma once
/// \file trace.hpp
/// \brief Address-trace generation for factorized transforms.
///
/// Walks a factorization tree in exactly the order the executors do
/// (fft/executor.cpp, wht/executor.cpp — including the 16x16 tiling of the
/// blocked transposes) and feeds the resulting byte-address stream into a
/// cache::Cache. This regenerates the paper's Shade-simulator study
/// (Fig. 9, Fig. 10, Table II) without 1999 hardware: conflict misses and
/// line pollution depend only on the address stream and cache geometry.
///
/// Synthetic address space:
///   [0, n*elem)                      — the transform data array
///   [data_end, data_end + 2n*elem)   — the scratch arena
///   above that                       — one twiddle table per composite size
///
/// All regions are line-aligned, as the real allocator guarantees.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "ddl/cachesim/cache.hpp"
#include "ddl/common/types.hpp"
#include "ddl/plan/costdb.hpp"
#include "ddl/plan/tree.hpp"
#include "ddl/verify/cachepred.hpp"

namespace ddl::sim {

/// Trace options.
struct TraceOptions {
  std::size_t elem_bytes = sizeof(cplx);  ///< 16 B for FFT, 8 B for WHT
  bool include_twiddles = true;           ///< count twiddle-table traffic (FFT)
};

/// Trace generator for FFT factorization trees.
class FftTracer {
 public:
  FftTracer(cache::Cache& cache, TraceOptions opts = {});

  /// Simulate one forward transform of `tree` (root stride 1).
  void run(const plan::Node& tree);

 private:
  void node(const plan::Node& nd, std::uint64_t base, index_t stride, std::uint64_t arena);

  /// Base of the length-n twiddle table (allocated on first use), or none
  /// when twiddle traffic is excluded.
  std::optional<std::uint64_t> twiddle_table(index_t n);

  cache::Cache& cache_;
  TraceOptions opts_;
  std::uint64_t data_base_ = 0;
  std::uint64_t arena_base_ = 0;
  std::uint64_t next_region_ = 0;
  std::map<index_t, std::uint64_t> twiddle_regions_;
};

/// Trace generator for WHT factorization trees (no twiddles, no final
/// permutation, right stage first — mirroring wht/executor.cpp).
class WhtTracer {
 public:
  explicit WhtTracer(cache::Cache& cache, TraceOptions opts = {.elem_bytes = sizeof(real_t)});

  void run(const plan::Node& tree);

 private:
  void node(const plan::Node& nd, std::uint64_t base, index_t stride, std::uint64_t arena);

  cache::Cache& cache_;
  TraceOptions opts_;
  std::uint64_t data_base_ = 0;
  std::uint64_t arena_base_ = 0;
};

/// Replay one symbolic access pass (verify::cachepred) through real caches —
/// the ground truth the property suite holds predict_pass exactly equal to,
/// transition function against transition function. When `l2` is given it
/// sees exactly the accesses that miss in `l1`, as in Hierarchy.
void replay_pass(const verify::cachepred::AccessPass& pass, cache::Cache& l1,
                 cache::Cache* l2 = nullptr);

/// Simulate `count` successive leaf DFTs of size n at the given stride and
/// consecutive base offsets — the Sec. III-B / Fig. 3 experiment. Returns
/// after feeding cache; inspect cache.stats().
void simulate_leaf_sweep(cache::Cache& cache, index_t n, index_t stride, index_t count,
                         std::size_t elem_bytes = sizeof(cplx));

/// Configuration of the simulated cost oracle.
struct OracleOptions {
  cache::CacheConfig cache;    ///< modelled hardware (paper default: 512 KB DM)
  double miss_penalty = 30.0;  ///< cost of a miss, in hit-cost units
  index_t sweep_count = 64;    ///< successive sub-transforms per leaf probe
};

/// A cost function for the planners (PlannerOptions::cost_oracle) that
/// *simulates* each DP primitive on the modelled cache instead of timing it
/// on the host: cost = accesses + miss_penalty * misses, per primitive
/// invocation. Each primitive replays the same stage emitter the tracers
/// use, so the oracle and the tracers cannot drift apart. Handles every key
/// kind both planners emit ("dft_leaf", "tw_rows", "tw_cols", "perm",
/// "reorg", "reorg_g", "fused_tws", "stockham", "wht_leaf", "wht_reorg").
///
/// Planning with this oracle reproduces the paper's platform-specific tree
/// choices (Tables V/VI) on any host: on a simulated direct-mapped cache
/// the DDL search inserts ctddl splits that the host wall clock would not
/// justify. Units are abstract (hit-cost = 1); only relative costs matter
/// to the DP.
std::function<double(const plan::CostKey&)> simulated_cost_oracle(OracleOptions opts = {});

}  // namespace ddl::sim

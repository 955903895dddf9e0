#pragma once
/// \file trace.hpp
/// \brief Trace-driven simulation of factorized transforms.
///
/// Replays the plan's access passes (verify::cachepred, the one description
/// of every stage's addresses) through a cache::Cache in exactly the order
/// the executors run them (fft/executor.cpp, wht/executor.cpp — including
/// the 16x16 tiling of the blocked transposes). This regenerates the
/// paper's Shade-simulator study (Fig. 9, Fig. 10, Table II) without 1999
/// hardware: conflict misses and line pollution depend only on the address
/// stream and cache geometry.
///
/// Synthetic address space (cachepred::executor_passes):
///   [0, n*elem)                      — the transform data array
///   [data_end, data_end + 2n*elem)   — the scratch arena
///   above that                       — one twiddle table per composite size
///
/// All regions are aligned to the cache's line size, as the real allocator
/// guarantees. The element size follows from the transform: 16 B for FFT,
/// 8 B for WHT.

#include <functional>

#include "ddl/cachesim/cache.hpp"
#include "ddl/common/types.hpp"
#include "ddl/plan/costdb.hpp"
#include "ddl/plan/tree.hpp"
#include "ddl/verify/cachepred.hpp"

namespace ddl::sim {

/// Trace generator for FFT factorization trees.
class FftTracer {
 public:
  explicit FftTracer(cache::Cache& cache) : cache_(cache) {}

  /// Simulate one forward transform of `tree` (root stride 1).
  void run(const plan::Node& tree);

 private:
  cache::Cache& cache_;
};

/// Trace generator for WHT factorization trees (no twiddles, no final
/// permutation, right stage first — mirroring wht/executor.cpp).
class WhtTracer {
 public:
  explicit WhtTracer(cache::Cache& cache) : cache_(cache) {}

  void run(const plan::Node& tree);

 private:
  cache::Cache& cache_;
};

/// Replay one access pass through real caches. When `l2` is given it sees
/// exactly the accesses that miss in `l1`, as in Hierarchy.
void replay_pass(const verify::cachepred::AccessPass& pass, cache::Cache& l1,
                 cache::Cache* l2 = nullptr);

/// Simulate `count` successive leaf DFTs of size n at the given stride and
/// consecutive base offsets (one element apart) — the Sec. III-B / Fig. 3
/// experiment. Returns after feeding cache; inspect cache.stats().
void simulate_leaf_sweep(cache::Cache& cache, index_t n, index_t stride, index_t count);

/// A cost function for the planners (PlannerOptions::cost_oracle) that
/// *simulates* each DP primitive instead of timing it on the host: the
/// primitive's passes (cachepred::primitive_passes) replayed through one
/// cold 512 KB direct-mapped cache, cost = accesses + 30 * misses per
/// primitive invocation (leaf kinds average their kLeafProbeCount
/// sub-transforms). Throws std::invalid_argument for a kind it does not
/// know.
///
/// Planning with this oracle reproduces the paper's platform-specific tree
/// choices (Tables V/VI) on any host: on a simulated direct-mapped cache
/// the DDL search inserts ctddl splits that the host wall clock would not
/// justify. Units are abstract (hit-cost = 1); only relative costs matter
/// to the DP.
std::function<double(const plan::CostKey&)> simulated_cost_oracle();

}  // namespace ddl::sim

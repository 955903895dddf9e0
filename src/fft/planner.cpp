#include "ddl/fft/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ddl/codelets/codelets.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/check.hpp"
#include "ddl/common/mathutil.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/timer.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/fft/stockham.hpp"
#include "ddl/fft/twiddle.hpp"
#include "ddl/layout/reorg.hpp"
#include "ddl/layout/stride_perm.hpp"
#include "ddl/plan/grammar.hpp"

namespace ddl::fft {

const char* strategy_name(Strategy s) noexcept {
  switch (s) {
    case Strategy::rightmost: return "rightmost";
    case Strategy::balanced: return "balanced";
    case Strategy::sdl_dp: return "sdl_dp";
    case Strategy::ddl_dp: return "ddl_dp";
  }
  return "unknown";
}

/// Measurement arrays shared by all cost probes. Zero-filled on growth:
/// the DFT of zeros stays zero, so repeated in-place application during a
/// timing loop can never overflow or denormalize.
struct FftPlanner::Buffers {
  AlignedBuffer<cplx> data;
  AlignedBuffer<cplx> scratch;
  // The twiddle matrix of the shape probed last. One buffer, refilled on a
  // shape change: keeping every probed shape's matrix would hold about one
  // n-point matrix per divisor of every size the DP visits.
  AlignedBuffer<cplx> twiddles;
  index_t tw_rows = 0;
  index_t tw_cols = 0;

  const cplx* twiddle_matrix(index_t r, index_t c) {
    if (r != tw_rows || c != tw_cols) {
      if (twiddles.size() < r * c) twiddles = AlignedBuffer<cplx>(r * c);
      fill_twiddle_matrix(r, c, twiddles.data());
      tw_rows = r;
      tw_cols = c;
    }
    return twiddles.data();
  }
};

FftPlanner::FftPlanner(PlannerOptions opts)
    : opts_(opts),
      owned_db_(opts.cost_db == nullptr ? std::make_unique<plan::CostDb>() : nullptr),
      cost_db_(opts.cost_db != nullptr ? opts.cost_db : owned_db_.get()),
      bufs_(std::make_unique<Buffers>()) {
  DDL_REQUIRE(opts_.max_leaf >= 2, "max_leaf must be >= 2");
}

FftPlanner::~FftPlanner() = default;

void FftPlanner::ensure_buffers(index_t points) {
  if (bufs_->data.size() < points) bufs_->data = AlignedBuffer<cplx>(points);
  if (bufs_->scratch.size() < points) bufs_->scratch = AlignedBuffer<cplx>(points);
}

std::vector<index_t> FftPlanner::candidate_leaves(index_t n) const {
  std::vector<index_t> out;
  for (index_t c : codelets::dft_codelet_sizes()) {
    if (c <= opts_.max_leaf && n % c == 0) out.push_back(c);
  }
  return out;
}

std::vector<std::pair<index_t, index_t>> FftPlanner::candidate_splits(index_t n) const {
  return factor_pairs(n);
}

// ---------------------------------------------------------------------------
// Primitive cost probes ("initial values" of the DP, Sec. IV-B).
// ---------------------------------------------------------------------------

double FftPlanner::probe(const plan::CostKey& key, const std::function<double()>& measure) {
  // Provenance tally: a calibrated entry (ingested from traced executions
  // by the autotune flow) answers the lookup with measured data; anything
  // else — a prior synthetic probe or a fresh measurement/oracle call — is
  // a synthetic fallback. The autotune round trip asserts on these counts.
  if (cost_db_->is_calibrated(key)) {
    ++stats_.measured_hits;
  } else {
    ++stats_.synthetic_fallbacks;
  }
  // Cold-start model: a key with neither a probe nor a calibrated entry is
  // answered by the symbolic cache model instead of a wall-clock
  // microbenchmark. The model value is memoized through the CostDb like any
  // probe, so one planner never mixes modelled and measured values for the
  // same key within a session. An explicit cost_oracle outranks the model.
  if (opts_.cache_model.cold_start_model && !opts_.cost_oracle && !cost_db_->contains(key)) {
    ++stats_.model_fallbacks;
    return cost_db_->get_or_measure(key, [&] { return model_cost_for(key); });
  }
  return cost_db_->get_or_measure(key, measure);
}

double FftPlanner::model_cost_for(const plan::CostKey& key) {
  if (!coeffs_ready_) {
    // One regression per planner lifetime: seconds ~ beta*flops +
    // alpha1*l1_misses + alpha2*l2_misses over whatever the CostDb already
    // holds. An empty database keeps the documented default constants.
    coeffs_ = verify::cachepred::fit_coefficients(*cost_db_, opts_.cache_model.l1,
                                                  opts_.cache_model.l2);
    coeffs_ready_ = true;
  }
  return verify::cachepred::model_cost(key, coeffs_, opts_.cache_model.l1,
                                       opts_.cache_model.l2);
}

double FftPlanner::predicted_l2(const plan::CostKey& key) {
  if (auto it = l2_pred_.find(key); it != l2_pred_.end()) return it->second;
  const auto pred =
      verify::cachepred::predict_primitive(key, opts_.cache_model.l1, opts_.cache_model.l2);
  const double misses = static_cast<double>(pred.l2_misses);
  l2_pred_.emplace(key, misses);
  return misses;
}

std::vector<std::pair<index_t, index_t>> FftPlanner::prefilter_splits(
    index_t n, index_t stride, bool allow_ddl,
    const std::vector<std::pair<index_t, index_t>>& splits) {
  if (!opts_.cache_model.prefilter || opts_.cost_oracle || splits.size() <= 1) return splits;

  const codelets::Isa isa = codelets::active_isa();
  const std::string isa_tag = isa != codelets::Isa::scalar ? codelets::isa_name(isa) : "";

  // Score each candidate by the predicted L2 misses of its node-local
  // passes, taking the cheapest layout variant the DP could pick for it
  // (static, two-pass ddl, fused ddl) so a split is never condemned for the
  // layout it would not use. A split is *eligible* for pruning only if none
  // of those node-level keys is already in the CostDb: present keys mean
  // the DP has (or was given) real data for this split, and the search must
  // stay bit-identical to the unfiltered one.
  struct Scored {
    double score = 0.0;
    bool prunable = false;
  };
  std::vector<Scored> scored(splits.size());
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < splits.size(); ++i) {
    const auto [n1, n2] = splits[i];
    std::vector<plan::CostKey> keys;
    keys.push_back({"tw_rows", n, n2, stride});
    keys.push_back({"perm", n, n2, stride});
    const double perm_l2 = predicted_l2(keys[1]);
    double score = predicted_l2(keys[0]) + perm_l2;
    if (allow_ddl && stride * n2 > 1) {
      keys.push_back({"reorg", n1, n2, stride});
      keys.push_back({"tw_cols", n, n2, 0});
      score = std::min(score, predicted_l2(keys[2]) + predicted_l2(keys[3]) + perm_l2);
      if (opts_.enable_fused) {
        keys.push_back({"reorg_g", n1, n2, stride});
        keys.push_back({"fused_tws", n1, n2, stride, isa_tag});
        score = std::min(score, predicted_l2(keys[4]) + predicted_l2(keys[5]) + perm_l2);
      }
    }
    bool known = false;
    for (const auto& k : keys) known = known || cost_db_->contains(k);
    scored[i] = {score, !known};
    best_score = std::min(best_score, score);
  }

  std::vector<std::pair<index_t, index_t>> kept;
  kept.reserve(splits.size());
  const double threshold = opts_.cache_model.prune_factor * best_score;
  for (std::size_t i = 0; i < splits.size(); ++i) {
    if (scored[i].prunable && scored[i].score > threshold) {
      ++stats_.pruned_splits;
      continue;
    }
    kept.push_back(splits[i]);
  }
  // The scorer is a pre-filter, not the search: never prune down to nothing.
  if (kept.empty()) return splits;
  return kept;
}

double FftPlanner::leaf_cost(index_t n, index_t stride) {
  // Vectorized leaves shift the optimal split points, so their measured
  // costs live under an ISA-tagged key and coexist with the scalar ones
  // (empty isa = scalar / unbatched execution, matching legacy files).
  const codelets::Isa isa = codelets::active_isa();
  const auto batch =
      isa != codelets::Isa::scalar ? codelets::dft_batch_kernel(n, isa) : nullptr;
  const plan::CostKey key{"dft_leaf", n, stride, 0,
                          batch != nullptr ? codelets::isa_name(isa) : ""};
  if (opts_.cost_oracle) {
    return probe(key, [&] { return opts_.cost_oracle(key); });
  }
  return probe(key, [&] {
    const index_t extent = std::max(n * stride, opts_.stream_points);
    ensure_buffers(extent);
    cplx* x = bufs_->data.data();
    const TimeOptions topts{.min_total_seconds = opts_.measure_floor, .min_reps = 4};
    // Best of two adaptive runs: a single scheduler blip in a probe would
    // otherwise poison the DP through the persistent cost database.
    if (batch != nullptr) {
      // Batched probe, mirroring the executor's leaf loops: a unit-stride
      // leaf batches consecutive blocks (dist = n); a strided leaf batches
      // the siblings at consecutive base offsets (dist = 1) — the same
      // "successive DFTs" the scalar probe walks one at a time.
      const index_t count = stride > 1 ? stride : std::max<index_t>(1, extent / n);
      const index_t dist = stride > 1 ? 1 : n;
      const double per_call =
          time_best_of([&] { batch(x, stride, dist, count); }, 2, topts);
      return per_call / static_cast<double>(count);
    }
    const auto kernel = codelets::dft_kernel(n);
    // Successive sub-DFT offsets emulate a real computation stage: for a
    // strided leaf the siblings sit at consecutive base offsets (Fig. 3's
    // "two successive DFTs"); for a unit-stride leaf they are consecutive
    // blocks streaming through memory.
    const index_t n_offsets = stride > 1 ? stride : extent / n;
    const index_t offset_step = stride > 1 ? 1 : n;
    index_t j = 0;
    return time_best_of(
        [&] {
          if (kernel != nullptr) {
            kernel(x + j * offset_step, stride);
          } else {
            codelets::dft_direct_inplace(x + j * offset_step, stride, n);
          }
          if (++j == n_offsets) j = 0;
        },
        2, topts);
  });
}

double FftPlanner::twiddle_cost(index_t n, index_t n2, index_t stride) {
  const char* kind = stride == 0 ? "tw_cols" : "tw_rows";
  const plan::CostKey key{kind, n, n2, stride};
  if (opts_.cost_oracle) {
    return probe(key, [&] { return opts_.cost_oracle(key); });
  }
  return probe(key, [&] {
    const index_t n1 = n / n2;
    const TimeOptions topts{.min_total_seconds = opts_.measure_floor, .min_reps = 2};
    if (stride == 0) {
      ensure_buffers(n);
      cplx* s = bufs_->scratch.data();
      const cplx* w = bufs_->twiddle_matrix(n2, n1);
      return time_best_of([&] { detail::twiddle_pass_cols(s, n1, n2, w); }, 2, topts);
    }
    ensure_buffers(n * stride);
    cplx* x = bufs_->data.data();
    const cplx* w = bufs_->twiddle_matrix(n1, n2);
    return time_best_of([&] { detail::twiddle_pass_rows(x, stride, n1, n2, w); }, 2, topts);
  });
}

double FftPlanner::perm_cost(index_t n, index_t n2, index_t stride) {
  const plan::CostKey key{"perm", n, n2, stride};
  if (opts_.cost_oracle) {
    return probe(key, [&] { return opts_.cost_oracle(key); });
  }
  return probe(key, [&] {
    ensure_buffers(std::max(n * stride, n));
    cplx* x = bufs_->data.data();
    cplx* s = bufs_->scratch.data();
    const TimeOptions topts{.min_total_seconds = opts_.measure_floor, .min_reps = 2};
    return time_best_of([&] { layout::stride_permute_inplace(x, stride, n, n2, s); }, 2, topts);
  });
}

double FftPlanner::reorg_cost(index_t n1, index_t n2, index_t stride) {
  const plan::CostKey key{"reorg", n1, n2, stride};
  if (opts_.cost_oracle) {
    return probe(key, [&] { return opts_.cost_oracle(key); });
  }
  return probe(key, [&] {
    const index_t n = n1 * n2;
    ensure_buffers(std::max(n * stride, n));
    cplx* x = bufs_->data.data();
    cplx* s = bufs_->scratch.data();
    const TimeOptions topts{.min_total_seconds = opts_.measure_floor, .min_reps = 2};
    return time_best_of(
        [&] {
          layout::transpose_gather(x, stride, n1, n2, s);
          layout::transpose_scatter(x, stride, n1, n2, s);
        },
        2, topts);
  });
}

double FftPlanner::reorg_gather_cost(index_t n1, index_t n2, index_t stride) {
  // Gather half of the reorganization alone: a fused ctddlf split pays this
  // plus fused_cost instead of the reorg round trip plus tw_cols.
  const plan::CostKey key{"reorg_g", n1, n2, stride};
  if (opts_.cost_oracle) {
    return probe(key, [&] { return opts_.cost_oracle(key); });
  }
  return probe(key, [&] {
    const index_t n = n1 * n2;
    ensure_buffers(std::max(n * stride, n));
    cplx* x = bufs_->data.data();
    cplx* s = bufs_->scratch.data();
    const TimeOptions topts{.min_total_seconds = opts_.measure_floor, .min_reps = 2};
    return time_best_of([&] { layout::transpose_gather(x, stride, n1, n2, s); }, 2, topts);
  });
}

double FftPlanner::fused_cost(index_t n1, index_t n2, index_t stride) {
  // The fused twiddle+scatter sweep runs through the dispatched SIMD
  // kernel, so its cost is ISA-dependent and keyed like dft_leaf (empty
  // isa = scalar backend).
  const codelets::Isa isa = codelets::active_isa();
  const plan::CostKey key{"fused_tws", n1, n2, stride,
                          isa != codelets::Isa::scalar ? codelets::isa_name(isa) : ""};
  if (opts_.cost_oracle) {
    return probe(key, [&] { return opts_.cost_oracle(key); });
  }
  return probe(key, [&] {
    const index_t n = n1 * n2;
    ensure_buffers(std::max(n * stride, n));
    cplx* x = bufs_->data.data();
    const cplx* s = bufs_->scratch.data();
    const cplx* w = bufs_->twiddle_matrix(n2, n1);
    const auto kernel = codelets::twiddle_scatter_kernel(isa);
    const TimeOptions topts{.min_total_seconds = opts_.measure_floor, .min_reps = 2};
    // Zeros stay zeros through the twiddle multiply, so the buffers remain
    // stable under repeated sweeps.
    return time_best_of([&] { kernel(x, stride, s, w, n, n1, n2, 0, n2); }, 2, topts);
  });
}

double FftPlanner::stockham_cost(index_t n, index_t stride) {
  const plan::CostKey key{"stockham", n, stride, 0};
  if (opts_.cost_oracle) {
    return probe(key, [&] { return opts_.cost_oracle(key); });
  }
  return probe(key, [&] {
    ensure_buffers(std::max(n * stride, 2 * n));
    cplx* x = bufs_->data.data();
    cplx* s = bufs_->scratch.data();
    const StockhamFft fft(n);
    const TimeOptions topts{.min_total_seconds = opts_.measure_floor, .min_reps = 2};
    if (stride == 1) {
      return time_best_of([&] { fft.run_with(x, s); }, 2, topts);
    }
    // Strided embedding pays the pack/unpack the executor performs.
    return time_best_of(
        [&] {
          layout::pack(x, stride, n, s);
          fft.run_with(s, s + n);
          layout::unpack(x, stride, n, s);
        },
        2, topts);
  });
}

// ---------------------------------------------------------------------------
// Dynamic programming over (size, stride, layout) — eq. (3), extended with a
// thread-count-aware term: the executor fans a node's independent column/row
// sub-transform loops across the pool above parallel::kMinParallelNode, so
// the DP divides that loop work by the effective worker count. This lets the
// search prefer splits that expose parallelism (e.g. a wide n2 of
// unit-stride columns after a DDL reorganization) once threads are
// available. Primitive probe costs (twiddle/perm/reorg) are NOT discounted:
// those routines parallelize internally, so the probes already time them as
// executed. A cost oracle models its own machine (the simulated one is the
// paper's uniprocessor), so oracle planning counts one thread whatever the
// host has. Costs are memoized per planner, so change the thread count
// before planning, not between plans.
// ---------------------------------------------------------------------------

namespace {

/// Effective workers for a loop of `items` independent sub-transforms at a
/// node of `node_n` points: 1 below the executor's fan-out cutoff, else the
/// usable lane count discounted for dispatch overhead and shared memory
/// bandwidth (ideal scaling is never reached in practice).
double fanout_workers(int threads, index_t node_n, index_t items) {
  if (threads <= 1 || node_n < parallel::kMinParallelNode) return 1.0;
  const double lanes = std::min<double>(threads, static_cast<double>(items));
  constexpr double kEfficiency = 0.85;
  return 1.0 + kEfficiency * (lanes - 1.0);
}

/// Threads the DP plans for: the pool's lanes, or one under a cost oracle.
int planning_threads(const PlannerOptions& opts) {
  return opts.cost_oracle ? 1 : parallel::max_threads();
}

}  // namespace

const FftPlanner::Best& FftPlanner::best(index_t n, index_t stride, bool allow_ddl) {
  const auto key = std::make_tuple(n, stride, allow_ddl);
  if (auto it = memo_.find(key); it != memo_.end()) return it->second;

  Best winner;
  winner.cost = std::numeric_limits<double>::infinity();

  // Option 1: compute the node as an unfactorized leaf.
  if (n <= opts_.max_leaf && codelets::has_dft_codelet(n)) {
    winner.cost = leaf_cost(n, stride);
    winner.tree = plan::make_leaf(n);
  } else if (is_prime(n)) {
    // No codelet and no split: the direct fallback is the only choice.
    winner.cost = leaf_cost(n, stride);
    winner.tree = plan::make_leaf(n);
  }

  // Option 1b: a Stockham autosort leaf for power-of-two subproblems — the
  // "reshape the computation" alternative, competing on measured cost.
  // Strided contexts pay the pack/unpack embedding inside the probe.
  if (opts_.enable_stockham && n >= 2 && is_pow2(n)) {
    const double cost = stockham_cost(n, stride);
    if (cost < winner.cost) {
      winner.cost = cost;
      winner.tree = plan::make_stockham_leaf(n);
    }
  }

  // Option 2: split n = n1 * n2 (left x right), static or dynamic layout.
  // The symbolic prefilter (when enabled) drops splits whose predicted
  // node-local L2 traffic is hopeless before any probe or recursion runs.
  const int threads = planning_threads(opts_);
  for (const auto& [n1, n2] : prefilter_splits(n, stride, allow_ddl, candidate_splits(n))) {
    const Best& right = best(n2, stride, allow_ddl);
    const double shared =
        static_cast<double>(n1) * right.cost / fanout_workers(threads, n, n1) +
        perm_cost(n, n2, stride);

    {
      const Best& left = best(n1, stride * n2, allow_ddl);
      const double cost = static_cast<double>(n2) * left.cost / fanout_workers(threads, n, n2) +
                          twiddle_cost(n, n2, stride) + shared;
      if (cost < winner.cost) {
        winner.cost = cost;
        winner.tree = plan::make_split(plan::clone(*left.tree), plan::clone(*right.tree), false);
      }
    }

    if (allow_ddl && stride * n2 > 1) {
      const Best& left = best(n1, 1, allow_ddl);
      const double left_term =
          static_cast<double>(n2) * left.cost / fanout_workers(threads, n, n2);
      // Two-pass ddl: reorg round trip plus a separate scratch twiddle pass.
      double cost = reorg_cost(n1, n2, stride) + left_term + twiddle_cost(n, n2, 0) + shared;
      bool fused = false;
      if (opts_.enable_fused) {
        // Fused ddl (ctddlf): gather only, then one twiddle+scatter sweep
        // replaces the tw_cols pass and the scatter half of the reorg.
        const double fcost = reorg_gather_cost(n1, n2, stride) + left_term +
                             fused_cost(n1, n2, stride) + shared;
        if (fcost < cost) {
          cost = fcost;
          fused = true;
        }
      }
      if (cost * (1.0 + opts_.ddl_margin) < winner.cost) {
        winner.cost = cost;
        winner.tree =
            plan::make_split(plan::clone(*left.tree), plan::clone(*right.tree), true, fused);
      }
    }
  }

  DDL_CHECK(winner.tree != nullptr, "no viable factorization found");
  auto [it, inserted] = memo_.emplace(key, std::move(winner));
  DDL_CHECK(inserted, "DP memo collision");
  return it->second;
}

plan::TreePtr FftPlanner::plan(index_t n, Strategy strategy) {
  DDL_REQUIRE(n >= 2, "transform size must be >= 2");
  const std::string strat = strategy_name(strategy);
  if (opts_.wisdom != nullptr) {
    if (auto hit = opts_.wisdom->recall("fft", strat, n)) {
      return plan::parse_tree(hit->tree);
    }
  }

  plan::TreePtr tree;
  switch (strategy) {
    case Strategy::rightmost: {
      tree = rightmost_tree(n, opts_.max_leaf);
      break;
    }
    case Strategy::balanced: {
      tree = balanced_tree(n, opts_.max_leaf);
      break;
    }
    case Strategy::sdl_dp: {
      tree = plan::clone(*best(n, 1, false).tree);
      break;
    }
    case Strategy::ddl_dp: {
      tree = plan::clone(*best(n, 1, true).tree);
      break;
    }
  }

  if (opts_.wisdom != nullptr) {
    opts_.wisdom->remember("fft", strat, n,
                           {plan::to_string(*tree), planned_cost(n, strategy)});
  }
  return tree;
}

void FftPlanner::invalidate() {
  // Memo entries computed from stale synthetic costs must not shadow newly
  // ingested calibrated ones; the CostDb itself is left intact. The cost
  // model refits on next use — calibration is exactly when new regression
  // samples appear — and prediction memos rebuild cheaply.
  memo_.clear();
  measured_memo_.clear();
  coeffs_ready_ = false;
  l2_pred_.clear();
}

double FftPlanner::planned_cost(index_t n, Strategy strategy) {
  switch (strategy) {
    case Strategy::sdl_dp: return best(n, 1, false).cost;
    case Strategy::ddl_dp: return best(n, 1, true).cost;
    case Strategy::rightmost: return estimate_tree_seconds(*rightmost_tree(n, opts_.max_leaf));
    case Strategy::balanced: return estimate_tree_seconds(*balanced_tree(n, opts_.max_leaf));
  }
  DDL_CHECK(false, "unreachable strategy");
  return 0.0;
}

double FftPlanner::estimate_tree_seconds(const plan::Node& tree, index_t root_stride) {
  if (tree.is_leaf()) {
    return tree.stockham ? stockham_cost(tree.n, root_stride) : leaf_cost(tree.n, root_stride);
  }
  const index_t n = tree.n;
  const index_t n1 = tree.left->n;
  const index_t n2 = tree.right->n;
  // Same thread-count-aware loop terms as the DP in best(): the two must
  // agree or planned_cost and estimate_tree_seconds drift apart.
  const int threads = planning_threads(opts_);
  const double right = static_cast<double>(n1) * estimate_tree_seconds(*tree.right, root_stride) /
                       fanout_workers(threads, n, n1);
  const double perm = perm_cost(n, n2, root_stride);
  if (tree.ddl) {
    const double left = static_cast<double>(n2) * estimate_tree_seconds(*tree.left, 1) /
                        fanout_workers(threads, n, n2);
    if (tree.fused) {
      return reorg_gather_cost(n1, n2, root_stride) + left + fused_cost(n1, n2, root_stride) +
             right + perm;
    }
    return reorg_cost(n1, n2, root_stride) + left + twiddle_cost(n, n2, 0) + right + perm;
  }
  return static_cast<double>(n2) * estimate_tree_seconds(*tree.left, root_stride * n2) /
             fanout_workers(threads, n, n2) +
         twiddle_cost(n, n2, root_stride) + right + perm;
}

// ---------------------------------------------------------------------------
// Measured search — the literal Fig. 8 algorithm (Get_Time on whole trees).
// ---------------------------------------------------------------------------

double FftPlanner::measure_subtree(const plan::Node& tree, index_t stride, double floor) {
  const index_t extent = std::max(tree.n * stride, opts_.stream_points);
  ensure_buffers(extent);
  FftExecutor exec(tree);
  cplx* x = bufs_->data.data();  // zeros: stable under repeated transforms
  // Successive executions at consecutive base offsets, like a real stage.
  const index_t n_offsets = stride > 1 ? stride : std::max<index_t>(1, extent / tree.n);
  const index_t offset_step = stride > 1 ? 1 : tree.n;
  index_t j = 0;
  const TimeOptions topts{.min_total_seconds = floor, .min_reps = 1};
  return time_adaptive(
      [&] {
        exec.forward_strided(x + j * offset_step, stride);
        if (++j == n_offsets) j = 0;
      },
      topts);
}

const FftPlanner::Best& FftPlanner::measured_best(index_t n, index_t stride, bool allow_ddl,
                                                  double floor) {
  const auto key = std::make_tuple(n, stride, allow_ddl);
  if (auto it = measured_memo_.find(key); it != measured_memo_.end()) return it->second;

  Best winner;
  winner.cost = std::numeric_limits<double>::infinity();

  if ((n <= opts_.max_leaf && codelets::has_dft_codelet(n)) || is_prime(n)) {
    winner.tree = plan::make_leaf(n);
    winner.cost = measure_subtree(*winner.tree, stride, floor);
  }

  // Stockham autosort leaf, timed in its embedded strided context like
  // every other candidate (Get_Time makes no modeling assumptions).
  if (opts_.enable_stockham && n >= 2 && is_pow2(n)) {
    auto tree = plan::make_stockham_leaf(n);
    const double cost = measure_subtree(*tree, stride, floor);
    if (cost < winner.cost) {
      winner.cost = cost;
      winner.tree = std::move(tree);
    }
  }

  for (const auto& [n1, n2] : candidate_splits(n)) {
    const Best& right = measured_best(n2, stride, allow_ddl, floor);
    {
      const Best& left = measured_best(n1, stride * n2, allow_ddl, floor);
      auto tree = plan::make_split(plan::clone(*left.tree), plan::clone(*right.tree), false);
      const double cost = measure_subtree(*tree, stride, floor);
      if (cost < winner.cost) {
        winner.cost = cost;
        winner.tree = std::move(tree);
      }
    }
    if (allow_ddl && stride * n2 > 1) {
      const Best& left = measured_best(n1, 1, allow_ddl, floor);
      auto tree = plan::make_split(plan::clone(*left.tree), plan::clone(*right.tree), true);
      const double cost = measure_subtree(*tree, stride, floor);
      if (cost < winner.cost) {
        winner.cost = cost;
        winner.tree = std::move(tree);
      }
      if (opts_.enable_fused) {
        auto fused = plan::make_split(plan::clone(*left.tree), plan::clone(*right.tree), true,
                                      true);
        const double fcost = measure_subtree(*fused, stride, floor);
        if (fcost < winner.cost) {
          winner.cost = fcost;
          winner.tree = std::move(fused);
        }
      }
    }
  }

  DDL_CHECK(winner.tree != nullptr, "no viable factorization found (measured)");
  auto [it, inserted] = measured_memo_.emplace(key, std::move(winner));
  DDL_CHECK(inserted, "measured memo collision");
  return it->second;
}

plan::TreePtr FftPlanner::plan_measured(index_t n, bool allow_ddl, double floor) {
  DDL_REQUIRE(n >= 2, "transform size must be >= 2");
  return plan::clone(*measured_best(n, 1, allow_ddl, floor).tree);
}

double FftPlanner::measured_cost(index_t n, bool allow_ddl, double floor) {
  DDL_REQUIRE(n >= 2, "transform size must be >= 2");
  return measured_best(n, 1, allow_ddl, floor).cost;
}

double FftPlanner::measure_tree_seconds(const plan::Node& tree, double floor) {
  FftExecutor exec(tree);
  AlignedBuffer<cplx> data(tree.n);  // zeros: stable under repeated transforms
  const TimeOptions topts{.min_total_seconds = floor, .min_reps = 1};
  return time_adaptive([&] { exec.forward(data.span()); }, topts);
}

// ---------------------------------------------------------------------------
// Fixed tree shapes.
// ---------------------------------------------------------------------------

namespace {

/// Largest codelet size <= max_leaf that divides n; 0 if none.
index_t largest_codelet_factor(index_t n, index_t max_leaf) {
  index_t found = 0;
  for (index_t c : codelets::dft_codelet_sizes()) {
    if (c <= max_leaf && c <= n && n % c == 0) found = std::max(found, c);
  }
  return found;
}

}  // namespace

plan::TreePtr rightmost_tree(index_t n, index_t max_leaf) {
  DDL_REQUIRE(n >= 2, "size must be >= 2");
  if (n <= max_leaf && codelets::has_dft_codelet(n)) return plan::make_leaf(n);
  const index_t r = largest_codelet_factor(n, max_leaf);
  if (r == 0 || r == n || n / r < 2) return plan::make_leaf(n);  // direct fallback leaf
  return plan::make_split(plan::make_leaf(r), rightmost_tree(n / r, max_leaf));
}

plan::TreePtr balanced_tree(index_t n, index_t max_leaf, index_t ddl_above) {
  DDL_REQUIRE(n >= 2, "size must be >= 2");
  if (n <= max_leaf && codelets::has_dft_codelet(n)) return plan::make_leaf(n);
  const auto splits = factor_pairs(n);
  if (splits.empty()) return plan::make_leaf(n);  // prime: direct fallback
  // Pick the split whose left factor is closest to sqrt(n).
  const double root = std::sqrt(static_cast<double>(n));
  auto best_split = splits.front();
  double best_dist = std::abs(static_cast<double>(best_split.first) - root);
  for (const auto& s : splits) {
    const double d = std::abs(static_cast<double>(s.first) - root);
    if (d < best_dist) {
      best_dist = d;
      best_split = s;
    }
  }
  const bool ddl = ddl_above > 0 && n >= ddl_above;
  return plan::make_split(balanced_tree(best_split.first, max_leaf, ddl_above),
                          balanced_tree(best_split.second, max_leaf, ddl_above), ddl);
}

}  // namespace ddl::fft

// Property suite for the symbolic cache-miss analyzer (verify::cachepred).
//
// The central contract: predict_stage drives the cache simulator through a
// stage's passes, so for EVERY stage the plan emitter produces and EVERY
// tested geometry, the prediction must equal a replay of the same passes
// through one real cache::Cache — exactly, field by field, prefetchers and
// eviction counts included. The steady-state loop closure must be
// invisible: closure-on and closure-off predictions are identical.
//
// On top of that: structural exactness against the trace-driven simulator
// (per-pass access counts sum to exactly what FftTracer/WhtTracer issue),
// footprint coverage, the planner's cold-start model and split prefilter,
// and coefficient-fit recovery on a synthetic cost database.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ddl/cachesim/cache.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/sim/trace.hpp"
#include "ddl/verify/cachepred.hpp"
#include "ddl/verify/plan_verify.hpp"
#include "ddl/wht/planner.hpp"

namespace ddl::verify::cachepred {
namespace {

struct NamedConfig {
  std::string name;
  cache::CacheConfig cfg;
};

/// Geometries the predict == replay property is enforced over. Every replay
/// cache runs with split_remiss on, because the symbolic evaluator always
/// classifies capacity vs conflict through the FA shadow.
std::vector<NamedConfig> property_configs() {
  std::vector<NamedConfig> out;
  auto add = [&out](const std::string& name, cache::CacheConfig cfg) {
    cfg.split_remiss = true;
    out.push_back({name, cfg});
  };
  add("tiny-dm", {.size_bytes = 512, .line_bytes = 64, .associativity = 1});
  add("paper-dm", {.size_bytes = 64 * 1024, .line_bytes = 64, .associativity = 1});
  add("l1-2way", {.size_bytes = 8 * 1024, .line_bytes = 64, .associativity = 2});
  add("l1-8way", {.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8});
  add("fifo-2way",
      {.size_bytes = 4 * 1024, .line_bytes = 64, .associativity = 2,
       .replacement = cache::Replacement::fifo});
  add("dm-nextline", {.size_bytes = 16 * 1024, .line_bytes = 64, .associativity = 1,
                      .prefetch = cache::Prefetch::next_line});
  add("8way-stream", {.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8,
                      .prefetch = cache::Prefetch::stream});
  return out;
}

/// Plan shapes the sweep covers, per transform size. The non-power-of-two
/// trees ride along with the 1024 and 4096 groups: their transposes are
/// ragged (extents not multiples of the 16x16 tile) in rows, columns or
/// both, at the root and under instance loops, so their stages are runs of
/// several passes.
std::vector<std::pair<std::string, plan::TreePtr>> property_trees(index_t n) {
  std::vector<std::pair<std::string, plan::TreePtr>> out;
  out.emplace_back("rightmost", fft::rightmost_tree(n, 32));
  out.emplace_back("balanced", fft::balanced_tree(n, 32));
  out.emplace_back("balanced-ddl", fft::balanced_tree(n, 32, 256));
  if (n == 256) out.emplace_back("fused", plan::parse_tree("ctddlf(16,16)"));
  if (n == 1024) out.emplace_back("fused", plan::parse_tree("ctddlf(32,32)"));
  if (n == 4096) out.emplace_back("fused", plan::parse_tree("ctddlf(16,ct(16,16))"));
  out.emplace_back("stockham", plan::parse_tree("st(" + std::to_string(n) + ")"));
  if (n == 1024) out.emplace_back("embedded-stockham", plan::parse_tree("ct(st(64),16)"));
  if (n == 1024) out.emplace_back("ragged-fused", plan::parse_tree("ctddlf(24,ct(9,5))"));
  if (n == 4096) {
    out.emplace_back("ragged-nested", plan::parse_tree("ctddl(ct(12,20),ctddlf(24,5))"));
  }
  return out;
}

void expect_level_eq(const cache::CacheStats& p, const cache::CacheStats& s,
                     const std::string& label) {
  EXPECT_EQ(p.accesses, s.accesses) << label;
  EXPECT_EQ(p.reads, s.reads) << label;
  EXPECT_EQ(p.writes, s.writes) << label;
  EXPECT_EQ(p.misses, s.misses) << label;
  EXPECT_EQ(p.compulsory_misses, s.compulsory_misses) << label;
  EXPECT_EQ(p.capacity_misses, s.capacity_misses) << label;
  EXPECT_EQ(p.conflict_misses, s.conflict_misses) << label;
  EXPECT_EQ(p.evictions, s.evictions) << label;
  EXPECT_EQ(p.prefetch_fills, s.prefetch_fills) << label;
  EXPECT_EQ(p.prefetch_hits, s.prefetch_hits) << label;
}

std::string stage_label(const std::string& prefix, std::span<const AccessPass> stage) {
  return prefix + "/" + stage.front().node_path + ":" + stage.front().op;
}

/// The core property: the prediction of a stage == a replay of the stage's
/// passes through one cold cache, exactly.
void expect_predict_equals_replay(std::span<const AccessPass> stage, const cache::CacheConfig& l1,
                                  const cache::CacheConfig* l2, const std::string& label) {
  const PassPrediction pred = predict_stage(stage, l1, l2);

  cache::Cache c1(l1);
  std::optional<cache::Cache> c2;
  if (l2 != nullptr) c2.emplace(*l2);
  std::uint64_t bytes = 0;
  for (const AccessPass& pass : stage) {
    sim::replay_pass(pass, c1, c2 ? &*c2 : nullptr);
    bytes += pass.bytes_touched();
  }
  expect_level_eq(pred.l1, c1.stats(), label + " [L1]");
  if (c2) expect_level_eq(pred.l2, c2->stats(), label + " [L2]");
  EXPECT_EQ(pred.bytes_moved, bytes) << label;
}

TEST(PredictVsReplay, ExactForEveryPassShapeAndGeometry) {
  const auto configs = property_configs();
  for (const index_t n : {index_t{256}, index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      const auto passes = enumerate_passes(*tree);
      ASSERT_FALSE(passes.empty()) << tree_name;
      for (const auto& cfg : configs) {
        for (const auto stage : stage_runs(passes)) {
          const std::string prefix = tree_name + "/" + std::to_string(n) + "/" + cfg.name;
          expect_predict_equals_replay(stage, cfg.cfg, nullptr, stage_label(prefix, stage));
        }
      }
    }
  }
}

TEST(PredictVsReplay, ExactThroughTwoLevelHierarchy) {
  // L2 sees exactly the L1 miss stream; the prediction must track both.
  cache::CacheConfig l1{.size_bytes = 2 * 1024, .line_bytes = 64, .associativity = 1};
  l1.split_remiss = true;
  cache::CacheConfig l2{.size_bytes = 64 * 1024, .line_bytes = 64, .associativity = 1};
  l2.split_remiss = true;
  for (const index_t n : {index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      const auto passes = enumerate_passes(*tree);
      for (const auto stage : stage_runs(passes)) {
        expect_predict_equals_replay(stage, l1, &l2,
                                     stage_label(tree_name + "/" + std::to_string(n), stage));
      }
    }
  }
}

TEST(PredictVsReplay, WhtPassesMatchToo) {
  cache::CacheConfig cfg{.size_bytes = 1024, .line_bytes = 64, .associativity = 1};
  cfg.split_remiss = true;
  AnalyzeOptions opts;
  opts.transform = Transform::wht;
  for (const index_t n : {index_t{1024}, index_t{4096}}) {
    const auto tree = wht::balanced_wht_tree(n, 64, 512);
    const auto passes = enumerate_passes(*tree, opts);
    for (const auto stage : stage_runs(passes)) {
      expect_predict_equals_replay(stage, cfg, nullptr,
                                   stage_label("wht/" + std::to_string(n), stage));
    }
  }
}

TEST(PredictVsReplay, RaggedTransposesAreRunsOfPassesInTileOrder) {
  // ctddlf(24, ct(9,5)): the root gather is 24 x 45, ragged in both
  // extents (16 + 8 rows, 32 + 13 columns). Rows interleave full and
  // ragged tiles inside every column tile, so each of the three column
  // tiles is a pair of passes. Walked in order, the run must issue
  // layout::transpose_gather's 16x16 tile order exactly.
  const index_t n1 = 24, n2 = 45;
  const auto passes = enumerate_passes(*plan::parse_tree("ctddlf(24,ct(9,5))"));
  const auto stages = stage_runs(passes);
  const auto gather = std::find_if(stages.begin(), stages.end(), [](const auto& st) {
    return st.front().node_path == "root" && st.front().op == "reorg gather";
  });
  ASSERT_NE(gather, stages.end());
  EXPECT_EQ(gather->size(), 6u);

  std::vector<std::pair<std::uint64_t, bool>> walked;
  for (const AccessPass& pass : *gather) {
    walk_pass(pass, [&](std::uint64_t addr, bool w) { walked.emplace_back(addr, w); });
  }
  const std::uint64_t eb = sizeof(cplx);
  const std::uint64_t arena = n1 * n2 * eb;  // already 64-byte aligned
  std::vector<std::pair<std::uint64_t, bool>> tiled;
  for (index_t jb = 0; jb < n2; jb += 16) {
    for (index_t ib = 0; ib < n1; ib += 16) {
      for (index_t j = jb; j < std::min<index_t>(jb + 16, n2); ++j) {
        for (index_t i = ib; i < std::min<index_t>(ib + 16, n1); ++i) {
          tiled.emplace_back((i * n2 + j) * eb, false);
          tiled.emplace_back(arena + (j * n1 + i) * eb, true);
        }
      }
    }
  }
  EXPECT_EQ(walked, tiled);

  const cache::CacheConfig dm{.size_bytes = 512, .line_bytes = 64, .associativity = 1};
  EXPECT_FALSE(predict_stage(*gather, dm).closed_form);  // closure: single-pass stages only
}

TEST(Closure, ClosedFormMatchesFullWalk) {
  // The steady-state loop closure is an optimization, never an
  // approximation: with it disabled the evaluator walks every iteration,
  // and the counts must be identical.
  const auto configs = property_configs();
  for (const index_t n : {index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      const auto passes = enumerate_passes(*tree);
      for (const auto& cfg : configs) {
        for (const auto stage : stage_runs(passes)) {
          const PassPrediction fast = predict_stage(stage, cfg.cfg, nullptr, true);
          const PassPrediction slow = predict_stage(stage, cfg.cfg, nullptr, false);
          expect_level_eq(fast.l1, slow.l1,
                          stage_label(tree_name + "/" + std::to_string(n) + "/" + cfg.name, stage));
        }
      }
    }
  }
}

TEST(Closure, FiresOnLeafSweeps) {
  // Sanity that the closure actually engages somewhere (otherwise the
  // equality above is vacuous): a long run of identical shifted leaf sweeps
  // over a no-prefetch cache is its home turf.
  const auto tree = fft::rightmost_tree(4096, 32);
  const cache::CacheConfig dm{.size_bytes = 512, .line_bytes = 64, .associativity = 1};
  bool any_closed = false;
  const auto passes = enumerate_passes(*tree);
  for (const auto stage : stage_runs(passes)) {
    any_closed = any_closed || predict_stage(stage, dm).closed_form;
  }
  EXPECT_TRUE(any_closed);
}

TEST(WholePlan, AccessCountsMatchTheTracerExactly) {
  // Stage-major emission must reproduce the tracer's demand access stream
  // in aggregate: same passes, same loop extents, same refs.
  for (const index_t n : {index_t{256}, index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      cache::Cache warm({.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8});
      sim::FftTracer(warm).run(*tree);

      std::uint64_t total = 0;
      for (const auto& pass : enumerate_passes(*tree)) total += pass.accesses();
      EXPECT_EQ(total, warm.stats().accesses) << tree_name << " n=" << n;
    }
  }
}

TEST(WholePlan, WhtAccessCountsMatchTheTracerExactly) {
  AnalyzeOptions opts;
  opts.transform = Transform::wht;
  for (const index_t n : {index_t{1024}, index_t{4096}}) {
    const auto tree = wht::balanced_wht_tree(n, 64, 512);
    cache::Cache warm({.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8});
    sim::WhtTracer(warm).run(*tree);
    std::uint64_t total = 0;
    for (const auto& pass : enumerate_passes(*tree, opts)) total += pass.accesses();
    EXPECT_EQ(total, warm.stats().accesses) << "wht n=" << n;
  }
}

TEST(WholePlan, ColdStageSumBoundsTheWarmTrace) {
  // Per-stage predictions assume each stage starts cold; a warm LRU cache
  // can only hit more (stack property), so the cold sum is an upper bound
  // on the warm whole-plan miss count — and a reasonably tight one (the
  // documented tolerance band, docs/CACHEMODEL.md).
  for (const index_t n : {index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      const cache::CacheConfig cfg{.size_bytes = 16 * 1024, .line_bytes = 64,
                                   .associativity = 1};
      cache::Cache warm(cfg);
      sim::FftTracer(warm).run(*tree);

      AnalyzeOptions opts;
      opts.l1 = cfg;
      opts.l2.size_bytes = 0;
      const CacheReport rep = analyze_plan(*tree, opts);
      EXPECT_GE(rep.total_l1.misses, warm.stats().misses) << tree_name << " n=" << n;
      // Band: inter-stage reuse cannot be the dominant effect for
      // working sets exceeding the cache; the cold-sum stays within 3x.
      EXPECT_LE(rep.total_l1.misses, 3 * warm.stats().misses + 64)
          << tree_name << " n=" << n;
    }
  }
}

TEST(CoverageCheck, EveryFootprintStageAccountedFor) {
  for (const index_t n : {index_t{256}, index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      const CacheReport rep = analyze_plan(*tree);
      EXPECT_TRUE(rep.covered()) << tree_name << " n=" << n;
      for (const auto& c : rep.coverage) {
        EXPECT_NE(c.status, Coverage::uncovered)
            << tree_name << " n=" << n << " " << c.node_path << ":" << c.op;
      }
    }
  }
  AnalyzeOptions wht_opts;
  wht_opts.transform = Transform::wht;
  const auto wht_tree = wht::balanced_wht_tree(2048, 64, 512);
  EXPECT_TRUE(analyze_plan(*wht_tree, wht_opts).covered());
}

TEST(ObsStageCoverage, EveryStageHasAModelDisposition) {
  for (int i = 0; i < static_cast<int>(obs::Stage::count_); ++i) {
    const char* m = obs_stage_model(static_cast<obs::Stage>(i));
    ASSERT_NE(m, nullptr) << "stage " << i;
    EXPECT_NE(std::string(m), "") << "stage " << i;
  }
}

// ---------------------------------------------------------------------------
// Planning-oracle layer
// ---------------------------------------------------------------------------

TEST(Primitives, StridedLeafCostsMoreAtDirectMappedL2) {
  // The paper's core observation, reproduced statically: large power-of-two
  // strides thrash a direct-mapped cache, unit stride streams through it.
  const cache::CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  const cache::CacheConfig l2{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  const auto unit = predict_primitive({"dft_leaf", 64, 1, 0, ""}, l1, l2);
  const auto strided = predict_primitive({"dft_leaf", 64, 4096, 0, ""}, l1, l2);
  EXPECT_GT(strided.l2_misses, unit.l2_misses);
  EXPECT_GT(strided.l1_misses, unit.l1_misses);
}

TEST(Primitives, EveryPlannerKeyKindHasPassesAndFlops) {
  const std::vector<plan::CostKey> keys = {
      {"dft_leaf", 16, 64, 0, ""},     {"wht_leaf", 16, 64, 0, ""},
      {"tw_rows", 1024, 32, 4},        {"tw_cols", 1024, 32, 0},
      {"perm", 1024, 32, 2},           {"reorg", 32, 32, 4},
      {"reorg_g", 32, 32, 4},          {"fused_tws", 32, 32, 4, ""},
      {"stockham", 256, 1, 0},         {"stockham", 256, 8, 0},
      {"wht_reorg", 32, 32, 4},
  };
  const cache::CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  const cache::CacheConfig l2{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  for (const auto& key : keys) {
    EXPECT_FALSE(primitive_passes(key).empty()) << key.kind;
    EXPECT_GT(primitive_flops(key), 0.0) << key.kind;
    const auto pred = predict_primitive(key, l1, l2);
    EXPECT_GT(pred.l1_misses, 0u) << key.kind;
    CostCoefficients co;
    EXPECT_GT(model_cost(key, co, l1, l2), 0.0) << key.kind;
  }
}

TEST(PrimitivePin, ColdStartModelValuesAreRecorded) {
  // The cold-start model's numbers, pinned exactly: predicted misses per
  // primitive invocation at both levels and model_cost with the default
  // coefficients, for one key of every kind (unit and strided leaves and
  // Stockham legs included). A change to any pass shape or to the cache
  // model shows here. Costs are hex literals so the comparison is bit for
  // bit.
  const cache::CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  const cache::CacheConfig l2{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  const struct {
    plan::CostKey key;
    std::uint64_t l1_misses;
    std::uint64_t l2_misses;
    double cost;
  } pins[] = {
      {{"dft_leaf", 16, 1, 0, ""}, 4, 4, 0x1.79f505f35670cp-23},  // 1.76e-07
      {{"dft_leaf", 32, 4096, 0, ""}, 64, 64, 0x1.d20102f91d7c8p-20},  // 1.736e-06
      {{"wht_leaf", 16, 1, 0, ""}, 2, 2, 0x1.12e0be826d695p-24},  // 6.4e-08
      {{"wht_leaf", 8, 1024, 0, ""}, 1, 1, 0x1.01b2b29a4692cp-25},  // 3e-08
      {{"tw_rows", 1024, 32, 4, ""}, 1209, 1209, 0x1.fefdf7672a30ap-16},  // 3.04575e-05
      {{"tw_cols", 4096, 64, 0, ""}, 2016, 2016, 0x1.c7d0e48981f46p-15},  // 5.43375e-05
      {{"perm", 4096, 64, 2, ""}, 6296, 6144, 0x1.3f1a47290963bp-13},  // 0.00015216
      {{"reorg", 64, 64, 16, ""}, 10240, 10240, 0x1.05fe359450486p-12},  // 0.000249856
      {{"reorg_g", 64, 32, 8, ""}, 2560, 2560, 0x1.05fe359450486p-14},  // 6.2464e-05
      {{"fused_tws", 64, 64, 8, ""}, 6128, 6128, 0x1.459cb9ac001bp-13},  // 0.000155264
      {{"stockham", 1024, 1, 0, ""}, 5631, 5631, 0x1.3642d4884f66cp-13},  // 0.000147944
      {{"stockham", 256, 64, 0, ""}, 1791, 1791, 0x1.8032c046ac8ccp-15},  // 4.58e-05
      {{"wht_reorg", 128, 64, 4, ""}, 10608, 10240, 0x1.0bd4dba0357b4p-12},  // 0.000255424
  };
  const CostCoefficients defaults;
  for (const auto& p : pins) {
    const std::string label =
        p.key.kind + " " + std::to_string(p.key.a) + " " + std::to_string(p.key.b) + " " +
        std::to_string(p.key.c);
    const PrimitivePrediction pred = predict_primitive(p.key, l1, l2);
    EXPECT_EQ(pred.l1_misses, p.l1_misses) << label;
    EXPECT_EQ(pred.l2_misses, p.l2_misses) << label;
    EXPECT_EQ(model_cost(p.key, defaults, l1, l2), p.cost) << label;
  }
}

TEST(CoefficientFit, RecoversPlantedConstants) {
  // Build a synthetic CostDb whose seconds are EXACTLY the model with known
  // coefficients; the regression must recover them.
  const cache::CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  const cache::CacheConfig l2{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  const double beta = 3.5e-10, a1 = 6.0e-9, a2 = 4.5e-8;

  plan::CostDb db;
  const std::vector<plan::CostKey> keys = {
      {"dft_leaf", 8, 1, 0, ""},    {"dft_leaf", 16, 1, 0, ""},
      {"dft_leaf", 32, 64, 0, ""},  {"dft_leaf", 16, 4096, 0, ""},
      {"tw_rows", 1024, 32, 4},     {"tw_cols", 4096, 64, 0},
      {"perm", 4096, 64, 1},        {"reorg", 64, 64, 8},
      {"stockham", 1024, 1, 0},     {"fused_tws", 64, 64, 2, ""},
  };
  for (const auto& k : keys) {
    const auto p = predict_primitive(k, l1, l2);
    const double secs = beta * primitive_flops(k) +
                        a1 * static_cast<double>(p.l1_misses) +
                        a2 * static_cast<double>(p.l2_misses);
    db.put(k, secs, plan::CostSource::calibrated);
  }

  const CostCoefficients co = fit_coefficients(db, l1, l2);
  ASSERT_TRUE(co.fitted);
  EXPECT_EQ(co.samples, keys.size());
  EXPECT_NEAR(co.beta_flop, beta, beta * 1e-6);
  EXPECT_NEAR(co.alpha_l1, a1, a1 * 1e-6);
  EXPECT_NEAR(co.alpha_l2, a2, a2 * 1e-6);
}

TEST(CoefficientFit, EmptyDbKeepsDocumentedDefaults) {
  const cache::CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  const cache::CacheConfig l2{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  plan::CostDb db;
  const CostCoefficients co = fit_coefficients(db, l1, l2);
  EXPECT_FALSE(co.fitted);
  const CostCoefficients defaults;
  EXPECT_EQ(co.beta_flop, defaults.beta_flop);
  EXPECT_EQ(co.alpha_l1, defaults.alpha_l1);
  EXPECT_EQ(co.alpha_l2, defaults.alpha_l2);
}

TEST(ColdStartPlanner, PlansFromTheModelWithoutMeasuring) {
  // Empty CostDb + cold_start_model: the DP must complete with every
  // primitive answered by the symbolic model — no wall-clock probes — and
  // the chosen tree must pass static verification.
  plan::CostDb db;
  fft::PlannerOptions opts;
  opts.cost_db = &db;
  opts.cache_model.cold_start_model = true;
  fft::FftPlanner planner(opts);

  const auto tree = planner.plan(4096, fft::Strategy::ddl_dp);
  ASSERT_NE(tree, nullptr);
  const fft::CostStats stats = planner.cost_stats();
  EXPECT_GT(stats.model_fallbacks, 0u);
  // Every synthetic lookup that missed the db was served by the model.
  EXPECT_EQ(stats.measured_hits, 0u);
  EXPECT_TRUE(verify::verify_plan(*tree, {Transform::fft}).ok());

  // The model's own ranking must be coherent: the DP winner's modeled cost
  // can never exceed the modeled cost of the rightmost baseline.
  const double dp_cost = planner.planned_cost(4096, fft::Strategy::ddl_dp);
  const double rm_cost = planner.estimate_tree_seconds(*fft::rightmost_tree(4096, 32));
  EXPECT_LE(dp_cost, rm_cost * (1.0 + 1e-9));
}

TEST(ColdStartPlanner, PrefilterPrunesAndCountsSkippedSplits) {
  plan::CostDb db;
  fft::PlannerOptions opts;
  opts.cost_db = &db;
  opts.cache_model.cold_start_model = true;
  opts.cache_model.prefilter = true;
  opts.cache_model.prune_factor = 1.01;  // aggressive: force visible pruning
  fft::FftPlanner planner(opts);

  const auto tree = planner.plan(4096, fft::Strategy::ddl_dp);
  ASSERT_NE(tree, nullptr);
  EXPECT_GT(planner.cost_stats().pruned_splits, 0u);
  EXPECT_TRUE(verify::verify_plan(*tree, {Transform::fft}).ok());
}

TEST(ColdStartPlanner, PrefilterNeverChangesTunedPlans) {
  // Once the CostDb holds entries for the node-level keys, the prefilter
  // must be a no-op: splits with known costs are never pruned, so planning
  // for a tuned size is bit-identical with and without it.
  plan::CostDb db;
  fft::PlannerOptions base;
  base.cost_db = &db;
  base.cache_model.cold_start_model = true;
  fft::FftPlanner reference(base);
  const auto expected = reference.plan(2048, fft::Strategy::ddl_dp);

  // db now contains every key the DP touched (model values memoized as
  // probe entries) — a "tuned" database from the prefilter's viewpoint.
  fft::PlannerOptions filtered = base;
  filtered.cache_model.prefilter = true;
  filtered.cache_model.prune_factor = 1.0;  // maximally aggressive
  fft::FftPlanner planner(filtered);
  const auto tree = planner.plan(2048, fft::Strategy::ddl_dp);

  EXPECT_EQ(plan::to_string(*tree), plan::to_string(*expected));
  EXPECT_EQ(planner.cost_stats().pruned_splits, 0u);
}

TEST(ColdStartPlanner, PrefilterReducesColdStartWork) {
  fft::PlannerOptions opts;
  opts.cache_model.cold_start_model = true;
  plan::CostDb plain_db;
  opts.cost_db = &plain_db;
  fft::FftPlanner plain(opts);
  plain.plan(4096, fft::Strategy::ddl_dp);
  const auto plain_calls = plain.cost_stats().model_fallbacks;

  plan::CostDb filtered_db;
  opts.cost_db = &filtered_db;
  opts.cache_model.prefilter = true;
  // Aggressive factor: the DP memo shares subtree states across splits, so
  // only pruning that removes whole subtree families reduces lookups.
  opts.cache_model.prune_factor = 1.01;
  fft::FftPlanner filtered(opts);
  filtered.plan(4096, fft::Strategy::ddl_dp);
  EXPECT_GT(filtered.cost_stats().pruned_splits, 0u);
  EXPECT_LT(filtered.cost_stats().model_fallbacks, plain_calls);
}

TEST(ColdStartPlanner, ExplicitOracleOutranksTheModel) {
  // cost_oracle set: the model must stay out of the way entirely.
  plan::CostDb db;
  fft::PlannerOptions opts;
  opts.cost_db = &db;
  opts.cache_model.cold_start_model = true;
  opts.cache_model.prefilter = true;
  opts.cost_oracle = sim::simulated_cost_oracle();
  fft::FftPlanner planner(opts);
  const auto tree = planner.plan(1024, fft::Strategy::ddl_dp);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(planner.cost_stats().model_fallbacks, 0u);
  EXPECT_EQ(planner.cost_stats().pruned_splits, 0u);
}

}  // namespace
}  // namespace ddl::verify::cachepred

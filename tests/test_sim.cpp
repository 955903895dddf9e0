// Tests for the address-trace generator: exact access-count accounting
// against closed-form formulas, compulsory-only behaviour under an ideal
// cache, the paper's Fig. 6 worked example, and the headline qualitative
// result (DDL produces fewer misses than SDL once the transform exceeds the
// cache).

#include <gtest/gtest.h>

#include "ddl/cachesim/cache.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/sim/trace.hpp"

namespace ddl::sim {
namespace {

cache::Cache ideal_cache() {
  // A direct-mapped cache far larger than any trace's address space: every
  // line has its own set, so every miss is compulsory and lookups are O(1).
  return cache::Cache({.size_bytes = 1 << 28, .line_bytes = 64, .associativity = 1});
}

/// Accesses a single split node (n1 x n2) contributes beyond its children:
/// twiddle pass (3 accesses per non-trivial element) + permutation
/// (4 accesses per element: gather read+write, unpack read+write).
std::uint64_t split_overhead_accesses(index_t n1, index_t n2) {
  const auto n = static_cast<std::uint64_t>(n1 * n2);
  const std::uint64_t tw = 3ull * static_cast<std::uint64_t>(n1 - 1) *
                           static_cast<std::uint64_t>(n2 - 1);
  return tw + 4ull * n;
}

TEST(FftTracer, LeafAccessCount) {
  auto cache = ideal_cache();
  FftTracer tracer(cache);
  tracer.run(*plan::parse_tree("16"));
  EXPECT_EQ(cache.stats().accesses, 32u);  // n reads + n writes
  EXPECT_EQ(cache.stats().reads, 16u);
  EXPECT_EQ(cache.stats().writes, 16u);
}

TEST(FftTracer, SingleSplitAccessCount) {
  auto cache = ideal_cache();
  FftTracer tracer(cache);
  tracer.run(*plan::parse_tree("ct(4,8)"));
  // children: 8 leaves of 4 (2*4 each) + 4 leaves of 8 (2*8 each) = 128.
  const std::uint64_t expect = 8 * 8 + 4 * 16 + split_overhead_accesses(4, 8);
  EXPECT_EQ(cache.stats().accesses, expect);
}

TEST(FftTracer, DdlSplitAddsReorganizationTraffic) {
  auto sdl_cache = ideal_cache();
  FftTracer(sdl_cache).run(*plan::parse_tree("ct(16,16)"));
  auto ddl_cache = ideal_cache();
  FftTracer(ddl_cache).run(*plan::parse_tree("ctddl(16,16)"));
  // gather + scatter: 2 accesses each per element = 4 * 256 extra.
  EXPECT_EQ(ddl_cache.stats().accesses, sdl_cache.stats().accesses + 4 * 256);
}

TEST(FftTracer, NestedTreeAccessCount) {
  auto cache = ideal_cache();
  FftTracer tracer(cache);
  tracer.run(*plan::parse_tree("ct(ct(4,4),16)"));
  // Root 256 = 16x16: 16 instances of ct(4,4) + 16 leaves of 16 + overhead.
  const std::uint64_t inner = 4 * 8 + 4 * 8 + split_overhead_accesses(4, 4);
  const std::uint64_t expect = 16 * inner + 16 * 32 + split_overhead_accesses(16, 16);
  EXPECT_EQ(cache.stats().accesses, expect);
}

TEST(FftTracer, IdealCacheMissesAreCompulsoryOnly) {
  auto cache = ideal_cache();
  FftTracer tracer(cache);
  tracer.run(*plan::parse_tree("ctddl(ct(16,16),ct(16,16))"));
  EXPECT_EQ(cache.stats().conflict_misses, 0u);
  EXPECT_GT(cache.stats().compulsory_misses, 0u);
}

TEST(WhtTracer, AccessCounts) {
  auto cache = ideal_cache();
  WhtTracer tracer(cache);
  tracer.run(*plan::parse_tree("ct(8,8)"));
  // 8 row leaves + 8 column leaves, 2*8 accesses each; no twiddle/permute.
  EXPECT_EQ(cache.stats().accesses, 8u * 16 + 8u * 16);

  auto ddl_cache = ideal_cache();
  WhtTracer(ddl_cache).run(*plan::parse_tree("ctddl(8,8)"));
  EXPECT_EQ(ddl_cache.stats().accesses, 8u * 16 + 8u * 16 + 4u * 64);
}

// ---------------------------------------------------------------------------
// The paper's worked example (Fig. 6): 256-point DFT as 16 x 16 with a
// 64-point direct-mapped cache, 4-point lines (C = 64, B = 4, 16-byte
// points: 1 KB cache, 64 B lines).
// ---------------------------------------------------------------------------

TEST(PaperFig6, StridedStageThrashesFourLines) {
  // A 16-point DFT at stride 16: every 4th point maps to the same line set;
  // 16 points land on only 4 distinct cache sets -> conflicts within one DFT.
  cache::Cache dm({.size_bytes = 64 * 16, .line_bytes = 4 * 16, .associativity = 1});
  simulate_leaf_sweep(dm, 16, 16, 1);
  // 16 points at stride 16 touch 16 distinct lines mapping onto 4 sets:
  // every access (read pass and write pass) misses.
  EXPECT_EQ(dm.stats().accesses, 32u);
  EXPECT_EQ(dm.stats().misses, 32u);
  EXPECT_EQ(dm.stats().conflict_misses, 32u - 16u);
}

TEST(PaperFig6, ReorganizedStageHasNoConflicts) {
  // After reorganization the same 16 points are contiguous: 4 lines, no
  // conflicts, and the write pass hits everything.
  cache::Cache dm({.size_bytes = 64 * 16, .line_bytes = 4 * 16, .associativity = 1});
  simulate_leaf_sweep(dm, 16, 1, 1);
  EXPECT_EQ(dm.stats().accesses, 32u);
  EXPECT_EQ(dm.stats().misses, 4u);  // compulsory line fetches only
  EXPECT_EQ(dm.stats().conflict_misses, 0u);
}

TEST(PaperFig3, SuccessiveDftsLoseReuseAtLargeStride) {
  // Sec. III-B Case III: with N*S > C and S a power of two, the second DFT
  // cannot reuse lines fetched by the first.
  cache::Cache dm({.size_bytes = 32 * 16, .line_bytes = 4 * 16, .associativity = 1});
  simulate_leaf_sweep(dm, 4, 32, 2);  // two successive 4-point DFTs, stride 32
  // Each DFT: 4 points, all mapping to the same set (stride 32 elements =
  // cache size): misses on every access, nothing reused across DFTs.
  EXPECT_EQ(dm.stats().misses, dm.stats().accesses);
}

TEST(PaperFig3, SuccessiveDftsReuseAtSmallStride) {
  // Case II: N*S <= C — the second DFT's points share lines with the first.
  cache::Cache dm({.size_bytes = 32 * 16, .line_bytes = 4 * 16, .associativity = 1});
  simulate_leaf_sweep(dm, 4, 4, 2);
  // First DFT misses 4 lines; second DFT (offset 1 element) hits them all.
  EXPECT_EQ(dm.stats().misses, 4u);
}

// ---------------------------------------------------------------------------
// Headline qualitative result
// ---------------------------------------------------------------------------

TEST(DdlVsSdl, FewerMissesOncePastCacheSize) {
  // 2^16 points (1 MB of complex data) against a 512 KB direct-mapped cache.
  const cache::CacheConfig cfg{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};

  cache::Cache sdl(cfg);
  FftTracer(sdl).run(*plan::parse_tree("ct(256,256)"));

  cache::Cache ddl(cfg);
  FftTracer(ddl).run(*plan::parse_tree("ctddl(256,256)"));

  EXPECT_LT(ddl.stats().misses, sdl.stats().misses);
  // The only extra traffic is the gather/scatter pair: exactly 4n accesses.
  // (For this shallow one-split tree that is ~36% of the total; the paper's
  // <3% access-increase figure arises on deep trees where one reorganization
  // serves several levels — checked in bench/table2_accesses.)
  EXPECT_EQ(ddl.stats().accesses,
            sdl.stats().accesses + 4ull * static_cast<std::uint64_t>(1 << 16));
}

TEST(DdlVsSdl, NoPenaltyBelowCacheSize) {
  // 2^12 points (64 KB) fit in a 512 KB cache: both layouts are compulsory-
  // dominated and DDL's extra traffic is the only difference.
  const cache::CacheConfig cfg{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  cache::Cache sdl(cfg);
  FftTracer(sdl).run(*plan::parse_tree("ct(64,64)"));
  cache::Cache ddl(cfg);
  FftTracer(ddl).run(*plan::parse_tree("ctddl(64,64)"));
  // Misses comparable (within the extra compulsory traffic of the scratch).
  EXPECT_LT(static_cast<double>(ddl.stats().misses),
            1.5 * static_cast<double>(sdl.stats().misses) + 4096);
}


// Every stage's address sequence is described once (cachepred's stage
// builders) and replayed by FftTracer, WhtTracer and the simulated cost
// oracle. The values are pinned exactly, so any change to an emitted
// sequence shows here. Each oracle kind appears at least once, with ragged
// (non-multiple-of-16) transposes among them, and each tracer runs static,
// ddl, fused, Stockham and non-power-of-two trees on the default 512 KB
// direct-mapped cache.
TEST(SimPin, OracleAndTracersReplayRecordedSequences) {
  const auto oracle = simulated_cost_oracle();
  const struct {
    plan::CostKey key;
    double cost;
  } oracle_pins[] = {
      {{"dft_leaf", 16, 1, 0}, 152},
      {{"dft_leaf", 16, 512, 0}, 152},
      {{"dft_leaf", 12, 40, 0}, 83.0625},
      {{"wht_leaf", 16, 1, 0}, 92},
      {{"wht_leaf", 8, 1024, 0}, 46},
      {{"tw_rows", 1024, 32, 1}, 17763},
      {{"tw_rows", 256, 16, 64}, 9225},
      {{"tw_rows", 360, 24, 3}, 11046},
      {{"tw_cols", 1024, 32, 0}, 17763},
      {{"tw_cols", 360, 24, 0}, 6126},
      {{"perm", 1024, 32, 1}, 19456},
      {{"perm", 4096, 64, 4}, 169984},
      {{"perm", 1152, 48, 1}, 21888},
      {{"reorg", 32, 32, 1}, 19456},
      {{"reorg", 64, 64, 16}, 300634},
      {{"reorg", 24, 48, 1}, 21888},
      {{"reorg_g", 64, 64, 16}, 161822},
      {{"reorg_g", 24, 48, 1}, 19584},
      {{"fused_tws", 32, 32, 1}, 25809},
      {{"fused_tws", 64, 64, 8}, 196061},
      {{"fused_tws", 24, 40, 3}, 38637},
      {{"stockham", 1024, 1, 0}, 40703},
      {{"stockham", 256, 64, 0}, 17855},
      {{"stockham", 2, 8, 0}, 137},
      {{"wht_reorg", 64, 64, 4}, 93184},
      {{"wht_reorg", 24, 48, 1}, 13248},
  };
  for (const auto& p : oracle_pins) {
    EXPECT_EQ(oracle(p.key), p.cost)
        << p.key.kind << " " << p.key.a << " " << p.key.b << " " << p.key.c;
  }

  const struct {
    const char* tree;
    bool wht;
    cache::CacheStats stats;
  } tracer_pins[] = {
      {"ct(16,ct(16,ct(16,16)))", false,
       {1851395, 1015810, 835585, 545631, 49148, 496483, 0, 537439}},
      {"ctddl(ct(16,16),ct(16,16))", false,
       {2113539, 1146882, 966657, 361657, 49212, 312445, 0, 353465}},
      {"ctddlf(ct(16,16),ctddl(16,16))", false,
       {2245633, 1212929, 1032704, 478740, 49212, 429528, 0, 470548}},
      {"ctddlf(st(256),st(256))", false,
       {2817025, 1506305, 1310720, 448774, 49184, 399590, 0, 440582}},
      {"ct(st(64),st(1024))", false,
       {2944771, 1569602, 1375169, 497269, 49032, 448237, 0, 489077}},
      {"ctddl(ct(12,20),ctddlf(24,ct(9,5)))", false,
       {11059443, 5985122, 5074321, 801662, 194730, 606932, 0, 793470}},
      {"ctddl(ct(16,16),ct(16,16))", true,
       {786432, 393216, 393216, 38272, 16384, 21888, 0, 30080}},
      {"ct(ctddl(24,ct(12,4)),ctddl(8,8))", true,
       {1327104, 663552, 663552, 59547, 9360, 50187, 0, 51355}},
  };
  for (const auto& p : tracer_pins) {
    cache::Cache cache(cache::CacheConfig{});
    if (p.wht) {
      WhtTracer(cache).run(*plan::parse_tree(p.tree));
    } else {
      FftTracer(cache).run(*plan::parse_tree(p.tree));
    }
    const cache::CacheStats& s = cache.stats();
    EXPECT_EQ(s.accesses, p.stats.accesses) << p.tree;
    EXPECT_EQ(s.reads, p.stats.reads) << p.tree;
    EXPECT_EQ(s.writes, p.stats.writes) << p.tree;
    EXPECT_EQ(s.misses, p.stats.misses) << p.tree;
    EXPECT_EQ(s.compulsory_misses, p.stats.compulsory_misses) << p.tree;
    EXPECT_EQ(s.conflict_misses, p.stats.conflict_misses) << p.tree;
    EXPECT_EQ(s.evictions, p.stats.evictions) << p.tree;
  }
}

}  // namespace
}  // namespace ddl::sim

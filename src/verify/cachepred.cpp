#include "ddl/verify/cachepred.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "ddl/common/check.hpp"
#include "ddl/layout/reorg.hpp"

namespace ddl::verify::cachepred {

using layout::kTile;
using i64 = std::int64_t;
using u64 = std::uint64_t;

namespace {

std::vector<i64> zvec(std::size_t n) { return std::vector<i64>(n, 0); }

std::vector<i64> cat(std::vector<i64> v, std::initializer_list<i64> tail) {
  v.insert(v.end(), tail);
  return v;
}

std::vector<index_t> catl(std::vector<index_t> v, std::initializer_list<index_t> tail) {
  v.insert(v.end(), tail);
  return v;
}

/// Accesses one ref issues over a whole execution of its pass.
u64 ref_accesses(const AccessPass& pass, const Sweep& sw, const StreamRef& r) {
  if (sw.count <= 0) return 0;
  u64 iters = 1;
  for (index_t c : pass.loops) iters *= static_cast<u64>(std::max<index_t>(c, 0));
  if (r.skip_first_outer && !pass.loops.empty() && pass.loops.back() > 0) {
    const auto last = static_cast<u64>(pass.loops.back());
    iters = iters / last * (last - 1);
  }
  if (r.once) return iters;
  return iters * static_cast<u64>(r.skip_first_elem ? sw.count - 1 : sw.count);
}

}  // namespace

void validate_pass(const AccessPass& pass) {
  for (const Sweep& sw : pass.sweeps) {
    DDL_REQUIRE(sw.refs.size() <= kMaxSweepRefs, "too many refs in one sweep");
    for (const StreamRef& r : sw.refs) {
      DDL_REQUIRE(r.loop_step.size() == pass.loops.size(), "ref/loop arity mismatch");
    }
  }
}

std::uint64_t AccessPass::accesses() const {
  u64 total = 0;
  for (const Sweep& sw : sweeps) {
    for (const StreamRef& r : sw.refs) total += ref_accesses(*this, sw, r);
  }
  return total;
}

std::uint64_t AccessPass::bytes_touched() const {
  u64 total = 0;
  for (const Sweep& sw : sweeps) {
    for (const StreamRef& r : sw.refs) total += ref_accesses(*this, sw, r) * r.width;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Stage builders — the one description of each executor stage's accesses.
// Every consumer (stage-major enumeration, the executor-order walk the
// simulator replays, the per-key primitive probes) calls these at its own
// base addresses.
// ---------------------------------------------------------------------------

namespace {

/// Outer context of a stage: ancestor instance-loop counts plus the byte
/// step each applies to the node's data base. Scratch and twiddle regions
/// never shift with instance loops, so their refs use a zero prefix.
struct Ctx {
  std::vector<index_t> loops;
  std::vector<i64> bsteps;
};

/// One side of a transpose: addr = base + j*jstep + i*istep, with `pre`
/// the outer-context steps of `base`.
struct Tri {
  u64 base;
  std::vector<i64> pre;
  i64 jstep;
  i64 istep;
};

/// The stage builders. Each hands the passes of one executor stage, for
/// elements of `eb` bytes at explicit base addresses under an outer
/// context, to the sink.
class PassBuilder {
 public:
  using Sink = std::function<void(AccessPass&&)>;

  PassBuilder(std::size_t eb, Sink sink) : eb_(static_cast<i64>(eb)), sink_(std::move(sink)) {}

  /// Codelet leaf: load every point, compute in registers, store every point.
  void leaf(const std::string& path, const Ctx& c, u64 b, index_t n, index_t s) {
    const i64 se = s * eb_;
    Sweep rd{n, {ref(false, b, c.bsteps, se)}};
    Sweep wr{n, {ref(true, b, c.bsteps, se)}};
    push(path, "leaf sweep", c, {}, {std::move(rd), std::move(wr)});
  }

  /// Stockham leaf (FftExecutor::run_stockham): strided leaves pack into the
  /// arena and ping-pong within it; unit-stride leaves ping-pong data <->
  /// arena. One twiddle read per butterfly group, from the leaf's own table
  /// at `tw`.
  void stockham(const std::string& path, const Ctx& c, u64 b, index_t n, index_t s, u64 arena,
                u64 tw) {
    const i64 se = s * eb_;
    const std::vector<i64> z = zvec(c.loops.size());
    struct Buf {
      u64 base;
      const std::vector<i64>* pre;
    };
    Buf src{b, &c.bsteps};
    Buf dst{arena, &z};
    if (s > 1) {
      Sweep pack{n, {ref(false, b, c.bsteps, se), ref(true, arena, z, eb_)}};
      push(path, "stockham pack", c, {}, {std::move(pack)});
      src = {arena, &z};
      dst = {arena + static_cast<u64>(n * eb_), &z};
    }
    const Buf home = src;
    index_t half = n / 2;
    index_t sb = 1;
    index_t tstep = 1;
    for (int k = 0; half >= 1; ++k) {
      StreamRef t = ref(false, tw, cat(z, {tstep * eb_}), 0);
      t.once = true;  // one table read per group, before the inner loop
      Sweep sw;
      sw.count = sb;
      sw.refs = {std::move(t), ref(false, src.base, cat(*src.pre, {sb * eb_}), eb_),
                 ref(false, src.base + static_cast<u64>(sb * half * eb_),
                     cat(*src.pre, {sb * eb_}), eb_),
                 ref(true, dst.base, cat(*dst.pre, {2 * sb * eb_}), eb_),
                 ref(true, dst.base + static_cast<u64>(sb * eb_), cat(*dst.pre, {2 * sb * eb_}),
                     eb_)};
      push(path, "stockham stage " + std::to_string(k), c, {half}, {std::move(sw)});
      std::swap(src, dst);
      half /= 2;
      sb *= 2;
      tstep *= 2;
    }
    if (src.base != home.base) {
      Sweep cp{n, {ref(false, src.base, *src.pre, eb_), ref(true, home.base, *home.pre, eb_)}};
      push(path, "stockham copy home", c, {}, {std::move(cp)});
    }
    if (s > 1) {
      Sweep un{n, {ref(false, arena, z, eb_), ref(true, b, c.bsteps, se)}};
      push(path, "stockham unpack", c, {}, {std::move(un)});
    }
  }

  /// Twiddle pass over the strided rows of an n1 x n2 static split: row i,
  /// column j (both from 1) reads entry i*n2 + j of the matrix M(n1,n2) at
  /// `tw`.
  void twiddle_rows(const std::string& path, const Ctx& c, u64 b, index_t n1, index_t n2,
                    index_t s, u64 tw) {
    const i64 se = s * eb_;
    const u64 row0 = b + static_cast<u64>((n2 + 1) * se);
    Sweep sw;
    sw.count = n2 - 1;
    sw.refs = {ref(false, tw + static_cast<u64>((n2 + 1) * eb_),
                   cat(zvec(c.loops.size()), {n2 * eb_}), eb_),
               ref(false, row0, cat(c.bsteps, {n2 * se}), se),
               ref(true, row0, cat(c.bsteps, {n2 * se}), se)};
    push(path, "twiddle rows", c, {n1 - 1}, {std::move(sw)});
  }

  /// Twiddle pass over the packed columns of a two-pass ddl split: column
  /// j, row i (both from 1) reads entry j*n1 + i of the matrix M(n2,n1) at
  /// `tw`, the scratch element's own offset.
  void twiddle_cols(const std::string& path, const Ctx& c, u64 arena, index_t n1, index_t n2,
                    u64 tw) {
    const std::vector<i64> z = zvec(c.loops.size());
    const u64 off = static_cast<u64>((n1 + 1) * eb_);
    Sweep sw;
    sw.count = n1 - 1;
    sw.refs = {ref(false, tw + off, cat(z, {n1 * eb_}), eb_),
               ref(false, arena + off, cat(z, {n1 * eb_}), eb_),
               ref(true, arena + off, cat(z, {n1 * eb_}), eb_)};
    push(path, "twiddle columns (scratch)", c, {n2 - 1}, {std::move(sw)});
  }

  /// Fused ctddlf sweep, one column at a time: unit-stride scratch reads,
  /// unit-stride reads of the matrix M(n2,n1) at `tw` (column 0 and element
  /// 0 carry W^0 and skip them), strided comb writes.
  void twiddle_scatter(const std::string& path, const Ctx& c, u64 b, index_t s, index_t n1,
                       index_t n2, u64 arena, u64 tw) {
    const i64 se = s * eb_;
    StreamRef t = ref(false, tw, cat(zvec(c.loops.size()), {n1 * eb_}), eb_);
    t.skip_first_outer = true;
    t.skip_first_elem = true;
    Sweep sw;
    sw.count = n1;
    sw.refs = {ref(false, arena, cat(zvec(c.loops.size()), {n1 * eb_}), eb_), std::move(t),
               ref(true, b, cat(c.bsteps, {se}), n2 * se)};
    push(path, "twiddle scatter (fused)", c, {n2}, {std::move(sw)});
  }

  /// layout::transpose_gather (`gather`) or transpose_scatter between the
  /// strided n1 x n2 node at `b` and its packed copy at `arena`.
  void reorg(const std::string& path, const Ctx& c, u64 b, index_t s, index_t n1, index_t n2,
             u64 arena, bool gather) {
    const i64 se = s * eb_;
    Tri node{b, c.bsteps, se, n2 * se};
    Tri packed{arena, zvec(c.loops.size()), n1 * eb_, eb_};
    if (gather) {
      transpose(path, "reorg gather", c, n1, n2, node, packed);
    } else {
      transpose(path, "reorg scatter", c, n1, n2, packed, node);
    }
  }

  /// layout::stride_permute_inplace: transpose_gather(n/m, m) + linear unpack.
  void permute(const std::string& path, const Ctx& c, u64 b, index_t s, index_t n, index_t m,
               u64 arena) {
    const i64 se = s * eb_;
    const std::vector<i64> z = zvec(c.loops.size());
    transpose(path, "permute gather (scratch)", c, n / m, m, Tri{b, c.bsteps, se, m * se},
              Tri{arena, z, (n / m) * eb_, eb_});
    Sweep un{n, {ref(false, arena, z, eb_), ref(true, b, c.bsteps, se)}};
    push(path, "permute unpack", c, {}, {std::move(un)});
  }

 private:
  StreamRef ref(bool write, u64 base, std::vector<i64> steps, i64 estep) const {
    StreamRef r;
    r.write = write;
    r.base = base;
    r.loop_step = std::move(steps);
    r.elem_step = estep;
    r.width = static_cast<std::uint32_t>(eb_);
    return r;
  }

  void push(const std::string& path, std::string op, const Ctx& c,
            std::initializer_list<index_t> local, std::vector<Sweep> sweeps) {
    AccessPass p;
    p.node_path = path;
    p.op = std::move(op);
    p.loops = catl(c.loops, local);
    p.sweeps = std::move(sweeps);
    sink_(std::move(p));
  }

  /// Tiled transpose of an nr x nc block (layout/reorg.cpp): column tiles
  /// outermost, then row tiles, then the tile's columns and rows, with
  /// kTile x kTile tiles and narrower ones at the ragged edges. Each run of
  /// equal-shaped tiles is one uniform pass. Ragged rows interleave with
  /// full rows inside every column tile, so each column tile is then its
  /// own pair of passes.
  void transpose(const std::string& path, const char* op, const Ctx& c, index_t nr, index_t nc,
                 const Tri& rd, const Tri& wr) {
    struct Run {
      index_t count, width, start;
    };
    const auto runs = [](index_t m) {
      std::vector<Run> out;
      if (m >= kTile) out.push_back({m / kTile, kTile, 0});
      if (m % kTile != 0) out.push_back({1, m % kTile, m / kTile * kTile});
      return out;
    };
    const std::vector<Run> rows = runs(nr);
    const bool per_tile = rows.size() > 1;
    for (const Run& col : runs(nc)) {
      for (index_t t = 0; t < (per_tile ? col.count : 1); ++t) {
        const index_t j0 = col.start + t * kTile;
        for (const Run& row : rows) {
          const auto side = [&](const Tri& x, bool write) {
            const u64 base = x.base + static_cast<u64>(j0 * x.jstep + row.start * x.istep);
            return ref(write, base,
                       cat(x.pre, {col.width * x.jstep, row.width * x.istep, x.jstep}),
                       x.istep);
          };
          Sweep sw{row.width, {side(rd, false), side(wr, true)}};
          push(path, op, c, {per_tile ? 1 : col.count, row.count, col.width}, {std::move(sw)});
        }
      }
    }
  }

  i64 eb_;
  Sink sink_;
};

/// Walks a plan tree in the executors' stage order and places each stage in
/// the synthetic address space: data at 0, the scratch arena after it,
/// twiddle matrices and Stockham tables above that in first-use order, all
/// regions aligned.
/// Stage-major (`expand` off) emits each stage once with its instances as
/// outer loops; executor order (`expand` on) visits every instance of a
/// child that is not a codelet leaf in turn.
class PlanWalker {
 public:
  PlanWalker(Transform transform, u64 align, bool expand, PassBuilder::Sink sink)
      : fft_(transform == Transform::fft),
        eb_(fft_ ? sizeof(cplx) : sizeof(real_t)),
        align_(align),
        expand_(expand),
        build_(eb_, std::move(sink)) {
    DDL_REQUIRE(align_ > 0, "alignment must be positive");
  }

  void run(const plan::Node& tree) {
    const u64 n_bytes = static_cast<u64>(tree.n) * eb_;
    const u64 arena = aligned(n_bytes);
    next_region_ = aligned(arena + 2 * n_bytes);
    node(tree, "root", Ctx{}, 0, 1, arena);
  }

 private:
  u64 aligned(u64 a) const { return (a + align_ - 1) / align_ * align_; }

  /// Region of the twiddle matrix M(r,c) a split reads (fft/twiddle.hpp),
  /// or with c == 0 of a size-r Stockham leaf's own table.
  u64 twiddles(index_t r, index_t c) {
    auto [it, fresh] = tw_regions_.try_emplace({r, c}, next_region_);
    if (fresh) {
      next_region_ = aligned(next_region_ + static_cast<u64>(r * std::max<index_t>(c, 1)) * eb_);
    }
    return it->second;
  }

  /// Run `child` over `count` instances, instance i at data base b + i*step.
  /// `pre` is the outer-context prefix of the instances' base.
  void instances(const plan::Node& child, const std::string& path, const Ctx& c,
                 std::vector<i64> pre, index_t count, i64 step, u64 b, index_t s, u64 arena) {
    if (!expand_ || (child.is_leaf() && !child.stockham)) {
      node(child, path, Ctx{catl(c.loops, {count}), cat(std::move(pre), {step})}, b, s, arena);
      return;
    }
    for (index_t i = 0; i < count; ++i) {
      node(child, path, c, b + static_cast<u64>(i * step), s, arena);
    }
  }

  void node(const plan::Node& nd, const std::string& path, const Ctx& c, u64 b, index_t s,
            u64 arena) {
    if (nd.is_leaf()) {
      if (nd.stockham) {
        build_.stockham(path, c, b, nd.n, s, arena, twiddles(nd.n, 0));
      } else {
        build_.leaf(path, c, b, nd.n, s);
      }
      return;
    }
    const index_t n = nd.n;
    const index_t n1 = nd.left->n;
    const index_t n2 = nd.right->n;
    const i64 eb = static_cast<i64>(eb_);
    const i64 se = s * eb;
    const u64 scratch = arena + static_cast<u64>(n * eb);
    const auto left = [&] {
      if (nd.ddl) {
        build_.reorg(path, c, b, s, n1, n2, arena, /*gather=*/true);
        instances(*nd.left, path + ".L", c, zvec(c.loops.size()), n2, n1 * eb, arena, 1, scratch);
      } else {
        instances(*nd.left, path + ".L", c, c.bsteps, n2, se, b, s * n2, arena);
      }
    };
    const auto right = [&] {
      instances(*nd.right, path + ".R", c, c.bsteps, n1, n2 * se, b, s, arena);
    };

    if (!fft_) {  // WHT: right rows first, no twiddles, no permutation
      right();
      left();
      if (nd.ddl) build_.reorg(path, c, b, s, n1, n2, arena, /*gather=*/false);
      return;
    }
    left();
    if (!nd.ddl) {
      build_.twiddle_rows(path, c, b, n1, n2, s, twiddles(n1, n2));
    } else if (nd.fused) {
      build_.twiddle_scatter(path, c, b, s, n1, n2, arena, twiddles(n2, n1));
    } else {
      build_.twiddle_cols(path, c, arena, n1, n2, twiddles(n2, n1));
      build_.reorg(path, c, b, s, n1, n2, arena, /*gather=*/false);
    }
    right();
    build_.permute(path, c, b, s, n, n2, arena);
  }

  bool fft_;
  std::size_t eb_;
  u64 align_;
  bool expand_;
  PassBuilder build_;
  u64 next_region_ = 0;
  std::map<std::pair<index_t, index_t>, u64> tw_regions_;
};

}  // namespace

std::vector<AccessPass> enumerate_passes(const plan::Node& tree, const AnalyzeOptions& opts) {
  std::vector<AccessPass> out;
  PlanWalker(opts.transform, opts.align_bytes, /*expand=*/false,
             [&out](AccessPass&& p) { out.push_back(std::move(p)); })
      .run(tree);
  return out;
}

void executor_passes(const plan::Node& tree, Transform transform, std::uint64_t align_bytes,
                     const std::function<void(const AccessPass&)>& sink) {
  PlanWalker(transform, align_bytes, /*expand=*/true, [&sink](AccessPass&& p) { sink(p); })
      .run(tree);
}

// ---------------------------------------------------------------------------
// Symbolic evaluation: cache::Cache driven through the passes, plus an exact
// steady-state loop closure.
// ---------------------------------------------------------------------------

namespace {

/// Every counter of CacheStats, as a list of member pointers.
constexpr std::array kCounters = {
    &cache::CacheStats::accesses,          &cache::CacheStats::reads,
    &cache::CacheStats::writes,            &cache::CacheStats::misses,
    &cache::CacheStats::compulsory_misses, &cache::CacheStats::conflict_misses,
    &cache::CacheStats::capacity_misses,   &cache::CacheStats::evictions,
    &cache::CacheStats::prefetch_fills,    &cache::CacheStats::prefetch_hits,
};

void add_scaled(cache::CacheStats& dst, const cache::CacheStats& d, u64 times) {
  for (auto field : kCounters) dst.*field += d.*field * times;
}

cache::CacheStats diff(const cache::CacheStats& a, const cache::CacheStats& b) {
  cache::CacheStats d;
  for (auto field : kCounters) d.*field = a.*field - b.*field;
  return d;
}

/// Byte interval [lo, hi] a ref can reach; loop0 restricted to iteration 0
/// when `first_iter_only` (the per-iteration window of a shifted ref).
void ref_range(const StreamRef& r, const std::vector<index_t>& loops, index_t count,
               bool first_iter_only, u64& lo, u64& hi) {
  i64 mn = static_cast<i64>(r.base);
  i64 mx = mn;
  for (std::size_t l = 0; l < loops.size(); ++l) {
    const i64 extent = (l == 0 && first_iter_only) ? 0 : static_cast<i64>(loops[l]) - 1;
    const i64 span = r.loop_step[l] * std::max<i64>(extent, 0);
    (span < 0 ? mn : mx) += span;
  }
  const i64 espan = r.elem_step * std::max<i64>(static_cast<i64>(count) - 1, 0);
  (espan < 0 ? mn : mx) += espan;
  lo = static_cast<u64>(mn);
  hi = static_cast<u64>(mx) + (r.width > 0 ? r.width - 1 : 0);
}

/// Closure eligibility and parameters (see docs/CACHEMODEL.md for the
/// soundness argument). S == 0 means every loop0 iteration replays the same
/// addresses (scratch-side passes under an instance loop); S > 0 means the
/// whole access stream shifts by S bytes per iteration.
struct ClosurePlan {
  bool ok = false;
  i64 shift = 0;      ///< S, bytes per loop0 iteration
  index_t block = 1;  ///< B, plain iterations per super-iteration
  index_t warmup = 1; ///< super-iterations before the stream leaves its start
  bool has_fixed = false;
  u64 fixed_lo = 0, fixed_hi = 0;  ///< line-expanded fixed-ref interval
};

ClosurePlan closure_plan(const AccessPass& pass, const cache::CacheConfig& l1,
                         const cache::CacheConfig* l2) {
  ClosurePlan cp;
  if (pass.loops.empty()) return cp;
  const index_t c0 = pass.loops[0];
  if (c0 < 8) return cp;
  if (l1.prefetch != cache::Prefetch::none) return cp;
  if (l2 != nullptr && l2->prefetch != cache::Prefetch::none) return cp;

  const u64 coarse = std::max<u64>(l1.line_bytes, l2 != nullptr ? l2->line_bytes : 0);
  i64 shift = -1;  // -1: not yet seen a shifted ref
  bool has_fixed = false;
  u64 f_lo = ~u64{0}, f_hi = 0, s_lo = ~u64{0}, s_hi = 0, w_lo = ~u64{0}, w_hi = 0;
  for (const Sweep& sw : pass.sweeps) {
    for (const StreamRef& r : sw.refs) {
      if (r.skip_first_outer && pass.loops.size() == 1) return cp;
      const i64 s0 = r.loop_step[0];
      u64 lo = 0, hi = 0;
      if (s0 == 0) {
        has_fixed = true;
        ref_range(r, pass.loops, sw.count, false, lo, hi);
        f_lo = std::min(f_lo, lo);
        f_hi = std::max(f_hi, hi);
      } else if (s0 > 0 && (shift == -1 || shift == s0)) {
        shift = s0;
        ref_range(r, pass.loops, sw.count, false, lo, hi);
        s_lo = std::min(s_lo, lo);
        s_hi = std::max(s_hi, hi);
        ref_range(r, pass.loops, sw.count, true, lo, hi);
        w_lo = std::min(w_lo, lo);
        w_hi = std::max(w_hi, hi);
      } else {
        return cp;  // negative or inconsistent shifts
      }
    }
  }
  if (shift == -1) shift = 0;  // loop0-invariant pass

  if (has_fixed && shift > 0) {
    // Fixed and shifted line sets must be disjoint at the coarser line size
    // so the state map (shifted lines translate, fixed lines stay) is
    // well-defined.
    const u64 fa = f_lo / coarse, fb = f_hi / coarse;
    const u64 sa = s_lo / coarse, sb2 = s_hi / coarse;
    if (fa <= sb2 && sa <= fb) return cp;
  }

  index_t block = 1;
  if (shift > 0) {
    const u64 l = std::lcm(static_cast<u64>(shift), coarse);
    if (l / static_cast<u64>(shift) > 64) return cp;
    block = static_cast<index_t>(l / static_cast<u64>(shift));
    const u64 step_bytes = static_cast<u64>(shift) * static_cast<u64>(block);
    // Mixed passes additionally need a set-preserving shift at every level.
    if (has_fixed) {
      const u64 dl1 = step_bytes / l1.line_bytes;
      if (dl1 % l1.sets() != 0) return cp;
      if (l2 != nullptr) {
        const u64 dl2 = step_bytes / l2->line_bytes;
        if (dl2 % l2->sets() != 0) return cp;
      }
    }
    cp.warmup = static_cast<index_t>((w_hi - w_lo) / step_bytes) + 2;
  } else {
    cp.warmup = 2;
  }
  const index_t total_super = c0 / block;
  if (total_super < cp.warmup + 3) return cp;  // nothing to amortize

  cp.ok = true;
  cp.shift = shift;
  cp.block = block;
  cp.has_fixed = has_fixed;
  cp.fixed_lo = f_lo;
  cp.fixed_hi = f_hi;
  return cp;
}

/// Does `cur` equal `prev` translated by `step_bytes` (shifted-region lines
/// move, fixed-region lines stay)? Compares per-set stamp-ordered residency
/// and the shadow's LRU order — the full observable state of a level.
bool state_shifted(const cache::Cache::State& prev, const cache::Cache::State& cur,
                   const cache::CacheConfig& cfg, const ClosurePlan& cp, u64 step_bytes) {
  const std::size_t sets = cfg.sets();
  const u64 lb = cfg.line_bytes;
  const u64 dl = step_bytes / lb;
  auto map_line = [&](u64 la) {
    if (dl == 0) return la;
    if (cp.has_fixed) {
      const u64 byte0 = la * lb;
      if (byte0 >= cp.fixed_lo && byte0 <= cp.fixed_hi) return la;
    }
    return la + dl;
  };
  auto canon = [&](const std::vector<std::pair<u64, u64>>& lines, bool mapped) {
    std::vector<std::vector<std::pair<u64, u64>>> per_set(sets);
    for (const auto& [line, stamp] : lines) {
      const u64 la = mapped ? map_line(line) : line;
      per_set[static_cast<std::size_t>(la) & (sets - 1)].push_back({stamp, la});
    }
    for (auto& v : per_set) std::sort(v.begin(), v.end());
    return per_set;
  };
  const auto a = canon(prev.lines, true);
  const auto b = canon(cur.lines, false);
  for (std::size_t s = 0; s < sets; ++s) {
    if (a[s].size() != b[s].size()) return false;
    for (std::size_t i = 0; i < a[s].size(); ++i) {
      if (a[s][i].second != b[s][i].second) return false;
    }
  }
  if (prev.shadow.size() != cur.shadow.size()) return false;
  for (std::size_t i = 0; i < prev.shadow.size(); ++i) {
    if (map_line(prev.shadow[i]) != cur.shadow[i]) return false;
  }
  return true;
}

}  // namespace

PassPrediction predict_stage(std::span<const AccessPass> stage, const cache::CacheConfig& l1,
                             const cache::CacheConfig* l2, bool enable_closure) {
  for (const AccessPass& pass : stage) validate_pass(pass);
  // The evaluator always splits capacity from conflict misses.
  const auto classified = [](cache::CacheConfig cfg) {
    cfg.split_remiss = true;
    return cfg;
  };
  cache::Cache c1(classified(l1));
  std::optional<cache::Cache> c2;
  if (l2 != nullptr) c2.emplace(classified(*l2));
  const auto touch = [&](u64 addr, bool w) {
    if (!c1.access(addr, w) && c2) c2->access(addr, w);
  };
  const auto stats2 = [&] { return c2 ? c2->stats() : cache::CacheStats{}; };

  PassPrediction out;
  for (const AccessPass& pass : stage) out.bytes_moved += pass.bytes_touched();
  if (stage.size() != 1) {
    for (const AccessPass& pass : stage) walk_pass(pass, touch);
    out.l1 = c1.stats();
    out.l2 = stats2();
    return out;
  }
  const AccessPass& pass = stage.front();
  const index_t c0 = pass.loops.empty() ? 1 : pass.loops[0];
  if (c0 <= 0) return out;

  // Counts the closure extrapolates past the walked iterations.
  cache::CacheStats extra1, extra2;
  const ClosurePlan cp = enable_closure ? closure_plan(pass, l1, l2) : ClosurePlan{};
  index_t walked = 0;  // plain loop0 iterations consumed
  if (cp.ok) {
    const u64 gran = std::min<u64>(l1.line_bytes, l2 != nullptr ? l2->line_bytes : l1.line_bytes);
    const u64 step_bytes = static_cast<u64>(cp.shift) * static_cast<u64>(cp.block);
    const u64 dg = step_bytes / gran;
    const index_t total_super = c0 / cp.block;
    cache::Cache::State prev1, prev2;
    cache::CacheStats pd1, pd2;  // previous super-iteration's deltas
    std::vector<u64> prev_set;
    std::vector<cache::CacheStats> plain1, plain2;  // per-plain deltas, last super
    bool have_prev = false;
    for (index_t t = 0; t < total_super; ++t) {
      std::unordered_set<u64> touched_now;
      const cache::CacheStats b1 = c1.stats();
      const cache::CacheStats b2 = stats2();
      plain1.clear();
      plain2.clear();
      for (index_t i = 0; i < cp.block; ++i) {
        const cache::CacheStats p1 = c1.stats();
        const cache::CacheStats p2 = stats2();
        walk_iters(pass, t * cp.block + i, t * cp.block + i + 1, [&](u64 addr, bool w) {
          touched_now.insert(addr / gran);
          touch(addr, w);
        });
        plain1.push_back(diff(c1.stats(), p1));
        plain2.push_back(diff(stats2(), p2));
      }
      walked = (t + 1) * cp.block;
      const cache::CacheStats d1 = diff(c1.stats(), b1);
      const cache::CacheStats d2 = diff(stats2(), b2);
      std::vector<u64> cur_set(touched_now.begin(), touched_now.end());
      std::sort(cur_set.begin(), cur_set.end());

      bool close = have_prev && t >= cp.warmup && d1 == pd1 && d2 == pd2 &&
                   cur_set.size() == prev_set.size();
      if (close) {
        for (std::size_t i = 0; i < cur_set.size() && close; ++i) {
          const u64 mapped = (cp.has_fixed && prev_set[i] * gran >= cp.fixed_lo &&
                              prev_set[i] * gran <= cp.fixed_hi)
                                 ? prev_set[i]
                                 : prev_set[i] + dg;
          close = mapped == cur_set[i];
        }
      }
      if (close) close = state_shifted(prev1, c1.state(), l1, cp, step_bytes);
      if (close && c2) close = state_shifted(prev2, c2->state(), *l2, cp, step_bytes);
      if (close) {
        // Everything from here on is a translated replay: extrapolate the
        // remaining full super-iterations, then the leftover plain
        // iterations from the recorded per-iteration deltas.
        const u64 rest = static_cast<u64>(total_super - 1 - t);
        add_scaled(extra1, d1, rest);
        add_scaled(extra2, d2, rest);
        for (index_t i = 0; i < c0 % cp.block; ++i) {
          add_scaled(extra1, plain1[static_cast<std::size_t>(i)], 1);
          add_scaled(extra2, plain2[static_cast<std::size_t>(i)], 1);
        }
        walked = c0;
        out.closed_form = true;
        break;
      }
      prev1 = c1.state();
      if (c2) prev2 = c2->state();
      pd1 = d1;
      pd2 = d2;
      prev_set = std::move(cur_set);
      have_prev = true;
    }
  }
  if (walked < c0) walk_iters(pass, walked, c0, touch);
  out.l1 = c1.stats();
  out.l2 = stats2();
  add_scaled(out.l1, extra1, 1);
  add_scaled(out.l2, extra2, 1);
  return out;
}

std::vector<std::span<const AccessPass>> stage_runs(std::span<const AccessPass> passes) {
  std::vector<std::span<const AccessPass>> out;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= passes.size(); ++i) {
    if (i == passes.size() || passes[i].node_path != passes[begin].node_path ||
        passes[i].op != passes[begin].op) {
      out.push_back(passes.subspan(begin, i - begin));
      begin = i;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Whole-plan analysis + footprint coverage cross-check
// ---------------------------------------------------------------------------

CacheReport analyze_plan(const plan::Node& tree, const AnalyzeOptions& opts) {
  opts.l1.validate();
  const cache::CacheConfig* l2p = opts.l2.size_bytes > 0 ? &opts.l2 : nullptr;
  if (l2p != nullptr) l2p->validate();

  CacheReport rep;
  const std::vector<AccessPass> passes = enumerate_passes(tree, opts);
  for (const std::span<const AccessPass> run : stage_runs(passes)) {
    StagePrediction sp;
    sp.node_path = run.front().node_path;
    sp.op = run.front().op;
    sp.passes.assign(run.begin(), run.end());
    sp.predict = predict_stage(run, opts.l1, l2p);
    add_scaled(rep.total_l1, sp.predict.l1, 1);
    add_scaled(rep.total_l2, sp.predict.l2, 1);
    rep.bytes_moved += sp.predict.bytes_moved;
    rep.stages.push_back(std::move(sp));
  }

  // Structural cross-check: every footprint stage must be modeled by a pass
  // of the same (node, op), expanded into the named subtree's own passes, or
  // explicitly waived. Anything else is a stage the static model lost.
  for (const Stage& st : enumerate_stages(tree, opts.transform)) {
    StageCoverage sc;
    sc.node_path = st.node_path;
    sc.op = st.op;
    const auto has_pass_at = [&](const std::string& prefix) {
      return std::any_of(rep.stages.begin(), rep.stages.end(), [&](const StagePrediction& sp) {
        return sp.node_path.compare(0, prefix.size(), prefix) == 0;
      });
    };
    const bool direct =
        std::any_of(rep.stages.begin(), rep.stages.end(), [&](const StagePrediction& sp) {
          return sp.node_path == st.node_path && sp.op == st.op;
        });
    if (direct) {
      sc.status = Coverage::modeled;
      sc.detail = "pass of the same name";
    } else if (st.op.compare(0, 12, "left columns") == 0 && has_pass_at(st.node_path + ".L")) {
      sc.status = Coverage::expanded;
      sc.detail = "left-subtree passes";
    } else if (st.op == "right rows" && has_pass_at(st.node_path + ".R")) {
      sc.status = Coverage::expanded;
      sc.detail = "right-subtree passes";
    } else {
      sc.status = Coverage::uncovered;
      sc.detail = "no pass models this stage";
      rep.uncovered = true;
    }
    rep.coverage.push_back(std::move(sc));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Planning oracle: per-CostKey passes, fitted time model
// ---------------------------------------------------------------------------

std::vector<AccessPass> primitive_passes(const plan::CostKey& key) {
  const std::string& k = key.kind;
  const u64 eb = k == "wht_leaf" || k == "wht_reorg" ? sizeof(real_t) : sizeof(cplx);
  std::vector<AccessPass> out;
  PassBuilder build(eb, [&out](AccessPass&& p) { out.push_back(std::move(p)); });
  const std::string path = "primitive";
  const index_t a = key.a;
  const index_t b = key.b;
  const index_t s = key.c;
  const auto bytes = [eb](index_t elems) { return static_cast<u64>(elems) * eb; };
  if (k == "dft_leaf" || k == "wht_leaf") {  // (n, stride)
    // Consecutive base offsets for strided leaves, consecutive blocks at
    // unit stride, as the wall-clock probe runs them.
    const Ctx probe{{kLeafProbeCount}, {static_cast<i64>(bytes(b > 1 ? 1 : a))}};
    build.leaf(path, probe, 0, a, std::max<index_t>(b, 1));
  } else if (k == "tw_rows") {  // (n, n2, stride)
    build.twiddle_rows(path, {}, 0, a / b, b, s, bytes(a * s));
  } else if (k == "tw_cols") {  // (n, n2)
    build.twiddle_cols(path, {}, 0, a / b, b, bytes(a));
  } else if (k == "perm") {  // (n, m, stride)
    build.permute(path, {}, 0, s, a, b, bytes(a * s));
  } else if (k == "reorg" || k == "reorg_g" || k == "wht_reorg") {
    // (n1, n2, stride): the gather, then the scatter unless gather-only.
    build.reorg(path, {}, 0, s, a, b, bytes(a * b * s), /*gather=*/true);
    if (k != "reorg_g") build.reorg(path, {}, 0, s, a, b, bytes(a * b * s), /*gather=*/false);
  } else if (k == "fused_tws") {  // (n1, n2, stride)
    build.twiddle_scatter(path, {}, 0, s, a, b, bytes(a * b * s), bytes(a * b * s + a * b));
  } else if (k == "stockham") {  // (n, stride): two arena buffers, then the table
    build.stockham(path, {}, 0, a, b, bytes(a * b), bytes(a * b + 2 * a));
  }
  return out;
}

double primitive_flops(const plan::CostKey& key) {
  const std::string& k = key.kind;
  const auto lg = [](index_t n) {
    double b = 0;
    while ((index_t{1} << static_cast<int>(b)) < n) b += 1;
    return b;
  };
  const double a = static_cast<double>(key.a);
  const double b = static_cast<double>(key.b);
  if (k == "dft_leaf") return 5.0 * a * lg(key.a);
  if (k == "wht_leaf") return a * lg(key.a);
  if (k == "tw_rows" || k == "tw_cols") return 6.0 * (a / b - 1.0) * (b - 1.0);
  if (k == "fused_tws") return 8.0 * a * b;  // twiddle multiply + scatter copy
  if (k == "perm") return 4.0 * a;           // gather + unpack element touches
  if (k == "reorg" || k == "wht_reorg") return 4.0 * a * b;
  if (k == "reorg_g") return 2.0 * a * b;
  if (k == "stockham") return 5.0 * a * lg(key.a) + (key.b > 1 ? 4.0 * a : 0.0);
  return 0.0;
}

PrimitivePrediction predict_primitive(const plan::CostKey& key, const cache::CacheConfig& l1,
                                      const cache::CacheConfig& l2) {
  PrimitivePrediction pp;
  const cache::CacheConfig* l2p = l2.size_bytes > 0 ? &l2 : nullptr;
  const std::vector<AccessPass> passes = primitive_passes(key);
  for (const std::span<const AccessPass> stage : stage_runs(passes)) {
    const PassPrediction pr = predict_stage(stage, l1, l2p);
    pp.l1_misses += pr.l1.misses;
    pp.l2_misses += pr.l2.misses;
  }
  if (key.kind == "dft_leaf" || key.kind == "wht_leaf") {
    // The probe protocol times kLeafProbeCount sub-transforms and averages.
    pp.l1_misses /= static_cast<u64>(kLeafProbeCount);
    pp.l2_misses /= static_cast<u64>(kLeafProbeCount);
  }
  return pp;
}

double model_cost(const plan::CostKey& key, const CostCoefficients& co,
                  const cache::CacheConfig& l1, const cache::CacheConfig& l2) {
  const PrimitivePrediction pp = predict_primitive(key, l1, l2);
  return co.beta_flop * primitive_flops(key) + co.alpha_l1 * static_cast<double>(pp.l1_misses) +
         co.alpha_l2 * static_cast<double>(pp.l2_misses);
}

CostCoefficients fit_coefficients(const plan::CostDb& db, const cache::CacheConfig& l1,
                                  const cache::CacheConfig& l2) {
  CostCoefficients co;
  std::vector<std::array<double, 3>> rows;
  std::vector<double> y;
  db.for_each([&](const plan::CostKey& key, double seconds, plan::CostSource) {
    const double f = primitive_flops(key);
    if (f <= 0.0) return;  // kind the model does not understand
    const PrimitivePrediction pp = predict_primitive(key, l1, l2);
    rows.push_back({f, static_cast<double>(pp.l1_misses), static_cast<double>(pp.l2_misses)});
    y.push_back(seconds);
  });
  co.samples = rows.size();
  if (rows.size() < 4) return co;

  // Normal equations A x = b for least squares over (flops, m1, m2).
  double A[3][3] = {};
  double bv[3] = {};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) A[i][j] += rows[r][static_cast<std::size_t>(i)] *
                                             rows[r][static_cast<std::size_t>(j)];
      bv[i] += rows[r][static_cast<std::size_t>(i)] * y[r];
    }
  }
  // Gaussian elimination with partial pivoting.
  int piv[3] = {0, 1, 2};
  for (int c = 0; c < 3; ++c) {
    int best = c;
    for (int r = c + 1; r < 3; ++r) {
      if (std::abs(A[piv[r]][c]) > std::abs(A[piv[best]][c])) best = r;
    }
    std::swap(piv[c], piv[best]);
    if (std::abs(A[piv[c]][c]) < 1e-30) return co;  // singular: keep defaults
    for (int r = c + 1; r < 3; ++r) {
      const double f = A[piv[r]][c] / A[piv[c]][c];
      for (int j = c; j < 3; ++j) A[piv[r]][j] -= f * A[piv[c]][j];
      bv[piv[r]] -= f * bv[piv[c]];
    }
  }
  double x[3];
  for (int c = 2; c >= 0; --c) {
    double v = bv[piv[c]];
    for (int j = c + 1; j < 3; ++j) v -= A[piv[c]][j] * x[j];
    x[c] = v / A[piv[c]][c];
  }
  for (double& v : x) v = std::max(v, 0.0);  // latencies cannot be negative
  if (x[0] == 0.0 && x[1] == 0.0 && x[2] == 0.0) return co;
  co.beta_flop = x[0];
  co.alpha_l1 = x[1];
  co.alpha_l2 = x[2];
  co.fitted = true;
  return co;
}

// ---------------------------------------------------------------------------
// obs::Stage -> static-model disposition (linted by `stage-coverage`)
// ---------------------------------------------------------------------------

const char* obs_stage_model(obs::Stage stage) noexcept {
  switch (stage) {
    case obs::Stage::transform: return "waived: whole-call envelope over per-stage passes";
    case obs::Stage::batch: return "waived: batch envelope (footprint batch_stage)";
    case obs::Stage::reorg_gather: return "modeled: 'reorg gather' pass";
    case obs::Stage::reorg_scatter: return "modeled: 'reorg scatter' pass";
    case obs::Stage::stride_perm:
      return "modeled: 'permute gather (scratch)' + 'permute unpack' passes";
    case obs::Stage::twiddle_rows: return "modeled: 'twiddle rows' pass";
    case obs::Stage::twiddle_cols: return "modeled: 'twiddle columns (scratch)' pass";
    case obs::Stage::twiddle_scatter: return "modeled: 'twiddle scatter (fused)' pass";
    case obs::Stage::leaf_cols: return "modeled: 'leaf sweep' pass";
    case obs::Stage::fft_cols: return "expanded: left-subtree passes";
    case obs::Stage::fft_rows: return "expanded: right-subtree passes";
    case obs::Stage::wht_cols: return "expanded: left-subtree passes";
    case obs::Stage::wht_rows: return "expanded: right-subtree passes";
    case obs::Stage::stockham_leaf: return "modeled: 'stockham *' pass family";
    case obs::Stage::par_dispatch: return "waived: scheduling only, no data traffic";
    case obs::Stage::par_chunk: return "waived: scheduling only, no data traffic";
    case obs::Stage::svc_batch: return "waived: service staging outside the plan address space";
    case obs::Stage::svc_gather: return "waived: service staging outside the plan address space";
    case obs::Stage::svc_scatter: return "waived: service staging outside the plan address space";
    case obs::Stage::plan_build: return "waived: planning-time work, no transform traffic";
    case obs::Stage::stream_block: return "waived: streaming envelope over per-stage passes";
    case obs::Stage::stream_pack: return "waived: stream staging outside the plan address space";
    case obs::Stage::stream_fdl: return "waived: stream staging outside the plan address space";
    case obs::Stage::stream_ola: return "waived: stream staging outside the plan address space";
    case obs::Stage::svc_tenant_batch:
      return "waived: service staging outside the plan address space";
    case obs::Stage::count_: return "waived: sentinel";
  }
  return "waived: unknown stage";
}

}  // namespace ddl::verify::cachepred

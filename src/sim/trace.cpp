#include "ddl/sim/trace.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "ddl/common/check.hpp"
#include "ddl/layout/reorg.hpp"

namespace ddl::sim {

using layout::kTile;

namespace {

using u64 = std::uint64_t;

// ---------------------------------------------------------------------------
// Stage emitters: the one address description of each executor stage. The
// tracers place them in a whole-tree address space; the cost oracle places
// each alone in a fresh cache. Addresses are explicit byte bases, `eb` is
// the element size, and a twiddle table is read only when `tw` is set.
// ---------------------------------------------------------------------------

/// Codelet leaf: load every point, compute in registers, store every point.
void emit_leaf(cache::Cache& c, u64 base, index_t n, index_t stride, u64 eb) {
  for (index_t i = 0; i < n; ++i) c.access(base + static_cast<u64>(i) * stride * eb, false);
  for (index_t i = 0; i < n; ++i) c.access(base + static_cast<u64>(i) * stride * eb, true);
}

/// Stockham leaf (FftExecutor::run_stockham): strided leaves pack into the
/// arena and ping-pong within it; unit-stride leaves ping-pong data <-> arena.
void emit_stockham(cache::Cache& c, u64 base, index_t n, index_t stride, u64 arena, u64 eb,
                   std::optional<u64> tw) {
  u64 src = base;
  u64 dst = arena;
  if (stride > 1) {
    for (index_t i = 0; i < n; ++i) {
      c.access(base + static_cast<u64>(i) * stride * eb, false);
      c.access(arena + static_cast<u64>(i) * eb, true);
    }
    src = arena;
    dst = arena + static_cast<u64>(n) * eb;
  }
  const u64 home = src;
  index_t half = n / 2;
  index_t s = 1;
  index_t tstep = 1;
  while (half >= 1) {
    for (index_t p = 0; p < half; ++p) {
      if (tw) c.access(*tw + static_cast<u64>(p * tstep) * eb, false);
      for (index_t q = 0; q < s; ++q) {
        c.access(src + static_cast<u64>(s * p + q) * eb, false);
        c.access(src + static_cast<u64>(s * (p + half) + q) * eb, false);
        c.access(dst + static_cast<u64>(2 * s * p + q) * eb, true);
        c.access(dst + static_cast<u64>(s * (2 * p + 1) + q) * eb, true);
      }
    }
    std::swap(src, dst);
    half /= 2;
    s *= 2;
    tstep *= 2;
  }
  if (src != home) {
    for (index_t i = 0; i < n; ++i) {
      c.access(src + static_cast<u64>(i) * eb, false);
      c.access(home + static_cast<u64>(i) * eb, true);
    }
  }
  if (stride > 1) {
    for (index_t i = 0; i < n; ++i) {
      c.access(arena + static_cast<u64>(i) * eb, false);
      c.access(base + static_cast<u64>(i) * stride * eb, true);
    }
  }
}

/// Twiddle pass over the strided rows of an n1 x n2 static split.
void emit_twiddle_rows(cache::Cache& c, u64 base, index_t n1, index_t n2, index_t stride, u64 eb,
                       std::optional<u64> tw) {
  const index_t n = n1 * n2;
  for (index_t i = 1; i < n1; ++i) {
    const u64 row = base + static_cast<u64>(i) * n2 * stride * eb;
    index_t idx = 0;
    for (index_t j = 1; j < n2; ++j) {
      idx += i;
      if (idx >= n) idx -= n;
      if (tw) c.access(*tw + static_cast<u64>(idx) * eb, false);
      const u64 addr = row + static_cast<u64>(j) * stride * eb;
      c.access(addr, false);
      c.access(addr, true);
    }
  }
}

/// Twiddle pass over the packed columns of a two-pass ddl split.
void emit_twiddle_cols(cache::Cache& c, u64 scratch, index_t n1, index_t n2, u64 eb,
                       std::optional<u64> tw) {
  const index_t n = n1 * n2;
  for (index_t j = 1; j < n2; ++j) {
    const u64 col = scratch + static_cast<u64>(j) * n1 * eb;
    index_t idx = 0;
    for (index_t i = 1; i < n1; ++i) {
      idx += j;
      if (idx >= n) idx -= n;
      if (tw) c.access(*tw + static_cast<u64>(idx) * eb, false);
      const u64 addr = col + static_cast<u64>(i) * eb;
      c.access(addr, false);
      c.access(addr, true);
    }
  }
}

/// Fused ctddlf sweep, one column at a time: unit-stride scratch reads,
/// twiddle-table reads, strided comb writes.
void emit_twiddle_scatter(cache::Cache& c, u64 data, index_t stride, index_t n1, index_t n2,
                          u64 scratch, u64 eb, std::optional<u64> tw) {
  const index_t n = n1 * n2;
  for (index_t j = 0; j < n2; ++j) {
    const u64 col = scratch + static_cast<u64>(j) * n1 * eb;
    const u64 dst = data + static_cast<u64>(j) * stride * eb;
    index_t idx = 0;
    for (index_t i = 0; i < n1; ++i) {
      c.access(col + static_cast<u64>(i) * eb, false);
      if (j > 0 && i > 0) {
        idx += j;
        if (idx >= n) idx -= n;
        if (tw) c.access(*tw + static_cast<u64>(idx) * eb, false);
      }
      c.access(dst + static_cast<u64>(i) * n2 * stride * eb, true);
    }
  }
}

/// layout::transpose_gather (to_scratch) or transpose_scatter between the
/// strided n1 x n2 node at `data` and its packed copy at `scratch`, in the
/// layout routines' 16x16 tile order.
void emit_transpose(cache::Cache& c, u64 data, index_t stride, index_t n1, index_t n2,
                    u64 scratch, u64 eb, bool to_scratch) {
  for (index_t jb = 0; jb < n2; jb += kTile) {
    const index_t je = std::min(jb + kTile, n2);
    for (index_t ib = 0; ib < n1; ib += kTile) {
      const index_t ie = std::min(ib + kTile, n1);
      for (index_t j = jb; j < je; ++j) {
        const u64 packed = scratch + static_cast<u64>(j) * n1 * eb;
        const u64 strided = data + static_cast<u64>(j) * stride * eb;
        for (index_t i = ib; i < ie; ++i) {
          const u64 p = packed + static_cast<u64>(i) * eb;
          const u64 q = strided + static_cast<u64>(i) * n2 * stride * eb;
          c.access(to_scratch ? q : p, false);
          c.access(to_scratch ? p : q, true);
        }
      }
    }
  }
}

/// layout::stride_permute_inplace: transpose_gather(n/m, m) + linear unpack.
void emit_permute(cache::Cache& c, u64 base, index_t stride, index_t n, index_t m, u64 scratch,
                  u64 eb) {
  emit_transpose(c, base, stride, n / m, m, scratch, eb, /*to_scratch=*/true);
  for (index_t k = 0; k < n; ++k) {
    c.access(scratch + static_cast<u64>(k) * eb, false);
    c.access(base + static_cast<u64>(k) * stride * eb, true);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FftTracer
// ---------------------------------------------------------------------------

FftTracer::FftTracer(cache::Cache& cache, TraceOptions opts) : cache_(cache), opts_(opts) {
  DDL_REQUIRE(opts_.elem_bytes > 0, "element size must be positive");
}

void FftTracer::run(const plan::Node& tree) {
  const std::uint64_t line = cache_.config().line_bytes;
  auto align = [line](std::uint64_t a) { return (a + line - 1) / line * line; };
  data_base_ = 0;
  arena_base_ = align(static_cast<std::uint64_t>(tree.n) * opts_.elem_bytes);
  next_region_ = align(arena_base_ + 2 * static_cast<std::uint64_t>(tree.n) * opts_.elem_bytes);
  twiddle_regions_.clear();
  node(tree, data_base_, 1, arena_base_);
}

std::optional<std::uint64_t> FftTracer::twiddle_table(index_t n) {
  if (!opts_.include_twiddles) return std::nullopt;
  auto it = twiddle_regions_.find(n);
  if (it != twiddle_regions_.end()) return it->second;
  const std::uint64_t base = next_region_;
  const std::uint64_t line = cache_.config().line_bytes;
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * opts_.elem_bytes;
  next_region_ = (base + bytes + line - 1) / line * line;
  twiddle_regions_.emplace(n, base);
  return base;
}

void FftTracer::node(const plan::Node& nd, std::uint64_t base, index_t stride,
                     std::uint64_t arena) {
  const std::uint64_t eb = opts_.elem_bytes;
  if (nd.is_leaf()) {
    if (nd.stockham) {
      emit_stockham(cache_, base, nd.n, stride, arena, eb, twiddle_table(nd.n));
    } else {
      emit_leaf(cache_, base, nd.n, stride, eb);
    }
    return;
  }
  const index_t n = nd.n;
  const index_t n1 = nd.left->n;
  const index_t n2 = nd.right->n;

  if (nd.ddl) {
    emit_transpose(cache_, base, stride, n1, n2, arena, eb, /*to_scratch=*/true);
    const std::uint64_t child_arena = arena + static_cast<std::uint64_t>(n) * eb;
    for (index_t j = 0; j < n2; ++j) {
      node(*nd.left, arena + static_cast<std::uint64_t>(j) * n1 * eb, 1, child_arena);
    }
    if (nd.fused) {
      emit_twiddle_scatter(cache_, base, stride, n1, n2, arena, eb, twiddle_table(n));
    } else {
      emit_twiddle_cols(cache_, arena, n1, n2, eb, twiddle_table(n));
      emit_transpose(cache_, base, stride, n1, n2, arena, eb, /*to_scratch=*/false);
    }
  } else {
    for (index_t j = 0; j < n2; ++j) {
      node(*nd.left, base + static_cast<std::uint64_t>(j) * stride * eb, stride * n2, arena);
    }
    emit_twiddle_rows(cache_, base, n1, n2, stride, eb, twiddle_table(n));
  }

  for (index_t i = 0; i < n1; ++i) {
    node(*nd.right, base + static_cast<std::uint64_t>(i) * n2 * stride * eb, stride, arena);
  }

  emit_permute(cache_, base, stride, n, n2, arena, eb);
}

// ---------------------------------------------------------------------------
// WhtTracer
// ---------------------------------------------------------------------------

WhtTracer::WhtTracer(cache::Cache& cache, TraceOptions opts) : cache_(cache), opts_(opts) {
  DDL_REQUIRE(opts_.elem_bytes > 0, "element size must be positive");
}

void WhtTracer::run(const plan::Node& tree) {
  const std::uint64_t line = cache_.config().line_bytes;
  data_base_ = 0;
  arena_base_ = (static_cast<std::uint64_t>(tree.n) * opts_.elem_bytes + line - 1) / line * line;
  node(tree, data_base_, 1, arena_base_);
}

void WhtTracer::node(const plan::Node& nd, std::uint64_t base, index_t stride,
                     std::uint64_t arena) {
  const std::uint64_t eb = opts_.elem_bytes;
  if (nd.is_leaf()) {
    emit_leaf(cache_, base, nd.n, stride, eb);
    return;
  }
  const index_t n = nd.n;
  const index_t n1 = nd.left->n;
  const index_t n2 = nd.right->n;

  for (index_t i = 0; i < n1; ++i) {
    node(*nd.right, base + static_cast<std::uint64_t>(i) * n2 * stride * eb, stride, arena);
  }

  if (nd.ddl) {
    emit_transpose(cache_, base, stride, n1, n2, arena, eb, /*to_scratch=*/true);
    const std::uint64_t child_arena = arena + static_cast<std::uint64_t>(n) * eb;
    for (index_t j = 0; j < n2; ++j) {
      node(*nd.left, arena + static_cast<std::uint64_t>(j) * n1 * eb, 1, child_arena);
    }
    emit_transpose(cache_, base, stride, n1, n2, arena, eb, /*to_scratch=*/false);
  } else {
    for (index_t j = 0; j < n2; ++j) {
      node(*nd.left, base + static_cast<std::uint64_t>(j) * stride * eb, stride * n2, arena);
    }
  }
}

// ---------------------------------------------------------------------------

void replay_pass(const verify::cachepred::AccessPass& pass, cache::Cache& l1, cache::Cache* l2) {
  verify::cachepred::walk_pass(pass, [&](std::uint64_t addr, bool is_write) {
    if (!l1.access(addr, is_write) && l2 != nullptr) l2->access(addr, is_write);
  });
}

void simulate_leaf_sweep(cache::Cache& cache, index_t n, index_t stride, index_t count,
                         std::size_t elem_bytes) {
  DDL_REQUIRE(n >= 1 && stride >= 1 && count >= 1, "bad leaf sweep parameters");
  for (index_t k = 0; k < count; ++k) {
    emit_leaf(cache, static_cast<u64>(k) * elem_bytes, n, stride, elem_bytes);
  }
}

// ---------------------------------------------------------------------------
// Simulated cost oracle
// ---------------------------------------------------------------------------

std::function<double(const plan::CostKey&)> simulated_cost_oracle(OracleOptions opts) {
  // Each primitive runs alone in a fresh cache: data at 0, scratch past the
  // data's strided extent, the twiddle table past the scratch.
  return [opts](const plan::CostKey& key) -> double {
    cache::Cache c(opts.cache);
    const index_t a = key.a;
    const index_t b = key.b;
    const index_t s = key.c;
    const u64 cx = sizeof(cplx);
    const u64 re = sizeof(real_t);
    index_t invocations = 1;
    if (key.kind == "dft_leaf" || key.kind == "wht_leaf") {  // (n, stride)
      // Mirrors the wall-clock probe: consecutive base offsets for strided
      // leaves, consecutive blocks at unit stride; cost is per leaf.
      const u64 eb = key.kind == "dft_leaf" ? cx : re;
      invocations = opts.sweep_count;
      for (index_t k = 0; k < invocations; ++k) {
        emit_leaf(c, static_cast<u64>(b > 1 ? k : k * a) * eb, a, std::max<index_t>(b, 1), eb);
      }
    } else if (key.kind == "tw_rows") {  // (n, n2, stride)
      emit_twiddle_rows(c, 0, a / b, b, s, cx, static_cast<u64>(a * s) * cx);
    } else if (key.kind == "tw_cols") {  // (n, n2)
      emit_twiddle_cols(c, 0, a / b, b, cx, static_cast<u64>(a) * cx);
    } else if (key.kind == "perm") {  // (n, m, stride)
      emit_permute(c, 0, s, a, b, static_cast<u64>(a * s) * cx, cx);
    } else if (key.kind == "reorg" || key.kind == "reorg_g" || key.kind == "wht_reorg") {
      // (n1, n2, stride): the gather, then the scatter unless gather-only.
      const u64 eb = key.kind == "wht_reorg" ? re : cx;
      const u64 scratch = static_cast<u64>(a * b * s) * eb;
      emit_transpose(c, 0, s, a, b, scratch, eb, /*to_scratch=*/true);
      if (key.kind != "reorg_g") emit_transpose(c, 0, s, a, b, scratch, eb, /*to_scratch=*/false);
    } else if (key.kind == "fused_tws") {  // (n1, n2, stride)
      const u64 scratch = static_cast<u64>(a * b * s) * cx;
      emit_twiddle_scatter(c, 0, s, a, b, scratch, cx, scratch + static_cast<u64>(a * b) * cx);
    } else if (key.kind == "stockham") {  // (n, stride): two arena buffers
      const u64 arena = static_cast<u64>(a * b) * cx;
      emit_stockham(c, 0, a, b, arena, cx, arena + static_cast<u64>(2 * a) * cx);
    } else {
      throw std::invalid_argument("simulated_cost_oracle: unknown primitive kind '" + key.kind +
                                  "'");
    }
    const auto& st = c.stats();
    return (static_cast<double>(st.accesses) + opts.miss_penalty * static_cast<double>(st.misses)) /
           static_cast<double>(invocations);
  };
}

}  // namespace ddl::sim

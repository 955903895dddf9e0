// google-benchmark microbenchmarks for the hot kernels: leaf codelets at
// unit and large stride, blocked transposes, the twiddle pass, the iterative
// radix-2 baseline, and whole planned transforms. These are the per-kernel
// numbers behind the table/figure harnesses.

#include <benchmark/benchmark.h>

#include "ddl/codelets/codelets.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/fft/radix2.hpp"
#include "ddl/fft/stockham.hpp"
#include "ddl/fft/twiddle.hpp"
#include "ddl/layout/reorg.hpp"
#include "ddl/layout/stride_perm.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/wht/planner.hpp"
#include "ddl/wht/wht.hpp"

namespace {

using namespace ddl;

void BM_DftCodelet16(benchmark::State& state) {
  const index_t stride = state.range(0);
  AlignedBuffer<cplx> buf(16 * stride);
  const auto kernel = codelets::dft_kernel(16);
  index_t j = 0;
  const index_t n_offsets = stride > 1 ? stride : 1;
  for (auto _ : state) {
    kernel(buf.data() + (stride > 1 ? j : 0), stride);
    if (++j == n_offsets) j = 0;
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_DftCodelet16)->Arg(1)->Arg(64)->Arg(4096)->Arg(1 << 16);

void BM_WhtCodelet64(benchmark::State& state) {
  const index_t stride = state.range(0);
  AlignedBuffer<real_t> buf(64 * stride);
  const auto kernel = codelets::wht_kernel(64);
  for (auto _ : state) {
    kernel(buf.data(), stride);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_WhtCodelet64)->Arg(1)->Arg(1024)->Arg(1 << 15);

// Batched SIMD leaf kernels over every compiled backend: 256 unit-stride
// size-16 columns per call (dist = 16), the geometry a DDL gather produces.
// Compare against BM_DftCodelet16/Arg(1) * 256 for the per-column speedup.
void BM_DftBatch16(benchmark::State& state) {
  const auto isa = static_cast<codelets::Isa>(state.range(0));
  if (!codelets::isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host/build");
    return;
  }
  constexpr index_t kCols = 256;
  AlignedBuffer<cplx> buf(16 * kCols);
  const auto batch = codelets::dft_batch_kernel(16, isa);
  for (auto _ : state) {
    batch(buf.data(), 1, 16, kCols);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * 16 * kCols);
  state.SetLabel(codelets::isa_name(isa));
}
BENCHMARK(BM_DftBatch16)
    ->Arg(static_cast<int>(codelets::Isa::scalar))
    ->Arg(static_cast<int>(codelets::Isa::sse2))
    ->Arg(static_cast<int>(codelets::Isa::avx2))
    ->Arg(static_cast<int>(codelets::Isa::neon));

void BM_WhtBatch64(benchmark::State& state) {
  const auto isa = static_cast<codelets::Isa>(state.range(0));
  if (!codelets::isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host/build");
    return;
  }
  constexpr index_t kCols = 256;
  AlignedBuffer<real_t> buf(64 * kCols);
  const auto batch = codelets::wht_batch_kernel(64, isa);
  for (auto _ : state) {
    batch(buf.data(), 1, 64, kCols);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * kCols);
  state.SetLabel(codelets::isa_name(isa));
}
BENCHMARK(BM_WhtBatch64)
    ->Arg(static_cast<int>(codelets::Isa::scalar))
    ->Arg(static_cast<int>(codelets::Isa::sse2))
    ->Arg(static_cast<int>(codelets::Isa::avx2))
    ->Arg(static_cast<int>(codelets::Isa::neon));

void BM_TransposeGather(benchmark::State& state) {
  const index_t n1 = state.range(0);
  const index_t n2 = state.range(0);
  AlignedBuffer<cplx> data(n1 * n2);
  AlignedBuffer<cplx> scratch(n1 * n2);
  for (auto _ : state) {
    layout::transpose_gather(data.data(), 1, n1, n2, scratch.data());
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetBytesProcessed(state.iterations() * n1 * n2 * sizeof(cplx));
}
BENCHMARK(BM_TransposeGather)->Arg(64)->Arg(256)->Arg(1024);

void BM_StridePermuteInplace(benchmark::State& state) {
  const index_t n = state.range(0);
  AlignedBuffer<cplx> data(n);
  AlignedBuffer<cplx> scratch(n);
  for (auto _ : state) {
    layout::stride_permute_inplace(data.data(), 1, n, 64, scratch.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(cplx));
}
BENCHMARK(BM_StridePermuteInplace)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_TwiddlePassRows(benchmark::State& state) {
  const index_t n = state.range(0);
  const index_t n2 = 64;
  AlignedBuffer<cplx> data(n);
  fft::TwiddleCache cache;
  const cplx* w = cache.ensure(n / n2, n2);
  for (auto _ : state) {
    fft::detail::twiddle_pass_rows(data.data(), 1, n / n2, n2, w);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TwiddlePassRows)->Arg(1 << 12)->Arg(1 << 16);

void BM_Radix2(benchmark::State& state) {
  const index_t n = state.range(0);
  fft::Radix2Fft fft(n);
  AlignedBuffer<cplx> data(n);
  for (auto _ : state) {
    fft.forward(data.span());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Radix2)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_Stockham(benchmark::State& state) {
  const index_t n = state.range(0);
  fft::StockhamFft fft(n);
  AlignedBuffer<cplx> data(n);
  for (auto _ : state) {
    fft.forward(data.span());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Stockham)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_TreeExecSdl(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto tree = fft::rightmost_tree(n, 32);
  fft::FftExecutor exec(*tree);
  AlignedBuffer<cplx> data(n);
  for (auto _ : state) {
    exec.forward(data.span());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TreeExecSdl)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_TreeExecDdl(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto tree = fft::balanced_tree(n, 32, 1 << 14);
  fft::FftExecutor exec(*tree);
  AlignedBuffer<cplx> data(n);
  for (auto _ : state) {
    exec.forward(data.span());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TreeExecDdl)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_WhtExec(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto tree = wht::balanced_wht_tree(n, 64, 1 << 15);
  wht::WhtExecutor exec(*tree);
  AlignedBuffer<real_t> data(n);
  for (auto _ : state) {
    exec.transform(data.span());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WhtExec)->Arg(1 << 12)->Arg(1 << 18);

}  // namespace

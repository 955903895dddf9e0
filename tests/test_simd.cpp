// SIMD codelet backend suite (ctest label `simd`; see docs/SIMD.md).
//
// The contract under test: for every registered codelet size and every
// ISA level supported by this build+host, the batched vector kernel agrees
// with the scalar reference codelet within 2 ULP per element, across the
// batch geometries the executors and planner actually emit (contiguous
// columns, interleaved strided columns, fan-out subranges, odd tail
// counts). Plus the dispatch plumbing: parse_isa/DDL_SIMD semantics,
// clamping of unsupported requests, and executor-level scalar-vs-vector
// agreement on whole transforms.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "ddl/codelets/codelets.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/common/types.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/fft/fft.hpp"
#include "ddl/layout/twiddle_scatter.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/wht/wht.hpp"

namespace {

using namespace ddl;

/// |a - b| measured in ULPs of the wider magnitude; 0 when bit-equal.
/// Walks nextafter steps (cheap for the small bounds we assert).
int ulp_distance(double a, double b, int limit = 64) {
  if (a == b) return 0;
  if (!std::isfinite(a) || !std::isfinite(b)) return limit;
  double lo = std::min(a, b);
  const double hi = std::max(a, b);
  for (int steps = 1; steps <= limit; ++steps) {
    lo = std::nextafter(lo, hi);
    if (lo == hi) return steps;
  }
  return limit;
}

::testing::AssertionResult within_2ulp(const cplx* got, const cplx* want, index_t count,
                                       const std::string& what) {
  for (index_t i = 0; i < count; ++i) {
    const int dr = ulp_distance(got[i].real(), want[i].real());
    const int di = ulp_distance(got[i].imag(), want[i].imag());
    if (dr > 2 || di > 2) {
      return ::testing::AssertionFailure()
             << what << ": element " << i << " differs by (" << dr << ", " << di
             << ") ULP: got (" << got[i].real() << ", " << got[i].imag() << ") want ("
             << want[i].real() << ", " << want[i].imag() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult within_2ulp(const real_t* got, const real_t* want, index_t count,
                                       const std::string& what) {
  for (index_t i = 0; i < count; ++i) {
    const int d = ulp_distance(got[i], want[i]);
    if (d > 2) {
      return ::testing::AssertionFailure() << what << ": element " << i << " differs by " << d
                                           << " ULP: got " << got[i] << " want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<codelets::Isa> supported_isas() {
  std::vector<codelets::Isa> out;
  for (const auto isa : {codelets::Isa::scalar, codelets::Isa::sse2, codelets::Isa::avx2,
                         codelets::Isa::neon}) {
    if (codelets::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// RAII restore of the process-wide dispatched ISA.
struct ActiveIsaGuard {
  codelets::Isa saved = codelets::active_isa();
  ~ActiveIsaGuard() { codelets::set_active_isa(saved); }
};

/// The batch geometries the executors and planner probes emit:
/// {s, dist} as functions of (n, count).
struct Geometry {
  const char* name;
  index_t (*s)(index_t n, index_t count);
  index_t (*dist)(index_t n, index_t count);
};

constexpr Geometry kGeometries[] = {
    // Contiguous columns: transform j owns [j*n, (j+1)*n) — the DDL
    // gather/scratch layout and the unit-stride planner probe.
    {"contiguous", [](index_t, index_t) -> index_t { return 1; },
     [](index_t n, index_t) -> index_t { return n; }},
    // Interleaved columns: element i of transform j at j + i*count — the
    // static-layout column loop and the strided planner probe.
    {"interleaved", [](index_t, index_t count) -> index_t { return count; },
     [](index_t, index_t) -> index_t { return 1; }},
    // Padded interleave: stride 2*count, dist 3 — nothing the executor
    // emits, but exercises fully general (s, dist) addressing.
    {"padded", [](index_t, index_t count) -> index_t { return 2 * count; },
     [](index_t, index_t) -> index_t { return 3; }},
};

index_t span_needed(index_t n, index_t s, index_t dist, index_t count) {
  return (count - 1) * dist + (n - 1) * s + 1;
}

TEST(SimdDispatch, ScalarBackendAlwaysResolves) {
  EXPECT_TRUE(codelets::isa_supported(codelets::Isa::scalar));
  EXPECT_EQ(codelets::isa_lanes(codelets::Isa::scalar), 1);
  for (const index_t n : codelets::dft_codelet_sizes()) {
    EXPECT_NE(codelets::dft_batch_kernel(n, codelets::Isa::scalar), nullptr) << "dft n=" << n;
  }
  for (const index_t n : codelets::wht_codelet_sizes()) {
    EXPECT_NE(codelets::wht_batch_kernel(n, codelets::Isa::scalar), nullptr) << "wht n=" << n;
  }
  // Non-codelet sizes have no batched kernel at any level.
  EXPECT_EQ(codelets::dft_batch_kernel(11, codelets::Isa::scalar), nullptr);
  EXPECT_EQ(codelets::wht_batch_kernel(3, codelets::Isa::scalar), nullptr);
}

TEST(SimdDispatch, SupportedIsaListIsConsistent) {
  const auto isas = supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), codelets::Isa::scalar);
  // best_isa is supported and no supported level outranks it.
  EXPECT_TRUE(codelets::isa_supported(codelets::best_isa()));
  for (const auto isa : isas) {
    EXPECT_LE(static_cast<int>(isa), static_cast<int>(codelets::best_isa()));
    EXPECT_GE(codelets::isa_lanes(isa), 1);
    EXPECT_LE(codelets::isa_lanes(isa), codelets::max_batch_lanes());
  }
}

TEST(SimdDispatch, SetActiveIsaClampsToSupported) {
  const ActiveIsaGuard guard;
  for (const auto request : {codelets::Isa::scalar, codelets::Isa::sse2, codelets::Isa::avx2,
                             codelets::Isa::neon}) {
    const codelets::Isa installed = codelets::set_active_isa(request);
    EXPECT_TRUE(codelets::isa_supported(installed));
    EXPECT_EQ(codelets::active_isa(), installed);
    if (codelets::isa_supported(request)) {
      EXPECT_EQ(installed, request) << "supported request must install verbatim";
    }
  }
}

TEST(SimdDispatch, ParseIsaAcceptsDdlSimdSelectors) {
  using codelets::Isa;
  EXPECT_EQ(codelets::parse_isa("scalar"), Isa::scalar);
  EXPECT_EQ(codelets::parse_isa("off"), Isa::scalar);
  EXPECT_EQ(codelets::parse_isa("0"), Isa::scalar);
  EXPECT_EQ(codelets::parse_isa("none"), Isa::scalar);
  EXPECT_EQ(codelets::parse_isa("sse2"), Isa::sse2);
  EXPECT_EQ(codelets::parse_isa("avx2"), Isa::avx2);
  EXPECT_EQ(codelets::parse_isa("neon"), Isa::neon);
  EXPECT_EQ(codelets::parse_isa("native"), codelets::best_isa());
  EXPECT_EQ(codelets::parse_isa("on"), codelets::best_isa());
  EXPECT_EQ(codelets::parse_isa("1"), codelets::best_isa());
  EXPECT_EQ(codelets::parse_isa("avx512"), std::nullopt);
  EXPECT_EQ(codelets::parse_isa(""), std::nullopt);
}

TEST(SimdDispatch, IsaNamesRoundTrip) {
  for (const auto isa : {codelets::Isa::scalar, codelets::Isa::sse2, codelets::Isa::avx2,
                         codelets::Isa::neon}) {
    EXPECT_EQ(codelets::parse_isa(codelets::isa_name(isa)), isa);
  }
}

// The core acceptance test: every codelet size x every supported ISA x
// every batch geometry x counts that cover full-lane groups, tails, and
// the degenerate count=1 call, against the scalar codelet applied
// column-by-column.
TEST(SimdKernels, DftBatchMatchesScalarWithin2Ulp) {
  const int lanes = codelets::max_batch_lanes();
  const std::vector<index_t> counts = {1, 2, 3, static_cast<index_t>(lanes),
                                       static_cast<index_t>(2 * lanes + 1), 13};
  std::uint64_t seed = 7;
  for (const auto isa : supported_isas()) {
    for (const index_t n : codelets::dft_codelet_sizes()) {
      const auto batch = codelets::dft_batch_kernel(n, isa);
      ASSERT_NE(batch, nullptr) << "isa=" << codelets::isa_name(isa) << " n=" << n;
      const auto scalar = codelets::dft_kernel(n);
      ASSERT_NE(scalar, nullptr);
      for (const index_t count : counts) {
        for (const Geometry& g : kGeometries) {
          const index_t s = g.s(n, count);
          const index_t dist = g.dist(n, count);
          const index_t span = span_needed(n, s, dist, count);
          AlignedBuffer<cplx> got(span);
          AlignedBuffer<cplx> want(span);
          fill_random(got.span(), ++seed);
          std::copy(got.data(), got.data() + span, want.data());
          batch(got.data(), s, dist, count);
          for (index_t j = 0; j < count; ++j) scalar(want.data() + j * dist, s);
          EXPECT_TRUE(within_2ulp(got.data(), want.data(), span,
                                  std::string("dft ") + codelets::isa_name(isa) + " n=" +
                                      std::to_string(n) + " count=" + std::to_string(count) +
                                      " " + g.name));
        }
      }
    }
  }
}

TEST(SimdKernels, WhtBatchMatchesScalarWithin2Ulp) {
  const int lanes = codelets::max_batch_lanes();
  const std::vector<index_t> counts = {1, 2, 3, static_cast<index_t>(lanes),
                                       static_cast<index_t>(2 * lanes + 1), 13};
  std::uint64_t seed = 42;
  for (const auto isa : supported_isas()) {
    for (const index_t n : codelets::wht_codelet_sizes()) {
      const auto batch = codelets::wht_batch_kernel(n, isa);
      ASSERT_NE(batch, nullptr) << "isa=" << codelets::isa_name(isa) << " n=" << n;
      const auto scalar = codelets::wht_kernel(n);
      ASSERT_NE(scalar, nullptr);
      for (const index_t count : counts) {
        for (const Geometry& g : kGeometries) {
          const index_t s = g.s(n, count);
          const index_t dist = g.dist(n, count);
          const index_t span = span_needed(n, s, dist, count);
          AlignedBuffer<real_t> got(span);
          AlignedBuffer<real_t> want(span);
          fill_random(got.span(), ++seed);
          std::copy(got.data(), got.data() + span, want.data());
          batch(got.data(), s, dist, count);
          for (index_t j = 0; j < count; ++j) scalar(want.data() + j * dist, s);
          EXPECT_TRUE(within_2ulp(got.data(), want.data(), span,
                                  std::string("wht ") + codelets::isa_name(isa) + " n=" +
                                      std::to_string(n) + " count=" + std::to_string(count) +
                                      " " + g.name));
        }
      }
    }
  }
}

/// The twiddle matrix the fused kernel reads, M(n2,n1) of fft/twiddle.hpp:
/// w[j*n1 + i] = W_n^{i*j}, n = n1*n2.
std::vector<cplx> twiddle_matrix(index_t n1, index_t n2) {
  const index_t n = n1 * n2;
  std::vector<cplx> w(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n2; ++j) {
    for (index_t i = 0; i < n1; ++i) {
      const double ang =
          -2.0 * std::acos(-1.0) * static_cast<double>(i * j) / static_cast<double>(n);
      w[static_cast<std::size_t>(j * n1 + i)] = std::polar(1.0, ang);
    }
  }
  return w;
}

// Fused twiddle+scatter: every SIMD backend must agree with the serial
// scalar reference (layout::twiddle_scatter_ref) within 2 ULP across
// geometries — square/rectangular matrices, strided combs, and column
// heights that leave a scalar remainder after the vector groups.
TEST(SimdKernels, TwiddleScatterMatchesScalarRefWithin2Ulp) {
  struct Geo {
    index_t n1, n2, stride;
  };
  const Geo geos[] = {{4, 4, 1},   {8, 5, 1},   {5, 7, 2},  {16, 64, 1},
                      {32, 32, 1}, {32, 48, 3}, {64, 16, 2}};
  std::uint64_t seed = 11;
  for (const auto isa : supported_isas()) {
    const auto kernel = codelets::twiddle_scatter_kernel(isa);
    ASSERT_NE(kernel, nullptr) << codelets::isa_name(isa);
    for (const Geo& g : geos) {
      const index_t n = g.n1 * g.n2;
      const std::vector<cplx> w = twiddle_matrix(g.n1, g.n2);
      AlignedBuffer<cplx> scratch(n);
      fill_random(scratch.span(), ++seed);
      const index_t span = (n - 1) * g.stride + 1;
      AlignedBuffer<cplx> got(span);
      AlignedBuffer<cplx> want(span);
      fill_random(got.span(), ++seed);
      std::copy(got.data(), got.data() + span, want.data());
      kernel(got.data(), g.stride, scratch.data(), w.data(), n, g.n1, g.n2, 0, g.n2);
      layout::twiddle_scatter_ref(want.data(), g.stride, scratch.data(), w.data(), g.n1,
                                  g.n2);
      EXPECT_TRUE(within_2ulp(got.data(), want.data(), span,
                              std::string("twiddle_scatter ") + codelets::isa_name(isa) +
                                  " n1=" + std::to_string(g.n1) +
                                  " n2=" + std::to_string(g.n2) +
                                  " stride=" + std::to_string(g.stride)));
    }
  }
}

// Column-range decomposition: running the fused kernel over [0, mid) and
// [mid, n2) must write exactly what one full-range call writes — the
// property the executor's parallel_for split relies on.
TEST(SimdKernels, TwiddleScatterColumnRangesCompose) {
  const index_t n1 = 32;
  const index_t n2 = 24;
  const index_t n = n1 * n2;
  const std::vector<cplx> w = twiddle_matrix(n1, n2);
  AlignedBuffer<cplx> scratch(n);
  fill_random(scratch.span(), 23);
  for (const auto isa : supported_isas()) {
    const auto kernel = codelets::twiddle_scatter_kernel(isa);
    ASSERT_NE(kernel, nullptr);
    AlignedBuffer<cplx> whole(n);
    AlignedBuffer<cplx> split(n);
    fill_random(whole.span(), 29);
    std::copy(whole.data(), whole.data() + n, split.data());
    kernel(whole.data(), 1, scratch.data(), w.data(), n, n1, n2, 0, n2);
    kernel(split.data(), 1, scratch.data(), w.data(), n, n1, n2, 0, 7);
    kernel(split.data(), 1, scratch.data(), w.data(), n, n1, n2, 7, n2);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(split[i], whole[i]) << codelets::isa_name(isa) << " element " << i;
    }
  }
}

// Untouched gaps: a batch call must write only its columns' elements.
TEST(SimdKernels, BatchLeavesGapsUntouched) {
  for (const auto isa : supported_isas()) {
    const index_t n = 8;
    const index_t count = 5;
    const index_t dist = 2 * n;  // gap of n elements between columns
    const auto batch = codelets::dft_batch_kernel(n, isa);
    ASSERT_NE(batch, nullptr);
    const index_t span = span_needed(n, 1, dist, count);
    AlignedBuffer<cplx> buf(span);
    fill_random(buf.span(), 99);
    std::vector<cplx> before(buf.data(), buf.data() + span);
    batch(buf.data(), 1, dist, count);
    for (index_t j = 0; j + 1 < count; ++j) {
      for (index_t i = j * dist + n; i < (j + 1) * dist; ++i) {
        EXPECT_EQ(buf.data()[i], before[i])
            << codelets::isa_name(isa) << ": gap element " << i << " was clobbered";
      }
    }
  }
}

// Whole-transform agreement: the same plan run with the scalar backend and
// with each vector backend. The executors traverse an identical expression
// DAG either way, so the outputs must agree to 2 ULP elementwise.
TEST(SimdExecutor, FftScalarAndVectorBackendsAgree) {
  const ActiveIsaGuard guard;
  const auto tree = plan::parse_tree("ctddl(32,ct(32,32))");
  ASSERT_NE(tree, nullptr);
  const index_t n = tree->n;
  AlignedBuffer<cplx> input(n);
  fill_random(input.span(), 5);

  codelets::set_active_isa(codelets::Isa::scalar);
  fft::FftExecutor scalar_exec(*tree);
  AlignedBuffer<cplx> scalar_out(n);
  std::copy(input.data(), input.data() + n, scalar_out.data());
  scalar_exec.forward(scalar_out.span());

  for (const auto isa : supported_isas()) {
    if (isa == codelets::Isa::scalar) continue;
    codelets::set_active_isa(isa);
    fft::FftExecutor exec(*tree);
    AlignedBuffer<cplx> out(n);
    std::copy(input.data(), input.data() + n, out.data());
    exec.forward(out.span());
    EXPECT_TRUE(within_2ulp(out.data(), scalar_out.data(), n,
                            std::string("fft backend ") + codelets::isa_name(isa)));
  }
}

TEST(SimdExecutor, WhtScalarAndVectorBackendsAgree) {
  const ActiveIsaGuard guard;
  const auto tree = plan::parse_tree("ctddl(64,ct(64,16))");
  ASSERT_NE(tree, nullptr);
  const index_t n = tree->n;
  AlignedBuffer<real_t> input(n);
  fill_random(input.span(), 6);

  codelets::set_active_isa(codelets::Isa::scalar);
  wht::WhtExecutor scalar_exec(*tree);
  AlignedBuffer<real_t> scalar_out(n);
  std::copy(input.data(), input.data() + n, scalar_out.data());
  scalar_exec.transform(scalar_out.span());

  for (const auto isa : supported_isas()) {
    if (isa == codelets::Isa::scalar) continue;
    codelets::set_active_isa(isa);
    wht::WhtExecutor exec(*tree);
    AlignedBuffer<real_t> out(n);
    std::copy(input.data(), input.data() + n, out.data());
    exec.transform(out.span());
    EXPECT_TRUE(within_2ulp(out.data(), scalar_out.data(), n,
                            std::string("wht backend ") + codelets::isa_name(isa)));
  }
}

// Round-trip through the executor still inverts under every backend.
TEST(SimdExecutor, ForwardInverseRoundTripUnderVectorBackend) {
  const ActiveIsaGuard guard;
  const auto tree = plan::parse_tree("ctddl(16,ct(16,16))");
  ASSERT_NE(tree, nullptr);
  const index_t n = tree->n;
  for (const auto isa : supported_isas()) {
    codelets::set_active_isa(isa);
    fft::FftExecutor exec(*tree);
    AlignedBuffer<cplx> data(n);
    fill_random(data.span(), 11);
    std::vector<cplx> original(data.data(), data.data() + n);
    exec.forward(data.span());
    exec.inverse(data.span());
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(data.data()[i].real(), original[i].real(), 1e-9)
          << codelets::isa_name(isa) << " i=" << i;
      EXPECT_NEAR(data.data()[i].imag(), original[i].imag(), 1e-9)
          << codelets::isa_name(isa) << " i=" << i;
    }
  }
}

}  // namespace

// Correctness tests for the FFT engines: the tree executor (SDL and DDL
// nodes, arbitrary mixed-radix trees) against the O(n^2) reference, the
// iterative radix-2 baseline, twiddle matrices, and the public Fft facade.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "ddl/codelets/codelets.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/fft/fft.hpp"
#include "ddl/fft/radix2.hpp"
#include "ddl/fft/reference.hpp"
#include "ddl/fft/stockham.hpp"
#include "ddl/fft/twiddle.hpp"
#include "ddl/plan/grammar.hpp"

namespace ddl::fft {
namespace {

/// Forward-transform `grammar` on seeded random input; expect the reference.
void expect_tree_matches_reference(const std::string& grammar, std::uint64_t seed = 42) {
  auto tree = plan::parse_tree(grammar);
  const index_t n = tree->n;
  AlignedBuffer<cplx> x(n);
  fill_random(x.span(), seed);
  std::vector<cplx> input(x.begin(), x.end());
  std::vector<cplx> expect(static_cast<std::size_t>(n));
  dft_reference(std::span<const cplx>(input), std::span<cplx>(expect));

  execute_tree(*tree, x.span());
  EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(expect)), 1e-9 * n) << grammar;
}

// ---------------------------------------------------------------------------
// Tree executor vs reference
// ---------------------------------------------------------------------------

class TreeVsReference : public ::testing::TestWithParam<const char*> {};

TEST_P(TreeVsReference, ForwardMatches) { expect_tree_matches_reference(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    SdlTrees, TreeVsReference,
    ::testing::Values("ct(2,2)", "ct(4,4)", "ct(2,3)", "ct(3,2)", "ct(5,7)", "ct(16,16)",
                      "ct(32,32)", "ct(2,ct(2,2))", "ct(ct(4,4),ct(4,4))", "ct(16,ct(16,16))",
                      "ct(ct(16,16),16)", "ct(12,ct(9,5))", "ct(7,ct(3,ct(2,5)))"));

INSTANTIATE_TEST_SUITE_P(
    DdlTrees, TreeVsReference,
    ::testing::Values("ctddl(2,2)", "ctddl(4,4)", "ctddl(16,16)", "ctddl(32,32)",
                      "ctddl(3,5)", "ctddl(ct(4,4),ct(4,4))", "ctddl(ctddl(16,16),16)",
                      "ct(ctddl(8,8),ctddl(8,8))", "ctddl(ctddl(4,8),ctddl(8,4))",
                      "ctddl(12,ctddl(9,5))"));

INSTANTIATE_TEST_SUITE_P(
    DirectFallbackLeaves, TreeVsReference,
    ::testing::Values("11", "13", "ct(11,4)", "ct(4,11)", "ctddl(13,8)", "ct(11,ct(13,2))"));

INSTANTIATE_TEST_SUITE_P(
    FusedTrees, TreeVsReference,
    ::testing::Values("ctddlf(2,2)", "ctddlf(4,4)", "ctddlf(16,16)", "ctddlf(32,32)",
                      "ctddlf(3,5)", "ctddlf(ct(4,4),ct(4,4))", "ctddlf(ctddlf(16,16),16)",
                      "ctddl(ctddlf(8,8),ctddlf(8,8))", "ctddlf(12,ctddl(9,5))"));

INSTANTIATE_TEST_SUITE_P(
    StockhamLeaves, TreeVsReference,
    ::testing::Values("st(2)", "st(8)", "st(64)", "st(1024)", "ct(st(32),32)",
                      "ct(32,st(32))", "ctddl(st(16),st(64))", "ctddlf(st(32),st(32))"));

// The fused twiddle+scatter pass must be BITWISE identical to the two-pass
// (twiddle columns, then transpose-scatter) path it replaces — same products
// in the same order, contraction off in both owning TUs. Exact equality, at
// every thread count: the parallel column split may not change a single bit.
TEST(TreeExecutor, FusedPathBitwiseIdenticalToTwoPass) {
  struct Shape {
    const char* two_pass;
    const char* fused;
  };
  const Shape shapes[] = {
      {"ctddl(32,32)", "ctddlf(32,32)"},
      {"ctddl(16,64)", "ctddlf(16,64)"},
      {"ctddl(12,ctddl(9,5))", "ctddlf(12,ctddl(9,5))"},
      {"ctddl(ctddl(32,32),ctddl(32,32))", "ctddlf(ctddl(32,32),ctddl(32,32))"},
  };
  const int saved_threads = parallel::max_threads();
  for (const int threads : {1, 2, 4}) {
    parallel::set_threads(threads);
    for (const Shape& s : shapes) {
      const auto two = plan::parse_tree(s.two_pass);
      const auto fused = plan::parse_tree(s.fused);
      ASSERT_EQ(two->n, fused->n);
      const index_t n = two->n;
      AlignedBuffer<cplx> a(n);
      AlignedBuffer<cplx> b(n);
      fill_random(a.span(), 314);
      for (index_t i = 0; i < n; ++i) b[i] = a[i];
      FftExecutor(*two).forward(a.span());
      FftExecutor(*fused).forward(b.span());
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(a[i].real(), b[i].real())
            << s.fused << " threads=" << threads << " element " << i;
        ASSERT_EQ(a[i].imag(), b[i].imag())
            << s.fused << " threads=" << threads << " element " << i;
      }
    }
  }
  parallel::set_threads(saved_threads);
}

/// FNV-1a over the raw bytes of a transform's output.
std::uint64_t output_hash(std::span<const cplx> x) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const cplx& v : x) {
    for (const double part : {v.real(), v.imag()}) {
      const auto bits = std::bit_cast<std::uint64_t>(part);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

// The bytes forward() writes, pinned per tree: static, ddl, fused, ragged
// and Stockham trees, each run under every supported batched-kernel ISA and
// at one and at four pool lanes, all of which must give the recorded bytes.
// Any change to the executor's arithmetic — twiddle values, operation
// order, kernel choice — shows here.
TEST(ExecutorPin, ForwardOutputBytesAreRecorded) {
  const struct {
    const char* tree;
    std::uint64_t hash;
  } pins[] = {
      {"ct(64,64)", 0xac3dbbc747433b66ULL},
      {"ct(32,ctddl(8,16))", 0x57a3d50b7a55be29ULL},
      {"ct(16,ct(16,ct(16,16)))", 0xba4a5e882b560426ULL},
      {"ctddl(ct(8,8),ctddl(8,16))", 0x1f174e31dae24768ULL},
      {"ctddl(ct(16,16),ct(16,16))", 0x425b9cd493b29c60ULL},
      {"ctddlf(ctddlf(16,16),16)", 0x1ddee01a8f884405ULL},
      {"ctddlf(ct(8,16),ct(16,16))", 0x302c1b10b3da6775ULL},
      {"ctddlf(24,ct(9,5))", 0xe7d07ed76832e2c4ULL},
      {"ct(st(64),st(256))", 0xe489d1b23593aab7ULL},
      {"ctddlf(st(128),st(128))", 0xe2f7a71a14dd448aULL},
      {"st(4096)", 0x19f31f26011c75d6ULL},
  };
  const codelets::Isa saved_isa = codelets::active_isa();
  const int saved_threads = parallel::max_threads();
  for (const auto isa : {codelets::Isa::scalar, codelets::Isa::sse2, codelets::Isa::avx2,
                         codelets::Isa::neon}) {
    if (!codelets::isa_supported(isa)) continue;
    codelets::set_active_isa(isa);
    for (const auto& p : pins) {
      const auto tree = plan::parse_tree(p.tree);
      for (const int threads : {1, 4}) {
        parallel::set_threads(threads);
        AlignedBuffer<cplx> x(tree->n);
        fill_random(x.span(), 2024);
        FftExecutor(*tree).forward(x.span());
        EXPECT_EQ(output_hash(x.span()), p.hash)
            << p.tree << " isa=" << codelets::isa_name(isa) << " threads=" << threads;
      }
    }
  }
  parallel::set_threads(saved_threads);
  codelets::set_active_isa(saved_isa);
}

TEST(TreeExecutor, StockhamLeafLargeAgainstRadix2) {
  // Strided and unit-stride Stockham embeddings at a size where the O(n^2)
  // reference is too slow; radix-2 is the independent cross-check.
  const index_t n = 1 << 16;
  for (const char* grammar : {"st(65536)", "ctddl(st(256),256)", "ct(256,st(256))"}) {
    auto tree = plan::parse_tree(grammar);
    ASSERT_EQ(tree->n, n) << grammar;
    AlignedBuffer<cplx> a(n);
    AlignedBuffer<cplx> b(n);
    fill_random(a.span(), 88);
    for (index_t i = 0; i < n; ++i) b[i] = a[i];
    execute_tree(*tree, a.span());
    Radix2Fft r2(n);
    r2.forward(b.span());
    EXPECT_LT(max_abs_diff(a.span(), b.span()), 1e-8 * std::sqrt(static_cast<double>(n)))
        << grammar;
  }
}

TEST(TreeExecutor, SdlAndDdlFlagsGiveSameAnswer) {
  // Toggling ddl flags changes the memory access strategy, never the math.
  const index_t n = 4096;
  AlignedBuffer<cplx> a(n);
  AlignedBuffer<cplx> b(n);
  fill_random(a.span(), 5);
  for (index_t i = 0; i < n; ++i) b[i] = a[i];

  execute_tree(*plan::parse_tree("ct(ct(16,16),16)"), a.span());
  execute_tree(*plan::parse_tree("ctddl(ctddl(16,16),16)"), b.span());
  EXPECT_LT(max_abs_diff(a.span(), b.span()), 1e-10 * n);
}

TEST(TreeExecutor, LargePow2AgainstRadix2) {
  // Cross-check a large size against the independent radix-2 implementation
  // (the O(n^2) reference would be too slow here).
  const index_t n = 1 << 18;
  AlignedBuffer<cplx> a(n);
  AlignedBuffer<cplx> b(n);
  fill_random(a.span(), 77);
  for (index_t i = 0; i < n; ++i) b[i] = a[i];

  execute_tree(*plan::parse_tree("ctddl(ct(32,16),ctddl(16,32))"), a.span());
  Radix2Fft r2(n);
  r2.forward(b.span());
  EXPECT_LT(max_abs_diff(a.span(), b.span()), 1e-8 * std::sqrt(static_cast<double>(n)));
}

class RoundTripParam : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripParam, InverseUndoesForward) {
  auto tree = plan::parse_tree(GetParam());
  const index_t n = tree->n;
  AlignedBuffer<cplx> x(n);
  fill_random(x.span(), 9);
  std::vector<cplx> original(x.begin(), x.end());

  FftExecutor exec(*tree);
  exec.forward(x.span());
  exec.inverse(x.span());
  EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(original)), 1e-11 * n) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Trees, RoundTripParam,
                         ::testing::Values("8", "ct(16,16)", "ctddl(32,32)",
                                           "ctddl(ct(16,16),ctddl(16,16))", "ct(7,ct(9,5))",
                                           "ctddlf(32,32)", "ctddlf(16,ctddlf(8,8))",
                                           "st(256)", "ct(st(32),32)"));

TEST(TreeExecutor, SizeMismatchThrows) {
  FftExecutor exec(*plan::parse_tree("ct(4,4)"));
  AlignedBuffer<cplx> wrong(8);
  EXPECT_THROW(exec.forward(wrong.span()), std::invalid_argument);
  EXPECT_THROW(exec.inverse(wrong.span()), std::invalid_argument);
}

TEST(TreeExecutor, NominalFlops) {
  FftExecutor exec(*plan::parse_tree("ct(32,32)"));
  EXPECT_DOUBLE_EQ(exec.nominal_flops(), 5.0 * 1024 * 10);
}

TEST(TreeExecutor, LinearityOfTransform) {
  const index_t n = 512;
  AlignedBuffer<cplx> x(n);
  AlignedBuffer<cplx> y(n);
  AlignedBuffer<cplx> combo(n);
  fill_random(x.span(), 1);
  fill_random(y.span(), 2);
  const cplx a{1.5, -0.5};
  const cplx b{-2.0, 0.25};
  for (index_t i = 0; i < n; ++i) combo[i] = a * x[i] + b * y[i];

  FftExecutor exec(*plan::parse_tree("ctddl(ct(4,8),16)"));
  exec.forward(x.span());
  exec.forward(y.span());
  exec.forward(combo.span());
  double worst = 0;
  for (index_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::abs(combo[i] - (a * x[i] + b * y[i])));
  }
  EXPECT_LT(worst, 1e-10 * n);
}

// ---------------------------------------------------------------------------
// Radix-2 baseline
// ---------------------------------------------------------------------------

TEST(Radix2, MatchesReference) {
  for (index_t n : {2, 4, 8, 64, 1024}) {
    AlignedBuffer<cplx> x(n);
    fill_random(x.span(), static_cast<std::uint64_t>(n));
    std::vector<cplx> input(x.begin(), x.end());
    std::vector<cplx> expect(static_cast<std::size_t>(n));
    dft_reference(std::span<const cplx>(input), std::span<cplx>(expect));
    Radix2Fft fft(n);
    fft.forward(x.span());
    EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(expect)), 1e-10 * n) << n;
  }
}

TEST(Radix2, RoundTrip) {
  const index_t n = 1 << 12;
  AlignedBuffer<cplx> x(n);
  fill_random(x.span(), 3);
  std::vector<cplx> original(x.begin(), x.end());
  Radix2Fft fft(n);
  fft.forward(x.span());
  fft.inverse(x.span());
  EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(original)), 1e-12 * n);
}

TEST(Radix2, RejectsNonPow2) {
  EXPECT_THROW(Radix2Fft(12), std::invalid_argument);
  EXPECT_THROW(Radix2Fft(1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Stockham autosort baseline
// ---------------------------------------------------------------------------

TEST(Stockham, MatchesReference) {
  for (index_t n : {2, 4, 8, 64, 1024, 4096}) {
    AlignedBuffer<cplx> x(n);
    fill_random(x.span(), static_cast<std::uint64_t>(n) + 5);
    std::vector<cplx> input(x.begin(), x.end());
    std::vector<cplx> expect(static_cast<std::size_t>(n));
    dft_reference(std::span<const cplx>(input), std::span<cplx>(expect));
    StockhamFft fft(n);
    fft.forward(x.span());
    EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(expect)), 1e-10 * n) << n;
  }
}

TEST(Stockham, RoundTripAndLargeAgainstRadix2) {
  const index_t n = 1 << 16;
  AlignedBuffer<cplx> a(n);
  AlignedBuffer<cplx> b(n);
  fill_random(a.span(), 6);
  for (index_t i = 0; i < n; ++i) b[i] = a[i];
  StockhamFft st(n);
  st.forward(a.span());
  Radix2Fft r2(n);
  r2.forward(b.span());
  EXPECT_LT(max_abs_diff(a.span(), b.span()), 1e-8);
  st.inverse(a.span());
  r2.inverse(b.span());
  EXPECT_LT(max_abs_diff(a.span(), b.span()), 1e-10);
}

TEST(Stockham, RejectsNonPow2) {
  EXPECT_THROW(StockhamFft(12), std::invalid_argument);
  EXPECT_THROW(StockhamFft(1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Reference self-consistency
// ---------------------------------------------------------------------------

TEST(Reference, IdftUndoesDft) {
  const index_t n = 64;
  std::vector<cplx> x(static_cast<std::size_t>(n));
  fill_random(std::span<cplx>(x), 21);
  std::vector<cplx> X(x.size());
  std::vector<cplx> back(x.size());
  dft_reference(std::span<const cplx>(x), std::span<cplx>(X));
  idft_reference(std::span<const cplx>(X), std::span<cplx>(back));
  EXPECT_LT(max_abs_diff(std::span<const cplx>(back), std::span<const cplx>(x)), 1e-12 * n);
}

TEST(Reference, ImpulseGivesFlatSpectrum) {
  const index_t n = 32;
  std::vector<cplx> x(static_cast<std::size_t>(n), cplx{0, 0});
  x[0] = {1.0, 0.0};
  std::vector<cplx> X(x.size());
  dft_reference(std::span<const cplx>(x), std::span<cplx>(X));
  for (const cplx& v : X) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Twiddle cache
// ---------------------------------------------------------------------------

TEST(Twiddle, MatrixHoldsTableValuesInAccessOrder) {
  // M(r,c)[a*c + b] is, bit for bit, what a length-rc table built with the
  // same expression holds at index a*b.
  TwiddleCache cache;
  const index_t r = 4;
  const index_t c = 6;
  const cplx* w = cache.ensure(r, c);
  const double step = -2.0 * std::numbers::pi / static_cast<double>(r * c);
  for (index_t a = 0; a < r; ++a) {
    for (index_t b = 0; b < c; ++b) {
      const double ang = step * static_cast<double>(a * b);
      EXPECT_EQ(w[a * c + b], cplx(std::cos(ang), std::sin(ang))) << a << "," << b;
      EXPECT_NEAR(std::abs(w[a * c + b]), 1.0, 1e-15);
    }
  }
}

TEST(Twiddle, BuildForKeepsOneMatrixPerSplitShape) {
  TwiddleCache cache;
  cache.build_for(*plan::parse_tree("ct(ct(4,4),ct(2,8))"));
  EXPECT_EQ(cache.matrices(), 3u);  // 16x16, 4x4 and 2x8
  EXPECT_NO_THROW((void)cache.get(16, 16));
  EXPECT_NO_THROW((void)cache.get(4, 4));
  EXPECT_NO_THROW((void)cache.get(2, 8));
  EXPECT_THROW((void)cache.get(8, 2), std::invalid_argument);
  EXPECT_EQ(cache.total_elements(), 256 + 16 + 16);

  // A ddl split's column pass reads the transposed shape M(n2, n1).
  TwiddleCache ddl;
  ddl.build_for(*plan::parse_tree("ctddl(4,ctddlf(2,8))"));
  EXPECT_EQ(ddl.matrices(), 2u);
  EXPECT_NO_THROW((void)ddl.get(16, 4));
  EXPECT_NO_THROW((void)ddl.get(8, 2));
}

TEST(Twiddle, EnsureIdempotent) {
  TwiddleCache cache;
  const cplx* a = cache.ensure(8, 8);
  const cplx* b = cache.ensure(8, 8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.matrices(), 1u);
}

// ---------------------------------------------------------------------------
// Public facade
// ---------------------------------------------------------------------------

TEST(Facade, FromTreeAndAccessors) {
  auto fft = Fft::from_tree("ctddl(ct(16,16),ctddl(16,16))");
  EXPECT_EQ(fft.size(), 65536);
  EXPECT_EQ(fft.tree_string(), "ctddl(ct(16,16),ctddl(16,16))");
  EXPECT_EQ(fft.ddl_nodes(), 2);
  EXPECT_GT(fft.mflops(1e-3), 0.0);

  AlignedBuffer<cplx> x(fft.size());
  fill_random(x.span(), 17);
  std::vector<cplx> original(x.begin(), x.end());
  fft.forward(x.span());
  fft.inverse(x.span());
  EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(original)), 1e-9 * fft.size());
}

TEST(Facade, BadGrammarThrows) {
  EXPECT_THROW(Fft::from_tree("nope(2,2)"), std::invalid_argument);
}

}  // namespace
}  // namespace ddl::fft

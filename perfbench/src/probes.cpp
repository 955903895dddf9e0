// Standalone per-layer probes, run in every traced run: each times calls
// into one layer's public functions from outside, on inputs sized like the
// workloads'. Bytes for the layout bandwidths are computed from array
// sizes (reads + writes), not measured.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "ddl/codelets/codelets.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/fft.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/layout/reorg.hpp"
#include "ddl/layout/stride_perm.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/stream/stream.hpp"
#include "ddl/wht/planner.hpp"
#include "ddl/wht/wht_api.hpp"

namespace perfbench {
namespace {

constexpr index_t kLayoutN = index_t{1} << 20;

/// Median seconds per call of `fn` over `reps` timed calls (after one warm call).
template <typename F>
double median_seconds(int reps, F&& fn) {
  fn();
  std::vector<double> s;
  s.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  std::nth_element(s.begin(), s.begin() + reps / 2, s.end());
  return s[static_cast<std::size_t>(reps / 2)];
}

/// Median seconds per call, timing batches of `inner` calls (for calls far
/// shorter than the clock's resolution).
template <typename F>
double median_batched(int reps, int inner, F&& fn) {
  return median_seconds(reps, [&] {
           for (int i = 0; i < inner; ++i) fn();
         }) /
         inner;
}

}  // namespace

void run_layer_probes(const RunConfig& cfg, Json& js) {
  ddl::parallel::set_threads(1);
  js.begin_object("probes");

  // plan: the service's cold-start planning calls for its three sizes,
  // from empty stores (model-costed FFT DP, probe-costed WHT DP). Only on
  // svc_mixed, whose set-up makes the same calls.
  if (cfg.workload == "svc_mixed") {
    const std::uint64_t t0 = now_ns();
    ddl::fft::PlannerOptions fo;
    fo.cache_model.cold_start_model = true;
    ddl::fft::FftPlanner fp(fo);
    fp.plan(256, ddl::fft::Strategy::ddl_dp);
    fp.plan(16384, ddl::fft::Strategy::ddl_dp);
    ddl::wht::WhtPlanner wp;
    const std::string wht_tree = ddl::plan::to_string(*wp.plan(4096, ddl::fft::Strategy::ddl_dp));
    js.field("model_dp_s", static_cast<double>(now_ns() - t0) * 1e-9);
    js.field("cost_keys", static_cast<std::uint64_t>(fp.cost_db().size() + wp.cost_db().size()));
    js.field("wht_tree", wht_tree);
  }

  // plan: the default probe planner at 2^20 from empty stores, and how its
  // pick compares with the rightmost tree at 1 thread. Only on fft_large
  // (about a minute of probing on a 4-vCPU host).
  if (cfg.workload == "fft_large") {
    const std::uint64_t t0 = now_ns();
    ddl::fft::FftPlanner fp;
    const ddl::plan::TreePtr pick = fp.plan(kLayoutN, ddl::fft::Strategy::ddl_dp);
    js.field("probe_dp_s", static_cast<double>(now_ns() - t0) * 1e-9);
    js.field("probe_pick", ddl::plan::to_string(*pick));
    ddl::fft::Fft picked = ddl::fft::Fft::from_tree(*pick);
    ddl::fft::Fft right = ddl::fft::Fft::from_tree(*ddl::fft::rightmost_tree(kLayoutN));
    ddl::AlignedBuffer<cplx> buf(kLayoutN);
    ddl::fill_random(buf.span(), cfg.seed);
    std::vector<double> ratio;
    for (int i = 0; i < 5; ++i) {
      const double tp = median_seconds(3, [&] {
        picked.forward(buf.span());
        picked.inverse(buf.span());
      });
      const double tr = median_seconds(3, [&] {
        right.forward(buf.span());
        right.inverse(buf.span());
      });
      ratio.push_back(tr / tp);
    }
    std::nth_element(ratio.begin(), ratio.begin() + 2, ratio.end());
    js.field("pick_vs_rightmost_1t", ratio[2]);
  }

  // fft: executor construction for the two fft_large trees.
  js.field("exec_build_s", median_seconds(5, [] {
             ddl::fft::Fft a = ddl::fft::Fft::from_tree("ct(32,ct(32,ct(32,32)))");
             ddl::fft::Fft b = ddl::fft::Fft::from_tree("ctddl(ct(32,32),ct(32,32))");
           }));

  // layout: n = 2^20 complex (16 MiB per array).
  {
    ddl::AlignedBuffer<cplx> a(kLayoutN);
    ddl::AlignedBuffer<cplx> b(kLayoutN);
    ddl::AlignedBuffer<cplx> w(kLayoutN);
    ddl::fill_random(a.span(), cfg.seed + 1);
    for (index_t k = 0; k < kLayoutN; ++k) {
      w[k] = std::polar(1.0, -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(kLayoutN));
    }
    const double bytes2 = 2.0 * static_cast<double>(kLayoutN) * sizeof(cplx);
    const double t_perm =
        median_seconds(9, [&] { ddl::layout::stride_permute(a.data(), b.data(), kLayoutN, 32); });
    const double t_gather = median_seconds(
        9, [&] { ddl::layout::transpose_gather(a.data(), 1, 1024, 1024, b.data()); });
    const ddl::codelets::TwiddleScatterKernel ts = ddl::codelets::twiddle_scatter_kernel();
    const double t_ts = median_seconds(
        9, [&] { ts(b.data(), 1, a.data(), w.data(), kLayoutN, 1024, 1024, 0, 1024); });
    const double t_copy = median_seconds(
        9, [&] { std::memcpy(b.data(), a.data(), static_cast<std::size_t>(kLayoutN) * sizeof(cplx)); });
    js.field("layout_bytes_per_array", static_cast<double>(kLayoutN) * sizeof(cplx));
    js.field("stride_permute_gbps", bytes2 / t_perm * 1e-9);
    js.field("transpose_gather_gbps", bytes2 / t_gather * 1e-9);
    // Reads the scratch and the twiddle table, writes the data.
    js.field("twiddle_scatter_gbps", 1.5 * bytes2 / t_ts * 1e-9);
    js.field("copy_gbps", bytes2 / t_copy * 1e-9);
  }

  // codelets: batched leaf kernels at the active ISA, 2^15 points (512 KiB).
  {
    constexpr index_t kPts = index_t{1} << 15;
    ddl::AlignedBuffer<cplx> x(kPts);
    ddl::fill_random(x.span(), cfg.seed + 2);
    for (const index_t n : {index_t{32}, index_t{16}}) {
      const ddl::codelets::DftBatchKernel k = ddl::codelets::dft_batch_kernel(n);
      const double t = median_batched(15, 8, [&] { k(x.data(), 1, n, kPts / n); });
      js.field("dft" + std::to_string(n) + "_batch_ns_per_pt", t / static_cast<double>(kPts) * 1e9);
      // Keep the values bounded (the DFT grows them by sqrt(n) per call).
      ddl::fill_random(x.span(), cfg.seed + 2);
    }
  }

  // parallel: an empty fork-join over nproc chunks.
  ddl::parallel::set_threads(cfg.nt);
  js.field("fork_join_us",
           median_batched(31, 64, [&] {
             ddl::parallel::parallel_for(0, cfg.nt, 1, [](index_t, index_t, int) {});
           }) * 1e6);
  ddl::parallel::set_threads(1);

  // wht: a standalone transform at 4096 on a fixed two-leaf tree.
  {
    ddl::wht::Wht wht = ddl::wht::Wht::from_tree("ct(64,64)");
    ddl::AlignedBuffer<real_t> v(4096);
    ddl::fill_random(v.span(), cfg.seed + 3);
    js.field("wht_4096_us", median_batched(31, 16, [&] {
                              wht.transform(v.span());
                              wht.inverse(v.span());
                            }) * 0.5e6);
  }

  // stream: a standalone real forward transform of the STFT's size.
  {
    ddl::stream::Rfft rfft(2048);
    ddl::AlignedBuffer<real_t> in(2048);
    ddl::AlignedBuffer<cplx> spec(rfft.bins());
    ddl::fill_random(in.span(), cfg.seed + 4);
    js.field("rfft_2048_us",
             median_batched(31, 32, [&] { rfft.forward(in.span(), spec.span()); }) * 1e6);
  }

  js.end_object();
}

}  // namespace perfbench

// stream_chain: a closed loop with one caller thread at 1 thread. Each
// block goes through StftProcessor (fft 2048, hop 512, Hann) and then
// PartitionedConvolver (257 taps, block 512), back to back. Sampled output
// blocks are checked against a direct time-domain convolution of the
// delayed input, with the tolerance `ddlfft stream` uses.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/plan_cache.hpp"
#include "ddl/obs/export.hpp"
#include "ddl/obs/obs.hpp"
#include "ddl/stream/stream.hpp"

namespace perfbench {
namespace {

constexpr index_t kBlock = 512;
constexpr index_t kStftFft = 2048;
constexpr index_t kTaps = 257;
constexpr index_t kPool = index_t{1} << 18;  // input signal period (samples)
constexpr std::uint64_t kCheckEvery = 64;     // check one block in this many
constexpr int kSetups = 21;  // about 1 ms each: many, so that their median is steady
constexpr int kWarmBlocks = 16;
// The untraced loop moves between the allowed CPUs in this many equal time
// slices, round-robin. On a VM whose vCPUs each turn slow for seconds to
// minutes at a time (a busy neighbour on the same core), a run pinned to
// one vCPU, or left to the scheduler, measures only that vCPU's state.
constexpr std::size_t kCpuSlices = 20;

struct Chain {
  std::unique_ptr<ddl::stream::StftProcessor> stft;
  std::unique_ptr<ddl::stream::PartitionedConvolver> conv;
};

Chain set_up(const ddl::AlignedBuffer<real_t>& fir, const ddl::AlignedBuffer<real_t>& x,
             ddl::AlignedBuffer<real_t>& mid, ddl::AlignedBuffer<real_t>& out) {
  // Executors come from the process-wide PlanCache; empty it so every
  // set-up builds them, as a fresh process would.
  ddl::fft::PlanCache::instance().clear();
  Chain c;
  ddl::stream::StftOptions sopts;
  sopts.fft_size = kStftFft;
  sopts.hop = kBlock;
  sopts.window = ddl::stream::Window::hann;
  c.stft = std::make_unique<ddl::stream::StftProcessor>(sopts);
  ddl::stream::ConvolverOptions copts;
  copts.block = kBlock;
  c.conv = std::make_unique<ddl::stream::PartitionedConvolver>(fir.span(), copts);
  for (int b = 0; b < kWarmBlocks; ++b) {
    c.stft->process(x.span().subspan(static_cast<std::size_t>(b * kBlock), kBlock), mid.span());
    c.conv->process(mid.span(), out.span());
  }
  return c;
}

}  // namespace

void run_stream_chain(const RunConfig& cfg, Json& js) {
  ddl::parallel::set_threads(1);
  ddl::AlignedBuffer<real_t> fir(kTaps);
  ddl::fill_random(fir.span(), cfg.seed * 31 + 7);
  ddl::AlignedBuffer<real_t> x(kPool);
  ddl::fill_random(x.span(), cfg.seed);
  ddl::AlignedBuffer<real_t> mid(kBlock);
  ddl::AlignedBuffer<real_t> out(kBlock);

  std::vector<double> setup_s;
  Chain chain;
  for (int i = 0; i < kSetups; ++i) {
    chain = Chain{};
    const std::uint64_t t0 = now_ns();
    chain = set_up(fir, x, mid, out);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Direct reference: y[s] = sum_j h[j] x[s - delay - j] over the periodic
  // input, delay being the STFT reconstruction latency. Tolerance: 2 ULP
  // at the output's magnitude bound sum|h| * max|x| * log2(conv fft).
  const index_t delay = chain.stft->latency();
  double hsum = 0.0;
  for (index_t j = 0; j < kTaps; ++j) hsum += std::abs(fir[j]);
  double xmax = 0.0;
  for (index_t s = 0; s < kPool; ++s) xmax = std::max(xmax, std::abs(x[s]));
  const double bound = hsum * xmax * std::log2(static_cast<double>(chain.conv->fft_size()));
  const double ulp = std::nextafter(bound, std::numeric_limits<double>::infinity()) - bound;
  Checks checks;
  checks.tolerance = 2.0 * ulp / bound;
  const index_t transient = kStftFft + kTaps + delay;
  const auto check_block = [&](std::uint64_t t) {
    const index_t s0 = static_cast<index_t>(t) * kBlock;
    if (s0 < transient) return;
    double err = 0.0;
    for (index_t k = 0; k < kBlock; ++k) {
      double ref = 0.0;
      for (index_t j = 0; j < kTaps; ++j) ref += fir[j] * x[(s0 + k - delay - j) % kPool];
      err = std::max(err, std::abs(out[k] - ref));
    }
    checks.compare(err / bound, "block " + std::to_string(t));
  };

  SpanRecorder spans(cfg.trace ? 3u << 20 : 0u);
  const std::uint32_t sp_block = spans.intern("bench.block");
  const std::uint32_t sp_stft = spans.intern("stream.stft");
  const std::uint32_t sp_conv = spans.intern("stream.conv");
  std::map<std::string, double> stage_self;

  // The chain's state carries over between phases: block t of the stream
  // always consumes input samples [t*block, (t+1)*block) of the period.
  std::uint64_t t = kWarmBlocks;
  std::vector<std::uint64_t> untraced_ns;
  std::vector<std::uint64_t> traced_ns;
  const std::vector<int> cpus = allowed_cpus();
  std::uint64_t allocs = 0;
  std::uint64_t alloc_blocks = 0;
  const auto loop = [&](std::vector<std::uint64_t>& lat, double seconds, bool traced_loop) {
    // Room for 8 us blocks, so the vector never grows (and allocates)
    // inside the loop whose allocations are counted.
    lat.reserve(static_cast<std::size_t>(seconds * 125000.0) + 1024);
    if (traced_loop) ddl::obs::enable(true);
    const std::uint64_t start = now_ns();
    const std::uint64_t slice_ns = static_cast<std::uint64_t>(seconds * 1e9) / kCpuSlices;
    const std::uint64_t deadline = start + slice_ns * kCpuSlices;
    const bool rotate = !traced_loop && !cpus.empty();
    const std::uint64_t allocs0 = allocations();
    const std::uint64_t blocks0 = t;
    std::uint64_t checked_allocs = 0;
    std::size_t slice = 0;
    for (std::uint64_t now = start; lat.size() < 1024 || now < deadline; now = now_ns()) {
      if (rotate && slice < kCpuSlices && now >= start + slice_ns * slice) {
        pin_process(cpus[slice % cpus.size()]);
        ++slice;
      }
      const index_t s0 = static_cast<index_t>(t % (kPool / kBlock)) * kBlock;
      const auto in = x.span().subspan(static_cast<std::size_t>(s0), kBlock);
      const std::uint64_t t0 = now_ns();
      chain.stft->process(in, mid.span());
      const std::uint64_t t1 = now_ns();
      chain.conv->process(mid.span(), out.span());
      const std::uint64_t t2 = now_ns();
      lat.push_back(t2 - t0);
      if (traced_loop && spans.has_room(3)) {
        const std::int64_t root = spans.add(sp_block, t0, t2, -1, t);
        spans.add(sp_stft, t0, t1, root, t);
        spans.add(sp_conv, t1, t2, root, t);
      }
      if (t % kCheckEvery == 0) {
        const std::uint64_t a0 = allocations();
        check_block(t);
        checked_allocs += allocations() - a0;  // the check's own strings
      }
      if (traced_loop && t % 256 == 0) {
        // Drain the obs rings before they wrap (outside the block's timing).
        ddl::obs::enable(false);
        for (const ddl::obs::StageStats& s : ddl::obs::summarize(ddl::obs::snapshot())) {
          stage_self[ddl::obs::stage_name(s.stage)] += s.self_seconds;
        }
        ddl::obs::reset();
        ddl::obs::enable(true);
      }
      ++t;
    }
    if (traced_loop) {
      ddl::obs::enable(false);
      for (const ddl::obs::StageStats& s : ddl::obs::summarize(ddl::obs::snapshot())) {
        stage_self[ddl::obs::stage_name(s.stage)] += s.self_seconds;
      }
      ddl::obs::reset();
    } else {
      allocs += allocations() - allocs0 - checked_allocs;
      alloc_blocks += t - blocks0;
    }
  };

  loop(untraced_ns, cfg.trace ? cfg.seconds / 2 : cfg.seconds, false);
  pin_process(cpus);
  if (cfg.trace) loop(traced_ns, cfg.seconds / 2, true);

  js.array("setup_s", setup_s);
  checks.write(js);
  js.begin_object("stream_chain");
  js.field("block", static_cast<std::int64_t>(kBlock));
  js.field("stft_fft", static_cast<std::int64_t>(kStftFft));
  js.field("conv_fft", static_cast<std::int64_t>(chain.conv->fft_size()));
  js.field("partitions", static_cast<std::int64_t>(chain.conv->partitions()));
  js.field("taps", static_cast<std::int64_t>(kTaps));
  js.field("allocs", allocs);
  js.field("alloc_blocks", alloc_blocks);
  js.array("block_ns", untraced_ns);
  if (cfg.trace) {
    js.array("traced_block_ns", traced_ns);
    js.begin_object("stage_self_s");
    for (const auto& [name, secs] : stage_self) js.field(name, secs);
    js.end_object();
    js.field("traced_blocks", static_cast<std::uint64_t>(traced_ns.size()));
  }
  js.end_object();
  if (cfg.trace) spans.write(js);
}

}  // namespace perfbench

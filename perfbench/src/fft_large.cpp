// fft_large: a closed loop with one caller thread running back-to-back
// in-place forward/inverse pairs at n = 2^20 on two fixed trees, each at 1
// thread and at every core. The trees are built with Fft::from_tree, not
// planned, so the same code gives the same tree on every run.

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/fft.hpp"
#include "ddl/obs/export.hpp"
#include "ddl/obs/obs.hpp"

namespace perfbench {
namespace {

constexpr index_t kN = index_t{1} << 20;
constexpr int kSetups = 5;

struct TreeDef {
  const char* name;
  const char* grammar;
};
// The stride-blind rightmost baseline and the paper's root-reorganized
// DDL tree (both four levels of radix-32 codelets).
constexpr std::array<TreeDef, 2> kTrees{{
    {"rightmost", "ct(32,ct(32,ct(32,32)))"},
    {"ddl", "ctddl(ct(32,32),ct(32,32))"},
}};

// Stages reported per transform at 1 thread (ddl::obs self time).
constexpr std::array<ddl::obs::Stage, 9> kStages{
    ddl::obs::Stage::stride_perm,  ddl::obs::Stage::twiddle_rows,  ddl::obs::Stage::twiddle_cols,
    ddl::obs::Stage::leaf_cols,    ddl::obs::Stage::fft_cols,      ddl::obs::Stage::fft_rows,
    ddl::obs::Stage::reorg_gather, ddl::obs::Stage::reorg_scatter, ddl::obs::Stage::twiddle_scatter,
};

struct Config {
  std::size_t tree = 0;
  int threads = 1;
  int pairs = 1;  // forward/inverse pairs per round
  std::vector<std::uint64_t> samples_ns;  // one per transform (forward or inverse)
};

struct State {
  std::vector<ddl::fft::Fft> ffts;
  ddl::AlignedBuffer<cplx> input;
  std::vector<ddl::AlignedBuffer<cplx>> work;  // one buffer per config
};

// One complete set-up: executors, buffers, seeded input, and one warm
// pair per config (lane scratch arenas materialize on first fan-out).
std::unique_ptr<State> set_up(const RunConfig& cfg, const std::vector<Config>& configs) {
  auto st = std::make_unique<State>();
  for (const TreeDef& t : kTrees) st->ffts.push_back(ddl::fft::Fft::from_tree(t.grammar));
  st->input = ddl::AlignedBuffer<cplx>(kN);
  ddl::fill_random(st->input.span(), cfg.seed);
  for (const Config& c : configs) {
    ddl::AlignedBuffer<cplx> buf(kN);
    std::copy_n(st->input.data(), kN, buf.data());
    ddl::parallel::set_threads(c.threads);
    st->ffts[c.tree].forward(buf.span());
    st->ffts[c.tree].inverse(buf.span());
    st->work.push_back(std::move(buf));
  }
  return st;
}

// DFT bin k of x by direct summation (the O(n) per-bin reference).
cplx direct_bin(const cplx* x, index_t k) {
  cplx acc{0.0, 0.0};
  const double w = -2.0 * M_PI / static_cast<double>(kN);
  for (index_t j = 0; j < kN; ++j) {
    const double ang = w * static_cast<double>((j * k) % kN);
    acc += x[j] * cplx{std::cos(ang), std::sin(ang)};
  }
  return acc;
}

// Output checks, outside every timed region: both trees agree on the
// forward transform, a few bins match direct summation, inverse(forward(x))
// returns x, and every thread count gives the 1-thread result.
void check_outputs(const RunConfig& cfg, State& st, const std::vector<Config>& configs,
                   Checks& checks, double& roundtrip_err) {
  std::vector<ddl::AlignedBuffer<cplx>> fwd;
  for (const Config& c : configs) {
    ddl::AlignedBuffer<cplx> a(kN);
    std::copy_n(st.input.data(), kN, a.data());
    ddl::parallel::set_threads(c.threads);
    st.ffts[c.tree].forward(a.span());
    ddl::AlignedBuffer<cplx> b(kN);
    std::copy_n(a.data(), kN, b.data());
    st.ffts[c.tree].inverse(b.span());
    const double rt = rel_l2(b.data(), st.input.data(), kN);
    roundtrip_err = std::max(roundtrip_err, rt);
    const std::string label = std::string(kTrees[c.tree].name) + "@" + std::to_string(c.threads);
    checks.compare(rt, "roundtrip " + label);
    fwd.push_back(std::move(a));
  }
  for (std::size_t i = 1; i < configs.size(); ++i) {
    checks.compare(rel_l2(fwd[i].data(), fwd[0].data(), kN), "forward agreement config " +
                                                                 std::to_string(i));
  }
  ddl::Xoshiro256 rng(cfg.seed ^ 0x5bd1e995ULL);
  double norm = 0.0;
  for (index_t j = 0; j < kN; ++j) norm += std::norm(st.input[j]);
  norm = std::sqrt(norm * static_cast<double>(kN));  // bound on |X_k|
  for (const index_t k : {index_t{0}, index_t{1}, static_cast<index_t>(rng.below(kN)),
                          static_cast<index_t>(rng.below(kN))}) {
    const cplx ref = direct_bin(st.input.data(), k);
    checks.compare(std::abs(fwd[0][k] - ref) / norm, "bin " + std::to_string(k));
  }
}

}  // namespace

void run_fft_large(const RunConfig& cfg, Json& js) {
  std::vector<Config> configs;
  for (const int threads : {1, cfg.nt}) {
    for (std::size_t t = 0; t < kTrees.size(); ++t) configs.push_back(Config{t, threads, 1, {}});
  }
  // The DDL tree at 1 thread is the headline configuration (the paper's
  // uniprocessor setting); it runs three pairs per round so a run holds
  // about a hundred of its transforms, enough for a p90 with ten beyond.
  configs[1].pairs = 3;
  if (cfg.nt == 1) configs.resize(2);  // "every core" is one core here

  std::vector<double> setup_s;
  std::unique_ptr<State> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();
    const std::uint64_t t0 = now_ns();
    st = set_up(cfg, configs);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Traced runs split the time: the first half untraced (for the overhead
  // comparison and the per-config rates), the second half traced.
  SpanRecorder spans(cfg.trace ? 1u << 16 : 0u);
  const std::uint32_t sp_pair = spans.intern("bench.pair");
  const std::uint32_t sp_fwd = spans.intern("fft.forward");
  const std::uint32_t sp_inv = spans.intern("fft.inverse");
  std::map<std::string, std::map<std::string, double>> stage_self;
  std::map<std::string, std::uint64_t> stage_transforms;
  std::vector<Config> traced = configs;

  const auto loop = [&](std::vector<Config>& out, double seconds, bool traced_loop) {
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t rounds = 0;
    const std::uint64_t t_start = now_ns();
    while (rounds < 4 || now_ns() < deadline) {
      for (std::size_t ci = 0; ci < out.size(); ++ci) {
        Config& c = out[ci];
        ddl::parallel::set_threads(c.threads);
        ddl::fft::Fft& fft = st->ffts[c.tree];
        const std::span<cplx> buf = st->work[ci].span();
        const bool stages = traced_loop && c.threads == 1;
        for (int rep = 0; rep < c.pairs; ++rep) {
          if (stages) ddl::obs::enable(true);
          const std::uint64_t t0 = now_ns();
          fft.forward(buf);
          const std::uint64_t t1 = now_ns();
          fft.inverse(buf);
          const std::uint64_t t2 = now_ns();
          if (traced_loop && spans.has_room(3)) {
            const std::int64_t root = spans.add(sp_pair, t0, t2, -1, rounds);
            spans.add(sp_fwd, t0, t1, root, rounds);
            spans.add(sp_inv, t1, t2, root, rounds);
          }
          if (stages) {
            ddl::obs::enable(false);
            const ddl::obs::Snapshot snap = ddl::obs::snapshot();
            auto& acc = stage_self[kTrees[c.tree].name];
            for (const ddl::obs::StageStats& s : ddl::obs::summarize(snap)) {
              acc[ddl::obs::stage_name(s.stage)] += s.self_seconds;
            }
            stage_transforms[kTrees[c.tree].name] += 2;
            ddl::obs::reset();
          }
          c.samples_ns.push_back(t1 - t0);
          c.samples_ns.push_back(t2 - t1);
        }
      }
      ++rounds;
    }
    return static_cast<double>(now_ns() - t_start) * 1e-9;
  };

  const double untraced_s = loop(configs, cfg.trace ? cfg.seconds / 2 : cfg.seconds, false);
  double traced_s = 0.0;
  if (cfg.trace) traced_s = loop(traced, cfg.seconds / 2, true);

  Checks checks;
  checks.tolerance = 1e-12;
  double roundtrip_err = 0.0;
  check_outputs(cfg, *st, configs, checks, roundtrip_err);
  // The timed buffers went through many round trips; they must still hold
  // the input (looser tolerance: error grows with the number of passes).
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const double drift = rel_l2(st->work[ci].data(), st->input.data(), kN);
    ++checks.attempted;
    if (!(drift <= 1e-9)) {
      ++checks.failed;
      checks.notes.push_back("timed buffer drift: rel err " + std::to_string(drift));
    }
  }
  ddl::parallel::set_threads(cfg.nt);

  js.array("setup_s", setup_s);
  checks.write(js);
  js.begin_object("fft_large");
  js.field("n", static_cast<std::int64_t>(kN));
  js.field("roundtrip_err", roundtrip_err);
  js.field("untraced_seconds", untraced_s);
  js.field("traced_seconds", traced_s);
  const auto write_configs = [&](const char* key, const std::vector<Config>& cs) {
    js.begin_array(key);
    for (const Config& c : cs) {
      js.begin_object();
      js.field("tree", kTrees[c.tree].name);
      js.field("grammar", kTrees[c.tree].grammar);
      js.field("threads", c.threads);
      js.array("samples_ns", c.samples_ns);
      js.end_object();
    }
    js.end_array();
  };
  write_configs("configs", configs);
  if (cfg.trace) {
    write_configs("traced_configs", traced);
    js.begin_object("stage_self_s");
    for (const TreeDef& t : kTrees) {
      js.begin_object(t.name);
      js.field("transforms", stage_transforms[t.name]);
      for (const ddl::obs::Stage s : kStages) {
        const char* name = ddl::obs::stage_name(s);
        js.field(name, stage_self[t.name][name]);
      }
      js.end_object();
    }
    js.end_object();
  }
  js.end_object();
  if (cfg.trace) spans.write(js);
}

}  // namespace perfbench

#include "ddl/sim/trace.hpp"

#include <stdexcept>

#include "ddl/common/check.hpp"

namespace ddl::sim {

namespace cp = verify::cachepred;

namespace {

void trace(const plan::Node& tree, verify::Transform transform, cache::Cache& cache) {
  cp::executor_passes(tree, transform, cache.config().line_bytes,
                      [&cache](const cp::AccessPass& pass) { replay_pass(pass, cache); });
}

}  // namespace

void FftTracer::run(const plan::Node& tree) { trace(tree, verify::Transform::fft, cache_); }

void WhtTracer::run(const plan::Node& tree) { trace(tree, verify::Transform::wht, cache_); }

void replay_pass(const cp::AccessPass& pass, cache::Cache& l1, cache::Cache* l2) {
  cp::walk_pass(pass, [&](std::uint64_t addr, bool is_write) {
    if (!l1.access(addr, is_write) && l2 != nullptr) l2->access(addr, is_write);
  });
}

void simulate_leaf_sweep(cache::Cache& cache, index_t n, index_t stride, index_t count) {
  DDL_REQUIRE(n >= 1 && stride >= 1 && count >= 1, "bad leaf sweep parameters");
  const std::int64_t eb = sizeof(cplx);
  cp::StreamRef load;
  load.loop_step = {eb};
  load.elem_step = stride * eb;
  load.width = sizeof(cplx);
  cp::StreamRef store = load;
  store.write = true;
  cp::AccessPass pass;
  pass.op = "leaf sweep";
  pass.loops = {count};
  pass.sweeps = {{n, {load}}, {n, {store}}};
  replay_pass(pass, cache);
}

std::function<double(const plan::CostKey&)> simulated_cost_oracle() {
  return [](const plan::CostKey& key) -> double {
    const std::vector<cp::AccessPass> passes = cp::primitive_passes(key);
    if (passes.empty()) {
      throw std::invalid_argument("simulated_cost_oracle: unknown primitive kind '" + key.kind +
                                  "'");
    }
    constexpr double kMissPenalty = 30.0;  // cost of a miss, in hit-cost units
    cache::Cache c(cache::CacheConfig{});  // paper default: 512 KB direct-mapped
    for (const cp::AccessPass& pass : passes) replay_pass(pass, c);
    const bool leaf = key.kind == "dft_leaf" || key.kind == "wht_leaf";
    const auto& st = c.stats();
    return (static_cast<double>(st.accesses) + kMissPenalty * static_cast<double>(st.misses)) /
           static_cast<double>(leaf ? cp::kLeafProbeCount : 1);
  };
}

}  // namespace ddl::sim

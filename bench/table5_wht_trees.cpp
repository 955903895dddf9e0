// Reproduces Table V: the optimal WHT factorization trees chosen by dynamic
// programming under static and dynamic data layouts — once with costs
// measured on the host, once with costs simulated on the paper's 512 KB
// direct-mapped cache (see table6_fft_trees.cpp for the rationale).
//
// Expected shape (simulated planner): identical trees while the transform
// fits the cache; ctddl splits and more balanced shapes above it.

#include <iostream>

#include "bench_common.hpp"
#include "ddl/bench_util/bench_util.hpp"
#include "ddl/common/table.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/sim/trace.hpp"
#include "ddl/wht/planner.hpp"

namespace {

using namespace ddl;

}  // namespace

int main() {
  benchutil::print_host_banner(std::cout);
  std::cout << "Table V reproduction: optimal WHT factorizations, SDL vs DDL search\n\n";

  {
    benchcommon::Stores stores;
    wht::WhtPlanner planner(benchcommon::wht_opts(stores));
    TableWriter table({"n", "wht_sdl_tree", "wht_ddl_tree", "ddl_nodes"});
    for (const index_t n : benchutil::pow2_range(10, 22)) {
      const auto sdl = planner.plan(n, fft::Strategy::sdl_dp);
      const auto ddl = planner.plan(n, fft::Strategy::ddl_dp);
      table.add_row({fmt_pow2(n), plan::to_string(*sdl), plan::to_string(*ddl),
                     std::to_string(plan::ddl_node_count(*ddl))});
    }
    table.print(std::cout, "host-measured planner (this machine)");
  }

  std::cout << "\n";
  {
    // The paper's WHT experiments use 8-byte points, so the 512 KB cache
    // holds 2^16 of them.
    wht::PlannerOptions opts;
    opts.cost_oracle = sim::simulated_cost_oracle();
    wht::WhtPlanner planner(opts);
    TableWriter table({"n", "wht_sdl_tree", "wht_ddl_tree", "ddl_nodes", "same"});
    for (int k = 12; k <= 22; k += 2) {
      const index_t n = index_t{1} << k;
      const auto sdl = planner.plan(n, fft::Strategy::sdl_dp);
      const auto ddl = planner.plan(n, fft::Strategy::ddl_dp);
      table.add_row({fmt_pow2(n), plan::to_string(*sdl), plan::to_string(*ddl),
                     std::to_string(plan::ddl_node_count(*ddl)),
                     plan::equal(*sdl, *ddl) ? "yes" : "no"});
    }
    table.print(std::cout, "simulated-1999-cache planner (512KB direct-mapped)");
  }

  std::cout << "\npaper shape check: the simulated planner keeps the SDL tree for\n"
               "in-cache sizes and switches to balanced ctddl trees above 2^16 points.\n";
  return 0;
}

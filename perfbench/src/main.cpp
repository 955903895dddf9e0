// perfbench: the measuring half of the repository benchmark. It runs one
// workload and writes the raw record (samples, checks, spans, probes) as
// JSON; perfbench/run.py builds this binary, runs it and turns the record
// into metrics.
//
// Usage:
//   perfbench --workload fft_large|svc_mixed|stream_chain --seed N
//             --seconds S --trace 0|1 --out FILE

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "ddl/common/parallel.hpp"

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(val);
    } else if (key == "--seconds") {
      cfg.seconds = std::stod(val);
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--out") {
      out = val;
    } else {
      std::cerr << "perfbench: unknown option " << key << "\n";
      return 2;
    }
  }
  if (out.empty() || !(cfg.seconds > 0.0)) {
    std::cerr << "perfbench: --out FILE and --seconds S > 0 are required\n";
    return 2;
  }
  cfg.nt = ddl::parallel::hardware_threads();

  perfbench::Json js;
  try {
    js.begin_object();
    js.field("workload", cfg.workload);
    js.field("seed", cfg.seed);
    js.field("seconds", cfg.seconds);
    js.field("trace", cfg.trace);
    perfbench::write_host(js, cfg.nt);
    if (cfg.workload == "fft_large") {
      perfbench::run_fft_large(cfg, js);
    } else if (cfg.workload == "svc_mixed") {
      perfbench::run_svc_mixed(cfg, js);
    } else if (cfg.workload == "stream_chain") {
      perfbench::run_stream_chain(cfg, js);
    } else {
      std::cerr << "perfbench: unknown workload '" << cfg.workload << "'\n";
      return 2;
    }
    if (cfg.trace) perfbench::run_layer_probes(cfg, js);
    js.end_object();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (!js.write(out)) {
    std::cerr << "perfbench: cannot write " << out << "\n";
    return 1;
  }
  return 0;
}

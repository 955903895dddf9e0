#pragma once
// Shared plumbing for the perfbench workloads: the raw-data JSON writer,
// the in-memory span recorder, the allocation counter and small timing
// helpers. The benchmark binary only measures and records; every statistic
// (percentiles, the goodput rung rule, fail_frac, span self times) is
// computed from the raw record by perfbench/metrics.py.

#include <cstdint>
#include <string>
#include <vector>

#include "ddl/common/types.hpp"

namespace perfbench {

using ddl::cplx;
using ddl::index_t;
using ddl::real_t;

/// Steady-clock nanoseconds on the same timebase as ddl::obs::now_ns(), so
/// service Result timestamps and the benchmark's own marks compare directly.
std::uint64_t now_ns() noexcept;

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// Restrict every thread of this process, and so every thread it starts
/// later, to the CPUs in `cpus`, or to the one CPU `cpu`. Neither calls
/// operator new.
void pin_process(const std::vector<int>& cpus);
void pin_process(int cpu);

/// Operator-new calls made by this process so far (counted by the global
/// operator new replacement in alloc_hook.cpp).
std::uint64_t allocations() noexcept;

/// Run-wide settings parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nt = 1;  ///< "every core": the host's hardware thread count
};

/// Minimal streaming JSON writer for the raw record. Keys are written as
/// given (callers use plain identifiers); strings are escaped.
class Json {
 public:
  void begin_object(const std::string& key = {});
  void end_object();
  void begin_array(const std::string& key = {});
  void end_array();
  void field(const std::string& key, double v);
  void field(const std::string& key, std::uint64_t v);
  void field(const std::string& key, std::int64_t v);
  void field(const std::string& key, int v) { field(key, static_cast<std::int64_t>(v)); }
  void field(const std::string& key, bool v);
  void field(const std::string& key, const std::string& v);
  void field(const std::string& key, const char* v) { field(key, std::string(v)); }
  template <typename T>
  void array(const std::string& key, const std::vector<T>& values) {
    begin_array(key);
    for (const T& v : values) value(v);
    end_array();
  }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(std::uint32_t v) { value(static_cast<std::uint64_t>(v)); }
  void value(const std::string& v);

  bool write(const std::string& path) const;

 private:
  void key(const std::string& k);
  void sep();
  std::string out_;
  std::vector<bool> first_{true};
};

/// One recorded span: a call into a layer, timed from outside.
struct Span {
  std::uint32_t name = 0;      ///< index into SpanRecorder::names()
  std::uint64_t t0 = 0;        ///< now_ns() at entry
  std::uint64_t t1 = 0;        ///< now_ns() at exit
  std::int64_t parent = -1;    ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;   ///< request id (svc_mixed), else the op index
};

/// In-memory span store. Single-threaded: every workload records spans on
/// the thread that owns its op loop (service wait/exec spans are rebuilt
/// from Result timestamps on the collecting thread). Reserve up front so
/// recording never allocates inside a timed region.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve = 0) { spans_.reserve(reserve); }
  /// Interned name id for `name` (call during set-up, not in timed code).
  std::uint32_t intern(const std::string& name);
  /// Append a finished span; returns its index (usable as a parent).
  std::int64_t add(std::uint32_t name, std::uint64_t t0, std::uint64_t t1, std::int64_t parent,
                   std::uint64_t request);
  /// True when `k` more spans fit without reallocating.
  [[nodiscard]] bool has_room(std::size_t k) const noexcept {
    return spans_.size() + k <= spans_.capacity();
  }
  void write(Json& js) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Relative L2 error ||a - b|| / ||b||.
double rel_l2(const cplx* a, const cplx* b, index_t n);
double rel_l2(const real_t* a, const real_t* b, index_t n);

/// Output-check tally shared by every workload: one attempt per comparison
/// against a reference, one failure per comparison outside tolerance.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double max_rel_err = 0.0;
  double sum_sq_rel_err = 0.0;  ///< finite errors only, for the RMS
  double tolerance = 0.0;
  std::vector<std::string> notes;

  /// Record one numerical comparison against `tolerance`.
  void compare(double err, const std::string& what);
  void write(Json& js) const;
};

/// Host provenance block (nproc, ISA, cache geometry).
void write_host(Json& js, int nt);

/// Workload entry points: fill `js` (already inside the top-level object).
void run_fft_large(const RunConfig& cfg, Json& js);
void run_svc_mixed(const RunConfig& cfg, Json& js);
void run_stream_chain(const RunConfig& cfg, Json& js);

/// Standalone per-layer probes, run in every traced run.
void run_layer_probes(const RunConfig& cfg, Json& js);

}  // namespace perfbench

#include "common.hpp"

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "ddl/bench_util/bench_util.hpp"
#include "ddl/codelets/codelets.hpp"
#include "ddl/obs/obs.hpp"

namespace perfbench {

std::uint64_t now_ns() noexcept { return ddl::obs::now_ns(); }

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) cpus.push_back(c);
    }
  }
  return cpus;
}

namespace {

void pin_all_threads(const cpu_set_t& mask) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    sched_setaffinity(0, sizeof mask, &mask);
    return;
  }
  while (const dirent* e = readdir(dir)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof mask, &mask);
  }
  closedir(dir);
}

}  // namespace

void pin_process(const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus) CPU_SET(c, &mask);
  pin_all_threads(mask);
}

void pin_process(int cpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  pin_all_threads(mask);
}

// --- Json -------------------------------------------------------------------

void Json::sep() {
  if (!first_.back()) out_ += ',';
  first_.back() = false;
}

void Json::key(const std::string& k) {
  sep();
  if (!k.empty()) {
    out_ += '"';
    out_ += k;
    out_ += "\":";
  }
}

void Json::begin_object(const std::string& k) {
  key(k);
  out_ += '{';
  first_.push_back(true);
}

void Json::end_object() {
  out_ += '}';
  first_.pop_back();
}

void Json::begin_array(const std::string& k) {
  key(k);
  out_ += '[';
  first_.push_back(true);
}

void Json::end_array() {
  out_ += ']';
  first_.pop_back();
}

void Json::value(double v) {
  sep();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
}

void Json::value(std::uint64_t v) {
  sep();
  out_ += std::to_string(v);
}

void Json::value(std::int64_t v) {
  sep();
  out_ += std::to_string(v);
}

void Json::value(const std::string& v) {
  sep();
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

void Json::field(const std::string& k, double v) {
  key(k);
  first_.back() = true;
  value(v);
}

void Json::field(const std::string& k, std::uint64_t v) {
  key(k);
  first_.back() = true;
  value(v);
}

void Json::field(const std::string& k, std::int64_t v) {
  key(k);
  first_.back() = true;
  value(v);
}

void Json::field(const std::string& k, bool v) {
  key(k);
  out_ += v ? "true" : "false";
}

void Json::field(const std::string& k, const std::string& v) {
  key(k);
  first_.back() = true;
  value(v);
}

bool Json::write(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << out_ << '\n';
  return static_cast<bool>(os);
}

// --- SpanRecorder -------------------------------------------------------------

std::uint32_t SpanRecorder::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t SpanRecorder::add(std::uint32_t name, std::uint64_t t0, std::uint64_t t1,
                               std::int64_t parent, std::uint64_t request) {
  spans_.push_back(Span{name, t0, t1, parent, request});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::write(Json& js) const {
  js.begin_object("spans");
  js.array("names", names_);
  // Columnar, times relative to the first span so the record stays small.
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().t0;
  js.begin_array("name");
  for (const Span& s : spans_) js.value(s.name);
  js.end_array();
  js.begin_array("t0_ns");
  for (const Span& s : spans_) js.value(static_cast<std::int64_t>(s.t0 - base));
  js.end_array();
  js.begin_array("t1_ns");
  for (const Span& s : spans_) js.value(static_cast<std::int64_t>(s.t1 - base));
  js.end_array();
  js.begin_array("parent");
  for (const Span& s : spans_) js.value(s.parent);
  js.end_array();
  js.begin_array("request");
  for (const Span& s : spans_) js.value(s.request);
  js.end_array();
  js.end_object();
}

// --- checks -----------------------------------------------------------------

double rel_l2(const cplx* a, const cplx* b, index_t n) {
  double num = 0.0;
  double den = 0.0;
  for (index_t i = 0; i < n; ++i) {
    num += std::norm(a[i] - b[i]);
    den += std::norm(b[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double rel_l2(const real_t* a, const real_t* b, index_t n) {
  double num = 0.0;
  double den = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    num += d * d;
    den += b[i] * b[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

void Checks::compare(double err, const std::string& what) {
  ++attempted;
  if (std::isfinite(err)) {
    max_rel_err = std::max(max_rel_err, err);
    sum_sq_rel_err += err * err;
  }
  if (!(err <= tolerance)) {
    ++failed;
    if (notes.size() < 8) notes.push_back(what + ": rel err " + std::to_string(err));
  }
}

void Checks::write(Json& js) const {
  js.begin_object("checks");
  js.field("attempted", attempted);
  js.field("failed", failed);
  js.field("max_rel_err", max_rel_err);
  js.field("rms_rel_err",
           attempted > 0 ? std::sqrt(sum_sq_rel_err / static_cast<double>(attempted)) : 0.0);
  js.field("tolerance", tolerance);
  js.array("notes", notes);
  js.end_object();
}

void write_host(Json& js, int nt) {
  const ddl::benchutil::HostInfo info = ddl::benchutil::host_info();
  js.begin_object("host");
  js.field("nproc", nt);
  js.field("isa", ddl::codelets::isa_name(ddl::codelets::active_isa()));
  js.field("l1d_bytes", static_cast<std::int64_t>(info.l1d_bytes));
  js.field("l2_bytes", static_cast<std::int64_t>(info.l2_bytes));
  js.field("l3_bytes", static_cast<std::int64_t>(info.l3_bytes));
  js.field("line_bytes", static_cast<std::int64_t>(info.line_bytes));
  js.end_object();
}

}  // namespace perfbench

// svc_mixed: an open loop. One generator thread sends seeded Poisson
// arrivals from three tenants into a TransformService built with the
// shipped default ServiceConfig{} (not from_env(), so DDL_SVC_* variables
// cannot skew it), over a fixed ladder of total rates. A collector thread
// resolves the futures in submission order, checks every result against a
// precomputed expected output and records its timestamps. Each request is
// timed from when it was due, so a stalled generator still shows.

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/fft.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/fft/reference.hpp"
#include "ddl/svc/service.hpp"

namespace perfbench {
namespace {

using ddl::svc::Direction;
using ddl::svc::Kind;
using ddl::svc::Status;

constexpr int kSetups = 3;
constexpr int kInputs = 4;  // distinct seeded inputs per tenant
// Total offered rates of the open-loop ladder. On a 4-vCPU host whose
// threads share about one core, 8k req/s already sits on the knee and 16k
// sheds, so the ladder stops at 8k and latency is measured at 2k.
constexpr std::array<double, 4> kRungs{1000.0, 2000.0, 4000.0, 8000.0};
constexpr double kMeasuredRung = 2000.0;
// The closed-loop capacity phase keeps this many requests outstanding. It
// runs in segments, one before the ladder and one after each rung, so that
// it samples the host across the whole run, and takes this share of the run.
constexpr std::uint64_t kClosedWindow = 32;
constexpr std::size_t kClosedSegments = kRungs.size() + 1;
constexpr double kClosedShare = 0.4;
// The open-loop generator never has more than this many requests
// outstanding: half the default queue, so a host stall (tens of ms with
// no service progress) delays the next arrivals instead of overflowing the
// queue and shedding them. A request held back is still timed from when it
// was due, and its rung shows the generator ran late.
const std::uint64_t kOpenWindow =
    static_cast<std::uint64_t>(ddl::svc::ServiceConfig{}.queue_capacity / 2);

struct TenantDef {
  std::uint32_t id;
  Kind kind;
  index_t n;
  double share;  // fraction of all requests
};
constexpr std::array<TenantDef, 3> kTenants{{
    {1, Kind::fft, 256, 0.70},
    {2, Kind::fft, 16384, 0.10},
    {3, Kind::wht, 4096, 0.20},
}};

// Status code in the raw record for a result outside tolerance; the others
// are the service's Status values.
constexpr int kWrongOutput = 101;

// Independent in-place fast WHT (natural order), the reference for tenant 3.
void reference_wht(real_t* x, index_t n) {
  for (index_t h = 1; h < n; h *= 2) {
    for (index_t i = 0; i < n; i += 2 * h) {
      for (index_t j = i; j < i + h; ++j) {
        const real_t a = x[j];
        const real_t b = x[j + h];
        x[j] = a + b;
        x[j + h] = a - b;
      }
    }
  }
}

/// Per-tenant inputs, expected outputs (index [input][dir]) and buffers.
struct TenantData {
  std::vector<ddl::AlignedBuffer<cplx>> cin;
  std::vector<std::array<ddl::AlignedBuffer<cplx>, 2>> cexp;
  std::vector<ddl::AlignedBuffer<real_t>> rin;
  std::vector<std::array<ddl::AlignedBuffer<real_t>, 2>> rexp;
  std::vector<ddl::AlignedBuffer<cplx>> cslots;
  std::vector<ddl::AlignedBuffer<real_t>> rslots;
  std::mutex free_mutex;
  std::vector<std::size_t> free_slots;  // guarded by free_mutex
};

void build_tenant(const TenantDef& t, std::uint64_t seed, TenantData& d) {
  for (int i = 0; i < kInputs; ++i) {
    const std::uint64_t s = seed * 1000003ULL + t.id * 101ULL + static_cast<std::uint64_t>(i);
    if (t.kind == Kind::fft) {
      ddl::AlignedBuffer<cplx> x(t.n);
      ddl::fill_random(x.span(), s);
      std::array<ddl::AlignedBuffer<cplx>, 2> e{ddl::AlignedBuffer<cplx>(t.n),
                                                ddl::AlignedBuffer<cplx>(t.n)};
      if (t.n <= 1024) {
        // The O(n^2) reference DFT.
        ddl::fft::dft_reference(x.span(), e[0].span());
        ddl::fft::idft_reference(x.span(), e[1].span());
      } else {
        // Too large for the O(n^2) reference: a direct executor on a
        // different tree than the service's (the rightmost baseline).
        ddl::fft::Fft direct = ddl::fft::Fft::from_tree(*ddl::fft::rightmost_tree(t.n));
        std::copy_n(x.data(), t.n, e[0].data());
        direct.forward(e[0].span());
        std::copy_n(x.data(), t.n, e[1].data());
        direct.inverse(e[1].span());
      }
      d.cin.push_back(std::move(x));
      d.cexp.push_back(std::move(e));
    } else {
      ddl::AlignedBuffer<real_t> x(t.n);
      ddl::fill_random(x.span(), s);
      std::array<ddl::AlignedBuffer<real_t>, 2> e{ddl::AlignedBuffer<real_t>(t.n),
                                                  ddl::AlignedBuffer<real_t>(t.n)};
      std::copy_n(x.data(), t.n, e[0].data());
      reference_wht(e[0].data(), t.n);
      for (index_t j = 0; j < t.n; ++j) e[1][j] = e[0][j] / static_cast<real_t>(t.n);
      d.rin.push_back(std::move(x));
      d.rexp.push_back(std::move(e));
    }
  }
  // Client-side request buffers: as many as requests may be outstanding.
  for (std::uint64_t i = 0; i < kOpenWindow; ++i) {
    if (t.kind == Kind::fft) {
      d.cslots.emplace_back(t.n);
    } else {
      d.rslots.emplace_back(t.n);
    }
    d.free_slots.push_back(kOpenWindow - 1 - i);
  }
}

struct Pending {
  std::future<ddl::svc::Result> fut;
  std::uint64_t id = 0;
  std::size_t tenant = 0;
  std::size_t slot = 0;
  int input = 0;
  int dir = 0;
  std::uint64_t due = 0;
  std::uint64_t submit0 = 0;
  std::uint64_t submit1 = 0;
};

/// Columnar per-request record of one rung.
struct RungRecord {
  double rate = 0.0;
  double seconds = 0.0;  // generation window
  std::vector<std::uint32_t> tenant;
  std::vector<std::int64_t> status;
  std::vector<std::int64_t> latency_ns;  // done - due (ok requests; else -1)
  std::vector<std::int64_t> done_ns;     // completion, since rung start (-1: never ran)
  std::vector<std::int64_t> late_ns;     // generator lateness: submit start - due
  std::vector<std::int64_t> submit_ns;   // caller-side time inside submit()
  std::vector<std::int64_t> wait_ns;     // start - submit (dispatched requests)
  std::vector<std::int64_t> exec_ns;     // done - start (dispatched requests)
  std::vector<std::int64_t> occupancy;
  std::vector<std::int64_t> backlog_t_ns;  // backlog samples (time since rung start)
  std::vector<std::int64_t> backlog;
};

class Collector {
 public:
  Collector(std::array<TenantData, 3>& data, Checks& checks, SpanRecorder* spans)
      : data_(data), checks_(checks), spans_(spans), thread_([this] { loop(); }) {
    if (spans_ != nullptr) {
      sp_req_ = spans_->intern("bench.request");
      sp_submit_ = spans_->intern("svc.submit");
      sp_wait_ = spans_->intern("svc.wait");
      sp_exec_ = spans_->intern("svc.exec");
    }
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;
  ~Collector() {
    {
      const std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void begin_rung(RungRecord* rec, std::uint64_t start) {
    const std::lock_guard<std::mutex> lk(mutex_);
    rec_ = rec;
    start_ = start;
  }
  void push(Pending p) {
    {
      const std::lock_guard<std::mutex> lk(mutex_);
      queue_.push_back(std::move(p));
      ++pushed_;
    }
    cv_.notify_all();
  }
  /// Block until fewer than `k` pushed requests are still uncollected.
  void wait_outstanding_below(std::uint64_t k) {
    std::unique_lock<std::mutex> lk(mutex_);
    idle_cv_.wait(lk, [this, k] { return pushed_ - collected_ < k; });
  }
  /// Block until every pushed request has been collected.
  void wait_idle() { wait_outstanding_below(1); }

 private:
  void append(std::size_t tenant, std::int64_t status, std::int64_t lat, std::int64_t done,
              std::int64_t late, std::int64_t submit, std::int64_t wait, std::int64_t exec,
              std::int64_t occ) {
    RungRecord& r = *rec_;
    r.tenant.push_back(kTenants[tenant].id);
    r.status.push_back(status);
    r.latency_ns.push_back(lat);
    r.done_ns.push_back(done);
    r.late_ns.push_back(late);
    r.submit_ns.push_back(submit);
    r.wait_ns.push_back(wait);
    r.exec_ns.push_back(exec);
    r.occupancy.push_back(occ);
  }

  double verify(const Pending& p) {
    const TenantDef& t = kTenants[p.tenant];
    TenantData& d = data_[p.tenant];
    if (t.kind == Kind::fft) {
      return rel_l2(d.cslots[p.slot].data(), d.cexp[static_cast<std::size_t>(p.input)]
                                                  [static_cast<std::size_t>(p.dir)].data(), t.n);
    }
    return rel_l2(d.rslots[p.slot].data(), d.rexp[static_cast<std::size_t>(p.input)]
                                               [static_cast<std::size_t>(p.dir)].data(), t.n);
  }

  void loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lk(mutex_);
        cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      const ddl::svc::Result r = p.fut.get();
      std::int64_t status = static_cast<std::int64_t>(r.status);
      std::int64_t lat = -1;
      if (r.status == Status::ok) {
        const double err = verify(p);
        checks_.compare(err, "tenant " + std::to_string(kTenants[p.tenant].id));
        if (err <= checks_.tolerance) {
          lat = static_cast<std::int64_t>(r.done_ns - p.due);
        } else {
          status = kWrongOutput;
        }
      }
      const bool dispatched = r.start_ns != 0;
      {
        const std::lock_guard<std::mutex> lk(mutex_);
        append(p.tenant, status, lat,
               dispatched ? static_cast<std::int64_t>(r.done_ns - start_) : -1,
               static_cast<std::int64_t>(p.submit0 - p.due),
               static_cast<std::int64_t>(p.submit1 - p.submit0),
               dispatched ? static_cast<std::int64_t>(r.start_ns - r.submit_ns) : -1,
               dispatched ? static_cast<std::int64_t>(r.done_ns - r.start_ns) : -1,
               r.batch_occupancy);
      }
      if (spans_ != nullptr && spans_->has_room(4)) {
        const std::int64_t root =
            spans_->add(sp_req_, p.due, std::max(r.done_ns, p.submit1), -1, p.id);
        spans_->add(sp_submit_, p.submit0, p.submit1, root, p.id);
        if (dispatched) {
          spans_->add(sp_wait_, std::max(r.submit_ns, p.submit0), r.start_ns, root, p.id);
          spans_->add(sp_exec_, r.start_ns, r.done_ns, root, p.id);
        }
      }
      {
        TenantData& d = data_[p.tenant];
        const std::lock_guard<std::mutex> lk(d.free_mutex);
        d.free_slots.push_back(p.slot);
      }
      {
        const std::lock_guard<std::mutex> lk(mutex_);
        ++collected_;
        idle_cv_.notify_all();
      }
    }
  }

  std::array<TenantData, 3>& data_;
  Checks& checks_;
  SpanRecorder* spans_;
  std::uint32_t sp_req_ = 0, sp_submit_ = 0, sp_wait_ = 0, sp_exec_ = 0;
  std::mutex mutex_;  // guards everything below, and rec_'s vectors
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Pending> queue_;
  RungRecord* rec_ = nullptr;
  std::uint64_t start_ = 0;  // current rung's start (now_ns timebase)
  std::uint64_t pushed_ = 0;
  std::uint64_t collected_ = 0;
  bool stop_ = false;
  std::thread thread_;  // last: starts after every member it uses
};

void sleep_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// Drive one rung: Poisson arrivals at `rate` for `seconds` with at most
/// kOpenWindow outstanding, or with rate 0 a closed loop keeping
/// kClosedWindow requests outstanding (each request is then due when it is
/// sent).
void run_rung(ddl::svc::TransformService& svc, std::array<TenantData, 3>& data,
              Collector& collector, RungRecord& rec, double rate, double seconds,
              std::uint64_t seed, std::uint64_t& next_id) {
  rec.rate = rate;
  rec.seconds = seconds;
  ddl::Xoshiro256 rng(seed);
  std::array<int, 3> next_dir{};
  std::array<int, 3> next_input{};
  const std::uint64_t start = now_ns() + 2'000'000;  // 2 ms lead-in
  collector.begin_rung(&rec, start);
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t next_sample = start;
  double t_rel = 0.0;
  for (;;) {
    collector.wait_outstanding_below(rate > 0.0 ? kOpenWindow : kClosedWindow);
    std::uint64_t due = 0;
    if (rate > 0.0) {
      t_rel += -std::log(1.0 - rng.uniform01()) / rate;
      due = start + static_cast<std::uint64_t>(t_rel * 1e9);
    } else {
      due = std::max(now_ns(), start);
    }
    if (due >= end) break;
    const double u = rng.uniform01();
    std::size_t ti = 0;
    double acc = kTenants[0].share;
    while (ti + 1 < kTenants.size() && u >= acc) acc += kTenants[++ti].share;
    const TenantDef& t = kTenants[ti];
    TenantData& d = data[ti];

    // Prepare the payload before the due time: take a free buffer (fewer
    // than kOpenWindow requests are outstanding, so one is free) and copy
    // the next input into it.
    std::size_t slot = 0;
    {
      const std::lock_guard<std::mutex> lk(d.free_mutex);
      slot = d.free_slots.back();
      d.free_slots.pop_back();
    }
    const int input = next_input[ti];
    next_input[ti] = (input + 1) % kInputs;
    const int dir = next_dir[ti];
    next_dir[ti] ^= 1;
    if (t.kind == Kind::fft) {
      std::copy_n(d.cin[static_cast<std::size_t>(input)].data(), t.n, d.cslots[slot].data());
    } else {
      std::copy_n(d.rin[static_cast<std::size_t>(input)].data(), t.n, d.rslots[slot].data());
    }
    while (next_sample <= due) {
      const std::uint64_t now = now_ns();
      rec.backlog_t_ns.push_back(static_cast<std::int64_t>(now - start));
      rec.backlog.push_back(static_cast<std::int64_t>(svc.stats().backlog));
      next_sample += 10'000'000;  // every 10 ms of schedule
    }
    sleep_until_ns(due);
    Pending p;
    p.id = next_id++;
    p.tenant = ti;
    p.slot = slot;
    p.input = input;
    p.dir = dir;
    p.due = due;
    const Direction direction = dir == 0 ? Direction::forward : Direction::inverse;
    p.submit0 = now_ns();
    if (t.kind == Kind::fft) {
      p.fut = svc.submit_fft(d.cslots[slot].span(), direction, 0, t.id);
    } else {
      p.fut = svc.submit_wht(d.rslots[slot].span(), direction, 0, t.id);
    }
    p.submit1 = now_ns();
    collector.push(std::move(p));
  }
  collector.wait_idle();
}

/// One complete set-up: a service with the shipped defaults, and one
/// request per tenant size so the service plans (cold, from its own empty
/// stores) and builds the executors before any timed request.
std::unique_ptr<ddl::svc::TransformService> set_up(std::array<TenantData, 3>& data) {
  auto svc = std::make_unique<ddl::svc::TransformService>(ddl::svc::ServiceConfig{});
  for (std::size_t ti = 0; ti < kTenants.size(); ++ti) {
    const TenantDef& t = kTenants[ti];
    TenantData& d = data[ti];
    ddl::svc::Result r;
    if (t.kind == Kind::fft) {
      std::copy_n(d.cin[0].data(), t.n, d.cslots[0].data());
      r = svc->submit_fft(d.cslots[0].span(), Direction::forward, 0, t.id).get();
    } else {
      std::copy_n(d.rin[0].data(), t.n, d.rslots[0].data());
      r = svc->submit_wht(d.rslots[0].span(), Direction::forward, 0, t.id).get();
    }
    if (r.status != Status::ok) {
      throw std::runtime_error(std::string("svc_mixed: warm-up request failed: ") +
                               ddl::svc::status_name(r.status));
    }
  }
  return svc;
}

void write_rung(Json& js, const RungRecord& r, bool traced) {
  js.begin_object();
  js.field("rate", r.rate);
  js.field("seconds", r.seconds);
  js.field("traced", traced);
  js.array("tenant", r.tenant);
  js.array("status", r.status);
  js.array("latency_ns", r.latency_ns);
  js.array("done_ns", r.done_ns);
  js.array("late_ns", r.late_ns);
  js.array("submit_ns", r.submit_ns);
  js.array("wait_ns", r.wait_ns);
  js.array("exec_ns", r.exec_ns);
  js.array("occupancy", r.occupancy);
  js.array("backlog_t_ns", r.backlog_t_ns);
  js.array("backlog", r.backlog);
  js.end_object();
}

}  // namespace

void run_svc_mixed(const RunConfig& cfg, Json& js) {
  // Pin the process to one CPU before any thread starts (threads inherit
  // the mask). On a 4-vCPU host whose vCPUs share about one core, wake-ups
  // handed between vCPUs stall for milliseconds and made every service
  // latency unsteady from run to run; on one CPU the generator, collector,
  // batcher and pool threads time-share under the kernel scheduler. The
  // rungs run on the first allowed CPU; the capacity segments move
  // round-robin over all of them, because each vCPU of that host turned
  // slow for seconds to minutes at a time (a busy neighbour on its core)
  // and the capacity is read from the run's quieter windows.
  const std::vector<int> cpus = allowed_cpus();
  if (!cpus.empty()) pin_process(cpus.front());
  ddl::parallel::set_threads(cfg.nt);
  // Sleep precision for the generator: the default 50 us timer slack would
  // make every due time late by up to the slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  std::array<TenantData, 3> data;
  for (std::size_t ti = 0; ti < kTenants.size(); ++ti) build_tenant(kTenants[ti], cfg.seed, data[ti]);

  std::vector<double> setup_s;
  std::unique_ptr<ddl::svc::TransformService> svc;
  for (int i = 0; i < kSetups; ++i) {
    svc.reset();
    const std::uint64_t t0 = now_ns();
    svc = set_up(data);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Checks checks;
  checks.tolerance = 1e-12;
  SpanRecorder spans(cfg.trace ? 1u << 20 : 0u);
  std::uint64_t next_id = 0;
  std::vector<RungRecord> rungs(kRungs.size());
  std::vector<RungRecord> closed(kClosedSegments);
  RungRecord untraced_ref;
  {
    Collector collector(data, checks, cfg.trace ? &spans : nullptr);
    // Traced runs spend one extra rung untraced at the measured rate, the
    // base of the tracing-overhead comparison. Equal time for each rung.
    const double closed_s = cfg.seconds * kClosedShare / static_cast<double>(kClosedSegments);
    const double rung_s = cfg.seconds * (1.0 - kClosedShare) /
                          static_cast<double>(kRungs.size() + (cfg.trace ? 1 : 0));
    std::size_t segment = 0;
    const auto closed_segment = [&] {
      if (!cpus.empty()) pin_process(cpus[segment % cpus.size()]);
      run_rung(*svc, data, collector, closed[segment], 0.0, closed_s,
               cfg.seed * 7919ULL + 99 + segment, next_id);
      if (!cpus.empty()) pin_process(cpus.front());
      ++segment;
    };
    closed_segment();
    if (cfg.trace) {
      Collector plain(data, checks, nullptr);
      run_rung(*svc, data, plain, untraced_ref, kMeasuredRung, rung_s, cfg.seed * 7919ULL, next_id);
    }
    for (std::size_t i = 0; i < kRungs.size(); ++i) {
      run_rung(*svc, data, collector, rungs[i], kRungs[i], rung_s, cfg.seed * 7919ULL + i + 1,
               next_id);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      closed_segment();
    }
  }

  // An explicit WHT round trip through the service: inverse(forward(x)) == x.
  {
    TenantData& d = data[2];
    std::copy_n(d.rin[0].data(), kTenants[2].n, d.rslots[0].data());
    const auto a = svc->submit_wht(d.rslots[0].span(), Direction::forward, 0, 3).get();
    const auto b = svc->submit_wht(d.rslots[0].span(), Direction::inverse, 0, 3).get();
    const bool ok = a.status == Status::ok && b.status == Status::ok;
    checks.compare(ok ? rel_l2(d.rslots[0].data(), d.rin[0].data(), kTenants[2].n) : 1.0,
                   "wht round trip");
  }

  const ddl::svc::TransformService::Stats stats = svc->stats();
  svc->drain();

  js.array("setup_s", setup_s);
  checks.write(js);
  js.begin_object("svc_mixed");
  js.field("measured_rate", kMeasuredRung);
  js.begin_array("tenants");
  for (const TenantDef& t : kTenants) {
    js.begin_object();
    js.field("id", static_cast<std::uint64_t>(t.id));
    js.field("kind", t.kind == Kind::fft ? "fft" : "wht");
    js.field("n", static_cast<std::int64_t>(t.n));
    js.field("share", t.share);
    js.end_object();
  }
  js.end_array();
  js.begin_array("rungs");
  for (const RungRecord& r : rungs) write_rung(js, r, cfg.trace);
  js.end_array();
  js.field("closed_window", kClosedWindow);
  js.begin_array("closed");
  for (const RungRecord& r : closed) write_rung(js, r, cfg.trace);
  js.end_array();
  if (cfg.trace) {
    js.begin_array("untraced_rungs");
    write_rung(js, untraced_ref, false);
    js.end_array();
  }
  js.begin_object("stats");
  js.field("submitted", stats.submitted);
  js.field("completed", stats.completed);
  js.field("rejected_full", stats.rejected_full);
  js.field("deadline_expired", stats.deadline_expired);
  js.field("failed", stats.failed);
  js.field("batches", stats.batches);
  js.field("batched_requests", stats.batched_requests);
  js.field("fallback_plans", stats.fallback_plans);
  js.field("model_fallbacks", stats.model_fallbacks);
  js.field("queue_peak", stats.queue_peak);
  js.end_object();
  js.end_object();
  if (cfg.trace) spans.write(js);
}

}  // namespace perfbench

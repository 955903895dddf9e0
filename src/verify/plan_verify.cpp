#include "ddl/verify/plan_verify.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <string_view>

#include "ddl/codelets/codelets.hpp"
#include "ddl/common/check.hpp"
#include "ddl/common/env.hpp"
#include "ddl/common/mathutil.hpp"
#include "ddl/plan/grammar.hpp"

namespace ddl::verify {

index_t scratch_requirement(const plan::Node& tree, Transform kind) {
  // A Stockham leaf needs a full 2n region: n for the strided pack plus n
  // for the ping-pong buffer (stride-1 leaves use only n of it, but the
  // symbolic demand is the worst embedding). Codelet leaves run in place.
  if (tree.is_leaf()) return tree.stockham ? 2 * tree.n : 0;
  const index_t left = scratch_requirement(*tree.left, kind);
  const index_t right = scratch_requirement(*tree.right, kind);
  // A ddl node parks its n-element reorganization region while the left
  // subtree executes (executor.cpp hands children arena_off + n); the right
  // subtree runs after the region is released. The FFT additionally needs n
  // elements for the closing stride permutation of every split.
  index_t need = std::max(tree.ddl ? tree.n + left : left, right);
  if (kind == Transform::fft) need = std::max(need, tree.n);
  return need;
}

namespace {

void diag(Report& report, Rule rule, const std::string& path, std::string message,
          index_t expected = 0, index_t actual = 0) {
  report.diagnostics.push_back(Diagnostic{rule, path, std::move(message), expected, actual});
}

void check_leaf(const plan::Node& node, const std::string& path, const VerifyOptions& opts,
                Report& report) {
  if (node.n < 1) {
    diag(report, Rule::size_product, path, "leaf size must be >= 1", 1, node.n);
    return;
  }
  if (node.stockham) {
    // st(n) is a DFT algorithm; the WHT executor has no kernel for it. Size
    // legality (pow2 >= 2) is enforced at construction by make_stockham_leaf,
    // but a verifier must not trust constructors it didn't run.
    if (opts.transform == Transform::wht) {
      diag(report, Rule::codelet_coverage, path,
           "Stockham autosort leaf is FFT-only (no WHT kernel exists for it)", 0, node.n);
    } else if (node.n < 2 || !is_pow2(node.n)) {
      diag(report, Rule::codelet_coverage, path,
           "Stockham leaf size must be a power of two >= 2", 2, node.n);
    }
    return;
  }
  if (opts.transform == Transform::wht) {
    if (!is_pow2(node.n)) {
      diag(report, Rule::codelet_coverage, path,
           "WHT leaf size is not a power of two (no kernel accepts it)", 0, node.n);
    } else if (opts.require_codelets && !codelets::has_wht_codelet(node.n)) {
      diag(report, Rule::codelet_coverage, path, "no generated WHT codelet for this leaf size",
           0, node.n);
    }
  } else if (opts.require_codelets && !codelets::has_dft_codelet(node.n)) {
    diag(report, Rule::codelet_coverage, path, "no generated DFT codelet for this leaf size", 0,
         node.n);
  }
}

void check_node(const plan::Node& node, const std::string& path, const VerifyOptions& opts,
                Report& report) {
  // Property-1 containment: the subtree's access set (in units of its base
  // stride) must stay inside the [0, n) index range its context hands it.
  // Reported at the deepest node whose footprint escapes its own size.
  const index_t extent = effective_extent(node, opts.transform);
  if (node.n >= 1 && extent > node.n) {
    std::ostringstream os;
    os << "access set extends to index " << (extent - 1) * opts.root_stride
       << ", beyond the node's " << node.n << "-element range";
    diag(report, Rule::stride_bounds, path, os.str(), node.n, extent);
  }

  if (node.is_leaf()) {
    check_leaf(node, path, opts, report);
    return;
  }

  const index_t n1 = node.left->n;
  const index_t n2 = node.right->n;
  if (n1 < 1 || n2 < 1 || node.n != n1 * n2) {
    diag(report, Rule::size_product, path, "child sizes do not multiply to the node size",
         n1 * n2, node.n);
  }
  if (node.ddl && (n1 == 1 || n2 == 1)) {
    diag(report, Rule::ddl_legality, path,
         "ddl flag on a degenerate split (size-1 factor): reorganization cannot change any "
         "stride here",
         2, n1 == 1 ? n1 : n2);
  }
  if (node.fused) {
    if (!node.ddl) {
      diag(report, Rule::ddl_legality, path,
           "fused twiddle+scatter flag on a non-ddl split (there is no scatter to fuse into)", 1,
           0);
    }
    if (opts.transform == Transform::wht) {
      diag(report, Rule::ddl_legality, path,
           "fused twiddle+scatter split is FFT-only (WHT has no twiddle pass)", 0, node.n);
    }
  }
  // Lane arenas: a fan-out hands each child a fresh 2*child.n-element
  // ScratchPool arena; the child's symbolic demand must fit it.
  const index_t need = scratch_requirement(node, opts.transform);
  if (node.n >= 1 && need > 2 * node.n) {
    diag(report, Rule::scratch_sizing, path,
         "subtree scratch demand exceeds the 2n arena its executor lane provisions",
         2 * node.n, need);
  }

  check_node(*node.left, path + ".L", opts, report);
  check_node(*node.right, path + ".R", opts, report);
}

}  // namespace

Report verify_plan(const plan::Node& tree, const VerifyOptions& opts) {
  Report report;
  check_node(tree, "root", opts, report);

  // Root arena: what the executor actually provisions (2n) unless the
  // caller supplies its own budget.
  const index_t capacity = opts.scratch_capacity >= 0 ? opts.scratch_capacity : 2 * tree.n;
  const index_t need = scratch_requirement(tree, opts.transform);
  if (need > capacity) {
    diag(report, Rule::scratch_sizing, "root",
         "plan scratch demand exceeds the provisioned arena", capacity, need);
  }

  if (opts.check_footprint) {
    Report races = analyze_footprint(tree, opts.transform);
    for (auto& d : races.diagnostics) report.diagnostics.push_back(std::move(d));
  }
  if (opts.check_round_trip && !plan::round_trips(tree)) {
    diag(report, Rule::grammar_round_trip, "root",
         "textual form does not parse back to an equal tree");
  }
  return report;
}

namespace {

std::atomic<int> g_enforce{-1};

bool default_enforcement() {
  // Historical semantics kept: *any* value other than "0" enables (this
  // knob predates the canonical flag vocabulary in env.hpp).
  if (const char* env = ddl::env::get("DDL_VERIFY_PLANS")) {
    return std::string_view(env) != "0";
  }
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

}  // namespace

bool enforcement_enabled() {
  const int mode = g_enforce.load(std::memory_order_relaxed);
  if (mode >= 0) return mode != 0;
  static const bool from_environment = default_enforcement();
  return from_environment;
}

void set_enforcement(int mode) {
  DDL_REQUIRE(mode >= -1 && mode <= 1, "enforcement mode is -1, 0, or 1");
  g_enforce.store(mode, std::memory_order_relaxed);
}

Report verify_service_config(const ServiceLimits& limits) {
  Report report;
  // Queue bounds: the queue is the backpressure valve, so it must exist
  // (>= 1) and stay small enough that "full" means something.
  if (limits.queue_capacity < 1 || limits.queue_capacity > kMaxServiceQueue) {
    diag(report, Rule::svc_queue_bounds,
         "config.queue_capacity", "queue capacity outside [1, kMaxServiceQueue]",
         static_cast<index_t>(kMaxServiceQueue), static_cast<index_t>(limits.queue_capacity));
  }
  // Bucket limits: a dispatch coalesces at most max_batch requests, which
  // can never exceed what the queue can hold.
  if (limits.max_batch < 1 || limits.max_batch > kMaxServiceBatch) {
    diag(report, Rule::svc_bucket_limits,
         "config.max_batch", "batch width outside [1, kMaxServiceBatch]",
         static_cast<index_t>(kMaxServiceBatch), static_cast<index_t>(limits.max_batch));
  } else if (limits.queue_capacity >= 1 && limits.max_batch > limits.queue_capacity) {
    diag(report, Rule::svc_bucket_limits,
         "config.max_batch", "batch width exceeds the queue capacity",
         static_cast<index_t>(limits.queue_capacity), static_cast<index_t>(limits.max_batch));
  }
  if (limits.batch_delay_ns < 0 || limits.batch_delay_ns > kMaxServiceDelayNs) {
    diag(report, Rule::svc_bucket_limits,
         "config.batch_delay_ns", "bucket hold delay outside [0, kMaxServiceDelayNs]",
         static_cast<index_t>(kMaxServiceDelayNs), static_cast<index_t>(limits.batch_delay_ns));
  }
  if (limits.min_points < 2) {
    diag(report, Rule::svc_bucket_limits,
         "config.min_points", "smallest admissible transform must be >= 2", 2,
         limits.min_points);
  }
  if (limits.max_points < limits.min_points) {
    diag(report, Rule::svc_bucket_limits,
         "config.max_points", "size window is empty (max_points < min_points)",
         limits.min_points, limits.max_points);
  }
  // Tenant policies: every weight is a per-rotation DRR credit multiplier
  // and every quota a share of the bounded queue; ids must be unique or
  // the service could not attribute a request to one policy.
  const auto tenant_path = [](std::size_t i, const char* field) {
    std::ostringstream os;
    os << "config.tenants[" << i << "]." << field;
    return os.str();
  };
  for (std::size_t i = 0; i < limits.tenants.size(); ++i) {
    const ServiceLimits::TenantShape& t = limits.tenants[i];
    if (t.weight < 1 || t.weight > kMaxTenantWeight) {
      diag(report, Rule::svc_tenant_policy, tenant_path(i, "weight"),
           "tenant fair-scheduling weight outside [1, kMaxTenantWeight]",
           static_cast<index_t>(kMaxTenantWeight), static_cast<index_t>(t.weight));
    }
    if (t.max_queued < 0 ||
        (limits.queue_capacity >= 1 && t.max_queued > limits.queue_capacity)) {
      diag(report, Rule::svc_tenant_policy, tenant_path(i, "max_queued"),
           "tenant quota outside [0, queue_capacity] (0 = full capacity)",
           static_cast<index_t>(limits.queue_capacity),
           static_cast<index_t>(t.max_queued));
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (limits.tenants[j].id == t.id) {
        diag(report, Rule::svc_tenant_policy, tenant_path(i, "id"),
             "duplicate tenant id (policy would be ambiguous)",
             static_cast<index_t>(limits.tenants[j].id), static_cast<index_t>(t.id));
        break;
      }
    }
  }
  if (limits.default_tenant_weight < 1 ||
      limits.default_tenant_weight > kMaxTenantWeight) {
    diag(report, Rule::svc_tenant_policy, "config.default_tenant_weight",
         "default tenant weight outside [1, kMaxTenantWeight]",
         static_cast<index_t>(kMaxTenantWeight),
         static_cast<index_t>(limits.default_tenant_weight));
  }
  if (limits.default_tenant_quota < 0 ||
      (limits.queue_capacity >= 1 &&
       limits.default_tenant_quota > limits.queue_capacity)) {
    diag(report, Rule::svc_tenant_policy, "config.default_tenant_quota",
         "default tenant quota outside [0, queue_capacity] (0 = full capacity)",
         static_cast<index_t>(limits.queue_capacity),
         static_cast<index_t>(limits.default_tenant_quota));
  }
  // Priority lane: the reserve carves admission headroom out of the queue
  // for deadline-critical requests; it must leave at least one slot for
  // normal traffic or the service admits nothing but the critical lane.
  if (limits.critical_reserve < 0 ||
      (limits.queue_capacity >= 1 &&
       limits.critical_reserve > limits.queue_capacity - 1)) {
    diag(report, Rule::svc_lane_rules, "config.critical_reserve",
         "priority-lane reserve outside [0, queue_capacity - 1]",
         static_cast<index_t>(limits.queue_capacity >= 1 ? limits.queue_capacity - 1 : 0),
         static_cast<index_t>(limits.critical_reserve));
  }
  return report;
}

Report verify_shard_config(long long shards, const ServiceLimits& limits) {
  Report report = verify_service_config(limits);
  // Shard bounds: each shard runs its own batcher thread and queue; an
  // unbounded shard count turns a config typo into a thread bomb.
  if (shards < 1 || shards > kMaxServiceShards) {
    diag(report, Rule::svc_shard_rules, "config.shards",
         "shard count outside [1, kMaxServiceShards]",
         static_cast<index_t>(kMaxServiceShards), static_cast<index_t>(shards));
  }
  return report;
}

namespace {

/// chunk_overlap diagnostic for a racy stream stage (admission-time check of
/// the families the streaming hot paths fan out).
void check_stream_stage(Report& report, const Stage& stage) {
  const auto overlap = family_overlap(stage.writes);
  if (!overlap) return;
  diag(report, Rule::chunk_overlap, stage.node_path,
       stage.op + ": concurrently-written chunks overlap", 0, overlap->index);
}

}  // namespace

Report verify_stream_config(const StreamLimits& limits) {
  Report report;
  // Real-transform geometry: the n/2 packing trick needs an even length,
  // and the half transform needs at least one complex point.
  if (limits.rfft_n >= 0 && (limits.rfft_n < 2 || limits.rfft_n % 2 != 0)) {
    diag(report, Rule::stream_geometry, "stream.rfft.n",
         "real FFT length must be even and >= 2", 2, limits.rfft_n);
  }
  if (limits.rfft_batch >= 0 &&
      (limits.rfft_batch < 1 || limits.rfft_batch > kMaxStreamBatch)) {
    diag(report, Rule::stream_geometry, "stream.rfft.batch",
         "packed batch lanes outside [1, kMaxStreamBatch]",
         static_cast<index_t>(kMaxStreamBatch), limits.rfft_batch);
  }
  // STFT geometry: the frame is a real transform; the hop must tile it so
  // the precomputed COLA denominator is hop-periodic.
  if (limits.stft_fft >= 0 && (limits.stft_fft < 2 || limits.stft_fft % 2 != 0)) {
    diag(report, Rule::stream_geometry, "stream.stft.fft_size",
         "STFT frame length must be even and >= 2", 2, limits.stft_fft);
  }
  if (limits.stft_hop >= 0) {
    if (limits.stft_hop < 1 || (limits.stft_fft >= 1 && limits.stft_hop > limits.stft_fft)) {
      diag(report, Rule::stream_geometry, "stream.stft.hop",
           "hop outside [1, fft_size]", limits.stft_fft, limits.stft_hop);
    } else if (limits.stft_fft >= 1 && limits.stft_fft % limits.stft_hop != 0) {
      diag(report, Rule::stream_geometry, "stream.stft.hop",
           "hop must divide fft_size (COLA denominator is hop-periodic)",
           limits.stft_fft, limits.stft_hop);
    }
  }
  if (limits.stft_window >= 0 && limits.stft_window > 1) {
    diag(report, Rule::stream_geometry, "stream.stft.window",
         "unknown window kind (0 = hann, 1 = rectangular)", 1, limits.stft_window);
  }
  // COLA admission: per-sample reconstruction divides by the hop-periodic
  // denominator d[r] = sum_k w^2[r + k*hop]; a (near-)zero residue means
  // the window/hop pair cannot reconstruct (e.g. Hann at hop == fft_size).
  if (limits.stft_window >= 0 && limits.stft_window <= 1 && limits.stft_fft >= 2 &&
      limits.stft_fft % 2 == 0 && limits.stft_hop >= 1 &&
      limits.stft_hop <= limits.stft_fft && limits.stft_fft % limits.stft_hop == 0) {
    const index_t n = limits.stft_fft;
    const index_t hop = limits.stft_hop;
    double min_d = std::numeric_limits<double>::infinity();
    index_t min_r = 0;
    for (index_t r = 0; r < hop; ++r) {
      double d = 0.0;
      for (index_t j = r; j < n; j += hop) {
        const double w = limits.stft_window == 0
                             ? 0.5 - 0.5 * std::cos(2.0 * std::numbers::pi *
                                                    static_cast<double>(j) /
                                                    static_cast<double>(n))
                             : 1.0;
        d += w * w;
      }
      if (d < min_d) {
        min_d = d;
        min_r = r;
      }
    }
    if (!(min_d > 1e-9)) {
      diag(report, Rule::stream_geometry, "stream.stft.window",
           "window overlap-add denominator vanishes (COLA violated)", 0, min_r);
    }
  }
  // Convolver geometry: overlap-save needs the FFT to cover one block plus
  // one partition minus one, or the circular wraparound corrupts the block.
  if (limits.conv_block >= 0 && limits.conv_block < 1) {
    diag(report, Rule::stream_geometry, "stream.conv.block",
         "block size must be >= 1", 1, limits.conv_block);
  }
  if (limits.conv_taps >= 0 && limits.conv_taps < 1) {
    diag(report, Rule::stream_geometry, "stream.conv.taps",
         "FIR length must be >= 1", 1, limits.conv_taps);
  }
  if (limits.conv_fft >= 0 && limits.conv_block >= 1 && limits.conv_taps >= 1) {
    const index_t part = std::min(limits.conv_block, limits.conv_taps);
    const index_t min_fft = limits.conv_block + part - 1;
    if (limits.conv_fft < min_fft || limits.conv_fft % 2 != 0) {
      diag(report, Rule::stream_geometry, "stream.conv.fft_size",
           "FFT size must be even and >= block + partition - 1", min_fft,
           limits.conv_fft);
    }
  }
  if (!report.ok()) return report;
  // Footprint admission of the fanned-out stream passes: the batched rfft
  // packing lanes and the per-bin delay-line MAC must be race-free.
  if (limits.rfft_n >= 2) {
    check_stream_stage(
        report, rfft_pack_stage(limits.rfft_n / 2,
                                limits.rfft_batch >= 1 ? limits.rfft_batch : 1));
  }
  if (limits.conv_fft >= 2) {
    check_stream_stage(report, fdl_mac_stage(limits.conv_fft / 2 + 1));
  }
  return report;
}

void require_verified(const plan::Node& tree, Transform kind, const char* context) {
  VerifyOptions opts;
  opts.transform = kind;
  const Report report = verify_plan(tree, opts);
  if (report.ok()) return;
  throw std::invalid_argument(std::string(context) +
                              ": plan rejected by ddl::verify — " + report.to_string());
}

}  // namespace ddl::verify

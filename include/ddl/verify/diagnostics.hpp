#pragma once
/// \file diagnostics.hpp
/// \brief Structured diagnostics for the static plan verifier.
///
/// ddl::verify never throws on the first violation it finds: every rule
/// failure is collected as a Diagnostic (which rule, at which node, what was
/// expected vs. found), and a whole-plan Report is returned to the caller.
/// The executors' admission gate turns a non-empty Report into one
/// std::invalid_argument whose message is the rendered report; tests assert
/// on rule ids rather than message text.

#include <string>
#include <vector>

#include "ddl/common/types.hpp"

namespace ddl::verify {

/// The rule catalogue (see docs/VERIFICATION.md for the full statements).
enum class Rule {
  size_product,       ///< split size equals the product of its child sizes
  stride_bounds,      ///< every access stays inside the node's (size, stride) extent
  ddl_legality,       ///< no ddl flag on degenerate (size-1 factor) splits
  codelet_coverage,   ///< every leaf is executable (codelet or valid fallback)
  scratch_sizing,     ///< symbolic scratch demand fits what the executor provisions
  chunk_overlap,      ///< concurrently-written chunk families are pairwise disjoint
  grammar_round_trip, ///< to_string -> parse_tree reproduces the tree
  svc_queue_bounds,   ///< service queue capacity within [1, limit]
  svc_bucket_limits,  ///< service batch/bucket knobs consistent (max_batch,
                      ///< size window, delay within the supported ranges)
  stream_geometry,    ///< streaming shapes consistent (even rfft length,
                      ///< hop divides the frame, convolver FFT covers
                      ///< block + partition - 1, COLA denominator nonzero)
  svc_tenant_policy,  ///< per-tenant weight/quota within limits, ids unique
  svc_lane_rules,     ///< priority-lane reserve leaves room for normal traffic
  svc_shard_rules,    ///< sharded service: shard count within [1, limit]
};

/// Stable short name for a rule ("size_product", ...), for messages and CLI.
const char* rule_name(Rule rule) noexcept;

/// One rule violation at one tree location.
struct Diagnostic {
  Rule rule = Rule::size_product;
  std::string node_path;  ///< "root", "root.L", "root.L.R", ...
  std::string message;    ///< human-readable statement of the violation
  index_t expected = 0;   ///< rule-specific bound (limit, required size, ...)
  index_t actual = 0;     ///< rule-specific observed value
};

/// All violations found in one verification pass. Empty means the plan is
/// statically proven safe under the verifier's model.
struct Report {
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool ok() const noexcept { return diagnostics.empty(); }

  /// True iff some diagnostic carries `rule`.
  [[nodiscard]] bool has(Rule rule) const noexcept;

  /// Multi-line rendering: one "rule @ path: message (expected E, got A)"
  /// line per diagnostic; "plan verifies clean" when ok().
  [[nodiscard]] std::string to_string() const;
};

}  // namespace ddl::verify

// Bench-result comparator behind the CI perf gate.
//
// Reads two bench JSON documents (a committed baseline and a fresh run),
// extracts the comparable rate metrics from each, and flags regressions
// beyond a relative tolerance. Only rate-like metrics are compared —
// GFLOP/s, jobs/s, speedups, hit rates — because raw latencies duplicate
// them with more noise.
//
// Cross-machine use: a baseline recorded on a fast dev box would make every
// absolute comparison on a slower CI runner fail. The `anchor` option picks
// one metric as a machine-speed probe and rescales the whole baseline by
// current[anchor] / baseline[anchor] before comparing, so the gate measures
// relative shape (did GEMM regress vs everything else?) rather than absolute
// machine speed.
//
// Quick-vs-full schemas: a `--quick` bench run emits a subset of the full
// baseline's metrics. By default the comparison covers the intersection;
// `require_all` makes baseline-only metrics fatal. An *empty* intersection
// is always an error — it means the schema drifted and the gate would
// otherwise pass vacuously.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace tqr::obs {

struct Metric {
  double value = 0;
  bool higher_is_better = true;
};

/// Extracts comparable metrics from a bench document:
///   - a "results" array of {kernel, tile, gflops} rows becomes
///     "gflops.<kernel>.t<tile>" entries;
///   - any other numeric leaf whose name contains "gflops", "jobs_per_s",
///     "speedup", or "hit_rate" is kept under its dotted path
///     ("warm.jobs_per_s").
/// Everything else (latencies, counts, config echoes) is ignored.
std::map<std::string, Metric> extract_metrics(const Json& doc);

struct CompareOptions {
  /// Allowed relative shortfall, e.g. 0.35 = fail below 65% of baseline.
  double tolerance = 0.35;
  /// Baseline metrics absent from the current run are fatal (default: the
  /// comparison covers the intersection).
  bool require_all = false;
  /// When non-empty, compare only metric ids with at least one
  /// dot-separated segment equal to one of these tokens ("geqrt", "tsqrt"
  /// selects the factor-kernel rates; "batched" selects batched.* without
  /// also matching look-alike substrings in other keys).
  std::vector<std::string> only;
  /// Metric id used to rescale the baseline for machine-speed differences;
  /// must be present on both sides. Empty = absolute comparison.
  std::string anchor;
};

struct CompareResult {
  struct Line {
    std::string id;
    double baseline_raw = 0;  // as read from the baseline file
    double baseline = 0;      // after anchor rescaling
    double current = 0;
    double ratio = 0;  // current / adjusted baseline
    bool higher_is_better = true;
    bool regressed = false;
  };
  std::vector<Line> lines;            // every compared metric
  std::vector<std::string> missing;   // baseline-only metric ids
  std::vector<std::string> extra;     // current-only metric ids
  /// Raw anchor values of both files (0 without an anchor); their ratio is
  /// anchor_scale.
  double anchor_baseline = 0, anchor_current = 0;
  double anchor_scale = 1.0;
  int regressions = 0;
  /// Intersection was empty (schema drift) — always fatal.
  bool schema_mismatch = false;
  /// require_all was set and `missing` is non-empty.
  bool missing_fatal = false;

  bool pass() const {
    return regressions == 0 && !schema_mismatch && !missing_fatal;
  }
  /// Human-readable table + verdict, one metric per line. Every row shows
  /// both files' raw values, and with an anchor both anchor values too, so
  /// a ratio that leans on a noisy anchor reading can be told from a move
  /// of the metric itself.
  std::string format() const;
};

/// Throws tqr::InvalidArgument if `anchor` names a metric missing from
/// either side.
CompareResult compare(const std::map<std::string, Metric>& baseline,
                      const std::map<std::string, Metric>& current,
                      const CompareOptions& opts);

}  // namespace tqr::obs

#include "obs/bench_diff.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace tqr::obs {

namespace {

bool rate_like(const std::string& leaf) {
  return leaf.find("gflops") != std::string::npos ||
         leaf.find("jobs_per_s") != std::string::npos ||
         leaf.find("problems_per_s") != std::string::npos ||
         leaf.find("speedup") != std::string::npos ||
         leaf.find("hit_rate") != std::string::npos;
}

// Latency leaves (e.g. the serve sweep's submit_pick_p99_ms) gate in the
// opposite direction: a regression is the number going UP.
bool latency_like(const std::string& leaf) {
  return leaf.find("p99_ms") != std::string::npos ||
         leaf.find("p95_ms") != std::string::npos ||
         leaf.find("p50_ms") != std::string::npos;
}

std::string leaf_of(const std::string& path) {
  const auto dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(dot + 1);
}

/// True when `token` equals one whole dot-separated segment of `id`.
/// Segment (not substring) matching is what keeps gates from silently
/// widening as new metrics land: "--only geqrt" selects
/// gflops.geqrt.t64 but NOT a batched_geqrt-style key, and "--only batched"
/// selects batched.s8.problems_per_s without touching anything else.
bool matches_segment(const std::string& id, const std::string& token) {
  std::size_t pos = 0;
  while (pos <= id.size()) {
    std::size_t dot = id.find('.', pos);
    if (dot == std::string::npos) dot = id.size();
    if (id.compare(pos, dot - pos, token) == 0) return true;
    pos = dot + 1;
  }
  return false;
}

}  // namespace

std::map<std::string, Metric> extract_metrics(const Json& doc) {
  std::map<std::string, Metric> out;
  if (!doc.is_object()) return out;

  // kernels_gbench rows: results[i] = {kernel, tile, gflops, ...}.
  if (const Json* results = doc.find("results");
      results && results->is_array()) {
    for (const Json& row : results->items()) {
      const Json* kernel = row.find("kernel");
      const Json* tile = row.find("tile");
      const Json* gflops = row.find("gflops");
      if (!kernel || !tile || !gflops || !kernel->is_string() ||
          !tile->is_number() || !gflops->is_number())
        continue;
      const std::string id = "gflops." + kernel->as_string() + ".t" +
                             std::to_string(
                                 static_cast<long long>(tile->as_number()));
      out[id] = Metric{gflops->as_number(), true};
    }
  }

  for (const auto& [path, value] : doc.flatten_numbers()) {
    if (path.rfind("results.", 0) == 0) continue;  // handled above
    const std::string leaf = leaf_of(path);
    if (rate_like(leaf))
      out[path] = Metric{value, true};
    else if (latency_like(leaf))
      out[path] = Metric{value, false};
  }
  return out;
}

CompareResult compare(const std::map<std::string, Metric>& baseline,
                      const std::map<std::string, Metric>& current,
                      const CompareOptions& opts) {
  TQR_REQUIRE(opts.tolerance >= 0, "tolerance must be non-negative");
  CompareResult r;

  if (!opts.anchor.empty()) {
    const auto b = baseline.find(opts.anchor);
    const auto c = current.find(opts.anchor);
    TQR_REQUIRE(b != baseline.end(),
                "anchor metric '" + opts.anchor + "' missing from baseline");
    TQR_REQUIRE(c != current.end(),
                "anchor metric '" + opts.anchor + "' missing from current");
    TQR_REQUIRE(b->second.value > 0,
                "anchor metric '" + opts.anchor + "' is zero in baseline");
    r.anchor_baseline = b->second.value;
    r.anchor_current = c->second.value;
    r.anchor_scale = c->second.value / b->second.value;
  }

  auto selected = [&](const std::string& id) {
    if (opts.only.empty()) return true;
    return std::any_of(opts.only.begin(), opts.only.end(),
                       [&](const std::string& token) {
                         return matches_segment(id, token);
                       });
  };

  for (const auto& [id, base] : baseline) {
    if (!selected(id)) continue;
    const auto cur = current.find(id);
    if (cur == current.end()) {
      r.missing.push_back(id);
      continue;
    }
    CompareResult::Line line;
    line.id = id;
    line.higher_is_better = base.higher_is_better;
    line.baseline_raw = base.value;
    // The anchor measures machine speed, so it rescales rates directly and
    // inverse-times inversely; all compared metrics are rates (higher
    // better), but keep the direction handling for completeness.
    line.baseline = base.higher_is_better ? base.value * r.anchor_scale
                                          : base.value / r.anchor_scale;
    line.current = cur->second.value;
    line.ratio = line.baseline != 0 ? line.current / line.baseline : 0;
    if (base.higher_is_better) {
      line.regressed = line.current < line.baseline * (1.0 - opts.tolerance);
    } else {
      line.regressed = line.current > line.baseline * (1.0 + opts.tolerance);
    }
    if (line.regressed) ++r.regressions;
    r.lines.push_back(std::move(line));
  }

  for (const auto& [id, m] : current) {
    (void)m;
    if (selected(id) && !baseline.count(id)) r.extra.push_back(id);
  }

  r.schema_mismatch = r.lines.empty();
  r.missing_fatal = opts.require_all && !r.missing.empty();
  return r;
}

std::string CompareResult::format() const {
  std::ostringstream os;
  auto pct = [](double ratio) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.1f%%", (ratio - 1.0) * 100.0);
    return std::string(buf);
  };
  const bool anchored = anchor_baseline > 0;
  if (anchored) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.4g / %.4g = %.3f", anchor_current,
                  anchor_baseline, anchor_scale);
    os << "anchor scale (current/baseline machine speed): " << buf << "\n";
  }
  std::size_t width = 8;
  for (const Line& l : lines) width = std::max(width, l.id.size());
  {
    char head[160];
    if (anchored)
      std::snprintf(head, sizeof head,
                    "%12s %12s %12s %12s %12s  %s", "base_raw", "cur_raw",
                    "base_anchor", "cur_anchor", "base_scaled", "change");
    else
      std::snprintf(head, sizeof head, "%12s %12s  %s", "baseline",
                    "current", "change");
    os << "     " << std::string(width + 1, ' ') << head << "\n";
  }
  for (const Line& l : lines) {
    char vals[160];
    if (anchored)
      std::snprintf(vals, sizeof vals,
                    "%12.4g %12.4g %12.4g %12.4g %12.4g  %s", l.baseline_raw,
                    l.current, anchor_baseline, anchor_current, l.baseline,
                    pct(l.ratio).c_str());
    else
      std::snprintf(vals, sizeof vals, "%12.4g %12.4g  %s", l.baseline,
                    l.current, pct(l.ratio).c_str());
    os << (l.regressed ? "FAIL " : "  ok ") << l.id
       << std::string(width - l.id.size() + 1, ' ') << vals << "\n";
  }
  for (const std::string& id : missing)
    os << (missing_fatal ? "FAIL " : "skip ") << id
       << "  (missing from current run)\n";
  for (const std::string& id : extra)
    os << "  new " << id << "  (not in baseline)\n";
  if (schema_mismatch) {
    os << "ERROR: no metrics in common between baseline and current run "
          "(schema drift?)\n";
  } else {
    os << (pass() ? "PASS" : "FAIL") << ": " << lines.size()
       << " metric(s) compared, " << regressions << " regression(s)";
    if (!missing.empty())
      os << ", " << missing.size() << " missing"
         << (missing_fatal ? " (fatal)" : "");
    os << "\n";
  }
  return os.str();
}

}  // namespace tqr::obs

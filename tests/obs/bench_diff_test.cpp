#include "obs/bench_diff.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace tqr::obs {
namespace {

/// A miniature kernels_gbench document: two kernels at two tiles plus a
/// derived speedup, every gflops value scaled by `scale`.
std::string kernels_doc(double scale) {
  auto g = [scale](double v) { return std::to_string(v * scale); };
  return "{\"bench\": \"kernels\", \"quick\": true, "
         "\"gemm_speedup_at_128\": " + g(3.0) + ", \"results\": ["
         "{\"kernel\": \"gemm_naive\", \"tile\": 64, \"gflops\": " + g(15.0) +
         ", \"sec_per_call\": 1e-5},"
         "{\"kernel\": \"gemm_packed\", \"tile\": 64, \"gflops\": " + g(45.0) +
         ", \"sec_per_call\": 1e-5},"
         "{\"kernel\": \"gemm_naive\", \"tile\": 128, \"gflops\": " + g(16.0) +
         ", \"sec_per_call\": 1e-4},"
         "{\"kernel\": \"gemm_packed\", \"tile\": 128, \"gflops\": " + g(48.0) +
         ", \"sec_per_call\": 1e-4}]}";
}

std::map<std::string, Metric> metrics_of(const std::string& text) {
  return extract_metrics(Json::parse(text));
}

TEST(ExtractMetrics, ResultsRowsBecomeDottedIds) {
  const auto m = metrics_of(kernels_doc(1.0));
  ASSERT_EQ(m.size(), 5u);
  EXPECT_DOUBLE_EQ(m.at("gflops.gemm_naive.t64").value, 15.0);
  EXPECT_DOUBLE_EQ(m.at("gflops.gemm_packed.t128").value, 48.0);
  EXPECT_DOUBLE_EQ(m.at("gemm_speedup_at_128").value, 3.0);
  // Latencies are intentionally not extracted (redundant with the rates).
  EXPECT_EQ(m.count("results.0.sec_per_call"), 0u);
}

TEST(ExtractMetrics, RateLeavesFromNestedObjects) {
  const auto m = metrics_of(
      R"({"cold": {"jobs_per_s": 10, "p50_ms": 3},
          "warm": {"jobs_per_s": 40}, "warm_speedup": 4.0})");
  ASSERT_EQ(m.size(), 4u);
  EXPECT_DOUBLE_EQ(m.at("cold.jobs_per_s").value, 10.0);
  EXPECT_TRUE(m.at("cold.jobs_per_s").higher_is_better);
  EXPECT_DOUBLE_EQ(m.at("warm.jobs_per_s").value, 40.0);
  EXPECT_DOUBLE_EQ(m.at("warm_speedup").value, 4.0);
  // Latency quantiles extract too, gating in the opposite direction (the
  // serve sweep's submit_pick_p99_ms rides this).
  EXPECT_DOUBLE_EQ(m.at("cold.p50_ms").value, 3.0);
  EXPECT_FALSE(m.at("cold.p50_ms").higher_is_better);
}

TEST(ExtractMetrics, LatencyLeafRegressesWhenItGoesUp) {
  const auto base = metrics_of(R"({"sweep": {"s64": {
      "jobs_per_s": 100, "submit_pick_p99_ms": 10}}})");
  const auto slow = metrics_of(R"({"sweep": {"s64": {
      "jobs_per_s": 100, "submit_pick_p99_ms": 25}}})");
  CompareOptions opts;
  opts.tolerance = 0.35;
  const auto r = compare(base, slow, opts);
  EXPECT_FALSE(r.pass());
  EXPECT_EQ(r.regressions, 1);  // p99 up 2.5x fails; jobs_per_s flat passes
  // And the same numbers the other way round improve, not regress.
  EXPECT_TRUE(compare(slow, base, opts).pass());
}

TEST(BenchDiff, IdenticalRunsPass) {
  const auto base = metrics_of(kernels_doc(1.0));
  const auto r = compare(base, base, CompareOptions{});
  EXPECT_TRUE(r.pass());
  EXPECT_EQ(r.regressions, 0);
  EXPECT_EQ(r.lines.size(), 5u);
}

TEST(BenchDiff, SmallNoiseWithinToleranceStillPasses) {
  const auto base = metrics_of(kernels_doc(1.0));
  const auto wobble = metrics_of(kernels_doc(0.80));  // -20% vs 35% tolerance
  CompareOptions opts;
  opts.tolerance = 0.35;
  EXPECT_TRUE(compare(base, wobble, opts).pass());
}

TEST(BenchDiff, TwoTimesSlowdownFails) {
  // The CI acceptance scenario: a synthetic 2x slowdown must exit nonzero.
  const auto base = metrics_of(kernels_doc(1.0));
  const auto slow = metrics_of(kernels_doc(0.5));
  CompareOptions opts;
  opts.tolerance = 0.35;
  const auto r = compare(base, slow, opts);
  EXPECT_FALSE(r.pass());
  EXPECT_EQ(r.regressions, 5);
  for (const auto& line : r.lines) {
    EXPECT_TRUE(line.regressed) << line.id;
    EXPECT_NEAR(line.ratio, 0.5, 1e-12);
  }
  EXPECT_NE(r.format().find("FAIL"), std::string::npos);
}

TEST(BenchDiff, SingleMetricRegressionIsFlagged) {
  const auto base = metrics_of(kernels_doc(1.0));
  auto current = base;
  current["gflops.gemm_packed.t128"].value *= 0.5;
  CompareOptions opts;
  opts.tolerance = 0.35;
  const auto r = compare(base, current, opts);
  EXPECT_FALSE(r.pass());
  EXPECT_EQ(r.regressions, 1);
  for (const auto& line : r.lines)
    EXPECT_EQ(line.regressed, line.id == "gflops.gemm_packed.t128");
}

TEST(BenchDiff, AnchorRescalesAwayUniformMachineSpeed) {
  // A uniformly 2x-slower machine is not a regression once anchored.
  const auto base = metrics_of(kernels_doc(1.0));
  const auto slow = metrics_of(kernels_doc(0.5));
  CompareOptions opts;
  opts.tolerance = 0.10;
  opts.anchor = "gflops.gemm_naive.t128";
  const auto r = compare(base, slow, opts);
  EXPECT_TRUE(r.pass());
  EXPECT_NEAR(r.anchor_scale, 0.5, 1e-12);
  // ...but a *relative* regression still fails under the same anchor.
  auto skew = slow;
  skew["gflops.gemm_packed.t64"].value *= 0.5;
  EXPECT_FALSE(compare(base, skew, opts).pass());
}

TEST(BenchDiff, MissingMetricsSkippedByDefaultFatalWithRequireAll) {
  const auto base = metrics_of(kernels_doc(1.0));
  auto current = base;
  current.erase("gflops.gemm_packed.t128");
  CompareOptions opts;
  const auto lenient = compare(base, current, opts);
  EXPECT_TRUE(lenient.pass());
  ASSERT_EQ(lenient.missing.size(), 1u);
  EXPECT_EQ(lenient.missing[0], "gflops.gemm_packed.t128");

  opts.require_all = true;
  const auto strict = compare(base, current, opts);
  EXPECT_FALSE(strict.pass());
  EXPECT_TRUE(strict.missing_fatal);
}

TEST(BenchDiff, EmptyIntersectionIsSchemaMismatch) {
  const auto base = metrics_of(kernels_doc(1.0));
  const auto other = metrics_of(R"({"warm": {"jobs_per_s": 10}})");
  const auto r = compare(base, other, CompareOptions{});
  EXPECT_TRUE(r.schema_mismatch);
  EXPECT_FALSE(r.pass());
  EXPECT_NE(r.format().find("schema drift"), std::string::npos);
}

TEST(BenchDiff, OnlyFilterNarrowsTheComparison) {
  const auto base = metrics_of(kernels_doc(1.0));
  auto current = base;
  current["gemm_speedup_at_128"].value = 0.1;  // would regress
  CompareOptions opts;
  opts.only = {"gflops"};
  const auto r = compare(base, current, opts);
  EXPECT_TRUE(r.pass());
  EXPECT_EQ(r.lines.size(), 4u);
}

TEST(BenchDiff, OnlyFilterAcceptsMultipleTokens) {
  // The CI factor-kernel gate selects geqrt and tsqrt rates together; a
  // metric matches when any token equals one of its key segments.
  const auto base = metrics_of(kernels_doc(1.0));
  auto current = base;
  CompareOptions opts;
  opts.only = {"gemm_naive", "gemm_packed"};
  const auto both = compare(base, current, opts);
  EXPECT_TRUE(both.pass());
  EXPECT_EQ(both.lines.size(), 4u);
  // A regression inside the selection still fails; one outside it cannot.
  current["gflops.gemm_naive.t64"].value *= 0.1;
  EXPECT_FALSE(compare(base, current, opts).pass());
  opts.only = {"gemm_packed"};
  EXPECT_TRUE(compare(base, current, opts).pass());
}

TEST(BenchDiff, OnlyFilterMatchesWholeSegmentsNotSubstrings) {
  // A "geqrt" gate must not silently widen to batched_geqrt-style keys as
  // new benches land; tokens match whole dot-separated segments only.
  std::map<std::string, Metric> base;
  base["gflops.geqrt.t64"] = Metric{10.0, true};
  base["gflops.batched_geqrt.t8"] = Metric{50.0, true};
  auto current = base;
  current["gflops.batched_geqrt.t8"].value = 1.0;  // 50x regression
  CompareOptions opts;
  opts.tolerance = 0.35;
  opts.only = {"geqrt"};
  const auto r = compare(base, current, opts);
  EXPECT_TRUE(r.pass());  // the batched key is outside the gate
  ASSERT_EQ(r.lines.size(), 1u);
  EXPECT_EQ(r.lines[0].id, "gflops.geqrt.t64");
  // The batched key is reachable by its own exact segment.
  opts.only = {"batched_geqrt"};
  EXPECT_FALSE(compare(base, current, opts).pass());
}

TEST(ExtractMetrics, BatchedProblemRatesExtractAsRates) {
  const auto m = metrics_of(
      R"({"batched": {"s8": {"problems_per_s": 5e6,
                             "loop_problems_per_s": 1e6}},
          "batch": 256})");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.at("batched.s8.problems_per_s").higher_is_better);
  EXPECT_TRUE(m.at("batched.s8.loop_problems_per_s").higher_is_better);
  EXPECT_EQ(m.count("batch"), 0u);  // config scalar, not a gated metric
}

TEST(BenchDiff, ReportShowsRawValuesAndBothAnchorsPerRow) {
  // An anchored ratio leans on the anchor's own reading, so each row shows
  // the raw values of both files and both anchor values beside it.
  const auto base = metrics_of(kernels_doc(1.0));
  auto current = metrics_of(kernels_doc(0.5));
  current["gflops.gemm_packed.t64"].value = 30.0;
  CompareOptions opts;
  opts.anchor = "gflops.gemm_naive.t128";
  const auto r = compare(base, current, opts);
  EXPECT_DOUBLE_EQ(r.anchor_baseline, 16.0);
  EXPECT_DOUBLE_EQ(r.anchor_current, 8.0);
  const auto line = std::find_if(r.lines.begin(), r.lines.end(),
                                 [](const CompareResult::Line& l) {
                                   return l.id == "gflops.gemm_packed.t64";
                                 });
  ASSERT_NE(line, r.lines.end());
  EXPECT_DOUBLE_EQ(line->baseline_raw, 45.0);
  EXPECT_DOUBLE_EQ(line->baseline, 22.5);
  const std::string text = r.format();
  const auto row = text.find("gflops.gemm_packed.t64");
  ASSERT_NE(row, std::string::npos);
  const std::string row_text = text.substr(row, text.find('\n', row) - row);
  for (const char* v : {"45", "30", "16", "8", "22.5", "+33.3%"})
    EXPECT_NE(row_text.find(v), std::string::npos) << v << " in " << row_text;
  EXPECT_NE(text.find("base_raw"), std::string::npos);
}

TEST(BenchDiff, AnchorMustExistOnBothSides) {
  const auto base = metrics_of(kernels_doc(1.0));
  auto current = base;
  CompareOptions opts;
  opts.anchor = "gflops.nonexistent.t1";
  EXPECT_THROW(compare(base, current, opts), InvalidArgument);
}

}  // namespace
}  // namespace tqr::obs

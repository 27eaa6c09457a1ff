// bench_diff — the perf-regression comparator behind CI's perf gate.
//
//   bench_diff --baseline BENCH_kernels.json --current fresh.json
//              [--tolerance 0.35] [--anchor gflops.gemm_naive.t128]
//              [--only geqrt,tsqrt] [--require-all]
//   bench_diff --current fresh.json --write-baseline BENCH_kernels.json
//   bench_diff --current fresh.json --list
//
// Exit codes:
//   0  every compared metric within tolerance
//   1  usage / IO / parse error
//   2  at least one regression beyond tolerance
//   3  schema problem: no metrics in common, or (--require-all) baseline
//      metrics missing from the current run
//
// The comparison logic lives in src/obs/bench_diff.* and is unit-tested
// with synthetic pairs (including a 2x slowdown that must exit 2); this
// binary only does flag parsing and file IO.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "obs/bench_diff.hpp"
#include "obs/json.hpp"

namespace {

using namespace tqr;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TQR_REQUIRE(in.good(), "cannot read '" + path + "'");
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

std::map<std::string, obs::Metric> load_metrics(const std::string& path) {
  const obs::Json doc = obs::Json::parse(read_file(path));
  auto metrics = obs::extract_metrics(doc);
  TQR_REQUIRE(!metrics.empty(),
              "'" + path + "' parses but contains no comparable metrics");
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("baseline", "committed baseline bench JSON");
  cli.flag("current", "freshly generated bench JSON");
  cli.flag("tolerance",
           "allowed relative shortfall (0.35 = fail below 65% of baseline)",
           "0.35");
  cli.flag("anchor",
           "metric id used to rescale the baseline for machine-speed "
           "differences (must exist on both sides)");
  cli.flag("only",
           "compare only metric ids with a dot-separated segment equal to "
           "one of these comma-separated tokens (e.g. geqrt,tsqrt)");
  cli.flag("require-all",
           "baseline metrics missing from the current run are fatal");
  cli.flag("list", "print the metrics extracted from --current and exit");
  cli.flag("write-baseline",
           "validate --current and copy it to this path as the new baseline");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::string current_path = cli.get_string("current", "");
    TQR_REQUIRE(!current_path.empty(), "--current is required");
    const auto current = load_metrics(current_path);

    if (cli.get_bool("list", false)) {
      for (const auto& [id, m] : current)
        std::printf("%-40s %.6g\n", id.c_str(), m.value);
      return 0;
    }

    const std::string bless_path = cli.get_string("write-baseline", "");
    if (!bless_path.empty()) {
      // The parse + extraction above is the validation; only a document that
      // yields at least one comparable metric can become the baseline.
      std::ofstream out(bless_path, std::ios::binary);
      TQR_REQUIRE(out.good(), "cannot open '" + bless_path + "' for writing");
      out << read_file(current_path);
      out.flush();
      TQR_REQUIRE(out.good(), "write to '" + bless_path + "' failed");
      std::printf("blessed %s -> %s (%zu metrics)\n", current_path.c_str(),
                  bless_path.c_str(), current.size());
      return 0;
    }

    const std::string baseline_path = cli.get_string("baseline", "");
    TQR_REQUIRE(!baseline_path.empty(),
                "--baseline is required (or use --list / --write-baseline)");
    const auto baseline = load_metrics(baseline_path);

    obs::CompareOptions opts;
    opts.tolerance = cli.get_double("tolerance", 0.35);
    opts.require_all = cli.get_bool("require-all", false);
    const std::string only = cli.get_string("only", "");
    for (std::size_t pos = 0; pos < only.size();) {
      std::size_t comma = only.find(',', pos);
      if (comma == std::string::npos) comma = only.size();
      if (comma > pos) opts.only.push_back(only.substr(pos, comma - pos));
      pos = comma + 1;
    }
    opts.anchor = cli.get_string("anchor", "");

    const obs::CompareResult result = obs::compare(baseline, current, opts);
    std::fputs(result.format().c_str(), stdout);
    if (result.schema_mismatch || result.missing_fatal) return 3;
    return result.regressions > 0 ? 2 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 1;
  }
}

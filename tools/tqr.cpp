// tqr — command-line front end to the tiledqr library.
//
//   tqr gen      --out A.mtx --rows 512 --cols 512 [--class uniform] [--seed 1]
//   tqr factor   --in A.mtx [--tile 16] [--elim ts] [--q Q.bin] [--r R.mtx]
//   tqr solve    --in A.mtx --rhs b.mtx --out x.mtx [--tile 16] [--refine 1]
//                (or --batch N --rows 16 --cols 16 for the batched engine)
//   tqr simulate --size 3200 [--tile 16] [--gpus 3] [--nodes 1] [--fixed-p N]
//   tqr plan     --size 3200 [--tile 16] [--gpus 3]
//   tqr serve    --jobs 256x256:16,512x256:4 [--lanes 2] [--json]
//   tqr cluster  --jobs 256x256:16 [--nodes 2] [--inter-bw 1] [--policy cost]
//                [--failover 3] [--hedge-after 0.05] [--fault-kind crash]
//                [--fault-node 0] [--fault-at 0.05] [--metrics-out m.json]
//
// Matrix files: *.mtx = MatrixMarket dense array; anything else = tiledqr
// binary. Exit code 0 on success, 1 on usage errors, 2 on runtime errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include <future>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/batched_qr.hpp"
#include "core/simulate.hpp"
#include "core/tiled_cholesky.hpp"
#include "core/tiled_qr.hpp"
#include "la/checks.hpp"
#include "la/flops.hpp"
#include "la/generators.hpp"
#include "la/io.hpp"
#include "svc/qr_service.hpp"

namespace {

using namespace tqr;

dag::Elimination parse_elim(const std::string& name) {
  if (name == "ts") return dag::Elimination::kTs;
  if (name == "tt") return dag::Elimination::kTt;
  if (name == "ttflat") return dag::Elimination::kTtFlat;
  if (name == "hier") return dag::Elimination::kHier;
  throw InvalidArgument("unknown elimination '" + name +
                        "' (expected ts|tt|ttflat|hier)");
}

/// A strictly-positive matrix/tile dimension from a flag. get_int already
/// parses to int64; this rejects non-positive values and anything outside
/// index_t range with a clear per-flag error instead of letting a silent
/// int32 truncation reach the allocator.
la::index_t checked_dim(const Cli& cli, const std::string& name,
                        std::int64_t fallback) {
  const std::int64_t v = cli.get_int(name, fallback);
  if (v <= 0 || v > std::numeric_limits<la::index_t>::max())
    throw InvalidArgument("--" + name + " must be in [1, " +
                          std::to_string(std::numeric_limits<la::index_t>::max()) +
                          "] (got " + std::to_string(v) + ")");
  return static_cast<la::index_t>(v);
}

/// Inner block size from --ib: non-negative (0 = library default), bounded
/// by index_t like the dimensions. Shared by factor/solve/serve so every
/// subcommand rejects "--ib -3" or "--ib 1e12" with the same usage error.
la::index_t checked_ib(const Cli& cli, std::int64_t fallback = 0) {
  const std::int64_t v = cli.get_int("ib", fallback);
  if (v < 0 || v > std::numeric_limits<la::index_t>::max())
    throw InvalidArgument("--ib must be in [0, " +
                          std::to_string(std::numeric_limits<la::index_t>::max()) +
                          "] (got " + std::to_string(v) + ")");
  return static_cast<la::index_t>(v);
}

/// Cluster node count from --nodes: the sim cluster preset models 1-4
/// nodes, so anything outside that range is a usage error (exit 1), not a
/// TQR_REQUIRE abort three layers down (exit 2).
int checked_nodes(const Cli& cli, std::int64_t fallback) {
  const std::int64_t v = cli.get_int("nodes", fallback);
  if (v < 1 || v > 4)
    throw InvalidArgument("--nodes must be in [1, 4] (got " +
                          std::to_string(v) + ")");
  return static_cast<int>(v);
}

/// A strictly-positive double flag (bandwidths, rates). Rejects zero,
/// negatives, and NaN (NaN fails every comparison, hence the negated form).
double checked_positive(const Cli& cli, const std::string& name,
                        double fallback) {
  const double v = cli.get_double(name, fallback);
  if (!(v > 0))
    throw InvalidArgument("--" + name + " must be > 0 (got " +
                          std::to_string(v) + ")");
  return v;
}

/// std::stoll with the exceptions translated: a malformed or out-of-range
/// number in a compound spec (like a job trace) becomes a tqr usage error,
/// not an uncaught std::out_of_range that aborts with exit code ~134.
std::int64_t parse_int_field(const std::string& text,
                             const std::string& what) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(text, &used);
    if (used != text.size())
      throw InvalidArgument("trailing characters in " + what + " '" + text +
                            "'");
    return v;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument("bad " + what + " '" + text + "'");
  }
}

int cmd_gen(int argc, char** argv) {
  Cli cli;
  cli.flag("out", "output matrix path (required)");
  cli.flag("rows", "rows", "256");
  cli.flag("cols", "cols (default: rows)");
  cli.flag("class",
           "uniform|orthogonal|illcond|graded|vandermonde|rankdef",
           "uniform");
  cli.flag("seed", "rng seed", "1");
  cli.flag("cond", "condition number for illcond", "1e8");
  cli.flag("rank", "rank for rankdef (default cols/2)");
  if (!cli.parse(argc, argv)) return 0;
  const std::string out = cli.get_string("out", "");
  if (out.empty()) throw InvalidArgument("gen: --out is required");
  const la::index_t rows = checked_dim(cli, "rows", 256);
  const la::index_t cols = checked_dim(cli, "cols", rows);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string cls = cli.get_string("class", "uniform");

  la::Matrix<double> a;
  if (cls == "uniform") {
    a = la::Matrix<double>::random(rows, cols, seed);
  } else if (cls == "orthogonal") {
    TQR_REQUIRE(rows == cols, "orthogonal requires a square matrix");
    a = la::random_orthogonal<double>(rows, seed);
  } else if (cls == "illcond") {
    TQR_REQUIRE(rows == cols, "illcond requires a square matrix");
    a = la::random_with_condition<double>(rows, cli.get_double("cond", 1e8),
                                          seed);
  } else if (cls == "graded") {
    a = la::graded_rows<double>(rows, cols, 6.0, seed);
  } else if (cls == "vandermonde") {
    a = la::vandermonde<double>(rows, cols);
  } else if (cls == "rankdef") {
    a = la::random_rank_deficient<double>(
        rows, cols, static_cast<la::index_t>(cli.get_int("rank", cols / 2)),
        seed);
  } else {
    throw InvalidArgument("unknown matrix class '" + cls + "'");
  }
  la::write_matrix(out, a.view());
  std::printf("wrote %s (%d x %d, class %s)\n", out.c_str(), a.rows(),
              a.cols(), cls.c_str());
  return 0;
}

int cmd_factor(int argc, char** argv) {
  Cli cli;
  cli.flag("in", "input matrix (required)");
  cli.flag("tile", "tile size", "16");
  cli.flag("ib", "kernel inner block width (0 = library default)", "0");
  cli.flag("elim", "elimination: ts|tt|ttflat|hier", "ts");
  cli.flag("q", "write explicit Q here");
  cli.flag("r", "write R here");
  if (!cli.parse(argc, argv)) return 0;
  const std::string in = cli.get_string("in", "");
  if (in.empty()) throw InvalidArgument("factor: --in is required");
  const int b = static_cast<int>(checked_dim(cli, "tile", 16));

  la::Matrix<double> a = la::read_matrix(in);
  la::Matrix<double> padded = la::pad_to_tiles<double>(a.view(), b);
  const bool was_padded =
      padded.rows() != a.rows() || padded.cols() != a.cols();

  typename core::TiledQrFactorization<double>::Options opts;
  opts.elim = parse_elim(cli.get_string("elim", "ts"));
  opts.inner_block = checked_ib(cli);
  Timer wall;
  auto f = core::TiledQrFactorization<double>::factor(padded, b, opts);
  const double factor_s = wall.seconds();

  auto q = f.form_q();
  auto r = f.r();
  la::Matrix<double> r_full(padded.rows(), padded.cols());
  for (la::index_t j = 0; j < padded.cols(); ++j)
    for (la::index_t i = 0; i <= j && i < padded.rows(); ++i)
      r_full(i, j) = r(i, j);
  std::printf("factored %s: %d x %d, tile %d%s, %zu kernels\n", in.c_str(),
              a.rows(), a.cols(), b, was_padded ? " (padded)" : "",
              f.graph().size());
  std::printf("factor time %.4f s, %.2f GFLOP/s\n", factor_s,
              la::flops_qr(a.rows(), a.cols()) / factor_s * 1e-9);
  std::printf("||Q^T Q - I||_F / n     = %.3e\n",
              la::orthogonality_residual<double>(q.view()));
  std::printf("||A - Q R||_F / ||A||_F = %.3e\n",
              la::reconstruction_residual<double>(padded.view(), q.view(),
                                                  r_full.view()));
  const std::string q_path = cli.get_string("q", "");
  if (!q_path.empty()) {
    la::write_matrix(q_path, q.view());
    std::printf("wrote Q to %s\n", q_path.c_str());
  }
  const std::string r_path = cli.get_string("r", "");
  if (!r_path.empty()) {
    la::write_matrix(r_path, r.view());
    std::printf("wrote R to %s\n", r_path.c_str());
  }
  return 0;
}

/// `tqr solve --batch N`: factor-and-solve N random tiny same-shape systems
/// through the chunk-interleaved engine, report problems/sec and the worst
/// per-problem reconstruction residual. The CLI face of core::BatchedQr.
int solve_batched(const Cli& cli, int count) {
  if (!cli.get_string("in", "").empty() || !cli.get_string("rhs", "").empty())
    throw InvalidArgument(
        "solve: --batch generates random problems; drop --in/--rhs");
  const la::index_t rows = checked_dim(cli, "rows", 16);
  const la::index_t cols = checked_dim(cli, "cols", rows);
  if (rows < cols)
    throw InvalidArgument("--rows must be >= --cols for a batched QR");
  const svc::Precision precision =
      svc::parse_precision(cli.get_string("precision", "fp64"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  auto run = [&](auto tag) {
    using T = decltype(tag);
    std::vector<la::Matrix<T>> problems, rhs;
    for (int p = 0; p < count; ++p) {
      const auto s = seed + static_cast<std::uint64_t>(p);
      problems.push_back(la::Matrix<T>::random(rows, cols, s));
      rhs.push_back(la::Matrix<T>::random(rows, 1, s + 777));
    }
    Timer wall;
    const auto f = core::BatchedQr<T>::factor(problems);
    const auto xs = f.solve(rhs);
    const double factor_solve_s = wall.seconds();
    double worst = 0;
    for (int p = 0; p < count; ++p)
      worst = std::max(
          worst, f.residual(static_cast<la::index_t>(p),
                            problems[static_cast<std::size_t>(p)]));
    TQR_REQUIRE(xs.size() == static_cast<std::size_t>(count),
                "batched solve dropped problems");
    std::printf(
        "batched %s: %d problems of %d x %d (width %d) in %.4f s "
        "= %.0f problems/s\n",
        svc::to_string(precision), count, rows, cols,
        static_cast<int>(la::batch_width<T>()), factor_solve_s,
        count / factor_solve_s);
    std::printf("worst ||A - Q R||_F / ||A||_F = %.3e\n", worst);
  };
  if (precision == svc::Precision::kFp32)
    run(float{});
  else
    run(double{});
  return 0;
}

int cmd_solve(int argc, char** argv) {
  Cli cli;
  cli.flag("in", "matrix A (required unless --batch)");
  cli.flag("rhs", "right-hand side b (required unless --batch)");
  cli.flag("out", "solution output path");
  cli.flag("tile", "tile size", "16");
  cli.flag("ib", "kernel inner block width (0 = library default)", "0");
  cli.flag("refine", "iterative refinement steps", "0");
  cli.flag("method", "qr (least squares) or chol (SPD systems)", "qr");
  cli.flag("precision",
           "fp64, or fp32 for a single-precision factorization with "
           "double-precision iterative refinement (qr only; with --batch, "
           "fp32 runs the whole batch in single precision)",
           "fp64");
  cli.flag("batch",
           "solve this many random --rows x --cols problems through the "
           "batched small-QR engine instead of reading --in/--rhs", "0");
  cli.flag("rows", "problem rows for --batch", "16");
  cli.flag("cols", "problem cols for --batch (default: --rows)");
  cli.flag("seed", "rng seed for --batch problem generation", "1");
  if (!cli.parse(argc, argv)) return 0;
  const std::int64_t batch = cli.get_int("batch", 0);
  if (batch < 0 || batch > 100000000)
    throw InvalidArgument("--batch must be in [0, 100000000] (got " +
                          std::to_string(batch) + ")");
  if (batch > 0) return solve_batched(cli, static_cast<int>(batch));
  const std::string in = cli.get_string("in", "");
  const std::string rhs_path = cli.get_string("rhs", "");
  if (in.empty() || rhs_path.empty())
    throw InvalidArgument("solve: --in and --rhs are required");
  const int b = static_cast<int>(checked_dim(cli, "tile", 16));

  la::Matrix<double> a = la::read_matrix(in);
  la::Matrix<double> rhs = la::read_matrix(rhs_path);
  TQR_REQUIRE(rhs.rows() == a.rows(), "rhs rows must match the matrix");
  TQR_REQUIRE(a.rows() % b == 0 && a.cols() % b == 0,
              "matrix dimensions must be multiples of the tile size "
              "(repack with `tqr gen` or choose another --tile)");

  const std::string method = cli.get_string("method", "qr");
  const int refine = static_cast<int>(cli.get_int("refine", 0));
  const la::index_t ib = checked_ib(cli);
  const svc::Precision precision =
      svc::parse_precision(cli.get_string("precision", "fp64"));
  la::Matrix<double> x;
  Timer wall;
  if (method == "chol") {
    if (precision != svc::Precision::kFp64)
      throw InvalidArgument("--precision fp32 requires --method qr");
    auto f = core::TiledCholesky<double>::factor(a, b);
    x = f.solve(rhs);
  } else if (method == "qr") {
    if (precision == svc::Precision::kFp32) {
      const auto mixed = core::qr_solve_mixed(
          a, rhs, b, dag::Elimination::kTs,
          refine > 0 ? refine : 8, /*tolerance=*/0.0, ib);
      std::printf(
          "mixed fp32 factor + fp64 refinement: %d rounds, %s "
          "(scaled residual %.3e)\n",
          mixed.iterations, mixed.converged ? "converged" : "NOT converged",
          mixed.residual);
      x = mixed.x;
    } else {
      typename core::TiledQrFactorization<double>::Options opts;
      opts.inner_block = ib;
      auto f = core::TiledQrFactorization<double>::factor(a, b, opts);
      x = refine > 0 ? f.solve_refined(a, rhs, refine) : f.solve(rhs);
    }
  } else {
    throw InvalidArgument("unknown --method '" + method + "'");
  }
  const double solve_s = wall.seconds();

  // Report the least-squares optimality residual.
  la::Matrix<double> resid = rhs;
  la::gemm<double>(la::Trans::kNoTrans, la::Trans::kNoTrans, -1.0, a.view(),
                   x.view(), 1.0, resid.view());
  la::Matrix<double> atr(a.cols(), rhs.cols());
  la::gemm<double>(la::Trans::kTrans, la::Trans::kNoTrans, 1.0, a.view(),
                   resid.view(), 0.0, atr.view());
  std::printf("solved %d x %d system, %d rhs, %d refinement steps\n",
              a.rows(), a.cols(), rhs.cols(), refine);
  // GFLOP/s counts the QR factorization's flops; a Cholesky solve reports
  // its time only.
  if (method == "qr")
    std::printf("solve time %.4f s, %.2f GFLOP/s\n", solve_s,
                la::flops_qr(a.rows(), a.cols()) / solve_s * 1e-9);
  else
    std::printf("solve time %.4f s\n", solve_s);
  std::printf("||A^T (b - A x)||_max = %.3e\n",
              la::norm_max<double>(atr.view()));
  const std::string out = cli.get_string("out", "");
  if (!out.empty()) {
    la::write_matrix(out, x.view());
    std::printf("wrote x to %s\n", out.c_str());
  }
  return 0;
}

core::PlanConfig plan_config_from(const Cli& cli) {
  core::PlanConfig pc;
  pc.tile_size = static_cast<int>(cli.get_int("tile", 16));
  pc.elim = parse_elim(cli.get_string("elim", "tt"));
  const std::int64_t fixed_p = cli.get_int("fixed-p", 0);
  if (fixed_p > 0) {
    pc.count_policy = core::CountPolicy::kFixed;
    pc.fixed_count = static_cast<int>(fixed_p);
  }
  return pc;
}

sim::Platform platform_from(const Cli& cli) {
  const int nodes = checked_nodes(cli, 1);
  if (nodes > 1) return sim::paper_cluster(nodes);
  return sim::paper_platform_with_gpus(
      static_cast<int>(cli.get_int("gpus", 3)));
}

int cmd_simulate(int argc, char** argv) {
  Cli cli;
  cli.flag("size", "matrix size", "3200");
  cli.flag("tile", "tile size", "16");
  cli.flag("elim", "elimination: ts|tt|ttflat|hier", "tt");
  cli.flag("gpus", "GPUs in the node (0-3)", "3");
  cli.flag("nodes", "cluster nodes (1-4)", "1");
  cli.flag("fixed-p", "force participating device count");
  if (!cli.parse(argc, argv)) return 0;
  const std::int64_t n = cli.get_int("size", 3200);
  const sim::Platform platform = platform_from(cli);
  const core::PlanConfig pc = plan_config_from(cli);

  const auto run = core::simulate_tiled_qr(platform, n, n, pc);
  std::printf("%s\n", run.plan.summary(platform).c_str());
  std::printf("makespan        %.3f ms\n", run.result.makespan_s * 1e3);
  std::printf("tasks           %lld\n",
              static_cast<long long>(run.result.tasks));
  std::printf("transfers       %lld (%.1f MB, %.2f ms bus)\n",
              static_cast<long long>(run.result.transfers),
              run.result.bytes_moved / 1e6, run.result.comm_s * 1e3);
  for (std::size_t d = 0; d < run.result.busy_s.size(); ++d)
    std::printf("busy[%-12s] %.3f ms\n",
                platform.device(static_cast<int>(d)).name.c_str(),
                run.result.busy_s[d] * 1e3);
  if (!run.plan.fits_in_memory(platform))
    std::printf("WARNING: plan exceeds a device's memory capacity "
                "(see `tqr plan`)\n");
  return 0;
}

int cmd_plan(int argc, char** argv) {
  Cli cli;
  cli.flag("size", "matrix size", "3200");
  cli.flag("tile", "tile size", "16");
  cli.flag("elim", "elimination: ts|tt|ttflat|hier", "tt");
  cli.flag("gpus", "GPUs in the node (0-3)", "3");
  cli.flag("nodes", "cluster nodes (1-4)", "1");
  cli.flag("fixed-p", "force participating device count");
  if (!cli.parse(argc, argv)) return 0;
  const std::int64_t n = cli.get_int("size", 3200);
  const sim::Platform platform = platform_from(cli);
  const core::PlanConfig pc = plan_config_from(cli);
  const auto nt = static_cast<std::int32_t>(n / pc.tile_size);
  core::Plan plan(platform, nt, nt, pc);

  std::printf("%s\n\n", plan.summary(platform).c_str());
  Table count({"p", "Top_ms", "Tcomm_ms", "T(p)_ms"});
  const auto& choice = plan.count_choice();
  for (std::size_t p = 1; p <= choice.predicted_time.size(); ++p)
    count.add_row({fmt(static_cast<std::int64_t>(p)),
                   fmt(choice.predicted_top[p - 1] * 1e3, 3),
                   fmt(choice.predicted_tcomm[p - 1] * 1e3, 3),
                   fmt(choice.predicted_time[p - 1] * 1e3, 3)});
  count.print();

  std::printf("\nmemory estimates:\n");
  Table mem({"device", "needed_MB", "capacity_MB", "fits"});
  for (const auto& est : plan.memory_estimates(platform))
    mem.add_row({platform.device(est.device).name,
                 fmt(est.bytes_needed / 1048576.0, 1),
                 fmt(est.capacity / 1048576.0, 1),
                 est.fits ? "yes" : "NO"});
  mem.print();
  return 0;
}

struct TraceShape {
  la::index_t rows, cols;
  int count;
};

/// Parses a job trace spec "ROWSxCOLS:COUNT[,ROWSxCOLS:COUNT...]",
/// e.g. "256x256:16,512x256:4".
std::vector<TraceShape> parse_trace(const std::string& spec) {
  std::vector<TraceShape> shapes;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t x = item.find('x');
    const std::size_t colon = item.find(':', x == std::string::npos ? 0 : x);
    if (x == std::string::npos)
      throw InvalidArgument("bad trace item '" + item +
                            "' (expected ROWSxCOLS[:COUNT])");
    const std::int64_t rows =
        parse_int_field(item.substr(0, x), "trace rows");
    const std::int64_t cols =
        parse_int_field(item.substr(x + 1, colon - x - 1), "trace cols");
    const std::int64_t count =
        colon == std::string::npos
            ? 1
            : parse_int_field(item.substr(colon + 1), "trace count");
    constexpr std::int64_t kMaxDim = std::numeric_limits<la::index_t>::max();
    TQR_REQUIRE(rows > 0 && rows <= kMaxDim && cols > 0 && cols <= kMaxDim,
                "trace shape out of range in '" + item + "'");
    TQR_REQUIRE(count > 0 && count <= 1'000'000,
                "trace count out of range in '" + item + "'");
    TraceShape s;
    s.rows = static_cast<la::index_t>(rows);
    s.cols = static_cast<la::index_t>(cols);
    s.count = static_cast<int>(count);
    shapes.push_back(s);
    pos = comma + 1;
  }
  TQR_REQUIRE(!shapes.empty(), "empty job trace");
  return shapes;
}

int cmd_serve(int argc, char** argv) {
  Cli cli;
  cli.flag("jobs", "trace: ROWSxCOLS:COUNT[,...]", "256x256:16,512x256:4");
  cli.flag("lanes", "concurrent execution lanes", "2");
  cli.flag("tile", "tile size", "16");
  cli.flag("ib", "kernel inner block width (0 = library default)", "0");
  cli.flag("precision", "kernel precision for every job: fp64|fp32", "fp64");
  cli.flag("elim", "elimination: ts|tt|ttflat|hier", "ts");
  cli.flag("queue", "job queue capacity", "64");
  cli.flag("admission", "block|reject", "block");
  cli.flag("queue-deadline-ms", "expire jobs queued longer than this (0=off)",
           "0");
  cli.flag("exec-deadline-ms", "cancel jobs executing longer than this (0=off)",
           "0");
  cli.flag("retries", "max attempts per job on transient faults", "1");
  cli.flag("retry-backoff-ms", "pause before each retry attempt", "0");
  cli.flag("cancel-on-shutdown", "cancel outstanding jobs at shutdown");
  cli.flag("fault", "fault injection: none|throw|stall|corrupt", "none");
  cli.flag("fault-prob", "chance an eligible task faults [0,1]", "1");
  cli.flag("fault-task", "restrict faults to one task id (-1 = any)", "-1");
  cli.flag("fault-op", "restrict faults to one kernel op (geqrt, tsmqr, ...)");
  cli.flag("fault-lane", "restrict faults to one lane (-1 = any)", "-1");
  cli.flag("fault-stall-ms", "stall duration for --fault stall", "10");
  cli.flag("fault-permanent", "injected throws are permanent (not retryable)");
  cli.flag("fault-max", "stop after this many injections (0 = unlimited)",
           "0");
  cli.flag("corrupt", "corruption kind for --fault corrupt: "
                      "any|nan|bitflip|perturb", "any");
  cli.flag("corrupt-scale", "relative size of a perturb corruption", "1e-3");
  cli.flag("verify", "result verification tier: none|scan|probe|full",
           "none");
  cli.flag("quarantine-after",
           "consecutive bad jobs before a lane is quarantined (0 = off)",
           "0");
  cli.flag("probation-ms",
           "quarantine sits out this long before a one-job probation "
           "re-admit (0 = permanent)", "0");
  cli.flag("batch",
           "batched mode: every trace entry submits jobs carrying this many "
           "random ROWSxCOLS problems each through the chunk-interleaved "
           "engine (0 = ordinary single-matrix jobs)", "0");
  cli.flag("residual", "report ||A - Q R||/||A|| per job (slower)");
  cli.flag("no-cache", "disable the plan cache");
  cli.flag("no-reuse", "tear down executors between jobs");
  cli.flag("seed", "rng seed", "1");
  cli.flag("json", "emit stats as JSON instead of tables");
  cli.flag("metrics-out",
           "write the service metrics exposition here after the run "
           "(*.json = JSON, else Prometheus text)");
  cli.flag("trace-out",
           "write a Chrome trace-event JSON timeline here (enables "
           "per-task tracing; load in Perfetto or chrome://tracing)");
  if (!cli.parse(argc, argv)) return 0;

  const auto shapes =
      parse_trace(cli.get_string("jobs", "256x256:16,512x256:4"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool residual = cli.get_bool("residual", false);
  const bool json = cli.get_bool("json", false);
  const std::int64_t batch = cli.get_int("batch", 0);
  if (batch < 0 || batch > 1000000)
    throw InvalidArgument("--batch must be in [0, 1000000] (got " +
                          std::to_string(batch) + ")");

  svc::ServiceConfig config;
  config.lanes = static_cast<int>(cli.get_int("lanes", 2));
  config.default_tile = static_cast<int>(checked_dim(cli, "tile", 16));
  config.inner_block = checked_ib(cli);
  config.quarantine_after =
      static_cast<int>(cli.get_int("quarantine-after", 0));
  config.probation_s = cli.get_double("probation-ms", 0) * 1e-3;
  config.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue", 64));
  const std::string admission = cli.get_string("admission", "block");
  if (admission == "reject") {
    config.admission = svc::Admission::kReject;
  } else if (admission != "block") {
    throw InvalidArgument("unknown --admission '" + admission + "'");
  }
  if (cli.get_bool("no-cache", false)) config.plan_cache_enabled = false;
  if (cli.get_bool("no-reuse", false)) config.reuse_engines = false;
  const std::string metrics_out = cli.get_string("metrics-out", "");
  const std::string trace_out = cli.get_string("trace-out", "");
  config.collect_trace = !trace_out.empty();
  config.cancel_on_shutdown = cli.get_bool("cancel-on-shutdown", false);
  config.fault.mode = svc::parse_fault_mode(cli.get_string("fault", "none"));
  config.fault.probability = cli.get_double("fault-prob", 1.0);
  config.fault.task = cli.get_int("fault-task", -1);
  const std::string fault_op = cli.get_string("fault-op", "");
  if (!fault_op.empty()) config.fault.op = svc::parse_fault_op(fault_op);
  config.fault.lane = static_cast<int>(cli.get_int("fault-lane", -1));
  config.fault.stall_s = cli.get_double("fault-stall-ms", 10) * 1e-3;
  config.fault.permanent = cli.get_bool("fault-permanent", false);
  config.fault.max_injections =
      static_cast<std::uint64_t>(cli.get_int("fault-max", 0));
  config.fault.corrupt =
      svc::parse_corrupt_kind(cli.get_string("corrupt", "any"));
  config.fault.corrupt_scale = cli.get_double("corrupt-scale", 1e-3);
  const svc::Verify verify =
      svc::parse_verify(cli.get_string("verify", "none"));
  const double queue_deadline_s =
      cli.get_double("queue-deadline-ms", 0) * 1e-3;
  const double exec_deadline_s = cli.get_double("exec-deadline-ms", 0) * 1e-3;
  const int retries = static_cast<int>(cli.get_int("retries", 1));
  const double retry_backoff_s = cli.get_double("retry-backoff-ms", 0) * 1e-3;
  const dag::Elimination elim = parse_elim(cli.get_string("elim", "ts"));
  const svc::Precision precision =
      svc::parse_precision(cli.get_string("precision", "fp64"));

  svc::QrService service(config);
  std::vector<std::future<svc::JobResult>> futures;
  // Interleave the trace round-robin so repeats of a shape are separated —
  // the pattern the plan cache must absorb.
  std::uint64_t job_seed = seed;
  for (int round = 0;; ++round) {
    bool any = false;
    for (const auto& s : shapes) {
      if (round >= s.count) continue;
      any = true;
      svc::JobSpec spec;
      if (batch > 0) {
        spec.batch.reserve(static_cast<std::size_t>(batch));
        for (std::int64_t p = 0; p < batch; ++p)
          spec.batch.push_back(
              la::Matrix<double>::random(s.rows, s.cols, job_seed++));
      } else {
        spec.a = la::Matrix<double>::random(s.rows, s.cols, job_seed++);
      }
      spec.elim = elim;
      spec.compute_residual = residual;
      spec.verify = verify;
      spec.precision = precision;
      spec.queue_deadline_s = queue_deadline_s;
      spec.exec_deadline_s = exec_deadline_s;
      spec.max_attempts = retries;
      spec.retry_backoff_s = retry_backoff_s;
      futures.push_back(service.submit(std::move(spec)));
    }
    if (!any) break;
  }
  service.drain();

  int ok = 0, failed = 0, rejected = 0, expired = 0, cancelled = 0,
      corrupted = 0;
  long long problems_ok = 0, problems_total = 0;
  double worst_residual = -1;
  for (auto& f : futures) {
    const auto r = f.get();
    problems_ok += r.problems_ok;
    problems_total += r.problems;
    switch (r.status) {
      case svc::JobStatus::kOk: ++ok; break;
      case svc::JobStatus::kFailed: ++failed; break;
      case svc::JobStatus::kRejected: ++rejected; break;
      case svc::JobStatus::kExpired: ++expired; break;
      case svc::JobStatus::kCancelled: ++cancelled; break;
      case svc::JobStatus::kCorrupted: ++corrupted; break;
    }
    if (r.residual > worst_residual) worst_residual = r.residual;
    if (r.status == svc::JobStatus::kFailed ||
        r.status == svc::JobStatus::kCorrupted)
      std::fprintf(stderr, "job %llu %s: %s\n",
                   static_cast<unsigned long long>(r.id),
                   svc::to_string(r.status), r.error.c_str());
  }

  const auto s = service.stats();
  {
    auto write_file = [](const std::string& path, const std::string& body) {
      std::ofstream out(path, std::ios::binary);
      TQR_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
      out << body;
      out.flush();
      TQR_REQUIRE(out.good(), "write to '" + path + "' failed");
    };
    if (!metrics_out.empty()) {
      const bool as_json =
          metrics_out.size() >= 5 &&
          metrics_out.compare(metrics_out.size() - 5, 5, ".json") == 0;
      write_file(metrics_out,
                 as_json ? service.metrics_json() : service.metrics_text());
    }
    if (!trace_out.empty()) write_file(trace_out, service.trace_json());
  }
  if (json) {
    std::printf(
        "{\"jobs\": {\"submitted\": %llu, \"ok\": %d, \"failed\": %d, "
        "\"rejected\": %d, \"expired\": %d, \"cancelled\": %d, "
        "\"corrupted\": %d, \"retried\": %llu},\n"
        " \"faults_injected\": %llu,\n"
        " \"verification\": {\"tier\": \"%s\", \"failures\": %llu},\n"
        " \"lanes\": {\"total\": %d, \"quarantined\": %d, "
        "\"quarantines\": %llu, \"probations\": %llu},\n"
        " \"throughput_jobs_per_s\": %.3f, \"uptime_s\": %.4f,\n"
        " \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"mean\": %.3f},\n"
        " \"plan_cache\": {\"hits\": %llu, \"misses\": %llu, "
        "\"hit_rate\": %.4f},\n"
        " \"workspace\": {\"allocated\": %llu, \"reused\": %llu, "
        "\"scrubbed\": %llu},\n"
        " \"queue\": {\"high_water\": %llu, \"blocked_pushes\": %llu},\n"
        " \"batched\": {\"jobs\": %llu, \"problems\": %llu, "
        "\"problems_ok\": %lld, \"occupancy\": %.4f},\n"
        " \"worst_residual\": %.3e}\n",
        static_cast<unsigned long long>(s.jobs_submitted), ok, failed,
        rejected, expired, cancelled, corrupted,
        static_cast<unsigned long long>(s.jobs_retried),
        static_cast<unsigned long long>(s.faults_injected),
        svc::to_string(verify),
        static_cast<unsigned long long>(s.verify_failures), s.lanes,
        s.lanes_quarantined,
        static_cast<unsigned long long>(s.lane_quarantines),
        static_cast<unsigned long long>(s.lane_probations), s.jobs_per_s,
        s.uptime_s, s.p50_ms, s.p95_ms,
        s.mean_ms, static_cast<unsigned long long>(s.plan_cache.hits),
        static_cast<unsigned long long>(s.plan_cache.misses),
        s.plan_cache.hit_rate(),
        static_cast<unsigned long long>(s.workspace.allocated),
        static_cast<unsigned long long>(s.workspace.reused),
        static_cast<unsigned long long>(s.workspace.scrubbed),
        static_cast<unsigned long long>(s.queue.high_water),
        static_cast<unsigned long long>(s.queue.blocked_pushes),
        static_cast<unsigned long long>(s.batched_jobs),
        static_cast<unsigned long long>(s.batched_problems), problems_ok,
        s.batch_occupancy, worst_residual);
    return corrupted > 0 || failed > 0 ? 2 : 0;
  }

  std::printf("served %llu jobs on %d lanes: %d ok, %d failed, %d rejected, "
              "%d expired, %d cancelled, %d corrupted\n",
              static_cast<unsigned long long>(s.jobs_submitted), s.lanes, ok,
              failed, rejected, expired, cancelled, corrupted);
  if (s.faults_injected > 0 || s.jobs_retried > 0)
    std::printf("faults          %llu injected, %llu retried attempts\n",
                static_cast<unsigned long long>(s.faults_injected),
                static_cast<unsigned long long>(s.jobs_retried));
  if (verify != svc::Verify::kNone || s.verify_failures > 0)
    std::printf("verification    tier %s, %llu detections, %llu scrubbed "
                "workspaces\n",
                svc::to_string(verify),
                static_cast<unsigned long long>(s.verify_failures),
                static_cast<unsigned long long>(s.workspace.scrubbed));
  if (s.lane_quarantines > 0)
    std::printf("quarantine      %d lanes out now, %llu quarantines, "
                "%llu probations\n",
                s.lanes_quarantined,
                static_cast<unsigned long long>(s.lane_quarantines),
                static_cast<unsigned long long>(s.lane_probations));
  std::printf("throughput      %.2f jobs/s over %.3f s\n", s.jobs_per_s,
              s.uptime_s);
  std::printf("latency         p50 %.2f ms, p95 %.2f ms, mean %.2f ms\n",
              s.p50_ms, s.p95_ms, s.mean_ms);
  std::printf("plan cache      %llu hits / %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(s.plan_cache.hits),
              static_cast<unsigned long long>(s.plan_cache.misses),
              100.0 * s.plan_cache.hit_rate());
  std::printf("workspaces      %llu allocated, %llu reused, %.1f MB retained\n",
              static_cast<unsigned long long>(s.workspace.allocated),
              static_cast<unsigned long long>(s.workspace.reused),
              s.workspace.bytes_retained / 1048576.0);
  std::printf("queue           high water %llu / %zu, %llu blocked pushes\n",
              static_cast<unsigned long long>(s.queue.high_water),
              config.queue_capacity,
              static_cast<unsigned long long>(s.queue.blocked_pushes));
  if (s.batched_jobs > 0)
    std::printf("batched         %llu jobs, %lld/%lld problems ok, "
                "occupancy %.2f\n",
                static_cast<unsigned long long>(s.batched_jobs), problems_ok,
                problems_total, s.batch_occupancy);
  if (residual && worst_residual >= 0)
    std::printf("worst residual  %.3e\n", worst_residual);
  return corrupted > 0 || failed > 0 ? 2 : 0;
}

int cmd_cluster(int argc, char** argv) {
  Cli cli;
  cli.flag("jobs", "trace: ROWSxCOLS:COUNT[,...]", "256x256:16,512x256:4");
  cli.flag("nodes", "cluster nodes (1-4)", "2");
  cli.flag("inter-bw", "inter-node bandwidth, GB/s", "1");
  cli.flag("inter-lat", "inter-node latency, us", "25");
  cli.flag("policy", "router policy: rr|load|cost", "cost");
  cli.flag("lanes", "execution lanes per node", "2");
  cli.flag("tile", "tile size", "16");
  cli.flag("elim", "elimination: ts|tt|ttflat|hier", "tt");
  cli.flag("seed", "rng seed", "1");
  cli.flag("json", "emit stats as JSON instead of tables");
  cli.flag("trace-out",
           "write the merged per-node Chrome trace-event timeline here "
           "(one pid block per node; load in Perfetto)");
  cli.flag("metrics-out", "write the cluster metrics registry JSON here");
  cli.flag("failover", "node attempts per job (>= 2 arms failover)", "1");
  cli.flag("failover-backoff", "pause before each failover resubmit, s", "0");
  cli.flag("hedge-after",
           "clone a job unpicked after this many seconds (0 = off)", "0");
  cli.flag("fault-node", "node the injected fault afflicts", "0");
  cli.flag("fault-kind",
           "none|crash|brownout|reject-storm|flaky-link", "none");
  cli.flag("fault-at", "fault schedule start, s", "0");
  cli.flag("fault-duration", "fault episode length, s (0 = forever)", "0");
  cli.flag("fault-period", "episode repeat period, s (0 = one-shot)", "0");
  cli.flag("fault-stall-factor", "brownout task-stretch factor", "4");
  cli.flag("fault-drop-p", "flaky-link ship drop probability", "0.5");
  cli.flag("fault-delay", "flaky-link ship delay, s", "0");
  cli.flag("fault-seed", "chaos schedule seed", "42");
  if (!cli.parse(argc, argv)) return 0;

  const auto shapes =
      parse_trace(cli.get_string("jobs", "256x256:16,512x256:4"));
  const bool json = cli.get_bool("json", false);
  const std::string trace_out = cli.get_string("trace-out", "");
  const std::string metrics_out = cli.get_string("metrics-out", "");
  const dag::Elimination elim = parse_elim(cli.get_string("elim", "tt"));

  cluster::ClusterConfig cfg;
  cfg.nodes = checked_nodes(cli, 2);
  cfg.inter_gbytes_per_s = checked_positive(cli, "inter-bw", 1.0);
  cfg.inter_latency_us = cli.get_double("inter-lat", 25.0);
  if (cfg.inter_latency_us < 0)
    throw InvalidArgument("--inter-lat must be >= 0");
  cfg.policy = cluster::parse_router_policy(cli.get_string("policy", "cost"));
  cfg.node.lanes = static_cast<int>(checked_dim(cli, "lanes", 2));
  cfg.node.default_tile = static_cast<int>(checked_dim(cli, "tile", 16));
  cfg.node.collect_trace = !trace_out.empty();
  cfg.max_node_attempts = static_cast<int>(cli.get_int("failover", 1));
  cfg.failover_backoff_s = cli.get_double("failover-backoff", 0);
  cfg.hedge_after_s = cli.get_double("hedge-after", 0);
  const auto fault_kind =
      svc::parse_node_fault_kind(cli.get_string("fault-kind", "none"));
  if (fault_kind != svc::NodeFaultConfig::Kind::kNone) {
    cluster::ClusterConfig::NodeFault f;
    f.node = static_cast<int>(cli.get_int("fault-node", 0));
    TQR_REQUIRE(f.node >= 0 && f.node < cfg.nodes,
                "--fault-node out of range");
    f.fault.kind = fault_kind;
    f.fault.at_s = cli.get_double("fault-at", 0);
    f.fault.duration_s = cli.get_double("fault-duration", 0);
    f.fault.period_s = cli.get_double("fault-period", 0);
    f.fault.stall_factor = cli.get_double("fault-stall-factor", 4.0);
    f.fault.drop_probability = cli.get_double("fault-drop-p", 0.5);
    f.fault.delay_s = cli.get_double("fault-delay", 0);
    f.fault.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 42));
    cfg.faults.push_back(f);
  }

  cluster::Cluster c(cfg);
  std::vector<cluster::Cluster::Submission> subs;
  std::uint64_t job_seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  for (int round = 0;; ++round) {
    bool any = false;
    for (const auto& s : shapes) {
      if (round >= s.count) continue;
      any = true;
      svc::JobSpec spec;
      spec.a = la::Matrix<double>::random(s.rows, s.cols, job_seed++);
      spec.elim = elim;
      subs.push_back(c.submit(std::move(spec)));
    }
    if (!any) break;
  }
  c.drain();

  int ok = 0, bad = 0;
  for (auto& s : subs) {
    const auto r = s.future.get();
    if (r.status == svc::JobStatus::kOk) {
      ++ok;
    } else {
      ++bad;
      std::fprintf(stderr, "job %llu on node %d %s: %s\n",
                   static_cast<unsigned long long>(r.id), s.node,
                   svc::to_string(r.status), r.error.c_str());
    }
  }

  const auto cs = c.stats();
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary);
    TQR_REQUIRE(out.good(), "cannot open '" + trace_out + "' for writing");
    out << c.trace_json();
    out.flush();
    TQR_REQUIRE(out.good(), "write to '" + trace_out + "' failed");
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::binary);
    TQR_REQUIRE(out.good(), "cannot open '" + metrics_out + "' for writing");
    out << c.metrics_json();
    out.flush();
    TQR_REQUIRE(out.good(), "write to '" + metrics_out + "' failed");
  }

  if (json) {
    std::printf("{\"nodes\": %d, \"policy\": \"%s\",\n"
                " \"jobs\": {\"submitted\": %llu, \"completed\": %llu, "
                "\"failed\": %llu, \"rejected\": %llu, \"corrupted\": %llu},\n"
                " \"lanes_quarantined\": %d,\n"
                " \"failovers\": %llu, \"hedges\": %llu, "
                "\"hedge_wins\": %llu,\n"
                " \"link_drops\": %llu, \"routed_rejections\": %llu, "
                "\"node_quarantines\": %llu,\n"
                " \"jobs_per_s\": %.3f,\n \"routed\": [",
                c.num_nodes(), cluster::router_policy_name(cfg.policy),
                static_cast<unsigned long long>(cs.jobs_submitted),
                static_cast<unsigned long long>(cs.jobs_completed),
                static_cast<unsigned long long>(cs.jobs_failed),
                static_cast<unsigned long long>(cs.jobs_rejected),
                static_cast<unsigned long long>(cs.jobs_corrupted),
                cs.lanes_quarantined,
                static_cast<unsigned long long>(cs.failovers),
                static_cast<unsigned long long>(cs.hedges),
                static_cast<unsigned long long>(cs.hedge_wins),
                static_cast<unsigned long long>(cs.link_drops),
                static_cast<unsigned long long>(cs.routed_rejections),
                static_cast<unsigned long long>(cs.node_quarantines),
                cs.jobs_per_s);
    for (std::size_t n = 0; n < cs.routed.size(); ++n)
      std::printf("%s%llu", n ? ", " : "",
                  static_cast<unsigned long long>(cs.routed[n]));
    std::printf("],\n \"node_failure_rate\": [");
    for (std::size_t n = 0; n < cs.node_failure_rate.size(); ++n)
      std::printf("%s%.4f", n ? ", " : "", cs.node_failure_rate[n]);
    std::printf("]}\n");
    return bad > 0 ? 2 : 0;
  }

  std::printf("cluster: %d nodes x %d lanes, %s fabric %.1f GB/s, "
              "%s routing\n",
              c.num_nodes(), cfg.node.lanes, "uniform",
              cfg.inter_gbytes_per_s,
              cluster::router_policy_name(cfg.policy));
  std::printf("served %llu jobs: %d ok, %d not ok, %.2f jobs/s\n",
              static_cast<unsigned long long>(cs.jobs_submitted), ok, bad,
              cs.jobs_per_s);
  if (cs.failovers || cs.hedges || cs.link_drops || cs.routed_rejections ||
      cs.node_quarantines)
    std::printf("chaos: %llu failovers, %llu hedges (%llu wins), %llu link "
                "drops, %llu routed rejections, %llu node quarantines\n",
                static_cast<unsigned long long>(cs.failovers),
                static_cast<unsigned long long>(cs.hedges),
                static_cast<unsigned long long>(cs.hedge_wins),
                static_cast<unsigned long long>(cs.link_drops),
                static_cast<unsigned long long>(cs.routed_rejections),
                static_cast<unsigned long long>(cs.node_quarantines));
  Table t({"node", "routed", "submitted", "completed", "p50_ms",
           "cache_hit", "quarantined"});
  for (std::size_t n = 0; n < cs.nodes.size(); ++n) {
    const auto& s = cs.nodes[n];
    t.add_row({fmt(static_cast<std::int64_t>(n)),
               fmt(static_cast<std::int64_t>(cs.routed[n])),
               fmt(static_cast<std::int64_t>(s.jobs_submitted)),
               fmt(static_cast<std::int64_t>(s.jobs_completed)),
               fmt(s.p50_ms, 2), fmt(s.plan_cache.hit_rate(), 2),
               fmt(static_cast<std::int64_t>(s.lanes_quarantined))});
  }
  t.print();
  if (!trace_out.empty())
    std::printf("wrote merged trace to %s\n", trace_out.c_str());
  return bad > 0 ? 2 : 0;
}

void usage() {
  std::printf(
      "usage: tqr <command> [flags]\n"
      "commands:\n"
      "  gen       generate a test matrix file\n"
      "  factor    tiled QR factorization of a matrix file\n"
      "  solve     least-squares solve A x = b (--batch N for the batched\n"
      "            small-QR engine over N random tiny problems)\n"
      "  simulate  simulate a factorization on the modeled platform\n"
      "  plan      show scheduling decisions (Algorithms 2-4) and memory\n"
      "  serve     run a QR job trace through the resident service\n"
      "  cluster   shard a QR job trace across a multi-node cluster\n"
      "run `tqr <command> --help` for per-command flags\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return cmd_gen(argc - 1, argv + 1);
    if (cmd == "factor") return cmd_factor(argc - 1, argv + 1);
    if (cmd == "solve") return cmd_solve(argc - 1, argv + 1);
    if (cmd == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (cmd == "plan") return cmd_plan(argc - 1, argv + 1);
    if (cmd == "serve") return cmd_serve(argc - 1, argv + 1);
    if (cmd == "cluster") return cmd_cluster(argc - 1, argv + 1);
    usage();
    return 1;
  } catch (const tqr::InvalidArgument& e) {
    std::fprintf(stderr, "tqr: %s\n", e.what());
    return 1;
  } catch (const tqr::Error& e) {
    std::fprintf(stderr, "tqr: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // Standard-library throws (bad_alloc, out_of_range from number parsing,
    // filesystem errors) exit like runtime errors instead of aborting.
    std::fprintf(stderr, "tqr: %s\n", e.what());
    return 2;
  }
}

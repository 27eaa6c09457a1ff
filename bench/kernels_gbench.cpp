// Microbenches over the functional tile kernels and the supporting layers.
//
// Two modes share this binary:
//   - default: google-benchmark suite (counters report flop rates),
//   - --json [--out PATH] [--quick]: a deterministic harness that times the
//     naive GEMM loops against the packed micro-kernel engine, every tile
//     kernel and the trmm cases the applies use across a tile-size sweep,
//     then emits per-kernel GFLOP/s as JSON, each row the median of three
//     passes.
//     This is the perf-baseline trajectory: scripts/run_all_benches.sh
//     refreshes BENCH_kernels.json from it, and PRs regress against the
//     committed numbers (see docs/PERF.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/tiled_qr.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "la/blas.hpp"
#include "la/flops.hpp"
#include "la/microkernel.hpp"
#include "la/pivoted_qr.hpp"
#include "la/reference_qr.hpp"
#include "sim/des.hpp"

namespace {

using namespace tqr;
using la::Matrix;

void BM_Geqrt(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  const auto src = Matrix<double>::random(b, b, 1);
  Matrix<double> t(b, b);
  for (auto _ : state) {
    Matrix<double> a = src;
    la::geqrt<double>(a.view(), t.view());
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_geqrt(b) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Geqrt)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Tsqrt(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  Matrix<double> r1(b, b);
  const auto rnd = Matrix<double>::random(b, b, 2);
  for (la::index_t j = 0; j < b; ++j)
    for (la::index_t i = 0; i <= j; ++i)
      r1(i, j) = rnd(i, j) + (i == j ? 2.0 : 0.0);
  const auto a2_src = Matrix<double>::random(b, b, 3);
  Matrix<double> t(b, b);
  for (auto _ : state) {
    Matrix<double> r = r1, a2 = a2_src;
    la::tpqrt<double>(r.view(), a2.view(), t.view(), 0, 0);
    benchmark::DoNotOptimize(a2.data());
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_tsqrt(b) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Tsqrt)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Tsmqr(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  Matrix<double> r1(b, b);
  for (la::index_t j = 0; j < b; ++j)
    for (la::index_t i = 0; i <= j; ++i) r1(i, j) = 1.0 + i + j;
  Matrix<double> v2 = Matrix<double>::random(b, b, 4);
  Matrix<double> t(b, b);
  la::tpqrt<double>(r1.view(), v2.view(), t.view(), 0, 0);
  const auto c1_src = Matrix<double>::random(b, b, 5);
  const auto c2_src = Matrix<double>::random(b, b, 6);
  for (auto _ : state) {
    Matrix<double> c1 = c1_src, c2 = c2_src;
    la::tpmqrt<double>(v2.view(), t.view(), c1.view(), c2.view(), 0,
                       la::Trans::kTrans, 0);
    benchmark::DoNotOptimize(c2.data());
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_tsmqr(b) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Tsmqr)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Ttqrt(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  Matrix<double> r1(b, b), r2(b, b);
  for (la::index_t j = 0; j < b; ++j)
    for (la::index_t i = 0; i <= j; ++i) {
      r1(i, j) = 1.0 + i + j;
      r2(i, j) = 2.0 + i - j;
    }
  Matrix<double> t(b, b);
  for (auto _ : state) {
    Matrix<double> x1 = r1, x2 = r2;
    la::tpqrt<double>(x1.view(), x2.view(), t.view(), b, 0);
    benchmark::DoNotOptimize(x2.data());
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_ttqrt(b) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Ttqrt)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_GeqrtInnerBlocked(benchmark::State& state) {
  const int b = 64;
  const int ib = static_cast<int>(state.range(0));
  const auto src = Matrix<double>::random(b, b, 9);
  Matrix<double> t(b, b);
  for (auto _ : state) {
    Matrix<double> a = src;
    la::geqrt<double>(a.view(), t.view(), ib);
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_geqrt(b) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GeqrtInnerBlocked)->Arg(0)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_PivotedQr(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = Matrix<double>::random(n, n, 11);
  for (auto _ : state) {
    la::PivotedQr<double> qr(a);
    benchmark::DoNotOptimize(&qr);
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_qr(n, n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PivotedQr)->Arg(64)->Arg(128);

void BM_TiledQrFactorization(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int b = 16;
  const auto a = Matrix<double>::random(n, n, 7);
  for (auto _ : state) {
    auto f = core::TiledQrFactorization<double>::factor(a, b);
    benchmark::DoNotOptimize(&f);
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_qr(n, n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TiledQrFactorization)->Arg(64)->Arg(128)->Arg(256);

void BM_ReferenceQr(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = Matrix<double>::random(n, n, 8);
  for (auto _ : state) {
    la::ReferenceQr<double> qr(a);
    benchmark::DoNotOptimize(&qr);
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_qr(n, n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReferenceQr)->Arg(64)->Arg(128)->Arg(256);

void BM_GraphConstruction(benchmark::State& state) {
  const int nt = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto g = dag::build_tiled_qr_graph(nt, nt, dag::Elimination::kTt);
    benchmark::DoNotOptimize(&g);
    state.counters["tasks"] = static_cast<double>(g.size());
  }
}
BENCHMARK(BM_GraphConstruction)->Arg(16)->Arg(32)->Arg(64);

void BM_SimulationThroughput(benchmark::State& state) {
  const int nt = static_cast<int>(state.range(0));
  const auto g = dag::build_tiled_qr_graph(nt, nt, dag::Elimination::kTt);
  const sim::Platform p = sim::paper_platform();
  std::vector<std::uint8_t> assign(g.size());
  for (std::size_t t = 0; t < g.size(); ++t)
    assign[t] = static_cast<std::uint8_t>(1 + (g.task(t).j >= 0
                                                   ? g.task(t).j % 3
                                                   : 0));
  for (auto _ : state) {
    auto r = sim::simulate(g, assign, p, nt, nt, sim::SimOptions{});
    benchmark::DoNotOptimize(&r);
  }
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(g.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulationThroughput)->Arg(16)->Arg(32)->Arg(64);

// ---------------------------------------------------------------------------
// --json mode: deterministic GFLOP/s harness.
// ---------------------------------------------------------------------------

/// Runs f repeatedly until at least min_seconds of wall clock is covered,
/// then repeats the measurement several times and returns the best (smallest)
/// seconds per call. Best-of-N filters scheduler noise on shared/virtualized
/// CPUs, which otherwise dominates the committed baseline numbers.
template <typename F>
double seconds_per_call(F&& f, double min_seconds) {
  f();  // warmup: faults, caches, pack-buffer growth
  int iters = 1;
  double s;
  for (;;) {
    Timer t;
    for (int i = 0; i < iters; ++i) f();
    s = t.seconds();
    if (s >= min_seconds) break;
    const double grow = s > 1e-9 ? (min_seconds * 1.3) / s : 4.0;
    iters = std::max(iters + 1, static_cast<int>(iters * grow));
  }
  double best = s / iters;
  for (int rep = 0; rep < 4; ++rep) {
    Timer t;
    for (int i = 0; i < iters; ++i) f();
    best = std::min(best, t.seconds() / iters);
  }
  return best;
}

struct JsonResult {
  std::string kernel;
  int tile;
  double gflops;
  double sec_per_call;
};

void bench_gemm_pair(int b, double min_s, std::vector<JsonResult>& out) {
  const auto a = Matrix<double>::random(b, b, 41);
  const auto x = Matrix<double>::random(b, b, 42);
  Matrix<double> c(b, b);
  const double flops = 2.0 * b * double(b) * b;

  const double naive = seconds_per_call(
      [&] {
        la::gemm_naive<double>(la::Trans::kNoTrans, la::Trans::kNoTrans, 1.0,
                               a.view(), x.view(), 0.0, c.view());
      },
      min_s);
  out.push_back({"gemm_naive", b, flops / naive * 1e-9, naive});

  const double packed = seconds_per_call(
      [&] {
        la::mk::gemm_packed<double>(la::Trans::kNoTrans, la::Trans::kNoTrans,
                                    1.0, a.view(), x.view(), 0.0, c.view());
      },
      min_s);
  out.push_back({"gemm_packed", b, flops / packed * 1e-9, packed});
}

/// Restores a work tile from its source between timed calls. The harness
/// copies into tiles allocated once: a b=128 tile is exactly glibc's initial
/// mmap threshold, so allocating one per call made the timings depend on
/// whether an earlier, larger allocation had already raised that threshold
/// (it had in full runs, not in --quick ones).
void reset(Matrix<double>& dst, const Matrix<double>& src) {
  std::copy_n(src.data(), static_cast<std::size_t>(src.rows()) * src.cols(),
              dst.data());
}

void bench_tile_kernels(int b, double min_s, int ib,
                        std::vector<JsonResult>& out) {
  // geqrt (copy cost included in both modes, as in the gbench suite).
  {
    const auto src = Matrix<double>::random(b, b, 1);
    Matrix<double> t(b, b), w(b, b);
    const double s = seconds_per_call(
        [&] {
          reset(w, src);
          la::geqrt<double>(w.view(), t.view(), ib);
        },
        min_s);
    out.push_back({"geqrt", b, la::flops_geqrt(b) / s * 1e-9, s});
  }
  // unmqr: apply a factored tile's Q^T to a dense tile.
  {
    Matrix<double> v = Matrix<double>::random(b, b, 2);
    Matrix<double> t(b, b);
    la::geqrt<double>(v.view(), t.view(), ib);
    const auto c_src = Matrix<double>::random(b, b, 3);
    Matrix<double> c(b, b);
    const double s = seconds_per_call(
        [&] {
          reset(c, c_src);
          la::unmqr<double>(v.view(), t.view(), c.view(), la::Trans::kTrans,
                            ib);
        },
        min_s);
    out.push_back({"unmqr", b, la::flops_unmqr(b) / s * 1e-9, s});
  }
  // tsqrt / tsmqr: the pentagonal pair with l = 0 (dense bottom tile).
  {
    Matrix<double> r1(b, b);
    const auto rnd = Matrix<double>::random(b, b, 4);
    for (la::index_t j = 0; j < b; ++j)
      for (la::index_t i = 0; i <= j; ++i)
        r1(i, j) = rnd(i, j) + (i == j ? 2.0 : 0.0);
    const auto a2_src = Matrix<double>::random(b, b, 5);
    Matrix<double> t(b, b), r(b, b), a2(b, b);
    const double s = seconds_per_call(
        [&] {
          reset(r, r1);
          reset(a2, a2_src);
          la::tpqrt<double>(r.view(), a2.view(), t.view(), 0, ib);
        },
        min_s);
    out.push_back({"tsqrt", b, la::flops_tsqrt(b) / s * 1e-9, s});

    Matrix<double> v2 = a2_src;
    reset(r, r1);
    la::tpqrt<double>(r.view(), v2.view(), t.view(), 0, ib);
    const auto c1_src = Matrix<double>::random(b, b, 6);
    const auto c2_src = Matrix<double>::random(b, b, 7);
    Matrix<double> c1(b, b), c2(b, b);
    const double s2 = seconds_per_call(
        [&] {
          reset(c1, c1_src);
          reset(c2, c2_src);
          la::tpmqrt<double>(v2.view(), t.view(), c1.view(), c2.view(), 0,
                             la::Trans::kTrans, ib);
        },
        min_s);
    out.push_back({"tsmqr", b, la::flops_tsmqr(b) / s2 * 1e-9, s2});
  }
  // ttqrt / ttmqr: the pentagonal pair with l = b (triangular bottom tile).
  {
    Matrix<double> r1(b, b), r2(b, b);
    for (la::index_t j = 0; j < b; ++j)
      for (la::index_t i = 0; i <= j; ++i) {
        r1(i, j) = 1.0 + i + j;
        r2(i, j) = 2.0 + i - j;
      }
    Matrix<double> t(b, b), x1(b, b), x2(b, b);
    const double s = seconds_per_call(
        [&] {
          reset(x1, r1);
          reset(x2, r2);
          la::tpqrt<double>(x1.view(), x2.view(), t.view(), b, ib);
        },
        min_s);
    out.push_back({"ttqrt", b, la::flops_ttqrt(b) / s * 1e-9, s});

    Matrix<double> v2 = r2;
    reset(x1, r1);
    la::tpqrt<double>(x1.view(), v2.view(), t.view(), b, ib);
    const auto c1_src = Matrix<double>::random(b, b, 8);
    const auto c2_src = Matrix<double>::random(b, b, 9);
    Matrix<double> c1(b, b), c2(b, b);
    const double s2 = seconds_per_call(
        [&] {
          reset(c1, c1_src);
          reset(c2, c2_src);
          la::tpmqrt<double>(v2.view(), t.view(), c1.view(), c2.view(), b,
                             la::Trans::kTrans, ib);
        },
        min_s);
    out.push_back({"ttmqr", b, la::flops_ttmqr(b) / s2 * 1e-9, s2});
  }
  // trmm_left: the triangular multiplies inside the applies, named by
  // (uplo, trans, diag). utn is tpmqrt's op(Tf) W, lnu unmqr's V1 W. m^2 n
  // flops; the b x b copy of the multiplied operand is included, as for the
  // apply kernels.
  {
    struct Case {
      const char* kernel;
      la::UpLo uplo;
      la::Trans trans;
      la::Diag diag;
    };
    const Case cases[] = {
        {"trmm_left.utn", la::UpLo::kUpper, la::Trans::kTrans,
         la::Diag::kNonUnit},
        {"trmm_left.lnu", la::UpLo::kLower, la::Trans::kNoTrans,
         la::Diag::kUnit},
    };
    const auto a = Matrix<double>::random(b, b, 10);
    const auto x_src = Matrix<double>::random(b, b, 11);
    Matrix<double> x(b, b);
    for (const Case& k : cases) {
      const double s = seconds_per_call(
          [&] {
            reset(x, x_src);
            la::trmm_left<double>(k.uplo, k.trans, k.diag, a.view(),
                                  x.view());
          },
          min_s);
      out.push_back({k.kernel, b, double(b) * b * b / s * 1e-9, s});
    }
  }
}

int run_json_mode(bool quick, const std::string& out_path, int ib) {
  const double min_s = quick ? 0.02 : 0.15;
  const std::vector<int> tiles =
      quick ? std::vector<int>{64, 128} : std::vector<int>{64, 128, 192, 256};
  // Each row reports the median seconds per call over three whole passes,
  // with its rate rescaled to match, so one pass that loses the CPU to a
  // neighbour cannot move the gate.
  std::vector<std::vector<JsonResult>> passes(3);
  for (auto& pass : passes) {
    for (int b : tiles) bench_gemm_pair(b, min_s, pass);
    for (int b : tiles) bench_tile_kernels(b, min_s, ib, pass);
  }
  std::vector<JsonResult> results = passes.front();
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<double> s;
    for (const auto& pass : passes) s.push_back(pass[i].sec_per_call);
    std::nth_element(s.begin(), s.begin() + s.size() / 2, s.end());
    const double median = s[s.size() / 2];
    results[i].gflops *= results[i].sec_per_call / median;
    results[i].sec_per_call = median;
  }

  double naive256 = 0, packed256 = 0;
  for (const auto& r : results) {
    if (r.tile != tiles.back()) continue;
    if (r.kernel == "gemm_naive") naive256 = r.gflops;
    if (r.kernel == "gemm_packed") packed256 = r.gflops;
  }

  std::string json;
  char buf[256];
  json += "{\n";
  std::snprintf(buf, sizeof buf,
                "  \"bench\": \"kernels\",\n  \"isa\": \"%s\",\n"
                "  \"vectorized\": %s,\n  \"quick\": %s,\n  \"ib\": %d,\n",
                la::mk::isa_name(), la::mk::vectorized() ? "true" : "false",
                quick ? "true" : "false", ib);
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"gemm_speedup_at_%d\": %.3f,\n", tiles.back(),
                naive256 > 0 ? packed256 / naive256 : 0.0);
  json += buf;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"kernel\": \"%s\", \"tile\": %d, \"gflops\": %.3f, "
                  "\"sec_per_call\": %.6e}%s\n",
                  r.kernel.c_str(), r.tile, r.gflops, r.sec_per_call,
                  i + 1 < results.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "(json written to %s)\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false, quick = false;
  int ib = 0;
  std::string out_path;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ib") == 0 && i + 1 < argc) {
      // Inner block width `ib` for the factor kernels and their applies; 0
      // keeps the library default. Reject junk instead of silently benching
      // with atoi garbage.
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 0 || v > 4096) {
        std::fprintf(stderr, "invalid --ib '%s' (expect integer in [0, 4096])\n",
                     argv[i]);
        return 1;
      }
      ib = static_cast<int>(v);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (json) return run_json_mode(quick, out_path, ib);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

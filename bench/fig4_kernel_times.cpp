// Fig. 4 reproduction: single-tile kernel time of each QR step (T, E, UT/UE)
// versus tile size, per device.
//
// The paper measured its CUDA/PLASMA kernels; we print the device model's
// single-kernel curves (which the scheduling algorithms consume) next to
// *measured host times* of our functional kernels, so the model's shape can
// be compared against real kernels at a glance.
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "la/kernels.hpp"
#include "sim/platform.hpp"

namespace tqr {
namespace {

/// Median-of-5 measured host time for one functional kernel, microseconds.
/// `ib` is the kernels' inner block size (0 = library default) — the same
/// knob execution uses, so the table reflects the deployed kernels.
double measured_host_us(dag::Op op, int b, la::index_t ib) {
  using namespace la;
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    Matrix<double> a = Matrix<double>::random(b, b, 1000 + b);
    Matrix<double> a2 = Matrix<double>::random(b, b, 2000 + b);
    Matrix<double> t(b, b);
    Matrix<double> c1 = Matrix<double>::random(b, b, 3000 + b);
    Matrix<double> c2 = Matrix<double>::random(b, b, 4000 + b);
    // Pre-factor where the op needs factored inputs.
    Matrix<double> tri(b, b);
    for (index_t j = 0; j < b; ++j)
      for (index_t i = 0; i <= j; ++i)
        tri(i, j) = a(i, j) + (i == j ? 2.0 : 0.0);
    Matrix<double> vfac = a, tfac(b, b);
    geqrt<double>(vfac.view(), tfac.view(), ib);

    Timer timer;
    switch (op) {
      case dag::Op::kGeqrt:
        geqrt<double>(a.view(), t.view(), ib);
        break;
      case dag::Op::kUnmqr:
        unmqr<double>(vfac.view(), tfac.view(), c1.view(), Trans::kTrans, ib);
        break;
      case dag::Op::kTsqrt:
        tpqrt<double>(tri.view(), a2.view(), t.view(), 0, ib);
        break;
      case dag::Op::kTsmqr: {
        Matrix<double> r1 = tri, v2 = a2, tf(b, b);
        tpqrt<double>(r1.view(), v2.view(), tf.view(), 0, ib);
        timer.reset();
        tpmqrt<double>(v2.view(), tf.view(), c1.view(), c2.view(), 0,
                       Trans::kTrans, ib);
        break;
      }
      default:
        break;
    }
    best = std::min(best, timer.micros());
  }
  return best;
}

}  // namespace
}  // namespace tqr

int main(int argc, char** argv) {
  using namespace tqr;
  Cli cli;
  cli.flag("tiles", "comma-separated tile sizes", "4,8,12,16,20,24,28");
  cli.flag("ib", "inner block width for measured kernels (0 = default)", "0");
  cli.flag("csv", "write results as CSV to this path");
  if (!cli.parse(argc, argv)) return 0;
  const auto ib = static_cast<la::index_t>(cli.get_int("ib", 0));

  const sim::Platform platform = sim::paper_platform();
  bench::print_environment(platform);
  const auto tiles = cli.get_int_list("tiles", {4, 8, 12, 16, 20, 24, 28});

  std::printf("Fig. 4 — single-tile kernel time per step (microseconds)\n");
  std::printf("paper shape targets: T > E > UT/UE on every device; CPU slowest"
              " per kernel;\nGTX580 faster single kernels than GTX680\n\n");

  Table table({"device", "tile", "T(geqrt)", "E(tsqrt)", "UT(unmqr)",
               "UE(tsmqr)"});
  for (int d = 0; d < platform.num_devices(); ++d) {
    const auto& dev = platform.device(d);
    if (d == 3) continue;  // second GTX680 duplicates the curve
    for (auto b : tiles) {
      const int bi = static_cast<int>(b);
      table.add_row(
          {dev.name, fmt(b),
           fmt(dev.kernel_time_s(dag::Op::kGeqrt, bi) * 1e6, 1),
           fmt(dev.kernel_time_s(dag::Op::kTsqrt, bi) * 1e6, 1),
           fmt(dev.kernel_time_s(dag::Op::kUnmqr, bi) * 1e6, 1),
           fmt(dev.kernel_time_s(dag::Op::kTsmqr, bi) * 1e6, 1)});
    }
  }
  table.print();

  std::printf("\nmeasured host kernels on this machine (sanity reference, us;"
              " ib=%d)\n", static_cast<int>(ib));
  Table host({"tile", "T(geqrt)", "E(tsqrt)", "UT(unmqr)", "UE(tsmqr)"});
  for (auto b : tiles) {
    const int bi = static_cast<int>(b);
    host.add_row({fmt(b), fmt(measured_host_us(dag::Op::kGeqrt, bi, ib), 1),
                  fmt(measured_host_us(dag::Op::kTsqrt, bi, ib), 1),
                  fmt(measured_host_us(dag::Op::kUnmqr, bi, ib), 1),
                  fmt(measured_host_us(dag::Op::kTsmqr, bi, ib), 1)});
  }
  host.print();
  bench::maybe_write_csv(cli, table);
  return 0;
}

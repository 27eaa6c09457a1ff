// Calibration driver: sweeps the platform model knobs (update-kernel scale,
// sync overhead, transfer latency, bus bandwidth) and prints the Fig. 6
// winner table and the Fig. 5 communication share side by side, so the
// preset constants in sim/platform.cpp can be fitted to the paper's
// crossovers. Kept as a bench target because re-fitting is part of porting
// the model to a new platform.
#include <cstdio>

#include "bench_util.hpp"
#include "core/autotune.hpp"
#include "core/simulate.hpp"

int main(int argc, char** argv) {
  using namespace tqr;
  Cli cli;
  cli.flag("update-scale", "multiply GPU update kernel times", "1.0");
  cli.flag("sync", "per-panel per-device sync overhead (us)", "15");
  cli.flag("lat", "per-transfer latency (us)", "0.5");
  cli.flag("bw", "bus bandwidth (GB/s)", "3.0");
  cli.flag("sizes", "sizes to probe",
           "160,320,480,640,960,1280,1920,2240,2560,2880,3200,3840");
  cli.flag("host", "also measure this host's step profile (Fig. 4 style)");
  cli.flag("host-tiles", "tile sizes for the --host profile", "16,32,64,128");
  cli.flag("ib", "inner block width for the --host kernels (0 = default)",
           "0");
  if (!cli.parse(argc, argv)) return 0;
  const double scale = cli.get_double("update-scale", 1.0);

  sim::Platform platform = sim::paper_platform();
  platform.comm.sync_overhead_us = cli.get_double("sync", 15);
  platform.comm.latency_us = cli.get_double("lat", 0.5);
  platform.comm.gbytes_per_s = cli.get_double("bw", 3.0);
  for (auto& dev : platform.devices) {
    if (dev.kind != sim::DeviceKind::kGpu) continue;
    dev.update.latency_us *= scale;
    dev.update.linear_us_per_dim *= scale;
    dev.update.flops_per_us /= scale;
  }

  std::printf("scale=%.2f sync=%.1f lat=%.2f bw=%.1f\n", scale,
              platform.comm.sync_overhead_us, platform.comm.latency_us,
              platform.comm.gbytes_per_s);
  Table table({"size", "1G_ms", "2G_ms", "3G_ms", "winner", "comm_share"});
  for (auto n : cli.get_int_list("sizes", {320, 640, 1280, 2560, 3200})) {
    std::vector<double> times;
    double share = 0;
    for (int p = 1; p <= 3; ++p) {
      core::PlanConfig pc;
      pc.tile_size = 16;
      pc.count_policy = core::CountPolicy::kFixed;
      pc.fixed_count = p;
      const auto run = core::simulate_tiled_qr(platform, n, n, pc);
      times.push_back(run.result.makespan_s * 1e3);
      if (p == 3) share = run.result.comm_fraction();
    }
    int best = 0;
    for (int p = 1; p < 3; ++p)
      if (times[p] < times[best]) best = p;
    table.add_row({fmt(n), fmt(times[0], 2), fmt(times[1], 2),
                   fmt(times[2], 2), fmt(best + 1) + "G",
                   fmt(share * 100, 1) + "%"});
  }
  table.print();

  // Host cross-check: measure the *deployed* kernels (including the inner
  // blocking execution will use) so the fitted model can be sanity-checked
  // against real step times produced by the same configuration. The profile
  // carries its ib stamp — consumers must execute with the same value.
  if (cli.get_bool("host", false)) {
    core::MeasureOptions mo;
    mo.inner_block = static_cast<la::index_t>(cli.get_int("ib", 0));
    std::printf("\nmeasured host step profile (us per tile, ib=%d)\n",
                static_cast<int>(mo.inner_block));
    Table host({"tile", "T(geqrt)", "E(elim)", "UT(unmqr)", "UE(update)"});
    for (auto b : cli.get_int_list("host-tiles", {16, 32, 64, 128})) {
      mo.tile_size = static_cast<int>(b);
      const auto profile = core::measure_host_profile(0, mo);
      host.add_row({fmt(b), fmt(profile.kernel.t * 1e6, 1),
                    fmt(profile.kernel.e * 1e6, 1),
                    fmt(profile.kernel.ut * 1e6, 1),
                    fmt(profile.kernel.ue * 1e6, 1)});
    }
    host.print();
  }
  return 0;
}

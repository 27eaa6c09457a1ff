#include "core/autotune.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/kernels.hpp"

namespace tqr::core {

namespace {

using la::Matrix;

/// Minimum-of-N wall time for a callable that needs fresh inputs each run.
template <typename Setup, typename Kernel>
double min_seconds(int reps, Setup setup, Kernel kernel) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto state = setup();
    Timer timer;
    kernel(state);
    best = std::min(best, timer.seconds());
  }
  return best;
}

}  // namespace

DeviceProfile measure_host_profile(int device_id,
                                   const MeasureOptions& options) {
  TQR_REQUIRE(options.tile_size > 0, "tile size must be positive");
  TQR_REQUIRE(options.repetitions > 0, "need at least one repetition");
  TQR_REQUIRE(options.slots >= 1, "slots must be >= 1");
  const int b = options.tile_size;
  const la::index_t ib = options.inner_block;
  const std::uint64_t seed = options.seed;

  DeviceProfile p;
  p.device = device_id;
  p.slots = options.slots;

  struct GeqrtState {
    Matrix<double> a, t;
  };
  p.kernel.t = min_seconds(
      options.repetitions,
      [&] {
        return GeqrtState{Matrix<double>::random(b, b, seed),
                          Matrix<double>(b, b)};
      },
      [&](GeqrtState& s) { la::geqrt<double>(s.a.view(), s.t.view(), ib); });

  // Elimination / update kernels need pre-factored inputs; build them once.
  Matrix<double> r1(b, b);
  {
    auto rnd = Matrix<double>::random(b, b, seed + 1);
    for (la::index_t j = 0; j < b; ++j)
      for (la::index_t i = 0; i <= j; ++i)
        r1(i, j) = rnd(i, j) + (i == j ? 2.0 : 0.0);
  }

  const bool tt = dag::uses_tt_kernels(options.elim);
  const la::index_t l = tt ? b : 0;  // tpqrt's triangular bottom rows
  struct ElimState {
    Matrix<double> r1, a2, t;
  };
  p.kernel.e = min_seconds(
      options.repetitions,
      [&] {
        Matrix<double> a2 = Matrix<double>::random(b, b, seed + 2);
        if (tt) {
          // Second operand triangular for TT.
          for (la::index_t j = 0; j < b; ++j)
            for (la::index_t i = j + 1; i < b; ++i) a2(i, j) = 0.0;
        }
        return ElimState{r1, std::move(a2), Matrix<double>(b, b)};
      },
      [&](ElimState& s) {
        la::tpqrt<double>(s.r1.view(), s.a2.view(), s.t.view(), l, ib);
      });

  // Factored operands for the update kernels.
  Matrix<double> vg = Matrix<double>::random(b, b, seed + 3);
  Matrix<double> tg(b, b);
  la::geqrt<double>(vg.view(), tg.view(), ib);
  Matrix<double> re = r1;
  Matrix<double> ve = Matrix<double>::random(b, b, seed + 4);
  if (tt)
    for (la::index_t j = 0; j < b; ++j)
      for (la::index_t i = j + 1; i < b; ++i) ve(i, j) = 0.0;
  Matrix<double> te(b, b);
  la::tpqrt<double>(re.view(), ve.view(), te.view(), l, ib);

  struct UpdateState {
    Matrix<double> c1, c2;
  };
  p.kernel.ut = min_seconds(
      options.repetitions,
      [&] {
        return UpdateState{Matrix<double>::random(b, b, seed + 5),
                           Matrix<double>(0, 0)};
      },
      [&](UpdateState& s) {
        la::unmqr<double>(vg.view(), tg.view(), s.c1.view(),
                          la::Trans::kTrans, ib);
      });
  p.kernel.ue = min_seconds(
      options.repetitions,
      [&] {
        return UpdateState{Matrix<double>::random(b, b, seed + 6),
                           Matrix<double>::random(b, b, seed + 7)};
      },
      [&](UpdateState& s) {
        la::tpmqrt<double>(ve.view(), te.view(), s.c1.view(), s.c2.view(), l,
                           la::Trans::kTrans, ib);
      });

  p.inner_block = ib;
  p.amortized.t = p.kernel.t / p.slots;
  p.amortized.e = p.kernel.e / p.slots;
  p.amortized.ut = p.kernel.ut / p.slots;
  p.amortized.ue = p.kernel.ue / p.slots;
  p.update_throughput = 2.0 / (p.amortized.ut + p.amortized.ue);
  return p;
}

}  // namespace tqr::core

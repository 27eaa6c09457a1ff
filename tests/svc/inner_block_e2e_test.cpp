// A non-default inner block width must reach every apply of the T factors,
// not just the factor kernels: the factor tasks' own unmqr/tsmqr, the
// service's probe and full verify replays, and TiledQrFactorization's
// apply_q/solve. With ib = 8 on 32-wide tiles the T planes hold 8 x 8
// diagonal blocks; any apply that walked them at the default width would
// read zeros as T and reconstruct the wrong Q, failing the residuals below.
#include <gtest/gtest.h>

#include "core/tiled_qr.hpp"
#include "la/checks.hpp"
#include "la/matrix.hpp"
#include "svc/qr_service.hpp"

namespace tqr {
namespace {

constexpr la::index_t kIb = 8;
constexpr int kTile = 32;

TEST(InnerBlockEndToEnd, ServiceVerifiesTsJobsAtBothTiers) {
  svc::ServiceConfig config;
  config.inner_block = kIb;
  svc::QrService service(config);
  for (const auto precision : {svc::Precision::kFp32, svc::Precision::kFp64})
    for (const auto verify : {svc::Verify::kProbe, svc::Verify::kFull}) {
      svc::JobSpec spec;
      spec.a = la::Matrix<double>::random(160, 96, 42);
      spec.tile_size = kTile;
      spec.elim = dag::Elimination::kTs;
      spec.precision = precision;
      spec.verify = verify;
      spec.compute_residual = true;
      const auto r = service.submit(std::move(spec)).get();
      const double tol = precision == svc::Precision::kFp32
                             ? la::residual_tolerance<float>(160)
                             : la::residual_tolerance<double>(160);
      ASSERT_EQ(r.status, svc::JobStatus::kOk)
          << svc::to_string(precision) << ": " << r.error;
      EXPECT_EQ(r.attempts, 1);
      EXPECT_LT(r.verify_residual, tol) << svc::to_string(precision);
      EXPECT_LT(r.residual, tol) << svc::to_string(precision);
    }
  EXPECT_EQ(service.stats().verify_failures, 0u);
}

template <typename T>
void check_factorization_applies() {
  const int m = 160, n = 96;
  const auto a = la::Matrix<T>::random(m, n, 43);
  typename core::TiledQrFactorization<T>::Options opts;
  opts.inner_block = kIb;
  const auto f = core::TiledQrFactorization<T>::factor(a, kTile, opts);
  const double tol = la::residual_tolerance<T>(m);

  // apply_q(Q^T) takes A to [R; 0], apply_q(Q) takes it back.
  la::Matrix<T> r(m, n);
  const auto rt = f.r();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) r(i, j) = rt(i, j);
  la::Matrix<T> qta = a;
  f.apply_q(qta.view(), la::Trans::kTrans);
  EXPECT_LT(la::relative_error<T>(qta.view(), r.view()), tol);
  f.apply_q(r.view(), la::Trans::kNoTrans);
  EXPECT_LT(la::relative_error<T>(r.view(), a.view()), tol);

  // solve recovers x from a consistent right-hand side.
  const auto x = la::Matrix<T>::random(n, 2, 44);
  la::Matrix<T> rhs(m, 2);
  la::gemm<T>(la::Trans::kNoTrans, la::Trans::kNoTrans, T(1), a.view(),
              x.view(), T(0), rhs.view());
  const auto xs = f.solve(rhs);
  EXPECT_LT(la::relative_error<T>(xs.view(), x.view()),
            la::residual_tolerance<T>(m, 5000.0));
}

TEST(InnerBlockEndToEnd, FactorizationApplyQAndSolveFp32) {
  check_factorization_applies<float>();
}

TEST(InnerBlockEndToEnd, FactorizationApplyQAndSolveFp64) {
  check_factorization_applies<double>();
}

}  // namespace
}  // namespace tqr

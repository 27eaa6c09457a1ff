// A non-default inner block width must reach every apply of the T factors,
// not just the factor kernels: the factor tasks' own unmqr/tpmqrt, the
// service's probe and full verify replays, and TiledQrFactorization's
// apply_q/solve, under every elimination tree (TS tiles and TT tiles alike).
// With ib = 8 on 32-wide tiles the T planes hold 8 x 8 diagonal blocks; any
// apply that walked them at the default width would read zeros as T and
// reconstruct the wrong Q, failing the residuals below.
#include <gtest/gtest.h>

#include <string>

#include "core/tiled_qr.hpp"
#include "la/checks.hpp"
#include "la/matrix.hpp"
#include "svc/qr_service.hpp"

namespace tqr {
namespace {

constexpr la::index_t kIb = 8;
constexpr int kTile = 32;

constexpr dag::Elimination kEveryTree[] = {
    dag::Elimination::kTs, dag::Elimination::kTt, dag::Elimination::kTtFlat,
    dag::Elimination::kHier};

/// Runs fp32/fp64 jobs at the probe and full verify tiers under `elim`.
void check_service_jobs(dag::Elimination elim) {
  svc::ServiceConfig config;
  config.inner_block = kIb;
  svc::QrService service(config);
  for (const auto precision : {svc::Precision::kFp32, svc::Precision::kFp64})
    for (const auto verify : {svc::Verify::kProbe, svc::Verify::kFull}) {
      svc::JobSpec spec;
      spec.a = la::Matrix<double>::random(160, 96, 42);
      spec.tile_size = kTile;
      spec.elim = elim;
      spec.precision = precision;
      spec.verify = verify;
      spec.compute_residual = true;
      const auto r = service.submit(std::move(spec)).get();
      const double tol = precision == svc::Precision::kFp32
                             ? la::residual_tolerance<float>(160)
                             : la::residual_tolerance<double>(160);
      const std::string where = std::string(dag::elimination_name(elim)) +
                                " " + svc::to_string(precision);
      ASSERT_EQ(r.status, svc::JobStatus::kOk) << where << ": " << r.error;
      EXPECT_EQ(r.attempts, 1) << where;
      EXPECT_LT(r.verify_residual, tol) << where;
      EXPECT_LT(r.residual, tol) << where;
    }
  EXPECT_EQ(service.stats().verify_failures, 0u)
      << dag::elimination_name(elim);
}

TEST(InnerBlockEndToEnd, ServiceVerifiesTsJobsAtBothTiers) {
  check_service_jobs(dag::Elimination::kTs);
}

TEST(InnerBlockEndToEnd, ServiceVerifiesTtJobsAtBothTiers) {
  for (const auto elim : {dag::Elimination::kTt, dag::Elimination::kTtFlat,
                          dag::Elimination::kHier})
    check_service_jobs(elim);
}

template <typename T>
void check_factorization_applies(dag::Elimination elim) {
  SCOPED_TRACE(dag::elimination_name(elim));
  const int m = 160, n = 96;
  const auto a = la::Matrix<T>::random(m, n, 43);
  typename core::TiledQrFactorization<T>::Options opts;
  opts.inner_block = kIb;
  opts.elim = elim;
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
  for (const auto elim : kEveryTree) check_factorization_applies<float>(elim);
}

TEST(InnerBlockEndToEnd, FactorizationApplyQAndSolveFp64) {
  for (const auto elim : kEveryTree) check_factorization_applies<double>(elim);
}

}  // namespace
}  // namespace tqr

// The verify tiers across the floating-point range: a correct factorization
// must pass every tier at any finite scale, and a corrupted one must still
// fail it. Both job kinds (tiled, with and without tile padding, and
// batched) run every tier over inputs scaled by 2^e (and 1e160) near the
// ends of the fp64 and fp32 ranges.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "la/blas.hpp"
#include "la/checks.hpp"
#include "la/matrix.hpp"
#include "svc/qr_service.hpp"

namespace tqr::svc {
namespace {

/// kTiled fills its tile grid exactly; kTiledPadded does not, so the service
/// pads it with an identity block.
enum class Kind { kTiled, kTiledPadded, kBatched };
/// kResidual is verify = kNone with the report-only compute_residual.
enum class Tier { kScan, kProbe, kFull, kResidual };

struct SweepCase {
  Kind kind;
  Tier tier;
};

std::string case_name(const testing::TestParamInfo<SweepCase>& info) {
  static const char* const kKinds[] = {"tiled_", "tiled_padded_",
                                       "batched_"};
  static const char* const kTiers[] = {"scan", "probe", "full", "residual"};
  return std::string(kKinds[static_cast<int>(info.param.kind)]) +
         kTiers[static_cast<int>(info.param.tier)];
}

struct Scale {
  Precision precision;
  double factor;
};

/// Every fp64 scale is near or past the point where an unscaled sum of
/// squares overflows (above ~1e154) or underflows (below ~1e-154); the fp32
/// pair sits 2^6 inside float's range.
const Scale kScales[] = {
    {Precision::kFp64, std::ldexp(1.0, 500)},
    {Precision::kFp64, std::ldexp(1.0, -500)},
    {Precision::kFp64, std::ldexp(1.0, 665)},
    {Precision::kFp64, 1e160},
    {Precision::kFp64, std::ldexp(1.0, -531)},
    {Precision::kFp64, std::ldexp(1.0, -600)},
    {Precision::kFp64, std::ldexp(1.0, -800)},
    {Precision::kFp64, std::ldexp(1.0, -1000)},
    {Precision::kFp32, std::ldexp(1.0, 120)},
    {Precision::kFp32, std::ldexp(1.0, -120)},
};

enum class Input {
  kRandom,
  kSubnormal,
  kZeroColumn,
  kDuplicate,
  kRankDeficient
};
const Input kInputs[] = {Input::kRandom, Input::kSubnormal,
                         Input::kZeroColumn, Input::kDuplicate,
                         Input::kRankDeficient};

/// The unscaled input of one kind. For kSubnormal the entries that turn
/// subnormal after scaling are zero here (see scaled()).
la::Matrix<double> base_input(Input input, la::index_t m, la::index_t n,
                              std::uint64_t seed) {
  la::Matrix<double> a = la::Matrix<double>::random(m, n, seed);
  switch (input) {
    case Input::kRandom:
      break;
    case Input::kSubnormal:
      for (la::index_t k = 0; k < n; k += 3) a((5 * k) % m, k) = 0.0;
      break;
    case Input::kZeroColumn:
      for (la::index_t i = 0; i < m; ++i) a(i, 2) = 0.0;
      break;
    case Input::kDuplicate:
      for (la::index_t i = 0; i < m; ++i) a(i, 3) = a(i, 1);
      break;
    case Input::kRankDeficient: {
      // Rank n/2: A = B C.
      const la::index_t k = n / 2;
      const auto b = la::Matrix<double>::random(m, k, seed + 1);
      const auto c = la::Matrix<double>::random(k, n, seed + 2);
      for (la::index_t j = 0; j < n; ++j)
        for (la::index_t i = 0; i < m; ++i) {
          double s = 0;
          for (la::index_t l = 0; l < k; ++l) s += b(i, l) * c(l, j);
          a(i, j) = s;
        }
      break;
    }
  }
  return a;
}

/// factor * base, with kSubnormal's zeroed entries set to subnormals of the
/// job's precision. They are below 2^-1000 of every other entry, so the
/// scaled R still matches factor * R(base) to rounding.
la::Matrix<double> scaled(const la::Matrix<double>& base, Input input,
                          const Scale& scale) {
  la::Matrix<double> a = base;
  for (la::index_t j = 0; j < a.cols(); ++j)
    for (la::index_t i = 0; i < a.rows(); ++i) a(i, j) *= scale.factor;
  if (input == Input::kSubnormal) {
    const double tiny = scale.precision == Precision::kFp32
                            ? std::numeric_limits<float>::denorm_min() * 5.0
                            : std::numeric_limits<double>::denorm_min() * 5.0;
    for (la::index_t k = 0; k < a.cols(); k += 3)
      a((5 * k) % a.rows(), k) = k % 2 ? tiny : -tiny;
  }
  return a;
}

/// (R / factor)^T (R / factor): R is unique only up to row signs (and, for
/// rank-deficient input, up to a rotation of its null-space rows), but
/// R^T R = A^T A is not, so "R(factor A) = factor R(A)" is checked as
/// gram(R(factor A), factor) = gram(R(A), 1). The unscaling is exact for a
/// power of two; entries it pushes below the normal range are negligible.
la::Matrix<double> gram(const la::Matrix<double>& r, double factor) {
  la::Matrix<double> u = r;
  for (la::index_t j = 0; j < u.cols(); ++j)
    for (la::index_t i = 0; i < u.rows(); ++i) u(i, j) /= factor;
  la::Matrix<double> g(u.cols(), u.cols());
  la::gemm<double>(la::Trans::kTrans, la::Trans::kNoTrans, 1.0, u.view(),
                   u.view(), 0.0, g.view());
  return g;
}

class VerifyScaleSweep : public testing::TestWithParam<SweepCase> {
 protected:
  static constexpr int kMembers = 3;

  /// One job of this case's kind and tier over `inputs` (one member each
  /// for a batch; a tiled job takes inputs.front()).
  JobSpec spec(const std::vector<la::Matrix<double>>& inputs,
               Precision precision) const {
    JobSpec s;
    if (GetParam().kind == Kind::kBatched) {
      s.batch = inputs;
    } else {
      s.a = inputs.front();
      s.tile_size = 32;
    }
    s.precision = precision;
    switch (GetParam().tier) {
      case Tier::kScan: s.verify = Verify::kScan; break;
      case Tier::kProbe: s.verify = Verify::kProbe; break;
      case Tier::kFull: s.verify = Verify::kFull; break;
      case Tier::kResidual: s.compute_residual = true; break;
    }
    return s;
  }

  std::vector<la::Matrix<double>> bases(Input input) const {
    std::vector<la::Matrix<double>> out;
    // Tiled jobs on 32-tiles: 128 x 64 exactly, or 100 x 70 padded to
    // 128 x 96. Batch members are 24 x 16.
    switch (GetParam().kind) {
      case Kind::kTiled:
        out.push_back(base_input(input, 128, 64, 31));
        break;
      case Kind::kTiledPadded:
        out.push_back(base_input(input, 100, 70, 31));
        break;
      case Kind::kBatched:
        for (int p = 0; p < kMembers; ++p)
          out.push_back(base_input(input, 24, 16,
                                   31 + 7 * static_cast<std::uint64_t>(p)));
        break;
    }
    return out;
  }

  static std::vector<la::Matrix<double>> rs(const JobResult& r) {
    return r.problems > 0 ? r.batch_r : std::vector<la::Matrix<double>>{r.r};
  }

  /// The service's own threshold: tiled jobs are held to their 128-row
  /// tile grid, batch members to their own 24 rows.
  double tolerance(Precision precision) const {
    const la::index_t n = GetParam().kind == Kind::kBatched ? 24 : 128;
    return precision == Precision::kFp32 ? la::verify_tolerance<float>(n)
                                         : la::verify_tolerance<double>(n);
  }

  /// The tier's statistic must be a real reading: finite, above zero (an
  /// underflowed sum reads 0), and inside the tolerance.
  void expect_statistics(const JobResult& r, double tol,
                         const std::string& where) const {
    const Tier tier = GetParam().tier;
    if (tier == Tier::kProbe || tier == Tier::kFull) {
      EXPECT_TRUE(r.verify_residual > 0 && r.verify_residual <= tol)
          << where << ": verify_residual " << r.verify_residual;
    }
    if (tier == Tier::kFull || tier == Tier::kResidual) {
      EXPECT_TRUE(r.residual > 0 && r.residual <= tol)
          << where << ": residual " << r.residual;
    }
  }
};

TEST_P(VerifyScaleSweep, EveryTierAcceptsAndRMatchesTheScaledR) {
  ServiceConfig config;
  config.lanes = 2;
  config.quarantine_after = 1;  // a single false rejection would show
  QrService service(config);
  for (const Input input : kInputs) {
    const auto base = bases(input);
    for (const Precision precision : {Precision::kFp64, Precision::kFp32}) {
      const JobResult ref = service.submit(spec(base, precision)).get();
      ASSERT_EQ(ref.status, JobStatus::kOk) << ref.error;
      const double tol = tolerance(precision);
      expect_statistics(ref, tol, "unscaled");
      const auto ref_rs = rs(ref);
      for (const Scale& scale : kScales) {
        if (scale.precision != precision) continue;
        std::vector<la::Matrix<double>> inputs;
        for (const auto& b : base) inputs.push_back(scaled(b, input, scale));
        const JobResult r = service.submit(spec(inputs, precision)).get();
        const std::string where = "input " +
                                  std::to_string(static_cast<int>(input)) +
                                  " scale " + std::to_string(scale.factor);
        ASSERT_EQ(r.status, JobStatus::kOk) << where << ": " << r.error;
        expect_statistics(r, tol, where);
        const auto got = rs(r);
        ASSERT_EQ(got.size(), ref_rs.size());
        for (std::size_t p = 0; p < got.size(); ++p) {
          const auto want = gram(ref_rs[p], 1.0);
          EXPECT_LE(la::relative_error<double>(
                        gram(got[p], scale.factor).view(), want.view()),
                    tol)
              << where << " member " << p;
        }
      }
    }
  }
  service.drain();
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.jobs_corrupted, 0u);
  EXPECT_EQ(s.verify_failures, 0u);
  EXPECT_EQ(s.lane_quarantines, 0u);
}

/// The enforcing tiers (probe, full) only.
using VerifyScaleCorruption = VerifyScaleSweep;

TEST_P(VerifyScaleCorruption, RejectsAtEveryScale) {
  // The other half: a statistic that underflows to 0 or overflows to NaN
  // would pass corrupted factors (or fail clean ones). The enforcing tiers
  // must reject a perturbed or bit-flipped R at every scale.
  for (const FaultConfig::Corrupt kind :
       {FaultConfig::Corrupt::kPerturb, FaultConfig::Corrupt::kBitFlip}) {
    for (const Scale& scale : kScales) {
      // In fp32 the weakest injected change, 2^-9 of one entry, can sit
      // inside float's verify tolerance, so fp32 runs a larger perturbation
      // only.
      const bool fp32 = scale.precision == Precision::kFp32;
      if (fp32 && kind == FaultConfig::Corrupt::kBitFlip) continue;
      ServiceConfig config;
      config.fault.mode = FaultConfig::Mode::kCorrupt;
      config.fault.corrupt = kind;
      config.fault.corrupt_scale = fp32 ? 0.5 : 1e-3;
      config.fault.task = 0;  // first GEQRT / first batch member
      QrService service(config);
      std::vector<la::Matrix<double>> inputs;
      for (const auto& b : bases(Input::kRandom))
        inputs.push_back(scaled(b, Input::kRandom, scale));
      const JobResult r = service.submit(spec(inputs, scale.precision)).get();
      EXPECT_EQ(r.status, JobStatus::kCorrupted)
          << "kind " << static_cast<int>(kind) << " scale " << scale.factor;
      EXPECT_EQ(service.stats().faults_injected, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndTiers, VerifyScaleSweep,
    testing::Values(SweepCase{Kind::kTiled, Tier::kScan},
                    SweepCase{Kind::kTiled, Tier::kProbe},
                    SweepCase{Kind::kTiled, Tier::kFull},
                    SweepCase{Kind::kTiled, Tier::kResidual},
                    SweepCase{Kind::kTiledPadded, Tier::kScan},
                    SweepCase{Kind::kTiledPadded, Tier::kProbe},
                    SweepCase{Kind::kTiledPadded, Tier::kFull},
                    SweepCase{Kind::kTiledPadded, Tier::kResidual},
                    SweepCase{Kind::kBatched, Tier::kScan},
                    SweepCase{Kind::kBatched, Tier::kProbe},
                    SweepCase{Kind::kBatched, Tier::kFull},
                    SweepCase{Kind::kBatched, Tier::kResidual}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    KindsAndTiers, VerifyScaleCorruption,
    testing::Values(SweepCase{Kind::kTiled, Tier::kProbe},
                    SweepCase{Kind::kTiled, Tier::kFull},
                    SweepCase{Kind::kTiledPadded, Tier::kProbe},
                    SweepCase{Kind::kTiledPadded, Tier::kFull},
                    SweepCase{Kind::kBatched, Tier::kProbe},
                    SweepCase{Kind::kBatched, Tier::kFull}),
    case_name);

}  // namespace
}  // namespace tqr::svc

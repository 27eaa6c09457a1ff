#include "svc/qr_service.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "core/tiled_qr.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "la/blas.hpp"
#include "la/checks.hpp"
#include "la/matrix.hpp"
#include "la/tiled_matrix.hpp"

namespace tqr::svc {
namespace {

JobSpec spec_for(la::index_t rows, la::index_t cols, std::uint64_t seed,
                 bool residual = true) {
  JobSpec spec;
  spec.a = la::Matrix<double>::random(rows, cols, seed);
  spec.compute_residual = residual;
  return spec;
}

bool upper_triangular(const la::Matrix<double>& r) {
  for (la::index_t i = 0; i < r.rows(); ++i)
    for (la::index_t j = 0; j < i && j < r.cols(); ++j)
      if (r(i, j) != 0.0) return false;
  return true;
}

TEST(QrService, SingleJobFactorsCorrectly) {
  QrService service;
  auto result = service.submit(spec_for(96, 96, 11)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_EQ(result.rows, 96);
  EXPECT_EQ(result.cols, 96);
  EXPECT_EQ(result.r.rows(), 96);
  EXPECT_EQ(result.r.cols(), 96);
  EXPECT_TRUE(upper_triangular(result.r));
  EXPECT_GE(result.residual, 0.0);
  EXPECT_LT(result.residual, la::residual_tolerance<double>(96));
  EXPECT_GE(result.lane, 0);
  EXPECT_GT(result.exec_s, 0.0);
  EXPECT_GE(result.total_s, result.exec_s);
}

TEST(QrService, TallSkinnyAndNonTileAlignedShapes) {
  QrService service;
  // 100x60 is not a multiple of the default tile (16): exercises padding.
  auto tall = service.submit(spec_for(128, 64, 3)).get();
  auto ragged = service.submit(spec_for(100, 60, 4)).get();
  ASSERT_EQ(tall.status, JobStatus::kOk) << tall.error;
  ASSERT_EQ(ragged.status, JobStatus::kOk) << ragged.error;
  EXPECT_EQ(tall.r.rows(), 64);
  EXPECT_EQ(ragged.r.rows(), 60);
  EXPECT_LT(tall.residual, la::residual_tolerance<double>(128));
  EXPECT_LT(ragged.residual, la::residual_tolerance<double>(100));
}

TEST(QrService, RepeatedShapeHitsPlanCache) {
  QrService service;
  auto first = service.submit(spec_for(96, 96, 1, false)).get();
  service.drain();
  auto second = service.submit(spec_for(96, 96, 2, false)).get();
  ASSERT_EQ(first.status, JobStatus::kOk);
  ASSERT_EQ(second.status, JobStatus::kOk);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  const auto s = service.stats();
  EXPECT_GE(s.plan_cache.hits, 1u);
  EXPECT_EQ(s.jobs_completed, 2u);
}

TEST(QrService, WideMatrixFails) {
  QrService service;
  auto result = service.submit(spec_for(32, 64, 5, false)).get();
  // The shape is the submitter's error: rejected before any attempt.
  EXPECT_EQ(result.status, JobStatus::kInvalidInput);
  EXPECT_EQ(result.attempts, 0);
  EXPECT_FALSE(result.error.empty());
  // A failed job must not poison the lane for the next one.
  auto ok = service.submit(spec_for(64, 64, 6, false)).get();
  EXPECT_EQ(ok.status, JobStatus::kOk) << ok.error;
}

TEST(QrService, ExpiredDeadlineSkipsFactorization) {
  ServiceConfig config;
  config.lanes = 1;
  QrService service(config);
  // Occupy the single lane with a large job, then enqueue one whose
  // queue deadline cannot survive the wait.
  auto big = service.submit(spec_for(256, 256, 7, true));
  JobSpec doomed = spec_for(64, 64, 8, false);
  doomed.queue_deadline_s = 1e-9;
  auto result = service.submit(std::move(doomed)).get();
  EXPECT_EQ(result.status, JobStatus::kExpired);
  EXPECT_EQ(result.r.rows(), 0);
  EXPECT_EQ(big.get().status, JobStatus::kOk);
  EXPECT_EQ(service.stats().jobs_expired, 1u);
}

TEST(QrService, RejectAdmissionResolvesFutureImmediately) {
  ServiceConfig config;
  config.lanes = 1;
  config.queue_capacity = 1;
  config.admission = Admission::kReject;
  QrService service(config);
  // Fill the lane and the queue, then overflow.
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(service.submit(spec_for(192, 192, 20 + i, false)));
  int rejected = 0, ok = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    (r.status == JobStatus::kRejected ? rejected : ok)++;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(service.stats().jobs_rejected,
            static_cast<std::uint64_t>(rejected));
}

TEST(QrService, DrainWaitsForAllAccepted) {
  QrService service;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i)
    futures.push_back(service.submit(spec_for(96, 96, 30 + i, false)));
  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.jobs_completed, 6u);
  EXPECT_EQ(s.queue.depth, 0u);
  for (auto& f : futures)
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
}

TEST(QrService, StatsTrackLatencyAndThroughput) {
  QrService service;
  for (int i = 0; i < 4; ++i)
    service.submit(spec_for(96, 96, 40 + i, false));
  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.jobs_submitted, 4u);
  EXPECT_GT(s.p50_ms, 0.0);
  EXPECT_GE(s.p95_ms, s.p50_ms);
  EXPECT_GT(s.jobs_per_s, 0.0);
  EXPECT_GT(s.uptime_s, 0.0);
  EXPECT_EQ(s.lanes, service.config().lanes);
}

TEST(QrService, ColdConfigDisablesCacheAndReuse) {
  ServiceConfig config;
  config.plan_cache_enabled = false;
  config.workspace_max_bytes = 0;
  config.reuse_engines = false;
  QrService service(config);
  auto a = service.submit(spec_for(96, 96, 50, true)).get();
  auto b = service.submit(spec_for(96, 96, 51, true)).get();
  ASSERT_EQ(a.status, JobStatus::kOk) << a.error;
  ASSERT_EQ(b.status, JobStatus::kOk) << b.error;
  EXPECT_LT(a.residual, la::residual_tolerance<double>(96));
  EXPECT_FALSE(a.plan_cache_hit);
  EXPECT_FALSE(b.plan_cache_hit);
  const auto s = service.stats();
  EXPECT_EQ(s.plan_cache.hits, 0u);
  EXPECT_EQ(s.workspace.reused, 0u);
}

TEST(QrService, DestructorDrainsAcceptedJobs) {
  std::vector<std::future<JobResult>> futures;
  {
    QrService service;
    for (int i = 0; i < 4; ++i)
      futures.push_back(service.submit(spec_for(96, 96, 60 + i, false)));
  }  // ~QrService must complete every accepted job before returning
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().status, JobStatus::kOk);
  }
}

TEST(QrService, InvalidConfigRejected) {
  ServiceConfig bad_lanes;
  bad_lanes.lanes = 0;
  EXPECT_THROW(QrService{bad_lanes}, tqr::InvalidArgument);
  ServiceConfig bad_tile;
  bad_tile.default_tile = 0;
  EXPECT_THROW(QrService{bad_tile}, tqr::InvalidArgument);
}

TEST(QrService, DefaultEliminationIsTs) {
  // The host-native default: the TS tree's kernels do the least work, and
  // the executor finds enough parallelism in the flat chain.
  EXPECT_EQ(JobSpec{}.elim, dag::Elimination::kTs);
}

TEST(QrService, TsEliminationJobsWork) {
  QrService service;
  JobSpec spec = spec_for(128, 128, 70, true);
  spec.elim = dag::Elimination::kTs;
  auto result = service.submit(std::move(spec)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_LT(result.residual, la::residual_tolerance<double>(128));
}

TEST(QrService, ExplicitTileSizeOverridesDefault) {
  QrService service;
  JobSpec spec = spec_for(96, 96, 80, true);
  spec.tile_size = 32;
  auto result = service.submit(std::move(spec)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_EQ(result.tile_size, 32);
  EXPECT_LT(result.residual, la::residual_tolerance<double>(96));
}

TEST(QrService, Fp32JobFactorsToFloatTolerance) {
  QrService service;
  JobSpec spec = spec_for(96, 96, 90, true);
  spec.precision = Precision::kFp32;
  spec.verify = Verify::kFull;
  auto result = service.submit(std::move(spec)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_EQ(result.precision, Precision::kFp32);
  EXPECT_TRUE(upper_triangular(result.r));
  // Residual sits at float scale: well under the float tolerance the full
  // verify tier enforced, but way above anything a double factorization
  // produces — proof the kernels genuinely ran in fp32.
  EXPECT_LT(result.residual, la::residual_tolerance<float>(96));
  EXPECT_GT(result.residual, 100.0 * la::residual_tolerance<double>(96));
}

TEST(QrService, Fp32AndFp64JobsAgreeOnR) {
  QrService service;
  JobSpec lo = spec_for(64, 64, 91, false);
  JobSpec hi;
  hi.a = lo.a;
  lo.precision = Precision::kFp32;
  auto rlo = service.submit(std::move(lo)).get();
  auto rhi = service.submit(std::move(hi)).get();
  ASSERT_EQ(rlo.status, JobStatus::kOk) << rlo.error;
  ASSERT_EQ(rhi.status, JobStatus::kOk) << rhi.error;
  // Same factorization up to float rounding (sign-fixed via |R| since
  // reflector signs may differ between precisions).
  double worst = 0, scale = 0;
  for (la::index_t j = 0; j < 64; ++j)
    for (la::index_t i = 0; i <= j; ++i) {
      worst = std::max(worst, std::abs(std::abs(rlo.r(i, j)) -
                                       std::abs(rhi.r(i, j))));
      scale = std::max(scale, std::abs(rhi.r(i, j)));
    }
  EXPECT_LT(worst / scale, la::residual_tolerance<float>(64, 5000.0));
}

TEST(QrService, PrecisionParsesAndPrints) {
  EXPECT_EQ(parse_precision("fp32"), Precision::kFp32);
  EXPECT_EQ(parse_precision("float"), Precision::kFp32);
  EXPECT_EQ(parse_precision("fp64"), Precision::kFp64);
  EXPECT_EQ(parse_precision("double"), Precision::kFp64);
  EXPECT_STREQ(to_string(Precision::kFp32), "fp32");
  EXPECT_STREQ(to_string(Precision::kFp64), "fp64");
  EXPECT_THROW(parse_precision("fp16"), InvalidArgument);
}

TEST(QrService, TraceRecordsConfiguredInnerBlock) {
  // Calibration/execution consistency: the ib the service was configured
  // with must be the ib the plan records and the one the executed factor
  // tasks are annotated with in the trace.
  ServiceConfig config;
  config.lanes = 1;
  config.collect_trace = true;
  config.inner_block = 8;
  QrService service(config);
  auto result = service.submit(spec_for(64, 64, 92, false)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  service.drain();
  const std::string json = service.trace_json();
  EXPECT_NE(json.find("\"ib\":8"), std::string::npos) << json.substr(0, 400);
}

// ---- Ragged shapes, both precisions, default and explicit trees ----------

struct RaggedJob {
  la::index_t rows, cols;
  int tile;
  Precision precision;
};

void PrintTo(const RaggedJob& p, std::ostream* os) {
  *os << p.rows << "x" << p.cols << " b=" << p.tile << " "
      << to_string(p.precision);
}

class ServiceRagged : public ::testing::TestWithParam<RaggedJob> {
 protected:
  JobSpec spec() const {
    const RaggedJob& p = GetParam();
    JobSpec s;
    s.a = la::Matrix<double>::random(p.rows, p.cols, 500 + p.rows);
    s.tile_size = p.tile;
    s.precision = p.precision;
    return s;
  }
  double tolerance() const {
    const la::index_t n = std::max(GetParam().rows, GetParam().cols);
    return GetParam().precision == Precision::kFp32
               ? la::verify_tolerance<float>(n)
               : la::verify_tolerance<double>(n);
  }
};

/// ||R^T R - A^T A||_F / ||A||_F^2: R is a QR factor of A up to row signs.
double gram_residual(const la::Matrix<double>& a,
                     const la::Matrix<double>& r) {
  la::Matrix<double> g(a.cols(), a.cols());
  la::gemm<double>(la::Trans::kTrans, la::Trans::kNoTrans, 1.0, a.view(),
                   a.view(), 0.0, g.view());
  la::gemm<double>(la::Trans::kTrans, la::Trans::kNoTrans, -1.0, r.view(),
                   r.view(), 1.0, g.view());
  const double an = la::norm_frobenius<double>(a.view());
  return la::norm_frobenius<double>(g.view()) / (an * an);
}

/// R of `a` by a sequential, element-wise replay of `elim`'s task graph:
/// pad_to_tiles, one at() per element in and out, tasks in graph order, the
/// service's default inner block. Schedule-independent numerics make this
/// the R any service run of the same tree must return bit for bit.
template <typename T>
la::Matrix<double> replay_r(const la::Matrix<double>& a, int b,
                            dag::Elimination elim) {
  const la::Matrix<double> p = la::pad_to_tiles<double>(a.view(), b);
  la::TiledMatrix<T> t(p.rows(), p.cols(), b), tg(p.rows(), p.cols(), b),
      te(p.rows(), p.cols(), b);
  for (la::index_t j = 0; j < p.cols(); ++j)
    for (la::index_t i = 0; i < p.rows(); ++i)
      t.at(i, j) = static_cast<T>(p(i, j));
  const dag::TaskGraph graph =
      dag::build_tiled_qr_graph(t.tile_rows(), t.tile_cols(), elim);
  for (const dag::Task& task : graph.tasks())
    core::execute_task<T>(task, t, tg, te, ServiceConfig{}.inner_block);
  la::Matrix<double> r(a.cols(), a.cols());
  for (la::index_t j = 0; j < a.cols(); ++j)
    for (la::index_t i = 0; i <= j; ++i)
      r(i, j) = static_cast<double>(t.at(i, j));
  return r;
}

la::Matrix<double> replay_r(const RaggedJob& p, const la::Matrix<double>& a,
                            dag::Elimination elim) {
  return p.precision == Precision::kFp32 ? replay_r<float>(a, p.tile, elim)
                                         : replay_r<double>(a, p.tile, elim);
}

bool same_bits(const la::Matrix<double>& x, const la::Matrix<double>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (la::index_t j = 0; j < x.cols(); ++j)
    for (la::index_t i = 0; i < x.rows(); ++i)
      if (std::memcmp(&x(i, j), &y(i, j), sizeof(double)) != 0) return false;
  return true;
}

TEST_P(ServiceRagged, DefaultEliminationPassesGramCheck) {
  QrService service;
  JobSpec s = spec();
  s.verify = Verify::kScan;  // runs the tile-wise column-norm pass too
  const la::Matrix<double> a = s.a;
  const JobResult result = service.submit(std::move(s)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  ASSERT_EQ(result.r.rows(), a.cols());
  EXPECT_TRUE(upper_triangular(result.r));
  EXPECT_LE(gram_residual(a, result.r), tolerance());
  EXPECT_TRUE(same_bits(result.r, replay_r(GetParam(), a,
                                           dag::Elimination::kTs)));
}

TEST_P(ServiceRagged, ExplicitTtJobReturnsTheTtTreesR) {
  QrService service;
  JobSpec s = spec();
  s.elim = dag::Elimination::kTt;
  const la::Matrix<double> a = s.a;
  const JobResult result = service.submit(std::move(s)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_TRUE(same_bits(result.r, replay_r(GetParam(), a,
                                           dag::Elimination::kTt)));
  EXPECT_LE(gram_residual(a, result.r), tolerance());
}

TEST(QrService, Fp32RMatchesTiledQrFactorizationBitwise) {
  // The service and the one-shot TiledQrFactorization link one compiled
  // copy of each tile kernel (the extern template lists in la/), so fp32 R
  // is the same bits whichever translation unit drives the kernels.
  QrService service;
  for (const auto& [rows, cols, tile] :
       {std::tuple{1024, 256, 128}, std::tuple{256, 256, 64}}) {
    JobSpec s = spec_for(rows, cols, 93 + rows, false);
    s.tile_size = tile;
    s.precision = Precision::kFp32;
    la::Matrix<float> af(rows, cols);
    for (la::index_t j = 0; j < cols; ++j)
      for (la::index_t i = 0; i < rows; ++i)
        af(i, j) = static_cast<float>(s.a(i, j));
    const la::Matrix<float> r32 =
        core::TiledQrFactorization<float>::factor(af, tile).r();
    la::Matrix<double> r(cols, cols);
    for (la::index_t j = 0; j < cols; ++j)
      for (la::index_t i = 0; i < cols; ++i) r(i, j) = r32(i, j);
    const JobResult result = service.submit(std::move(s)).get();
    ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
    EXPECT_TRUE(same_bits(result.r, r)) << rows << "x" << cols;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ServiceRagged,
    ::testing::Values(RaggedJob{1000, 300, 128, Precision::kFp64},
                      RaggedJob{1000, 300, 128, Precision::kFp32},
                      RaggedJob{130, 130, 64, Precision::kFp64},
                      RaggedJob{130, 130, 64, Precision::kFp32},
                      RaggedJob{8192, 256, 128, Precision::kFp64},
                      RaggedJob{8192, 256, 128, Precision::kFp32}),
    [](const ::testing::TestParamInfo<RaggedJob>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols) + "_b" +
             std::to_string(info.param.tile) + "_" +
             to_string(info.param.precision);
    });

}  // namespace
}  // namespace tqr::svc

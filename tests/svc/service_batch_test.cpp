// Batched job kind end to end: one JobSpec carrying N small matrices through
// the chunk-interleaved engine, with verification, cancellation, and
// corruption quarantine acting per member while queueing, planning, and
// workspace act per batch.
#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "la/checks.hpp"
#include "la/kernels.hpp"
#include "obs/json.hpp"
#include "svc/qr_service.hpp"

namespace tqr::svc {
namespace {

std::vector<la::Matrix<double>> random_batch(la::index_t m, la::index_t n,
                                             int count, std::uint64_t seed) {
  std::vector<la::Matrix<double>> out;
  for (int p = 0; p < count; ++p)
    out.push_back(
        la::Matrix<double>::random(m, n, seed + static_cast<std::uint64_t>(p)));
  return out;
}

/// Scalar ground truth: the R factor geqrt_unblocked produces for `a`. The
/// batched engine uses the same sign conventions, so members agree within
/// rounding (not bitwise — the batched column norms use sqrt, not hypot).
la::Matrix<double> reference_r(const la::Matrix<double>& a) {
  la::Matrix<double> vr = a;
  la::Matrix<double> t(a.cols(), a.cols());
  la::geqrt_unblocked<double>(vr.view(), t.view());
  la::Matrix<double> r(a.cols(), a.cols());
  for (la::index_t j = 0; j < a.cols(); ++j)
    for (la::index_t i = 0; i <= j; ++i) r(i, j) = vr(i, j);
  return r;
}

void expect_member_parity(const JobResult& result,
                          const std::vector<la::Matrix<double>>& problems,
                          double tol) {
  int ok = 0;
  ASSERT_EQ(result.problem_status.size(), problems.size());
  ASSERT_EQ(result.batch_r.size(), problems.size());
  for (std::size_t p = 0; p < problems.size(); ++p) {
    if (result.problem_status[p] != JobStatus::kOk) {
      EXPECT_EQ(result.batch_r[p].rows(), 0) << "member " << p;
      continue;
    }
    ++ok;
    const auto ref = reference_r(problems[p]);
    ASSERT_EQ(result.batch_r[p].rows(), ref.rows()) << "member " << p;
    EXPECT_LT(la::relative_error<double>(result.batch_r[p].view(), ref.view()),
              tol)
        << "member " << p;
  }
  EXPECT_EQ(result.problems_ok, ok);
}

TEST(ServiceBatch, FactorsEveryMemberAndMatchesScalarR) {
  QrService service{ServiceConfig{}};
  const auto problems = random_batch(16, 16, 13, 100);
  JobSpec spec;
  spec.batch = problems;
  spec.verify = Verify::kFull;
  const auto result = service.submit(std::move(spec)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_EQ(result.problems, 13);
  EXPECT_EQ(result.problems_ok, 13);
  EXPECT_EQ(result.rows, 16);
  EXPECT_EQ(result.cols, 16);
  EXPECT_GT(result.batch_occupancy, 0.0);
  EXPECT_LE(result.batch_occupancy, 1.0);
  EXPECT_LT(result.verify_residual, la::verify_tolerance<double>(32));
  expect_member_parity(result, problems, la::verify_tolerance<double>(32));
  // A batched job is ONE unit of queue work.
  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.batched_jobs, 1u);
  EXPECT_EQ(stats.batched_problems, 13u);
  EXPECT_GT(stats.batch_occupancy, 0.0);
}

TEST(ServiceBatch, SecondSameShapeBatchHitsThePlanCache) {
  QrService service{ServiceConfig{}};
  for (int round = 0; round < 2; ++round) {
    JobSpec spec;
    spec.batch = random_batch(8, 8, 5, 200 + 10 * round);
    const auto r = service.submit(std::move(spec)).get();
    ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
    EXPECT_EQ(r.plan_cache_hit, round > 0);
  }
  // One pooled lease per batch, recycled across the two jobs.
  const auto ws = service.stats().workspace;
  EXPECT_EQ(ws.allocated, 1u);
  EXPECT_EQ(ws.reused, 1u);
}

TEST(ServiceBatch, Fp32BatchStaysWithinFloatTolerance) {
  QrService service{ServiceConfig{}};
  const auto problems = random_batch(12, 12, 9, 300);
  JobSpec spec;
  spec.batch = problems;
  spec.precision = Precision::kFp32;
  spec.verify = Verify::kScan;
  const auto result = service.submit(std::move(spec)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_EQ(result.precision, Precision::kFp32);
  EXPECT_EQ(result.problems_ok, 9);
  expect_member_parity(result, problems, la::verify_tolerance<float>(24));
}

TEST(ServiceBatch, BatchPlusSingleMatrixSpecIsRejected) {
  QrService service{ServiceConfig{}};
  JobSpec spec;
  spec.a = la::Matrix<double>::random(8, 8, 1);
  spec.batch = random_batch(8, 8, 2, 2);
  const auto result = service.submit(std::move(spec)).get();
  EXPECT_EQ(result.status, JobStatus::kInvalidInput);
  EXPECT_FALSE(result.error.empty());
  // Wide members are rejected the same way.
  JobSpec wide;
  wide.batch.push_back(la::Matrix<double>::random(4, 6, 3));
  EXPECT_EQ(service.submit(std::move(wide)).get().status,
            JobStatus::kInvalidInput);
}

TEST(ServiceBatch, ImmediateDeadlineCancelsUnranMembersCleanly) {
  // An exec deadline that lapses before the first chunk: the batch completes
  // kCancelled with every member kCancelled and no partial R handed out.
  QrService service{ServiceConfig{}};
  JobSpec spec;
  spec.batch = random_batch(16, 16, 10, 400);
  spec.exec_deadline_s = 1e-12;
  const auto result = service.submit(std::move(spec)).get();
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_EQ(result.problems_ok, 0);
  ASSERT_EQ(result.problem_status.size(), 10u);
  for (const auto s : result.problem_status)
    EXPECT_EQ(s, JobStatus::kCancelled);
  for (const auto& r : result.batch_r) EXPECT_EQ(r.rows(), 0);
}

TEST(ServiceBatch, MidBatchDeadlineKeepsCompletedMembersValid) {
  // Time an uncancelled run of the same batch, then resubmit with a deadline
  // around half of it. Wherever the deadline lands, the invariant holds:
  // members reported kOk carry a valid R, members reported kCancelled carry
  // nothing, and problems_ok counts exactly the former.
  QrService service{ServiceConfig{}};
  const int count = 512;
  const auto problems = random_batch(32, 32, count, 500);
  JobSpec warm;
  warm.batch = problems;
  const auto timed = service.submit(std::move(warm)).get();
  ASSERT_EQ(timed.status, JobStatus::kOk) << timed.error;

  JobSpec spec;
  spec.batch = problems;
  spec.exec_deadline_s = timed.exec_s / 2;
  const auto result = service.submit(std::move(spec)).get();
  ASSERT_TRUE(result.status == JobStatus::kCancelled ||
              result.status == JobStatus::kOk)
      << to_string(result.status);
  if (result.status == JobStatus::kCancelled) {
    EXPECT_LT(result.problems_ok, count);
    EXPECT_FALSE(result.error.empty());
  }
  expect_member_parity(result, problems, la::verify_tolerance<double>(64));
  // Cancellation acts at chunk granularity: completed members form a prefix
  // (chunks run in order), so the first kCancelled member ends the kOk run.
  bool seen_cancelled = false;
  for (const auto s : result.problem_status) {
    if (s != JobStatus::kOk) seen_cancelled = true;
    else EXPECT_FALSE(seen_cancelled) << "kOk member after a cancelled one";
  }
}

TEST(ServiceBatch, CorruptedMemberQuarantinesAloneUnderScan) {
  // Poison exactly member 3's factors with a NaN: that member must come back
  // kCorrupted, every other member stays kOk with a valid R, and the job's
  // terminal status reports the partial corruption.
  ServiceConfig config;
  config.fault.mode = FaultConfig::Mode::kCorrupt;
  config.fault.corrupt = FaultConfig::Corrupt::kNaN;
  config.fault.task = 3;  // batched jobs key corruption triggers by member
  config.fault.max_injections = 1;
  QrService service{config};
  const auto problems = random_batch(12, 12, 8, 600);
  JobSpec spec;
  spec.batch = problems;
  spec.verify = Verify::kScan;
  const auto result = service.submit(std::move(spec)).get();
  EXPECT_EQ(result.status, JobStatus::kCorrupted);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(result.problems_ok, 7);
  ASSERT_EQ(result.problem_status.size(), 8u);
  for (std::size_t p = 0; p < 8; ++p)
    EXPECT_EQ(result.problem_status[p],
              p == 3 ? JobStatus::kCorrupted : JobStatus::kOk)
        << "member " << p;
  expect_member_parity(result, problems, la::verify_tolerance<double>(24));
  EXPECT_EQ(service.stats().verify_failures, 1u);
}

TEST(ServiceBatch, NonFiniteMembersAreRejectedAloneAndTheRestRun) {
  // Members 2 (NaN) and 9 (Inf) are the submitter's fault: they come back
  // kInvalidInput unfactored, the other members of their chunks factor
  // normally, and nothing is held against the lane or the verify tier.
  ServiceConfig config;
  config.quarantine_after = 1;
  QrService service{config};
  auto problems = random_batch(12, 12, 11, 700);
  problems[2](4, 4) = std::numeric_limits<double>::quiet_NaN();
  problems[9](0, 11) = std::numeric_limits<double>::infinity();
  JobSpec spec;
  spec.batch = problems;
  spec.verify = Verify::kProbe;
  const auto result = service.submit(std::move(spec)).get();
  EXPECT_EQ(result.status, JobStatus::kInvalidInput) << result.error;
  EXPECT_EQ(result.problems_ok, 9);
  ASSERT_EQ(result.problem_status.size(), 11u);
  for (std::size_t p = 0; p < 11; ++p)
    EXPECT_EQ(result.problem_status[p], p == 2 || p == 9
                                            ? JobStatus::kInvalidInput
                                            : JobStatus::kOk)
        << "member " << p;
  expect_member_parity(result, problems, la::verify_tolerance<double>(24));
  const auto s = service.stats();
  EXPECT_EQ(s.verify_failures, 0u);
  EXPECT_EQ(s.jobs_invalid_input, 1u);
  EXPECT_EQ(s.lane_quarantines, 0u);
}

TEST(ServiceBatch, ProbeCatchesAPerturbedMember) {
  // An epsilon-scale perturbation sails through the NaN scan; the probe
  // residual catches it. Same quarantine contract as the scan test.
  ServiceConfig config;
  config.fault.mode = FaultConfig::Mode::kCorrupt;
  config.fault.corrupt = FaultConfig::Corrupt::kPerturb;
  config.fault.corrupt_scale = 1e-3;
  config.fault.task = 5;
  config.fault.max_injections = 1;
  QrService service{config};
  JobSpec spec;
  spec.batch = random_batch(16, 16, 6, 700);
  spec.verify = Verify::kProbe;
  const auto result = service.submit(std::move(spec)).get();
  EXPECT_EQ(result.status, JobStatus::kCorrupted);
  EXPECT_EQ(result.problems_ok, 5);
  ASSERT_EQ(result.problem_status.size(), 6u);
  EXPECT_EQ(result.problem_status[5], JobStatus::kCorrupted);
}

TEST(ServiceBatch, MetricsExposeBatchedCountersAndParseBack) {
  QrService service{ServiceConfig{}};
  for (int i = 0; i < 2; ++i) {
    JobSpec spec;
    spec.batch = random_batch(8, 8, 5, 800 + 10 * i);
    ASSERT_EQ(service.submit(std::move(spec)).get().status, JobStatus::kOk);
  }
  // One single-matrix job must NOT move the batched counters.
  JobSpec single;
  single.a = la::Matrix<double>::random(32, 32, 900);
  ASSERT_EQ(service.submit(std::move(single)).get().status, JobStatus::kOk);

  const obs::Registry::Snapshot m = service.metrics();
  EXPECT_EQ(m.counters.at("svc.batched_jobs"), 2u);
  EXPECT_EQ(m.counters.at("svc.batched_problems"), 10u);
  EXPECT_GT(m.gauges.at("exec.batch_occupancy"), 0.0);

  const obs::Json doc = obs::Json::parse(service.metrics_json());
  EXPECT_DOUBLE_EQ(
      doc.find("counters")->find("svc.batched_jobs")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(
      doc.find("counters")->find("svc.batched_problems")->as_number(), 10.0);
  EXPECT_GT(doc.find("gauges")->find("exec.batch_occupancy")->as_number(),
            0.0);
}

TEST(ServiceBatch, ConcurrentBatchesAndSinglesStress) {
  // The TSan-leg workload: several threads race batched and single-matrix
  // submissions against one service; every job must come back clean and the
  // batched counters must add up exactly.
  ServiceConfig config;
  config.lanes = 3;
  QrService service{config};
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 6;
  constexpr int kMembers = 7;
  std::vector<std::thread> threads;
  std::vector<int> ok_batched(kThreads, 0), ok_single(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<JobResult>> futures;
      for (int j = 0; j < kJobsPerThread; ++j) {
        JobSpec spec;
        if (j % 2 == 0) {
          spec.batch = random_batch(
              8, 8, kMembers,
              1000 + static_cast<std::uint64_t>(t) * 100 +
                  static_cast<std::uint64_t>(j));
          spec.verify = Verify::kScan;
        } else {
          spec.a = la::Matrix<double>::random(
              24, 24, 2000 + static_cast<std::uint64_t>(t) * 100 +
                          static_cast<std::uint64_t>(j));
        }
        futures.push_back(service.submit(std::move(spec)));
      }
      for (std::size_t j = 0; j < futures.size(); ++j) {
        const auto r = futures[j].get();
        ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
        if (j % 2 == 0) {
          ASSERT_EQ(r.problems_ok, kMembers);
          ++ok_batched[static_cast<std::size_t>(t)];
        } else {
          ++ok_single[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  int batched = 0, single = 0;
  for (int t = 0; t < kThreads; ++t) {
    batched += ok_batched[static_cast<std::size_t>(t)];
    single += ok_single[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(batched, kThreads * 3);
  EXPECT_EQ(single, kThreads * 3);
  const auto stats = service.stats();
  EXPECT_EQ(stats.batched_jobs, static_cast<std::uint64_t>(batched));
  EXPECT_EQ(stats.batched_problems,
            static_cast<std::uint64_t>(batched * kMembers));
  EXPECT_EQ(stats.jobs_completed,
            static_cast<std::uint64_t>(kThreads * kJobsPerThread));
}

}  // namespace
}  // namespace tqr::svc

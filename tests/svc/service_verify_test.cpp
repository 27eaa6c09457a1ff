// Silent-corruption defense through svc::QrService end to end: corrupt-mode
// fault injection vs the verification tiers, retry self-healing, terminal
// kCorrupted contract, and the lane quarantine / probation circuit breaker.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "la/checks.hpp"
#include "la/matrix.hpp"
#include "svc/qr_service.hpp"

namespace tqr::svc {
namespace {

JobSpec spec_for(la::index_t rows, la::index_t cols, std::uint64_t seed) {
  JobSpec spec;
  spec.a = la::Matrix<double>::random(rows, cols, seed);
  return spec;
}

ServiceConfig corrupting(FaultConfig::Corrupt kind, int lanes = 1) {
  ServiceConfig config;
  config.lanes = lanes;
  config.fault.mode = FaultConfig::Mode::kCorrupt;
  config.fault.corrupt = kind;
  config.fault.task = 0;  // poison the first GEQRT's output, every job
  return config;
}

TEST(VerifyParsing, TiersAndCorruptKinds) {
  EXPECT_EQ(parse_verify("none"), Verify::kNone);
  EXPECT_EQ(parse_verify("scan"), Verify::kScan);
  EXPECT_EQ(parse_verify("probe"), Verify::kProbe);
  EXPECT_EQ(parse_verify("full"), Verify::kFull);
  EXPECT_THROW(parse_verify("paranoid"), InvalidArgument);
  EXPECT_EQ(parse_fault_mode("corrupt"), FaultConfig::Mode::kCorrupt);
  EXPECT_EQ(parse_corrupt_kind("any"), FaultConfig::Corrupt::kAny);
  EXPECT_EQ(parse_corrupt_kind("nan"), FaultConfig::Corrupt::kNaN);
  EXPECT_EQ(parse_corrupt_kind("bitflip"), FaultConfig::Corrupt::kBitFlip);
  EXPECT_EQ(parse_corrupt_kind("perturb"), FaultConfig::Corrupt::kPerturb);
  EXPECT_THROW(parse_corrupt_kind("gamma-ray"), InvalidArgument);
}

TEST(ServiceVerify, UnverifiedCorruptionPassesSilently) {
  // The failure mode the tiers exist to close: with verify=kNone a poisoned
  // factorization completes kOk — the caller gets wrong factors and no
  // signal (pinned by the report-only residual as ground truth).
  QrService service(corrupting(FaultConfig::Corrupt::kPerturb));
  JobSpec spec = spec_for(64, 64, 1);
  spec.compute_residual = true;
  const auto r = service.submit(std::move(spec)).get();
  ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
  EXPECT_FALSE(r.residual <= la::verify_tolerance<double>(64 + 16));
  EXPECT_GE(service.stats().faults_injected, 1u);
}

// ---- Bad input is not bad hardware ----------------------------------------

TEST(ServiceInvalidInput, NaNStormQuarantinesNoLane) {
  // With the scan tier on and a hair-trigger breaker, non-finite inputs
  // used to read as corruption and quarantine healthy lanes. They resolve
  // kInvalidInput at load time instead: one attempt, no verification
  // failure, no lane held against them, and the clean jobs around them run.
  ServiceConfig config;
  config.lanes = 2;
  config.quarantine_after = 1;
  QrService service(config);
  std::vector<std::future<JobResult>> bad, good;
  for (int k = 0; k < 12; ++k) {
    JobSpec spec = spec_for(64, 48, 400 + k);
    spec.verify = Verify::kScan;
    spec.max_attempts = 3;
    if (k % 3 != 2) {
      spec.a(k % 64, k % 48) = std::numeric_limits<double>::quiet_NaN();
      bad.push_back(service.submit(std::move(spec)));
    } else {
      good.push_back(service.submit(std::move(spec)));
    }
  }
  for (auto& f : bad) {
    const auto r = f.get();
    EXPECT_EQ(r.status, JobStatus::kInvalidInput) << r.error;
    EXPECT_EQ(r.attempts, 1);
    EXPECT_EQ(r.r.rows(), 0);
    EXPECT_NE(r.error.find("NaN or Inf"), std::string::npos) << r.error;
  }
  for (auto& f : good) EXPECT_EQ(f.get().status, JobStatus::kOk);
  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.jobs_invalid_input, bad.size());
  EXPECT_EQ(s.jobs_failed, 0u);
  EXPECT_EQ(s.jobs_corrupted, 0u);
  EXPECT_EQ(s.jobs_retried, 0u);
  EXPECT_EQ(s.verify_failures, 0u);
  EXPECT_EQ(s.lane_quarantines, 0u);
  EXPECT_EQ(s.lanes_quarantined, 0);
}

TEST(ServiceInvalidInput, InfRejectedWithoutVerification) {
  // verify = none trusts the kernels, not the caller: an Inf input used to
  // come back kOk with garbage factors.
  QrService service(ServiceConfig{});
  JobSpec spec = spec_for(64, 64, 410);
  spec.a(5, 7) = -std::numeric_limits<double>::infinity();
  ASSERT_EQ(spec.verify, Verify::kNone);
  const auto r = service.submit(std::move(spec)).get();
  EXPECT_EQ(r.status, JobStatus::kInvalidInput) << r.error;
  EXPECT_EQ(r.r.rows(), 0);
  EXPECT_STREQ(to_string(r.status), "invalid_input");
}

TEST(ServiceInvalidInput, Fp32RejectsValuesBeyondFloatRange) {
  // Finite in fp64 but Inf once narrowed: the fp32 pack reports it.
  QrService service(ServiceConfig{});
  JobSpec spec = spec_for(64, 64, 411);
  spec.precision = Precision::kFp32;
  spec.a(3, 3) = 1e300;
  const auto r = service.submit(std::move(spec)).get();
  EXPECT_EQ(r.status, JobStatus::kInvalidInput) << r.error;
  // The same matrix is fine in fp64.
  JobSpec wide = spec_for(64, 64, 411);
  wide.a(3, 3) = 1e300;
  EXPECT_EQ(service.submit(std::move(wide)).get().status, JobStatus::kOk);
}

TEST(ServiceVerify, ScanCatchesNaNPoison) {
  QrService service(corrupting(FaultConfig::Corrupt::kNaN));
  JobSpec spec = spec_for(64, 64, 2);
  spec.verify = Verify::kScan;
  const auto r = service.submit(std::move(spec)).get();
  EXPECT_EQ(r.status, JobStatus::kCorrupted);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_NE(r.error.find("verification"), std::string::npos) << r.error;
}

TEST(ServiceVerify, CleanProbeRunsNeverFalsePositive) {
  // Zero-false-positive half of the acceptance contract: no injector, tier
  // kProbe, many seeds — every job must verify clean.
  ServiceConfig config;
  config.lanes = 2;
  QrService service(config);
  std::vector<std::future<JobResult>> futures;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    JobSpec spec = spec_for(48 + 16 * (seed % 3), 48, 100 + seed);
    spec.verify = Verify::kProbe;
    futures.push_back(service.submit(std::move(spec)));
  }
  for (auto& f : futures) {
    const auto r = f.get();
    ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
    EXPECT_GE(r.verify_residual, 0.0);
  }
  const auto s = service.stats();
  EXPECT_EQ(s.verify_failures, 0u);
  EXPECT_EQ(s.jobs_corrupted, 0u);
}

TEST(ServiceVerify, ProbeDetectsEveryCorruptKindAcrossSeeds) {
  // Detection half: >= 99% (here: all) of corrupted jobs must terminate
  // kCorrupted when verified at kProbe, for each corruption kind.
  const FaultConfig::Corrupt kinds[] = {FaultConfig::Corrupt::kNaN,
                                        FaultConfig::Corrupt::kBitFlip,
                                        FaultConfig::Corrupt::kPerturb};
  for (const auto kind : kinds) {
    QrService service(corrupting(kind));
    std::vector<std::future<JobResult>> futures;
    for (std::uint64_t seed = 1; seed <= 14; ++seed) {
      JobSpec spec = spec_for(
          64, 64, 1000 * (1 + static_cast<std::uint64_t>(kind)) + seed);
      spec.verify = Verify::kProbe;
      futures.push_back(service.submit(std::move(spec)));
    }
    for (auto& f : futures) {
      const auto r = f.get();
      EXPECT_EQ(r.status, JobStatus::kCorrupted)
          << "kind=" << static_cast<int>(kind) << " slipped past the probe";
      EXPECT_EQ(r.r.rows(), 0);       // never ship corrupted factors
      EXPECT_FALSE(r.error.empty());  // and always say why
    }
    const auto s = service.stats();
    EXPECT_EQ(s.jobs_corrupted, 14u);
    EXPECT_GE(s.verify_failures, 14u);
  }
}

TEST(ServiceVerify, RetryHealsTransientCorruption) {
  // Self-healing: one injected corruption, two attempts — the first fails
  // verification, the retry factors clean, and the failed attempt's
  // workspace went back to the pool scrubbed.
  ServiceConfig config = corrupting(FaultConfig::Corrupt::kBitFlip);
  config.fault.max_injections = 1;
  QrService service(config);
  JobSpec spec = spec_for(64, 64, 5);
  spec.verify = Verify::kProbe;
  spec.max_attempts = 2;
  spec.compute_residual = true;
  const auto r = service.submit(std::move(spec)).get();
  ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
  EXPECT_EQ(r.attempts, 2);
  EXPECT_LE(r.residual, la::verify_tolerance<double>(64 + 16));
  const auto s = service.stats();
  EXPECT_EQ(s.jobs_completed, 1u);
  EXPECT_EQ(s.jobs_retried, 1u);
  EXPECT_EQ(s.verify_failures, 1u);
  EXPECT_EQ(s.jobs_corrupted, 0u);  // healed, not terminal
  EXPECT_GE(s.workspace.scrubbed, 1u);
}

TEST(ServiceVerify, FullTierEnforcesReconstructionResidual) {
  QrService service(corrupting(FaultConfig::Corrupt::kPerturb));
  JobSpec spec = spec_for(64, 64, 6);
  spec.verify = Verify::kFull;
  const auto r = service.submit(std::move(spec)).get();
  EXPECT_EQ(r.status, JobStatus::kCorrupted);
  EXPECT_EQ(r.r.rows(), 0);
}

TEST(ServiceQuarantine, BadLaneIsolatedWhileSurvivorsFinishTheWork) {
  // The acceptance scenario: lane 0 corrupts every job it touches; with
  // quarantine_after=1 its first bad job takes it out of rotation and the
  // shared queue routes everything else to lane 1.
  ServiceConfig config;
  config.lanes = 2;
  config.quarantine_after = 1;  // probation_s = 0: permanent quarantine
  config.fault.mode = FaultConfig::Mode::kCorrupt;
  config.fault.corrupt = FaultConfig::Corrupt::kAny;
  config.fault.lane = 0;  // the one bad device
  QrService service(config);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 12; ++i) {
    JobSpec spec = spec_for(64, 64, 200 + i);
    spec.verify = Verify::kProbe;
    futures.push_back(service.submit(std::move(spec)));
  }
  int ok = 0, corrupted = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.status == JobStatus::kOk) {
      EXPECT_EQ(r.lane, 1);  // survivors only run on the healthy lane
      ++ok;
    } else {
      EXPECT_EQ(r.status, JobStatus::kCorrupted) << r.error;
      EXPECT_EQ(r.lane, 0);
      ++corrupted;
    }
  }
  // Lane 0 completes exactly the jobs it popped before its breaker opened
  // (at least its first; scheduling may hand it one per re-check window).
  EXPECT_GE(corrupted, 1);
  EXPECT_EQ(ok + corrupted, 12);
  const auto s = service.stats();
  EXPECT_EQ(s.lanes_quarantined, 1);
  EXPECT_GE(s.lane_quarantines, 1u);
  EXPECT_EQ(s.jobs_completed, static_cast<std::uint64_t>(ok));
}

TEST(ServiceQuarantine, ProbationReadmitsHealedLane) {
  ServiceConfig config;
  config.lanes = 2;
  config.quarantine_after = 1;
  config.probation_s = 0.05;
  config.fault.mode = FaultConfig::Mode::kCorrupt;
  config.fault.corrupt = FaultConfig::Corrupt::kNaN;
  config.fault.lane = 0;
  config.fault.max_injections = 1;  // lane 0 corrupts once, then is healthy
  QrService service(config);

  JobSpec first = spec_for(64, 64, 300);
  first.verify = Verify::kScan;
  const auto bad = service.submit(std::move(first)).get();
  // Lane 1 may win the race for the first job; keep feeding until lane 0's
  // single injection lands and quarantines it.
  auto quarantined = [&] { return service.stats().lanes_quarantined == 1; };
  std::uint64_t seed = 301;
  JobResult probe_bad = bad;
  while (!quarantined() && probe_bad.status == JobStatus::kOk) {
    JobSpec spec = spec_for(64, 64, seed++);
    spec.verify = Verify::kScan;
    probe_bad = service.submit(std::move(spec)).get();
  }
  EXPECT_EQ(probe_bad.status, JobStatus::kCorrupted);
  EXPECT_EQ(service.stats().lanes_quarantined, 1);

  // After probation_s the lane half-opens; its probation job succeeds (the
  // injector is exhausted) and it rejoins the rotation for good.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 8; ++i) {
    JobSpec spec = spec_for(64, 64, 400 + i);
    spec.verify = Verify::kScan;
    futures.push_back(service.submit(std::move(spec)));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().status, JobStatus::kOk);
  const auto s = service.stats();
  EXPECT_GE(s.lane_probations, 1u);
  EXPECT_EQ(s.lanes_quarantined, 0);
}

TEST(ServiceConfigValidation, RejectsNegativeBreakerKnobs) {
  ServiceConfig config;
  config.quarantine_after = -1;
  EXPECT_THROW(QrService{config}, InvalidArgument);
  config.quarantine_after = 0;
  config.probation_s = -0.5;
  EXPECT_THROW(QrService{config}, InvalidArgument);
}

}  // namespace
}  // namespace tqr::svc

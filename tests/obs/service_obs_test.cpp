// Integration: the QrService's registry-backed stats and its Chrome trace,
// validated by parsing the emitted JSON back.
#include <algorithm>
#include <future>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "svc/qr_service.hpp"

namespace tqr::svc {
namespace {

JobSpec spec_for(la::index_t rows, la::index_t cols, std::uint64_t seed) {
  JobSpec spec;
  spec.a = la::Matrix<double>::random(rows, cols, seed);
  return spec;
}

TEST(ServiceObs, TraceParsesBackWithLifecycleAndKernelSpans) {
  ServiceConfig config;
  config.lanes = 2;
  config.collect_trace = true;
  QrService service(config);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(service.submit(spec_for(64, 64, 10 + i)));
  service.drain();
  for (auto& f : futures) EXPECT_EQ(f.get().status, JobStatus::kOk);

  ASSERT_NE(service.trace(), nullptr);
  EXPECT_EQ(service.trace()->dropped(), 0u);
  const obs::Json doc = obs::Json::parse(service.trace_json());
  const auto& events = doc.find("traceEvents")->items();
  ASSERT_FALSE(events.empty());

  int queued = 0, jobs = 0, kernels = 0, counters = 0, meta = 0;
  for (const auto& e : events) {
    const std::string ph = e.find("ph")->as_string();
    const std::string name = e.find("name")->as_string();
    if (ph == "M") ++meta;
    if (ph == "C") ++counters;
    if (ph == "X" && name == "queued") {
      ++queued;
      EXPECT_EQ(e.find("pid")->as_number(), 0);  // the queue track
    }
    if (ph == "X" && name.rfind("job ", 0) == 0) {
      ++jobs;
      EXPECT_EQ(e.find("args")->find("status")->as_string(), "ok");
      EXPECT_GE(e.find("pid")->as_number(), 1);  // a lane track
    }
    if (ph == "X" && name == "GEQRT") {
      ++kernels;
      const obs::Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_GT(args->find("gflops")->as_number(), 0.0);
      EXPECT_NE(args->find("k"), nullptr);
    }
  }
  EXPECT_EQ(queued, 4);
  EXPECT_EQ(jobs, 4);
  // 64x64 at the default tile 16 is a 4x4 grid; TS elimination (the spec
  // default) triangulates only each panel's diagonal tile: 4 GEQRTs per job.
  EXPECT_EQ(kernels, 16);
  EXPECT_GE(counters, 4);  // a queue-depth sample per submit at minimum
  EXPECT_GT(meta, 0);
}

TEST(ServiceObs, KernelSpansNeverOverlapOnOneRow) {
  // Every worker of a lane's device group gets its own trace row, so a
  // multi-tile job's concurrent kernels must never stack on one (pid, tid).
  ServiceConfig config;
  config.lanes = 2;
  config.collect_trace = true;
  QrService service(config);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(service.submit(spec_for(128, 128, 30 + i)));
  service.drain();
  for (auto& f : futures) EXPECT_EQ(f.get().status, JobStatus::kOk);

  const obs::Json doc = obs::Json::parse(service.trace_json());
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> rows;
  int kernels = 0;
  for (const auto& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "X") continue;
    const int pid = static_cast<int>(e.find("pid")->as_number());
    const int tid = static_cast<int>(e.find("tid")->as_number());
    if (pid == 0 || tid == 0) continue;  // queue and lifecycle rows
    ++kernels;
    const double ts = e.find("ts")->as_number();
    rows[{pid, tid}].emplace_back(ts, ts + e.find("dur")->as_number());
  }
  // 128x128 at tile 16 is an 8x8 grid: far more tasks than one row.
  EXPECT_GT(kernels, 3 * 64);
  for (auto& [row, spans] : rows) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-3)
          << "overlap on pid " << row.first << " tid " << row.second;
  }
}

TEST(ServiceObs, TracingOffMeansNoLogAndEmptyDocument) {
  QrService service{ServiceConfig{}};
  EXPECT_EQ(service.trace(), nullptr);
  const obs::Json doc = obs::Json::parse(service.trace_json());
  EXPECT_EQ(doc.find("traceEvents")->items().size(), 0u);
}

TEST(ServiceObs, MetricsSnapshotMatchesServiceStats) {
  QrService service{ServiceConfig{}};
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(service.submit(spec_for(48, 48, 20 + i)));
  service.drain();
  for (auto& f : futures) EXPECT_EQ(f.get().status, JobStatus::kOk);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.jobs_submitted, 3u);
  EXPECT_EQ(s.jobs_completed, 3u);
  EXPECT_GT(s.p50_ms, 0.0);
  EXPECT_GE(s.p95_ms, s.p50_ms);

  const obs::Registry::Snapshot m = service.metrics();
  EXPECT_EQ(m.counters.at("jobs.submitted"), 3u);
  EXPECT_EQ(m.counters.at("jobs.completed"), 3u);
  EXPECT_EQ(m.counters.at("queue.accepted"), 3u);
  EXPECT_EQ(m.histograms.at("job.latency_s").count, 3u);
  EXPECT_GT(m.gauges.at("uptime_s"), 0.0);

  // Both expositions carry the same registry content.
  const std::string text = service.metrics_text();
  EXPECT_NE(text.find("jobs.completed 3"), std::string::npos) << text;
  const obs::Json json = obs::Json::parse(service.metrics_json());
  EXPECT_DOUBLE_EQ(
      json.find("counters")->find("jobs.completed")->as_number(), 3.0);
}

}  // namespace
}  // namespace tqr::svc

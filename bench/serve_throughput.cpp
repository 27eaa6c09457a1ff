// Serve-mode throughput: replay a mixed-shape QR job trace through
// svc::QrService twice — once cold (plan cache off, workspace recycling off,
// fresh executor per job: the seed's per-call costs) and once warm (all
// amortization on, cache primed) — and report both as JSON.
//
// This is the acceptance driver for the resident service: the warm run must
// show a plan-cache hit rate above 0.9 and more jobs/sec than the cold run.
//
// --fault adds a chaos replay. In corrupt mode (--fault corrupt --verify
// probe) every job also computes the report-only reconstruction residual as
// independent ground truth, and the JSON reports the outcome mix (detected /
// retried-ok / silently-wrong / quarantined lanes); with verification on,
// any silently-wrong job makes the bench exit 3 — the CI chaos smoke gate.
// --sweep adds a submitter-scaling section: S client threads race submit()
// against one warm service for S in a sweep (1..256 by default), reporting
// per-level throughput and submit-to-pickup latency p99. This is the
// acceptance driver for the lock-free admission queue + work-stealing
// executor: the scaling curve must flatten later than the committed
// baseline (gated via bench_diff; jobs_per_s higher-is-better,
// submit_pick_p99_ms lower-is-better).
#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/checks.hpp"
#include "la/matrix.hpp"
#include "svc/qr_service.hpp"

namespace tqr {
namespace {

struct TraceShape {
  la::index_t rows, cols;
  int count;
};

std::vector<TraceShape> parse_trace(const std::string& spec) {
  std::vector<TraceShape> shapes;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t x = item.find('x');
    const std::size_t colon = item.find(':');
    TQR_REQUIRE(x != std::string::npos && colon != std::string::npos,
                "trace items are ROWSxCOLS:COUNT");
    shapes.push_back(
        {static_cast<la::index_t>(std::stol(item.substr(0, x))),
         static_cast<la::index_t>(std::stol(item.substr(x + 1, colon - x - 1))),
         static_cast<int>(std::stol(item.substr(colon + 1)))});
    pos = comma + 1;
  }
  return shapes;
}

struct RunMetrics {
  int jobs = 0;
  double wall_s = 0;
  double jobs_per_s = 0;
  double p50_ms = 0, p95_ms = 0;
  double cache_hit_rate = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t ws_allocated = 0, ws_reused = 0;
  // Outcome mix; only interesting in fault/deadline mode (strict replays
  // require every job to come back kOk).
  int ok = 0, failed = 0, cancelled = 0, expired = 0, corrupted = 0;
  // Jobs that came back kOk but whose report-only reconstruction residual
  // is over tolerance: corruption the service FAILED to catch. The chaos
  // acceptance gate is this staying zero whenever verification is on.
  int silently_wrong = 0;
  // Jobs that came back kOk after at least one retry — corruption (or a
  // throw) detected and healed.
  int retried_ok = 0;
  std::uint64_t retried = 0, faults = 0, verify_failures = 0;
  std::uint64_t quarantines = 0, probations = 0, ws_scrubbed = 0;
  int lanes_quarantined = 0;
  std::uint64_t ws_outstanding = 0;
};

/// Replays the trace round-robin (shapes interleaved, the pattern a real
/// queue would see) and returns wall-clock throughput over the replay only.
/// `proto` carries the per-job policy knobs (deadlines, retries); `strict`
/// replays require kOk for every job, non-strict ones count the outcomes.
RunMetrics replay(svc::QrService& service, const std::vector<TraceShape>& trace,
                  std::uint64_t seed, const svc::JobSpec& proto = {},
                  bool strict = true) {
  const auto before = service.stats();
  std::vector<std::future<svc::JobResult>> futures;
  Timer wall;
  for (int round = 0;; ++round) {
    bool any = false;
    for (const auto& s : trace) {
      if (round >= s.count) continue;
      any = true;
      svc::JobSpec spec;
      spec.a = la::Matrix<double>::random(s.rows, s.cols, seed++);
      spec.queue_deadline_s = proto.queue_deadline_s;
      spec.exec_deadline_s = proto.exec_deadline_s;
      spec.max_attempts = proto.max_attempts;
      spec.retry_backoff_s = proto.retry_backoff_s;
      spec.verify = proto.verify;
      spec.compute_residual = proto.compute_residual;
      futures.push_back(service.submit(std::move(spec)));
    }
    if (!any) break;
  }
  service.drain();
  RunMetrics m;
  m.wall_s = wall.seconds();
  for (auto& f : futures) {
    const auto r = f.get();
    if (strict)
      TQR_REQUIRE(r.status == svc::JobStatus::kOk,
                  "bench job failed: " + r.error);
    switch (r.status) {
      case svc::JobStatus::kOk: ++m.ok; break;
      case svc::JobStatus::kFailed: ++m.failed; break;
      case svc::JobStatus::kCancelled: ++m.cancelled; break;
      case svc::JobStatus::kExpired: ++m.expired; break;
      case svc::JobStatus::kRejected: break;
      case svc::JobStatus::kCorrupted: ++m.corrupted; break;
      case svc::JobStatus::kInvalidInput: ++m.failed; break;
    }
    if (r.status == svc::JobStatus::kOk) {
      if (r.attempts > 1) ++m.retried_ok;
      // Ground truth for "did the service let corruption through": the
      // report-only reconstruction residual, judged against the same
      // tolerance the verification tiers enforce.
      if (r.residual >= 0 &&
          !(r.residual <=
            la::verify_tolerance<double>(r.rows + r.tile_size)))
        ++m.silently_wrong;
    }
    ++m.jobs;
  }
  m.jobs_per_s = m.jobs / m.wall_s;
  const auto after = service.stats();
  m.retried = after.jobs_retried - before.jobs_retried;
  m.faults = after.faults_injected - before.faults_injected;
  m.verify_failures = after.verify_failures - before.verify_failures;
  m.quarantines = after.lane_quarantines - before.lane_quarantines;
  m.probations = after.lane_probations - before.lane_probations;
  m.lanes_quarantined = after.lanes_quarantined;
  m.ws_scrubbed = after.workspace.scrubbed - before.workspace.scrubbed;
  m.ws_outstanding = after.workspace.outstanding;
  m.p50_ms = after.p50_ms;
  m.p95_ms = after.p95_ms;
  m.cache_hits = after.plan_cache.hits - before.plan_cache.hits;
  m.cache_misses = after.plan_cache.misses - before.plan_cache.misses;
  const auto lookups = m.cache_hits + m.cache_misses;
  m.cache_hit_rate =
      lookups ? static_cast<double>(m.cache_hits) / lookups : 0.0;
  m.ws_allocated = after.workspace.allocated - before.workspace.allocated;
  m.ws_reused = after.workspace.reused - before.workspace.reused;
  return m;
}

struct SweepPoint {
  int submitters = 0;
  int jobs = 0;
  double jobs_per_s = 0;
  double submit_pick_p99_ms = 0;  // submit() return -> lane pickup
};

/// One sweep level: `submitters` threads each push `per_submitter` jobs of
/// one small shape into a fresh warm service, back to back (admission
/// backpressure included in the measured wall time), then harvest results.
/// The p99 is over JobResult::queue_s — the submit-to-pick path whose
/// serialization this sweep exists to measure.
SweepPoint sweep_level(const svc::ServiceConfig& cfg, la::index_t n,
                       int submitters, int per_submitter,
                       std::uint64_t seed) {
  svc::QrService service(cfg);
  {
    // Prime the plan cache and workspace pool so every measured job runs at
    // steady state.
    svc::JobSpec warmup;
    warmup.a = la::Matrix<double>::random(n, n, seed);
    service.submit(std::move(warmup)).get();
  }
  std::vector<std::vector<double>> queue_s(
      static_cast<std::size_t>(submitters));
  Timer wall;
  std::vector<std::thread> threads;
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      std::vector<std::future<svc::JobResult>> futures;
      futures.reserve(static_cast<std::size_t>(per_submitter));
      for (int j = 0; j < per_submitter; ++j) {
        svc::JobSpec spec;
        spec.a = la::Matrix<double>::random(
            n, n, seed + 1 + static_cast<std::uint64_t>(s) * 1000 +
                      static_cast<std::uint64_t>(j));
        futures.push_back(service.submit(std::move(spec)));
      }
      auto& mine = queue_s[static_cast<std::size_t>(s)];
      for (auto& f : futures) {
        const auto r = f.get();
        TQR_REQUIRE(r.status == svc::JobStatus::kOk,
                    "sweep job failed: " + r.error);
        mine.push_back(r.queue_s);
      }
    });
  }
  for (auto& t : threads) t.join();
  SweepPoint p;
  p.submitters = submitters;
  p.jobs = submitters * per_submitter;
  p.jobs_per_s = p.jobs / wall.seconds();
  std::vector<double> all;
  for (const auto& q : queue_s) all.insert(all.end(), q.begin(), q.end());
  std::sort(all.begin(), all.end());
  const std::size_t idx =
      all.empty() ? 0 : (all.size() * 99 + 99) / 100 - 1;
  p.submit_pick_p99_ms =
      all.empty() ? 0 : all[std::min(idx, all.size() - 1)] * 1e3;
  return p;
}

std::vector<int> parse_int_list(const std::string& spec) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    out.push_back(static_cast<int>(std::stol(spec.substr(pos, comma - pos))));
    pos = comma + 1;
  }
  return out;
}

void print_metrics(const char* name, const RunMetrics& m, bool last) {
  std::printf(
      " \"%s\": {\"jobs\": %d, \"wall_s\": %.4f, \"jobs_per_s\": %.2f,\n"
      "   \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f},\n"
      "   \"plan_cache\": {\"hits\": %llu, \"misses\": %llu, "
      "\"hit_rate\": %.4f},\n"
      "   \"workspace\": {\"allocated\": %llu, \"reused\": %llu}}%s\n",
      name, m.jobs, m.wall_s, m.jobs_per_s, m.p50_ms, m.p95_ms,
      static_cast<unsigned long long>(m.cache_hits),
      static_cast<unsigned long long>(m.cache_misses), m.cache_hit_rate,
      static_cast<unsigned long long>(m.ws_allocated),
      static_cast<unsigned long long>(m.ws_reused), last ? "" : ",");
}

}  // namespace
}  // namespace tqr

int main(int argc, char** argv) try {
  using namespace tqr;
  Cli cli;
  cli.flag("jobs", "trace: ROWSxCOLS:COUNT[,...]",
           "96x96:16,128x64:12,64x64:16,128x128:8");
  cli.flag("lanes", "execution lanes", "2");
  cli.flag("tile", "tile size", "16");
  cli.flag("quick", "reduced trace");
  cli.flag("repeats", "replays per mode (best wall-clock wins)", "3");
  cli.flag("seed", "rng seed", "1");
  cli.flag("fault", "add a faulted replay: none|throw|stall|corrupt", "none");
  cli.flag("fault-prob", "chance an eligible task faults [0,1]", "0.02");
  cli.flag("fault-lane", "restrict faults to one lane (-1 = any)", "-1");
  cli.flag("stall-ms", "stall duration for --fault stall", "20");
  cli.flag("corrupt", "corruption kind for --fault corrupt: "
                      "any|nan|bitflip|perturb", "any");
  cli.flag("corrupt-scale", "relative size of a perturb corruption", "1e-3");
  cli.flag("verify", "verification tier in the faulted replay: "
                     "none|scan|probe|full", "none");
  cli.flag("quarantine-after",
           "consecutive bad jobs before a lane quarantines (0 = off)", "0");
  cli.flag("probation-ms", "quarantine probation period (0 = permanent)",
           "0");
  cli.flag("exec-deadline-ms", "exec deadline for the faulted replay (0=off)",
           "0");
  cli.flag("retries", "max attempts per job in the faulted replay", "2");
  cli.flag("retry-backoff-ms", "pause before retry attempts", "0");
  cli.flag("sweep", "add a submitter-scaling sweep section");
  cli.flag("sweep-submitters", "submitter counts for --sweep",
           "1,4,16,64,256");
  cli.flag("sweep-jobs", "jobs per submitter at each sweep level", "8");
  cli.flag("sweep-size", "square job size in the sweep", "64");
  if (!cli.parse(argc, argv)) return 0;
  const int repeats = static_cast<int>(cli.get_int("repeats", 3));
  TQR_REQUIRE(repeats > 0, "--repeats must be >= 1");

  std::string spec =
      cli.get_string("jobs", "96x96:16,128x64:12,64x64:16,128x128:8");
  if (cli.get_bool("quick", false)) spec = "96x96:6,128x64:4";
  const auto trace = parse_trace(spec);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  svc::ServiceConfig base;
  base.lanes = static_cast<int>(cli.get_int("lanes", 2));
  base.default_tile = static_cast<int>(cli.get_int("tile", 16));

  // Cold: every job pays plan + DAG construction, fresh tile buffers, and a
  // full executor spawn/teardown — the seed's one-shot cost structure.
  svc::ServiceConfig cold_cfg = base;
  cold_cfg.plan_cache_enabled = false;
  cold_cfg.workspace_max_bytes = 0;
  cold_cfg.reuse_engines = false;
  RunMetrics cold;
  {
    svc::QrService service(cold_cfg);
    for (int rep = 0; rep < repeats; ++rep) {
      RunMetrics m = replay(service, trace, seed + rep);
      if (rep == 0 || m.wall_s < cold.wall_s) cold = m;
    }
  }

  // Warm: resident engines + caches, primed with one pass over the distinct
  // shapes so every measured replay runs at steady state.
  RunMetrics warm;
  {
    svc::QrService service(base);
    std::vector<TraceShape> warmup;
    for (const auto& s : trace) warmup.push_back({s.rows, s.cols, 1});
    (void)replay(service, warmup, seed + 1000);
    for (int rep = 0; rep < repeats; ++rep) {
      RunMetrics m = replay(service, trace, seed + rep);
      if (rep == 0 || m.wall_s < warm.wall_s) warm = m;
    }
  }

  // Optional chaos replay: same warm configuration plus fault injection and
  // per-job deadline/retry policy. Jobs are allowed to fail or cancel; the
  // section reports the outcome mix and that no workspace leaked.
  const svc::FaultConfig::Mode fault_mode =
      svc::parse_fault_mode(cli.get_string("fault", "none"));
  const svc::Verify verify =
      svc::parse_verify(cli.get_string("verify", "none"));
  bool faulted_run = fault_mode != svc::FaultConfig::Mode::kNone;
  RunMetrics faulted;
  if (faulted_run) {
    svc::ServiceConfig fault_cfg = base;
    fault_cfg.fault.mode = fault_mode;
    fault_cfg.fault.probability = cli.get_double("fault-prob", 0.02);
    fault_cfg.fault.lane = static_cast<int>(cli.get_int("fault-lane", -1));
    fault_cfg.fault.stall_s = cli.get_double("stall-ms", 20) * 1e-3;
    fault_cfg.fault.corrupt =
        svc::parse_corrupt_kind(cli.get_string("corrupt", "any"));
    fault_cfg.fault.corrupt_scale = cli.get_double("corrupt-scale", 1e-3);
    fault_cfg.quarantine_after =
        static_cast<int>(cli.get_int("quarantine-after", 0));
    fault_cfg.probation_s = cli.get_double("probation-ms", 0) * 1e-3;
    svc::JobSpec proto;
    proto.exec_deadline_s = cli.get_double("exec-deadline-ms", 0) * 1e-3;
    proto.max_attempts = static_cast<int>(cli.get_int("retries", 2));
    proto.retry_backoff_s = cli.get_double("retry-backoff-ms", 0) * 1e-3;
    proto.verify = verify;
    // In corrupt mode every job also computes the report-only full
    // reconstruction residual — the independent ground truth that lets the
    // bench count silently-wrong results the chosen tier missed.
    if (fault_mode == svc::FaultConfig::Mode::kCorrupt)
      proto.compute_residual = true;
    svc::QrService service(fault_cfg);
    faulted = replay(service, trace, seed + 2000, proto, /*strict=*/false);
  }

  // Submitter-scaling sweep over one warm service per level. Quick mode
  // (the CI perf-gate contended smoke) trims the level list and per-level
  // job count but keeps the most contended point.
  std::vector<SweepPoint> sweep;
  if (cli.get_bool("sweep", false)) {
    std::string levels = cli.get_string("sweep-submitters", "1,4,16,64,256");
    int per = static_cast<int>(cli.get_int("sweep-jobs", 8));
    if (cli.get_bool("quick", false)) {
      levels = "1,16,64";
      per = 3;
    }
    const auto n =
        static_cast<la::index_t>(cli.get_int("sweep-size", 64));
    for (int s : parse_int_list(levels)) {
      TQR_REQUIRE(s > 0, "--sweep-submitters entries must be >= 1");
      sweep.push_back(sweep_level(base, n, s, per, seed + 3000));
    }
  }

  std::printf("{\"trace\": \"%s\", \"lanes\": %d, \"tile\": %d,\n",
              spec.c_str(), base.lanes, base.default_tile);
  print_metrics("cold", cold, false);
  print_metrics("warm", warm, false);
  if (!sweep.empty()) {
    std::printf(" \"sweep\": {");
    for (std::size_t i = 0; i < sweep.size(); ++i)
      std::printf("%s\"s%d\": {\"jobs\": %d, \"jobs_per_s\": %.2f, "
                  "\"submit_pick_p99_ms\": %.3f}",
                  i ? ", " : "", sweep[i].submitters, sweep[i].jobs,
                  sweep[i].jobs_per_s, sweep[i].submit_pick_p99_ms);
    std::printf("},\n");
  }
  if (faulted_run)
    std::printf(
        " \"faulted\": {\"jobs\": %d, \"ok\": %d, \"failed\": %d, "
        "\"cancelled\": %d, \"expired\": %d, \"corrupted\": %d,\n"
        "   \"outcome_mix\": {\"detected\": %d, \"retried_ok\": %d, "
        "\"silently_wrong\": %d, \"quarantined_lanes\": %d},\n"
        "   \"verify\": \"%s\", \"verify_failures\": %llu, "
        "\"quarantines\": %llu, \"probations\": %llu, "
        "\"workspaces_scrubbed\": %llu,\n"
        "   \"retried\": %llu, \"faults_injected\": %llu, \"jobs_per_s\": "
        "%.2f, \"workspaces_outstanding\": %llu},\n",
        faulted.jobs, faulted.ok, faulted.failed, faulted.cancelled,
        faulted.expired, faulted.corrupted, faulted.corrupted,
        faulted.retried_ok, faulted.silently_wrong, faulted.lanes_quarantined,
        svc::to_string(verify),
        static_cast<unsigned long long>(faulted.verify_failures),
        static_cast<unsigned long long>(faulted.quarantines),
        static_cast<unsigned long long>(faulted.probations),
        static_cast<unsigned long long>(faulted.ws_scrubbed),
        static_cast<unsigned long long>(faulted.retried),
        static_cast<unsigned long long>(faulted.faults), faulted.jobs_per_s,
        static_cast<unsigned long long>(faulted.ws_outstanding));
  std::printf(" \"warm_speedup\": %.3f}\n",
              warm.jobs_per_s / cold.jobs_per_s);
  // With verification on, any silently-wrong result is a defense failure:
  // nonzero exit so CI chaos smoke jobs gate on it directly.
  if (faulted_run && verify != svc::Verify::kNone &&
      faulted.silently_wrong > 0) {
    std::fprintf(stderr,
                 "serve_throughput: %d silently-wrong jobs slipped past "
                 "verify=%s\n",
                 faulted.silently_wrong, svc::to_string(verify));
    return 3;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "serve_throughput: %s\n", e.what());
  return 1;
}

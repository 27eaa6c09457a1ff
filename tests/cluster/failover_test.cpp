// Cluster-tier fault tolerance: node fault injection, failover
// resubmission, hedged requests, and the cancel/drain semantics that cover
// them. Chaos schedules are seeded and time windows generous, so the suite
// stays deterministic under sanitizers.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "la/matrix.hpp"

namespace tqr::cluster {
namespace {

svc::JobSpec job(int n, std::uint64_t seed) {
  svc::JobSpec spec;
  spec.a = la::Matrix<double>::random(n, n, seed);
  spec.tile_size = 32;
  return spec;
}

/// Two rr nodes, one lane each, every node's first task stalls once. Used
/// by the crash/failover tests: the stall keeps the job in flight long
/// enough for a scheduled crash to catch it mid-run.
ClusterConfig chaos_base() {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.policy = RouterPolicy::kRoundRobin;
  cfg.node.lanes = 1;
  cfg.node.fault.mode = svc::FaultConfig::Mode::kStall;
  cfg.node.fault.stall_s = 0.4;
  cfg.node.fault.max_injections = 1;
  return cfg;
}

svc::NodeFaultConfig crash_at(double at_s) {
  svc::NodeFaultConfig f;
  f.kind = svc::NodeFaultConfig::Kind::kCrash;
  f.at_s = at_s;
  f.duration_s = 0;  // never recovers
  return f;
}

TEST(Failover, NonFiniteInputIsNeverFailedOverNorHeldAgainstANode) {
  // A NaN job fails the same way on every node, so it is attempted on one
  // node only, and a storm of them opens no breaker even at breaker_after
  // = 1 with failover armed.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.policy = RouterPolicy::kRoundRobin;
  cfg.node.lanes = 1;
  cfg.node.quarantine_after = 1;
  cfg.max_node_attempts = 3;
  cfg.health.breaker_after = 1;
  Cluster c(cfg);

  std::vector<std::future<svc::JobResult>> futures;
  for (int k = 0; k < 6; ++k) {
    svc::JobSpec spec = job(64, 80 + k);
    spec.verify = svc::Verify::kScan;
    spec.a(k, k) = std::numeric_limits<double>::quiet_NaN();
    futures.push_back(c.submit(std::move(spec)).future);
  }
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_EQ(r.status, svc::JobStatus::kInvalidInput) << r.error;
    EXPECT_EQ(r.attempts, 1);
  }
  c.drain();

  const auto s = c.stats();
  EXPECT_EQ(s.failovers, 0u);
  EXPECT_EQ(s.node_quarantines, 0u);
  EXPECT_EQ(s.nodes_quarantined, 0);
  EXPECT_EQ(s.lanes_quarantined, 0);
  std::uint64_t attempted = 0, invalid = 0;
  for (const svc::ServiceStats& n : s.nodes) {
    attempted += n.jobs_submitted;
    invalid += n.jobs_invalid_input;
  }
  EXPECT_EQ(attempted, 6u);  // one node attempt per submission
  EXPECT_EQ(invalid, 6u);
  for (double rate : s.node_failure_rate) EXPECT_DOUBLE_EQ(rate, 0.0);
  // A clean job still runs afterwards.
  EXPECT_EQ(c.submit(job(64, 99)).future.get().status, svc::JobStatus::kOk);
}

TEST(Failover, ShapeErrorIsNeverFailedOverNorHeldAgainstANode) {
  // A shape no node can factor is the submitter's error too: it resolves
  // kInvalidInput on its first node, so it is neither failed over nor
  // counted by a node breaker armed at its hair trigger.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.policy = RouterPolicy::kRoundRobin;
  cfg.node.lanes = 1;
  cfg.node.quarantine_after = 1;
  cfg.max_node_attempts = 3;
  cfg.health.breaker_after = 1;
  Cluster c(cfg);

  std::vector<std::future<svc::JobResult>> futures;
  for (int k = 0; k < 4; ++k) {
    svc::JobSpec spec;
    spec.a = la::Matrix<double>::random(32, 64, 90 + k);  // rows < cols
    futures.push_back(c.submit(std::move(spec)).future);
  }
  svc::JobSpec batch;
  batch.batch.push_back(la::Matrix<double>::random(8, 8, 95));
  batch.batch.push_back(la::Matrix<double>::random(8, 6, 96));  // mixed
  futures.push_back(c.submit(std::move(batch)).future);
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_EQ(r.status, svc::JobStatus::kInvalidInput) << r.error;
    EXPECT_EQ(r.attempts, 0);
  }
  c.drain();

  const auto s = c.stats();
  EXPECT_EQ(s.failovers, 0u);
  EXPECT_EQ(s.node_quarantines, 0u);
  EXPECT_EQ(s.nodes_quarantined, 0);
  EXPECT_EQ(s.lanes_quarantined, 0);
  std::uint64_t attempted = 0, invalid = 0;
  for (const svc::ServiceStats& n : s.nodes) {
    attempted += n.jobs_submitted;
    invalid += n.jobs_invalid_input;
  }
  EXPECT_EQ(attempted, 5u);  // one node attempt per submission
  EXPECT_EQ(invalid, 5u);
  for (double rate : s.node_failure_rate) EXPECT_DOUBLE_EQ(rate, 0.0);
  EXPECT_EQ(c.submit(job(64, 99)).future.get().status, svc::JobStatus::kOk);
}

TEST(Failover, ResubmitsAfterMidRunNodeCrash) {
  ClusterConfig cfg = chaos_base();
  cfg.max_node_attempts = 2;
  cfg.node.collect_trace = true;
  cfg.faults.push_back({0, crash_at(0.1)});
  Cluster c(cfg);

  // rr lands the job on node 0, where the injected stall holds its first
  // task past t=0.1 — the crash kills the attempt mid-run, and the
  // supervisor must resubmit to node 1 (which stalls once too, then works).
  auto sub = c.submit(job(64, 7));
  EXPECT_EQ(sub.node, 0);
  const auto r = sub.future.get();
  EXPECT_EQ(r.status, svc::JobStatus::kOk) << r.error;
  c.drain();

  const auto s = c.stats();
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(s.hedges, 0u);
  EXPECT_EQ(c.node(0).stats().jobs_failed, 1u);
  EXPECT_EQ(c.node(1).stats().jobs_completed, 1u);
  ASSERT_EQ(s.node_failure_rate.size(), 2u);
  EXPECT_GT(s.node_failure_rate[0], 0.0);
  EXPECT_DOUBLE_EQ(s.node_failure_rate[1], 0.0);

  // The failover is observable everywhere: stats (above), metrics, trace.
  const auto m = c.metrics();
  bool found = false;
  for (const auto& [name, value] : m.counters)
    if (name == "cluster.failovers") {
      found = true;
      EXPECT_EQ(value, 1u);
    }
  EXPECT_TRUE(found);
  const std::string trace = c.trace_json();
  EXPECT_NE(trace.find("\"failover\""), std::string::npos);
}

TEST(Failover, SingleNodeHasNoTargetAndKeepsTerminalFailure) {
  ClusterConfig cfg = chaos_base();
  cfg.nodes = 1;
  cfg.max_node_attempts = 3;
  cfg.faults.push_back({0, crash_at(0.1)});
  Cluster c(cfg);

  // The only node crashes mid-run. Failover is armed but has no eligible
  // target (the failed node is excluded), so the original terminal failure
  // must come back — promptly, not after an infinite retry loop.
  auto sub = c.submit(job(64, 11));
  const auto r = sub.future.get();
  EXPECT_EQ(r.status, svc::JobStatus::kFailed);
  EXPECT_NE(r.error.find("node down"), std::string::npos) << r.error;
  c.drain();
  EXPECT_EQ(c.stats().failovers, 0u);
}

TEST(Failover, AllNodesCrashedIsExplicitRoutedRejection) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.lanes = 1;
  cfg.faults.push_back({0, crash_at(0.0)});
  cfg.faults.push_back({1, crash_at(0.0)});
  Cluster c(cfg);
  // Let both crash schedules activate before routing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto states = c.node_states(64, 64, 32, dag::Elimination::kTt);
  EXPECT_EQ(states[0].active_lanes, 0);
  EXPECT_EQ(states[1].active_lanes, 0);

  auto sub = c.submit(job(64, 13));
  EXPECT_EQ(sub.node, -1);  // routed rejection, no node ever saw the job
  const auto r = sub.future.get();
  EXPECT_EQ(r.status, svc::JobStatus::kRejected);
  EXPECT_NE(r.error.find("no healthy node"), std::string::npos) << r.error;

  const auto s = c.stats();
  EXPECT_EQ(s.routed_rejections, 1u);
  EXPECT_GE(s.jobs_rejected, 1u);
  EXPECT_EQ(s.failovers, 0u);
  c.drain();
}

TEST(Failover, HedgeClonesSlowStartAndFirstCompletionWins) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.policy = RouterPolicy::kRoundRobin;
  cfg.node.lanes = 1;
  cfg.hedge_after_s = 0.05;
  // Stall a task id that exists only in the big occupier job's DAG (8x8
  // tiles, >100 tasks), never in the 2x2 probe jobs — so node 0's lane is
  // deterministically busy for ~1s while the hedged job itself runs clean.
  cfg.node.fault.mode = svc::FaultConfig::Mode::kStall;
  cfg.node.fault.task = 50;
  cfg.node.fault.stall_s = 1.0;
  cfg.node.fault.max_injections = 1;
  Cluster c(cfg);

  // Occupy node 0's only lane directly (bypassing the router).
  auto occupier = c.node(0).submit(job(256, 17));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // rr routes the probe to node 0, where it sits unpicked behind the
  // occupier; after hedge_after_s the supervisor clones it to node 1,
  // which finishes first. The queued primary is cancelled.
  auto sub = c.submit(job(64, 19));
  EXPECT_EQ(sub.node, 0);
  const auto r = sub.future.get();
  EXPECT_EQ(r.status, svc::JobStatus::kOk) << r.error;
  EXPECT_EQ(occupier.get().status, svc::JobStatus::kOk);
  c.drain();

  const auto s = c.stats();
  EXPECT_EQ(s.hedges, 1u);
  EXPECT_EQ(s.hedge_wins, 1u);
  EXPECT_EQ(s.failovers, 0u);
  EXPECT_EQ(c.node(1).stats().jobs_completed, 1u);
  EXPECT_EQ(c.node(0).stats().jobs_cancelled, 1u);  // the losing primary
}

TEST(Failover, LinkDropIsRetriedOnAHealthyNode) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.policy = RouterPolicy::kRoundRobin;
  cfg.node.lanes = 1;
  cfg.max_node_attempts = 3;
  svc::NodeFaultConfig link;
  link.kind = svc::NodeFaultConfig::Kind::kFlakyLink;
  link.at_s = 0;
  link.duration_s = 0;
  link.drop_probability = 1.0;  // every ship to node 1 is lost
  cfg.faults.push_back({1, link});
  Cluster c(cfg);

  // rr: first job lands on node 0 (ships fine — the front end is
  // co-located), the second is routed to node 1 and dropped on the wire.
  auto sub0 = c.submit(job(64, 23));
  auto sub1 = c.submit(job(64, 29));
  EXPECT_EQ(sub0.node, 0);
  EXPECT_EQ(sub1.node, 1);
  EXPECT_EQ(sub1.id, 0u);  // never reached the node
  EXPECT_EQ(sub0.future.get().status, svc::JobStatus::kOk);
  // A link flake does not indict the node permanently, but failover must
  // still land the job somewhere that can take it.
  const auto r = sub1.future.get();
  EXPECT_EQ(r.status, svc::JobStatus::kOk) << r.error;
  c.drain();

  const auto s = c.stats();
  EXPECT_GE(s.link_drops, 1u);
  EXPECT_GE(s.failovers, 1u);
  ASSERT_EQ(s.node_failure_rate.size(), 2u);
  EXPECT_GT(s.node_failure_rate[1], 0.0);  // drops feed node health
  EXPECT_EQ(s.jobs_completed, 2u);
}

TEST(Failover, CancelCoversTrackedSubmissions) {
  ClusterConfig cfg = chaos_base();
  cfg.max_node_attempts = 3;
  cfg.node.fault.stall_s = 5.0;  // cancel must cut this short
  Cluster c(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  auto sub = c.submit(job(64, 31));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(c.cancel(sub.node, sub.id));
  const auto r = sub.future.get();
  EXPECT_EQ(r.status, svc::JobStatus::kCancelled);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 4.0);  // did not serve out the 5s stall
  EXPECT_EQ(c.stats().failovers, 0u);  // cancellation never fails over
  EXPECT_FALSE(c.cancel(0, 999999));   // unknown handle
  c.drain();
}

TEST(Failover, CancelAllCoversEveryNodeAndAttempt) {
  ClusterConfig cfg = chaos_base();
  cfg.node.fault.stall_s = 5.0;
  Cluster c(cfg);

  auto sub0 = c.submit(job(64, 37));  // rr: node 0
  auto sub1 = c.submit(job(64, 41));  // rr: node 1
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GE(c.cancel_all(), 2u);
  EXPECT_EQ(sub0.future.get().status, svc::JobStatus::kCancelled);
  EXPECT_EQ(sub1.future.get().status, svc::JobStatus::kCancelled);
  c.drain();
}

}  // namespace
}  // namespace tqr::cluster

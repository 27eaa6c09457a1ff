// Cluster — the sharded multi-node QR tier (the paper's §VIII frontier).
//
// A Cluster owns N simulated nodes. Each node is one paper-testbed platform
// (sim::paper_platform) fronted by its own resident
// svc::QrService lane set; the nodes are connected by the first-class
// inter-node link model in sim::Platform (per-pair bandwidth/latency,
// distinct from intra-node PCIe). Incoming jobs are sharded across nodes by
// a cluster::Router policy — by default the paper's Eq. 10/11 cost model
// extended with link-aware ship cost plus current per-node queue depth —
// and reroute gracefully when a node's lanes are quarantined by the
// services' circuit breakers.
//
//   submit() ─> Router::pick(node_states()) ─> nodes_[n]->submit()
//                     │                             │
//                     │  queue depth, active lanes, │  the node's own
//                     │  exec estimate, ship cost,  │  queue/lanes/cache
//                     │  failure rate, breaker      │
//
// Fault tolerance (the cluster-tier analogue of the service's retry +
// lane-quarantine machinery):
//
//   * submit() returns a CLUSTER-owned future. A supervisor thread watches
//     every outstanding submission; when a node fails a job terminally
//     (kFailed / kCorrupted / rejection), the value-semantic JobSpec is
//     resubmitted to the next-best node — bounded by max_node_attempts,
//     previously-failed nodes excluded, the remaining queue/exec deadline
//     budget carried across attempts, with failover_backoff_s between
//     attempts. Cancellation and drain() cover resubmitted attempts.
//   * A NodeHealthTracker (EWMA failure rate + consecutive-failure circuit
//     breaker with half-open probation, distinct from the per-lane breaker
//     inside each service) feeds NodeState so routing avoids sick nodes;
//     when EVERY node is down/quarantined submit() reports an explicit
//     routed rejection instead of feeding a dead node.
//   * Optional hedged requests: a routed job no lane has picked up within
//     hedge_after_s is cloned to the second-best node; the first completion
//     wins and the loser is cancelled through the node's cancel(id).
//   * Node-scale chaos is injectable per node (ClusterConfig::faults):
//     crash / brownout / reject-storm run inside the node's service
//     (svc::NodeFaultConfig), flaky-link runs on the cluster's ship path.
//
// Observability: each node's service gets a disjoint Chrome-trace pid block
// (ServiceConfig::trace_pid_base) and a node-qualified label; the cluster
// adds its own pid with failover / hedge / quarantine / link-drop instants,
// and trace_json() merges everything into one Perfetto document.
#pragma once

#include <atomic>
#include <condition_variable>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/router.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_log.hpp"
#include "sim/platform.hpp"
#include "svc/qr_service.hpp"

namespace tqr::cluster {

struct ClusterConfig {
  /// Node count (1..4, the sim cluster preset's range).
  int nodes = 2;
  /// Uniform inter-node fabric; per-pair overrides go through
  /// platform().set_inter_link on the returned platform before any routing
  /// decision if a heterogeneous fabric is wanted.
  double inter_gbytes_per_s = 1.0;
  double inter_latency_us = 25.0;

  RouterPolicy policy = RouterPolicy::kCostModel;

  /// Total node attempts per cluster submission, the first included.
  /// 1 (default) = route once, no failover; >= 2 arms failover
  /// resubmission on terminal node failure.
  int max_node_attempts = 1;
  /// Pause before each failover resubmission. The wait is supervised, so a
  /// cancel during backoff resolves immediately instead of serving it out.
  double failover_backoff_s = 0;
  /// Hedged requests: a routed job that no lane has picked up within this
  /// budget is cloned to the second-best node; first completion wins, the
  /// loser is cancelled. 0 (default) disables hedging.
  double hedge_after_s = 0;

  /// Node-level health tracking (EWMA + circuit breaker) feeding the
  /// router. breaker_after = 0 disables the breaker, ewma_alpha = 0
  /// freezes the failure-rate penalty.
  NodeHealthConfig health;

  /// Node-scale fault injection, one entry per afflicted node (chaos
  /// testing; seedable, hence reproducible). kCrash / kBrownout /
  /// kRejectStorm install into that node's service; kFlakyLink afflicts
  /// the front-end -> node ship path (drops and delays routed jobs).
  struct NodeFault {
    int node = 0;
    svc::NodeFaultConfig fault;
  };
  std::vector<NodeFault> faults;

  /// Template applied to every node's QrService. trace_pid_base,
  /// trace_label, and node_fault are overwritten per node.
  svc::ServiceConfig node;
};

/// Aggregate view across nodes plus the per-node snapshots.
struct ClusterStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  /// Node-level rejections plus the cluster's routed rejections.
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_corrupted = 0;
  int lanes_quarantined = 0;

  /// Failover resubmissions dispatched after terminal node failures.
  std::uint64_t failovers = 0;
  /// Hedge clones dispatched for slow-to-start jobs.
  std::uint64_t hedges = 0;
  /// Submissions whose hedge clone finished first.
  std::uint64_t hedge_wins = 0;
  /// Node breaker trips (lifetime, re-opens included).
  std::uint64_t node_quarantines = 0;
  /// Half-open probation probes admitted to quarantined nodes.
  std::uint64_t node_probations = 0;
  /// Jobs lost to injected inter-node link drops (before failover).
  std::uint64_t link_drops = 0;
  /// Submissions rejected because no healthy node existed.
  std::uint64_t routed_rejections = 0;
  /// Nodes currently held out by the breaker.
  int nodes_quarantined = 0;
  /// Per-node EWMA failure rate, [0, 1].
  std::vector<double> node_failure_rate;

  /// Completed jobs per second of cluster uptime (max node uptime).
  double jobs_per_s = 0;
  /// Jobs this cluster routed to each node (by the Router; includes
  /// failover and hedge dispatches, excludes jobs submitted directly to a
  /// node's service).
  std::vector<std::uint64_t> routed;
  std::vector<svc::ServiceStats> nodes;
};

class Cluster {
 public:
  /// Routing outcome. `future` is CLUSTER-owned: it resolves with the final
  /// result after any failover resubmissions and hedges, not with the first
  /// node's verdict. `node`/`id` identify the FIRST attempt (the handle
  /// cancel(node, id) takes); node == -1 marks a routed rejection (no
  /// healthy node — the future is already resolved kRejected), and id == 0
  /// a first attempt lost to an injected link drop before reaching a node.
  struct Submission {
    int node = -1;
    std::uint64_t id = 0;
    std::future<svc::JobResult> future;
  };

  explicit Cluster(const ClusterConfig& config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_nodes() const { return config_.nodes; }
  /// One node's resident service (valid for the cluster's lifetime).
  svc::QrService& node(int n) { return *nodes_[static_cast<std::size_t>(n)]; }
  const svc::QrService& node(int n) const {
    return *nodes_[static_cast<std::size_t>(n)];
  }
  /// The cluster-wide simulation platform: every node's devices plus the
  /// inter-node links. This is what the routing cost model charges and what
  /// simulation-side experiments (bench/cluster_scaling) factor on.
  const sim::Platform& platform() const { return platform_; }
  const ClusterConfig& config() const { return config_; }

  /// Routes the job to a node and submits it there. Blocks like the node
  /// service's submit when that node's queue is full under kBlock.
  Submission submit(svc::JobSpec spec);

  /// Cancels one cluster submission by its Submission handle (first
  /// attempt's node/id), covering every live failover/hedge attempt it
  /// spawned. Falls through to the node's own cancel for jobs submitted
  /// directly to node(n). Returns false when nothing was outstanding.
  bool cancel(int node, std::uint64_t id);
  /// Cancels every outstanding job on the cluster — tracked submissions
  /// (all attempts) and jobs submitted directly to the nodes. Returns how
  /// many node-level jobs were signalled.
  std::size_t cancel_all();

  /// Router-input snapshot for a job of the given shape: per-node queue
  /// depth, active (non-quarantined, non-crashed) lanes, the Eq. 10/11 exec
  /// estimate on the node platform, the link-aware ship cost from the front
  /// end (co-located with node 0, flaky-link degradation folded in), and
  /// the health tracker's failure rate / breaker verdict. Exposed for tests
  /// and benches.
  std::vector<NodeState> node_states(la::index_t rows, la::index_t cols,
                                     int tile_size,
                                     dag::Elimination elim) const;

  /// Blocks until every cluster submission resolved (failover and hedge
  /// attempts included) and every accepted job on every node completed.
  void drain();

  ClusterStats stats() const;

  /// Cluster-level metrics registry snapshot (cluster.* counters plus
  /// per-node health gauges) — the node services keep their own.
  obs::Registry::Snapshot metrics() const;
  std::string metrics_json() const { return metrics().to_json(); }

  /// Merged Chrome trace-event document: one pid block per node plus the
  /// cluster's own pid (failover/hedge/quarantine/link-drop instants);
  /// "{...}" with no events unless the node template set collect_trace.
  std::string trace_json() const;

 private:
  struct Tracked;  // one outstanding cluster submission (cluster.cpp)

  /// Chrome-trace pid for the cluster's own instants: one past the last
  /// node's pid block.
  int cluster_pid() const { return config_.nodes * (1 + config_.node.lanes); }

  /// Cached Eq. 10/11 execution estimate for a padded job shape on one
  /// node's platform (nodes are identical, so one entry serves them all).
  double est_exec_s(la::index_t pr, la::index_t pc, int b,
                    dag::Elimination elim) const;

  /// Applies exclusions to a node_states snapshot and picks; mutex_ held.
  /// Records note_routed / routed_ for a successful pick.
  int pick_locked(std::vector<NodeState> states,
                  const std::vector<bool>* exclude, const Tracked* t,
                  bool hedge, double now_s);
  /// Rolls the injected flaky-link gate for a ship to `target`; true means
  /// the job was dropped (recorded against the node's health). The
  /// surviving path's injected delay is returned through `delay_s`.
  bool roll_link_locked(int target, double now_s, double* delay_s);
  /// Feeds one terminal outcome into the health tracker, emitting the
  /// node_quarantine trace instant when the breaker trips; mutex_ held.
  void record_health_locked(int node, bool bad, double now_s);

  void supervise();
  /// One supervision pass over a tracked submission; mutex_ held. Polls
  /// attempt futures and decides: resolve, hedge, or failover.
  void step_locked(Tracked& t, double now_s);
  /// Executes a failover/hedge dispatch decided by step_locked; called by
  /// the supervisor WITHOUT the lock held (t.launching guards the entry).
  void launch(Tracked& t);

  ClusterConfig config_;
  sim::Platform platform_;       // cluster-wide (routing + simulation)
  sim::Platform node_platform_;  // one node (exec estimation)
  Router router_;
  std::vector<std::unique_ptr<svc::QrService>> nodes_;
  /// Per-node flaky-link injectors for the front-end -> node ship path
  /// (null when that node has no kFlakyLink entry in config().faults).
  std::vector<std::unique_ptr<svc::NodeFaultInjector>> link_faults_;

  Timer clock_;
  obs::Registry registry_;
  obs::Counter& failovers_;
  obs::Counter& hedges_;
  obs::Counter& hedge_wins_;
  obs::Counter& link_drops_;
  obs::Counter& routed_rejections_;
  std::unique_ptr<obs::TraceLog> trace_;  // null unless node.collect_trace

  mutable std::mutex mutex_;  // guards router_, health_, routed_, est_cache_,
                              // tracked_ topology
  NodeHealthTracker health_;
  std::vector<std::uint64_t> routed_;
  mutable std::map<std::tuple<la::index_t, la::index_t, int, int>, double>
      est_cache_;

  std::list<std::unique_ptr<Tracked>> tracked_;
  std::condition_variable cv_super_;
  std::condition_variable cv_drained_;
  bool closed_ = false;
  std::thread supervisor_;
};

}  // namespace tqr::cluster

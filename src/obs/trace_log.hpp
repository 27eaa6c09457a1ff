// Span-based trace collector emitting Chrome trace-event JSON.
//
// The output loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing: complete spans ("ph":"X"), instant markers ("i"),
// counter series ("C"), and process/thread-name metadata ("M").
//
// The service uses one log per QrService with this pid/tid convention:
//   pid 0           — the shared queue (queue.depth counter)
//     tid r         —   queued-job spans, each on the lowest row free since
//                       the job's submit, so no two spans on a row overlap
//   pid 1 + lane    — one "process" per execution lane
//     tid 0         —   job lifecycle spans (picked -> done) + retry/verify/
//                       quarantine instants
//     tid 1 + w     —   per-task kernel events run by the lane's worker w
//
// append_task_events() bridges a runtime::Trace snapshot (per-task records
// from the executor) into the log, annotating each span with the kernel
// class, tile coordinates, and derived GFLOP/s — the measured per-kernel
// rates the paper's scheduling decisions (§IV) are driven by.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dag/graph.hpp"
#include "runtime/trace.hpp"

namespace tqr::obs {

/// Pre-rendered JSON `"args"` members for one event. Values are encoded at
/// add() time so the collector stores a flat string, not a tree.
class TraceArgs {
 public:
  TraceArgs& add(const std::string& key, double v);
  TraceArgs& add(const std::string& key, std::int64_t v);
  TraceArgs& add(const std::string& key, const std::string& v);  // escaped

  const std::string& json() const { return json_; }
  bool empty() const { return json_.empty(); }

 private:
  std::string json_;  // comma-joined `"key":value` pairs
};

/// Thread-safe append-only event log with a hard capacity: a service that
/// traces every task of every job must not grow without bound, so events
/// past the cap are counted in dropped() instead of stored.
class TraceLog {
 public:
  explicit TraceLog(std::size_t capacity = std::size_t{1} << 20)
      : capacity_(capacity) {}

  /// Complete span ("ph":"X"); times in seconds on the caller's clock.
  void complete(const std::string& name, const std::string& cat, int pid,
                int tid, double start_s, double dur_s,
                TraceArgs args = {});
  /// Instant marker ("ph":"i", thread scope).
  void instant(const std::string& name, const std::string& cat, int pid,
               int tid, double t_s, TraceArgs args = {});
  /// Counter sample ("ph":"C"): one series value at one time.
  void counter(const std::string& name, int pid, double t_s,
               const std::string& series, double value);
  /// Metadata: names the pid row in the viewer.
  void process_name(int pid, const std::string& name);
  /// Metadata: names the (pid, tid) row in the viewer.
  void thread_name(int pid, int tid, const std::string& name);

  std::size_t size() const;
  std::uint64_t dropped() const;
  std::size_t capacity() const { return capacity_; }

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — a complete document
  /// Perfetto and chrome://tracing load as-is.
  std::string to_json() const;

  /// The comma-joined event objects alone, without the document wrapper.
  /// Callers that merge several logs (tqr::cluster — one log per node, with
  /// disjoint pid blocks) splice these into a single traceEvents array.
  std::string events_json() const;

 private:
  struct Event {
    char ph;  // 'X', 'i', 'C', 'M'
    std::string name;
    std::string cat;
    int pid = 0;
    int tid = 0;
    double ts_us = 0;
    double dur_us = 0;  // X only
    std::string args;   // pre-rendered `"k":v` pairs (may be empty)
  };

  void push(Event&& e);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

/// Nominal flop count for one tile kernel on a b x b tile (the la/flops
/// model, extended to the Cholesky ops scheduled by the same framework).
/// `ib` is the inner block size the factor kernels ran with, forwarded to
/// the la/flops model so derived GFLOP/s stay honest for every kernel
/// configuration; 0 means the library default.
double task_flops(dag::Op op, int tile, int ib = 0);

/// Appends one complete span per executor trace event: name = kernel op,
/// cat = paper step (T/E/UT/UE), tid = 1 + worker, args = task id, tile
/// coordinates, and derived GFLOP/s. `offset_s` shifts the run-relative
/// executor timestamps onto the log's clock (the service clock); `ib` is
/// the factor kernels' inner block size (see task_flops).
void append_task_events(TraceLog& log,
                        const std::vector<runtime::TraceEvent>& events,
                        const dag::TaskGraph& graph, int tile_size, int pid,
                        double offset_s, int ib = 0);

}  // namespace tqr::obs

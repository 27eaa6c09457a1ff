// Task graph with dependence edges derived from data accesses.
//
// The builder performs classic last-writer/readers dependence analysis over
// tile *sub-resources*. Splitting each tile into an upper (R) part and a
// lower (V) part is what exposes the paper's Fig. 3 parallelism: UNMQR reads
// only the V part of a factored diagonal tile, so it can run concurrently
// with the TSQRTs that mutate the R part.
//
// Storage is CSR (flat arrays) because large simulations materialize graphs
// of millions of tasks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dag/task.hpp"

namespace tqr::dag {

using task_id = std::int32_t;

class TaskGraph {
 public:
  TaskGraph() = default;

  std::size_t size() const { return tasks_.size(); }
  const Task& task(task_id t) const { return tasks_[t]; }
  const std::vector<Task>& tasks() const { return tasks_; }

  /// Number of immediate predecessors of t.
  std::int32_t indegree(task_id t) const { return indegree_[t]; }

  /// Immediate successors of t in strictly ascending id order (span into
  /// the CSR arrays). Builder::build fills each range in the order tasks
  /// were added, and tasks are added in id order.
  const task_id* successors_begin(task_id t) const {
    return succ_.data() + succ_offset_[t];
  }
  const task_id* successors_end(task_id t) const {
    return succ_.data() + succ_offset_[t + 1];
  }
  std::int32_t out_degree(task_id t) const {
    return succ_offset_[t + 1] - succ_offset_[t];
  }

  /// Predecessors (CSR, symmetric to successors).
  const task_id* predecessors_begin(task_id t) const {
    return pred_.data() + pred_offset_[t];
  }
  const task_id* predecessors_end(task_id t) const {
    return pred_.data() + pred_offset_[t + 1];
  }

  std::size_t edge_count() const { return succ_.size(); }

  /// Longest path through the graph where each task weighs
  /// weight(task) >= 0; returns the makespan lower bound for infinite
  /// parallelism. Tasks are already topologically ordered by construction.
  double critical_path(const std::function<double(const Task&)>& weight) const;

  /// Tasks per paper step (Triangulation/Elimination/UT/UE).
  std::array<std::int64_t, 4> step_counts() const;

  /// Graphviz DOT rendering (small graphs only; throws if > max_tasks).
  std::string to_dot(std::size_t max_tasks = 400) const;

  /// Verifies the graph is a DAG whose task order is topological and whose
  /// edge arrays are consistent. Used by tests.
  bool validate() const;

  class Builder;

 private:
  std::vector<Task> tasks_;
  std::vector<std::int32_t> indegree_;
  std::vector<std::int64_t> succ_offset_;  // size() + 1
  std::vector<task_id> succ_;
  std::vector<std::int64_t> pred_offset_;
  std::vector<task_id> pred_;
};

/// Incremental graph builder. add_task() declares a task together with its
/// data accesses; dependence edges are inferred. Tasks must be added in a
/// valid sequential execution order (the natural loop order of the
/// algorithm), which then doubles as a topological order of the result.
class TaskGraph::Builder {
 public:
  /// Tile grid is mt x nt; resources are the tiles' sub-parts.
  Builder(std::int32_t mt, std::int32_t nt);

  enum class Mode : std::uint8_t { kRead, kWrite, kReadWrite };

  /// Sub-resources of tile (i, j).
  struct Access {
    std::int32_t resource;
    Mode mode;
  };

  std::int32_t upper(std::int32_t i, std::int32_t j) const {
    return resource(0, i, j);
  }
  std::int32_t lower(std::int32_t i, std::int32_t j) const {
    return resource(1, i, j);
  }
  /// Block-reflector factor written by geqrt at (i, j).
  std::int32_t t_geqrt(std::int32_t i, std::int32_t j) const {
    return resource(2, i, j);
  }
  /// Block-reflector factor written by ts/ttqrt at (i, j).
  std::int32_t t_elim(std::int32_t i, std::int32_t j) const {
    return resource(3, i, j);
  }

  /// Adds a task; returns its id.
  task_id add_task(const Task& task, std::initializer_list<Access> accesses) {
    return add_task(task, accesses.begin(),
                    static_cast<std::size_t>(accesses.size()));
  }
  task_id add_task(const Task& task, const std::vector<Access>& accesses) {
    return add_task(task, accesses.data(), accesses.size());
  }
  task_id add_task(const Task& task, const Access* accesses,
                   std::size_t count);

  /// Finalizes into an immutable TaskGraph. The builder is consumed.
  TaskGraph build() &&;

 private:
  std::int32_t resource(std::int32_t kind, std::int32_t i,
                        std::int32_t j) const;

  std::int32_t mt_, nt_;
  std::vector<Task> tasks_;
  std::vector<task_id> last_writer_;
  std::vector<std::vector<task_id>> readers_;
  std::vector<std::pair<task_id, task_id>> edges_;  // (from, to)
  std::vector<task_id> dep_scratch_;
};

}  // namespace tqr::dag

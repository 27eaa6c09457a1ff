#include "obs/trace_log.hpp"

#include <algorithm>
#include <cstdio>

#include "la/flops.hpp"

namespace tqr::obs {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

TraceArgs& TraceArgs::add(const std::string& key, double v) {
  if (!json_.empty()) json_ += ',';
  json_ += '"' + escape(key) + "\":" + num(v);
  return *this;
}

TraceArgs& TraceArgs::add(const std::string& key, std::int64_t v) {
  if (!json_.empty()) json_ += ',';
  json_ += '"' + escape(key) + "\":" + std::to_string(v);
  return *this;
}

TraceArgs& TraceArgs::add(const std::string& key, const std::string& v) {
  if (!json_.empty()) json_ += ',';
  json_ += '"' + escape(key) + "\":\"" + escape(v) + '"';
  return *this;
}

void TraceLog::push(Event&& e) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void TraceLog::complete(const std::string& name, const std::string& cat,
                        int pid, int tid, double start_s, double dur_s,
                        TraceArgs args) {
  push(Event{'X', name, cat, pid, tid, start_s * 1e6, dur_s * 1e6,
             args.json()});
}

void TraceLog::instant(const std::string& name, const std::string& cat,
                       int pid, int tid, double t_s, TraceArgs args) {
  push(Event{'i', name, cat, pid, tid, t_s * 1e6, 0, args.json()});
}

void TraceLog::counter(const std::string& name, int pid, double t_s,
                       const std::string& series, double value) {
  push(Event{'C', name, "", pid, 0, t_s * 1e6, 0,
             TraceArgs().add(series, value).json()});
}

void TraceLog::process_name(int pid, const std::string& name) {
  push(Event{'M', "process_name", "", pid, 0, 0, 0,
             TraceArgs().add("name", name).json()});
}

void TraceLog::thread_name(int pid, int tid, const std::string& name) {
  push(Event{'M', "thread_name", "", pid, tid, 0, 0,
             TraceArgs().add("name", name).json()});
}

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::uint64_t TraceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string TraceLog::events_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"" + escape(e.name) + "\",\"ph\":\"";
    out += e.ph;
    out += '"';
    if (!e.cat.empty()) out += ",\"cat\":\"" + escape(e.cat) + '"';
    out += ",\"pid\":" + std::to_string(e.pid) +
           ",\"tid\":" + std::to_string(e.tid);
    if (e.ph != 'M') out += ",\"ts\":" + num(e.ts_us);
    if (e.ph == 'X') out += ",\"dur\":" + num(e.dur_us);
    if (e.ph == 'i') out += ",\"s\":\"t\"";
    if (!e.args.empty()) out += ",\"args\":{" + e.args + '}';
    out += '}';
  }
  return out;
}

std::string TraceLog::to_json() const {
  return "{\"traceEvents\":[\n" + events_json() +
         "\n],\"displayTimeUnit\":\"ms\"}\n";
}

double task_flops(dag::Op op, int tile, int ib) {
  const auto b = static_cast<la::index_t>(tile);
  const auto bib = static_cast<la::index_t>(ib);
  const double n = tile;
  switch (op) {
    case dag::Op::kGeqrt:
      return la::flops_geqrt(b, bib);
    case dag::Op::kUnmqr:
      return la::flops_unmqr(b);
    case dag::Op::kTsqrt:
      return la::flops_tsqrt(b, bib);
    case dag::Op::kTsmqr:
      return la::flops_tsmqr(b);
    case dag::Op::kTtqrt:
      return la::flops_ttqrt(b, bib);
    case dag::Op::kTtmqr:
      return la::flops_ttmqr(b);
    // Cholesky kernels: standard counts for b x b tiles.
    case dag::Op::kPotrf:
      return n * n * n / 3.0;
    case dag::Op::kTrsm:
      return n * n * n;
    case dag::Op::kSyrk:
      return n * n * n;
    case dag::Op::kGemm:
      return 2.0 * n * n * n;
  }
  return 0;
}

void append_task_events(TraceLog& log,
                        const std::vector<runtime::TraceEvent>& events,
                        const dag::TaskGraph& graph, int tile_size, int pid,
                        double offset_s, int ib) {
  for (const runtime::TraceEvent& e : events) {
    const double dur = e.end_s - e.start_s;
    // One row per executor worker: a worker runs one kernel at a time, so
    // its spans never overlap. Tasks drained from a shared inbox (no
    // worker) land on worker 0's row as instants.
    const int row = 1 + std::max(e.worker, 0);
    TraceArgs args;
    args.add("task", static_cast<std::int64_t>(e.task));
    args.add("device", static_cast<std::int64_t>(e.device));
    if (e.kind != runtime::TraceEvent::Kind::kTask) {
      // A task dropped without executing (cancel at the dispatch boundary,
      // or drained from a ready queue when the run aborted) becomes an
      // instant, so the merged timeline still accounts for every dispatched
      // task: spans + drop instants == tasks handed to the executor.
      const bool cancelled = e.kind == runtime::TraceEvent::Kind::kCancelled;
      std::string name = cancelled ? "cancelled " : "drained ";
      name += e.task >= 0 && static_cast<std::size_t>(e.task) < graph.size()
                  ? dag::op_name(graph.task(e.task).op)
                  : "task";
      log.instant(name, "drop", pid, row, offset_s + e.start_s,
                  std::move(args));
      continue;
    }
    const char* cat = "task";
    if (e.task >= 0 && static_cast<std::size_t>(e.task) < graph.size()) {
      const dag::Task& t = graph.task(e.task);
      cat = dag::step_name(dag::step_of(t.op));
      args.add("k", static_cast<std::int64_t>(t.k));
      args.add("i", static_cast<std::int64_t>(t.i));
      if (t.op != dag::Op::kGeqrt && t.op != dag::Op::kUnmqr)
        args.add("p", static_cast<std::int64_t>(t.p));
      if (t.j >= 0) args.add("j", static_cast<std::int64_t>(t.j));
      // Record the kernel configuration on the factor spans; verifying that
      // execution traces carry the configured ib is how the service tests
      // pin calibration and execution to the same kernel shape.
      if (ib > 0 && (t.op == dag::Op::kGeqrt || t.op == dag::Op::kTsqrt ||
                     t.op == dag::Op::kTtqrt))
        args.add("ib", static_cast<std::int64_t>(ib));
      if (tile_size > 0 && dur > 0)
        args.add("gflops", task_flops(t.op, tile_size, ib) / dur * 1e-9);
    }
    log.complete(e.task >= 0 && static_cast<std::size_t>(e.task) < graph.size()
                     ? dag::op_name(graph.task(e.task).op)
                     : "task",
                 cat, pid, row, offset_s + e.start_s, dur,
                 std::move(args));
  }
}

}  // namespace tqr::obs

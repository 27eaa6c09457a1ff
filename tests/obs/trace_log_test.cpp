#include "obs/trace_log.hpp"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dag/tiled_qr_dag.hpp"
#include "obs/json.hpp"

namespace tqr::obs {
namespace {

/// Parse-back is the well-formedness proof: whatever the log emits must be
/// a valid JSON document with the Chrome trace-event schema Perfetto loads.
Json parse_log(const TraceLog& log) { return Json::parse(log.to_json()); }

TEST(TraceLog, EmitsWellFormedChromeTraceJson) {
  TraceLog log;
  log.process_name(0, "svc queue");
  log.thread_name(1, 2, "cpu \"main\"");  // quote must survive escaping
  log.complete("GEQRT", "T", 1, 2, 0.001, 0.0005,
               TraceArgs()
                   .add("task", std::int64_t{7})
                   .add("gflops", 12.5)
                   .add("note", "a\nb"));
  log.instant("retry", "job", 1, 0, 0.002);
  log.counter("queue.depth", 0, 0.003, "depth", 4.0);

  const Json doc = parse_log(log);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  const auto& events = doc.find("traceEvents")->items();
  ASSERT_EQ(events.size(), 5u);

  const Json& meta = events[0];
  EXPECT_EQ(meta.find("ph")->as_string(), "M");
  EXPECT_EQ(meta.find("name")->as_string(), "process_name");
  EXPECT_EQ(meta.find("args")->find("name")->as_string(), "svc queue");

  EXPECT_EQ(events[1].find("args")->find("name")->as_string(),
            "cpu \"main\"");

  const Json& span = events[2];
  EXPECT_EQ(span.find("ph")->as_string(), "X");
  EXPECT_EQ(span.find("name")->as_string(), "GEQRT");
  EXPECT_EQ(span.find("cat")->as_string(), "T");
  EXPECT_EQ(span.find("pid")->as_number(), 1);
  EXPECT_EQ(span.find("tid")->as_number(), 2);
  EXPECT_DOUBLE_EQ(span.find("ts")->as_number(), 1000.0);   // us
  EXPECT_DOUBLE_EQ(span.find("dur")->as_number(), 500.0);   // us
  EXPECT_DOUBLE_EQ(span.find("args")->find("gflops")->as_number(), 12.5);
  EXPECT_EQ(span.find("args")->find("note")->as_string(), "a\nb");

  const Json& instant = events[3];
  EXPECT_EQ(instant.find("ph")->as_string(), "i");
  EXPECT_EQ(instant.find("s")->as_string(), "t");

  const Json& counter = events[4];
  EXPECT_EQ(counter.find("ph")->as_string(), "C");
  EXPECT_DOUBLE_EQ(counter.find("args")->find("depth")->as_number(), 4.0);
}

TEST(TraceLog, CapacityCapCountsDrops) {
  TraceLog log(3);
  for (int i = 0; i < 5; ++i)
    log.instant("e" + std::to_string(i), "t", 0, 0, i * 1e-3);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(parse_log(log).find("traceEvents")->items().size(), 3u);
}

TEST(TraceLog, ConcurrentAppendsStayWellFormed) {
  TraceLog log;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&log, t] {
      for (int i = 0; i < 500; ++i)
        log.complete("k", "c", t, 0, i * 1e-4, 1e-5,
                     TraceArgs().add("i", std::int64_t{i}));
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(log.size(), 2000u);
  EXPECT_EQ(parse_log(log).find("traceEvents")->items().size(), 2000u);
}

TEST(TraceLog, EmptyLogIsAValidDocument) {
  TraceLog log;
  const Json doc = parse_log(log);
  EXPECT_TRUE(doc.find("traceEvents")->is_array());
  EXPECT_EQ(doc.find("traceEvents")->items().size(), 0u);
}

TEST(TaskFlops, MatchesKernelModel) {
  EXPECT_GT(task_flops(dag::Op::kGeqrt, 64), 0);
  EXPECT_DOUBLE_EQ(task_flops(dag::Op::kGemm, 10), 2000.0);
  EXPECT_DOUBLE_EQ(task_flops(dag::Op::kTrsm, 10), 1000.0);
  EXPECT_DOUBLE_EQ(task_flops(dag::Op::kTsmqr, 10), 5000.0);
  // Factor kernels charge the full compact-WY T build (la/flops.hpp):
  // geqrt 2 b^3, tsqrt 10/3 b^3, ttqrt 4/3 b^3 — and are ib-independent
  // (the recursion assembles the same full T the unblocked kernel builds).
  EXPECT_DOUBLE_EQ(task_flops(dag::Op::kGeqrt, 10), 2000.0);
  EXPECT_DOUBLE_EQ(task_flops(dag::Op::kTsqrt, 10), 10000.0 / 3.0);
  EXPECT_DOUBLE_EQ(task_flops(dag::Op::kTtqrt, 10), 4000.0 / 3.0);
  EXPECT_DOUBLE_EQ(task_flops(dag::Op::kGeqrt, 10, 4),
                   task_flops(dag::Op::kGeqrt, 10));
  EXPECT_DOUBLE_EQ(task_flops(dag::Op::kTsqrt, 10, 4),
                   task_flops(dag::Op::kTsqrt, 10));
}

TEST(AppendTaskEvents, AnnotatesKernelClassTileAndRate) {
  const dag::TaskGraph graph = dag::build_tiled_qr_graph(
      2, 2, dag::Elimination::kTt);
  std::vector<runtime::TraceEvent> events;
  for (std::size_t t = 0; t < graph.size(); ++t) {
    runtime::TraceEvent e;
    e.task = static_cast<std::int32_t>(t);
    e.op = graph.task(static_cast<dag::task_id>(t)).op;
    e.device = 0;
    e.worker = static_cast<std::int32_t>(t % 2);
    e.start_s = 1e-3 * static_cast<double>(t);
    e.end_s = e.start_s + 1e-4;
    events.push_back(e);
  }

  TraceLog log;
  append_task_events(log, events, graph, 32, /*pid=*/3, /*offset_s=*/1.0);
  const Json doc = parse_log(log);
  const auto& out = doc.find("traceEvents")->items();
  ASSERT_EQ(out.size(), graph.size());

  const Json& first = out[0];
  EXPECT_EQ(first.find("name")->as_string(),
            dag::op_name(graph.task(0).op));
  EXPECT_EQ(first.find("pid")->as_number(), 3);
  EXPECT_EQ(first.find("tid")->as_number(), 1 + 0);  // 1 + worker
  EXPECT_EQ(out[1].find("tid")->as_number(), 1 + 1);
  // Offset shifts run-relative time onto the caller's clock (1 s -> us).
  EXPECT_DOUBLE_EQ(first.find("ts")->as_number(), 1.0e6);
  const Json* args = first.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("task")->as_number(), 0);
  const double expect_gflops =
      task_flops(graph.task(0).op, 32) / 1e-4 * 1e-9;
  EXPECT_NEAR(args->find("gflops")->as_number(), expect_gflops,
              1e-9 * expect_gflops);
  // The category is the paper step of the kernel.
  const std::string cat = first.find("cat")->as_string();
  EXPECT_EQ(cat, dag::step_name(dag::step_of(graph.task(0).op)));
}

}  // namespace
}  // namespace tqr::obs

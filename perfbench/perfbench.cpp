// perfbench — the repository's service benchmark.
//
// End-to-end run (--trace 0): one generator thread drives svc::QrService,
// built with its default ServiceConfig, in a closed loop over a pool of
// matrices generated from --seed before any timing starts, and reports
//   gflops           la::flops_qr of every ok problem / timed wall time
//   latency_p50_ms   median submit -> future-ready time (own timestamps)
//   latency_tail_ms  highest whole percentile with >= 10 samples above it
//   setup_s          median over several set-ups of service construction
//                    through the end of warm-up
//   rss_mb           peak resident set of the process
//
// Traced run (--trace 1): the same workload, half the window untraced and
// half with per-job spans (their gflops difference is the tracing
// overhead), followed by timed calls into each layer's public functions on
// the workload's representative job: la tile kernels, dag::
// build_tiled_qr_graph, core::Plan / sequential replay / BatchedQr,
// runtime::DagExecutor, the service's own job breakdown, and a one-node
// cluster::Cluster.
//
// Every R the service or a replay returns is checked against its input:
// ||R^T R - A^T A||_F / ||A||_F^2 within la::verify_tolerance. The last line
// of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload large_square --seed 1 --seconds 10 --trace 0
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/batched_qr.hpp"
#include "core/plan.hpp"
#include "core/tiled_qr.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "la/blas.hpp"
#include "la/checks.hpp"
#include "la/flops.hpp"
#include "la/microkernel.hpp"
#include "la/tiled_matrix.hpp"
#include "runtime/dag_executor.hpp"
#include "svc/qr_service.hpp"

namespace tqr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  TQR_REQUIRE(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Calls f() at least min_reps times and until min_s seconds have passed
/// (at most max_reps times); returns each call's seconds.
template <typename F>
std::vector<double> repeat(F f, int min_reps, double min_s, int max_reps) {
  std::vector<double> s;
  const auto t0 = Clock::now();
  while (static_cast<int>(s.size()) < max_reps &&
         (static_cast<int>(s.size()) < min_reps || seconds_since(t0) < min_s)) {
    const auto t = Clock::now();
    f();
    s.push_back(seconds_since(t));
  }
  return s;
}

// ------------------------------------------------------------- workloads

struct JobKind {
  la::index_t rows, cols;
  int tile;   // JobSpec::tile_size
  int batch;  // JobSpec::batch size; 0 = single-matrix job
  int count;  // jobs of this kind in one pass over the pool
};

struct Workload {
  std::string name;
  /// kinds[0] is the representative job the traced layers replay.
  std::vector<JobKind> kinds;
  int in_flight;    // jobs outstanding in the closed loop
  int warmup_jobs;  // jobs run by each set-up after construction
  int setups;       // set-ups per run; setup_s is their median
};

/// The three workloads; `tiny` shrinks every shape for the self-test.
Workload find_workload(const std::string& name, bool tiny) {
  // Time to solution of one big factorization on an idle service: the
  // executor and the update kernels (ttmqr/tsmqr) do almost all the work.
  if (name == "large_square")
    return tiny ? Workload{name, {{128, 128, 32, 0, 2}}, 1, 2, 3}
                : Workload{name, {{1024, 1024, 128, 0, 4}}, 1, 3, 5};
  // A 64x2 tile grid: the panel and elimination chain (geqrt/ttqrt/tsqrt)
  // does most of the work, and four jobs contend for the lanes.
  if (name == "tall_skinny")
    return tiny ? Workload{name, {{512, 64, 32, 0, 4}}, 4, 8, 3}
                : Workload{name, {{8192, 256, 128, 0, 8}}, 4, 8, 5};
  // Small single-matrix and batched jobs: per-job fixed costs (admission,
  // plan-cache hit, workspace lease, pack/unpack) and the batched engine
  // dominate; the tile kernels and the DAG do little.
  if (name == "small_mixed") {
    const int batch = tiny ? 8 : 64;
    return Workload{name,
                    {{128, 128, 32, 0, 8},
                     {256, 64, 32, 0, 8},
                     {16, 16, 32, batch, 8},
                     {32, 32, 32, batch, 8}},
                    4,
                    tiny ? 32 : 256,
                    tiny ? 3 : 5};
  }
  throw InvalidArgument("unknown workload '" + name +
                        "' (large_square | tall_skinny | small_mixed)");
}

std::string describe(const Workload& wl) {
  std::string s;
  for (const JobKind& k : wl.kinds) {
    if (!s.empty()) s += ", ";
    s += std::to_string(k.count) + "x ";
    if (k.batch > 0) s += "batch " + std::to_string(k.batch) + " of ";
    s += std::to_string(k.rows) + "x" + std::to_string(k.cols) + " tile " +
         std::to_string(k.tile);
  }
  return s + "; " + std::to_string(wl.in_flight) + " in flight";
}

// ---------------------------------------------------------------- inputs

struct Entry {
  int kind = 0;
  la::Matrix<double> a;                   // single-matrix job input
  std::vector<la::Matrix<double>> batch;  // batched job inputs
  double flops = 0;                       // la::flops_qr over its problems
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  std::uint64_t s =
      seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xD1B54A32D192ED03ull);
  return splitmix64(s);
}

la::Matrix<double> input(const JobKind& kind, std::uint64_t seed,
                         std::size_t entry, int problem) {
  return la::Matrix<double>::random(kind.rows, kind.cols,
                                    derive_seed(seed, entry + 1, problem + 1));
}

/// The run's inputs. The kind mix is fixed and only its order is shuffled
/// by the seed, so every seed asks for the same work.
std::vector<Entry> make_pool(const Workload& wl, std::uint64_t seed) {
  std::vector<Entry> pool;
  for (std::size_t k = 0; k < wl.kinds.size(); ++k)
    for (int c = 0; c < wl.kinds[k].count; ++c) {
      pool.emplace_back();
      pool.back().kind = static_cast<int>(k);
    }
  Rng rng(derive_seed(seed, 0, 0));
  for (std::size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng.next_below(i)]);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Entry& e = pool[i];
    const JobKind& kind = wl.kinds[static_cast<std::size_t>(e.kind)];
    if (kind.batch == 0) {
      e.a = input(kind, seed, i, 0);
    } else {
      for (int p = 0; p < kind.batch; ++p)
        e.batch.push_back(input(kind, seed, i, p));
    }
    e.flops = std::max(kind.batch, 1) * la::flops_qr(kind.rows, kind.cols);
  }
  return pool;
}

svc::JobSpec make_spec(const Entry& e, const Workload& wl) {
  svc::JobSpec spec;
  spec.tile_size = wl.kinds[static_cast<std::size_t>(e.kind)].tile;
  if (e.batch.empty())
    spec.a = e.a;
  else
    spec.batch = e.batch;
  return spec;
}

// ---------------------------------------------------------- output check

/// R is cols x cols, finite, upper triangular, and
/// ||R^T R - A^T A||_F / ||A||_F^2 <= la::verify_tolerance(max(m, n)).
bool r_is_correct(const la::Matrix<double>& a, const la::Matrix<double>& r) {
  const la::index_t n = a.cols();
  if (r.rows() != n || r.cols() != n) return false;
  if (!la::all_finite<double>(r.view()) ||
      la::lower_triangle_residual<double>(r.view()) != 0)
    return false;
  la::Matrix<double> g(n, n);
  la::gemm<double>(la::Trans::kTrans, la::Trans::kNoTrans, 1.0, a.view(),
                   a.view(), 0.0, g.view());
  la::gemm<double>(la::Trans::kTrans, la::Trans::kNoTrans, -1.0, r.view(),
                   r.view(), 1.0, g.view());
  const double an = la::norm_frobenius<double>(a.view());
  const double err = la::norm_frobenius<double>(g.view()) / (an * an);
  return err <= la::verify_tolerance<double>(std::max(a.rows(), n));
}

/// Checks every R the service returns. R is a deterministic function of the
/// input (a fixed task graph of fixed kernels), so the first R returned for
/// each pool entry is kept and checked after the timed window, and every
/// later R is compared with it bit for bit as it arrives; an R that differs
/// is checked on its own at once.
class OutputCheck {
 public:
  explicit OutputCheck(const std::vector<Entry>& pool)
      : pool_(pool), first_(pool.size()), covered_(pool.size(), 0) {}

  /// Takes one ok job's factors (its R, or one R per batch member).
  /// Returns false when they are already known to be wrong.
  bool add(std::size_t entry, std::vector<la::Matrix<double>> rs) {
    std::vector<la::Matrix<double>>& first = first_[entry];
    if (first.empty()) {
      first = std::move(rs);
      ++covered_[entry];
      return true;
    }
    if (same_bits(first, rs)) {
      ++covered_[entry];
      return true;
    }
    ++divergent_;
    return all_correct(entry, rs);
  }

  /// Checks the kept factors; returns how many jobs they cover that failed.
  std::uint64_t finish() const {
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < first_.size(); ++i)
      if (!first_[i].empty() && !all_correct(i, first_[i]))
        failed += covered_[i];
    return failed;
  }

  std::uint64_t divergent() const { return divergent_; }

 private:
  static bool same_bits(const std::vector<la::Matrix<double>>& x,
                        const std::vector<la::Matrix<double>>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t p = 0; p < x.size(); ++p) {
      if (x[p].rows() != y[p].rows() || x[p].cols() != y[p].cols())
        return false;
      const std::size_t bytes = static_cast<std::size_t>(x[p].rows()) *
                                x[p].cols() * sizeof(double);
      if (bytes && std::memcmp(x[p].data(), y[p].data(), bytes) != 0)
        return false;
    }
    return true;
  }

  bool all_correct(std::size_t entry,
                   const std::vector<la::Matrix<double>>& rs) const {
    const Entry& e = pool_[entry];
    const std::size_t problems = e.batch.empty() ? 1 : e.batch.size();
    if (rs.size() != problems) return false;
    for (std::size_t p = 0; p < problems; ++p)
      if (!r_is_correct(e.batch.empty() ? e.a : e.batch[p], rs[p]))
        return false;
    return true;
  }

  const std::vector<Entry>& pool_;
  std::vector<std::vector<la::Matrix<double>>> first_;
  std::vector<std::uint64_t> covered_;  // jobs whose R matched first_
  std::uint64_t divergent_ = 0;
};

// -------------------------------------------------- service load loop

/// One traced job: the service's own split of its time.
struct Span {
  int kind;
  double queue_s, exec_s, total_s;
};

/// One thread per outstanding job blocks on the job's future and stamps the
/// moment it becomes ready, so a job that finishes out of order is timed as
/// exactly as the oldest one, without the generator polling.
class Waiters {
 public:
  struct Job {
    std::size_t entry;
    Clock::time_point submitted;
    std::future<svc::JobResult> future;
  };
  struct Done {
    std::size_t entry;
    Clock::time_point submitted, ready;
    svc::JobResult result;
  };

  explicit Waiters(int threads) {
    for (int i = 0; i < threads; ++i) threads_.emplace_back([this] { loop(); });
  }
  ~Waiters() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Waiters(const Waiters&) = delete;
  Waiters& operator=(const Waiters&) = delete;

  void hand(Job job) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      work_.push_back(std::move(job));
    }
    work_cv_.notify_one();
  }

  /// Blocks until at least one job is ready; moves every ready one to out.
  void take(std::vector<Done>& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return !done_.empty(); });
    for (Done& d : done_) out.push_back(std::move(d));
    done_.clear();
  }

 private:
  void loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [this] { return closed_ || !work_.empty(); });
        if (work_.empty()) return;
        job = std::move(work_.front());
        work_.pop_front();
      }
      job.future.wait();
      Done d{job.entry, job.submitted, Clock::now(), {}};
      try {
        d.result = job.future.get();
      } catch (const std::exception& e) {  // counted as a failed job
        d.result.status = svc::JobStatus::kFailed;
        d.result.error = e.what();
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.push_back(std::move(d));
      }
      done_cv_.notify_one();
    }
  }

  std::mutex mutex_;  // guards work_, done_, closed_
  std::condition_variable work_cv_, done_cv_;
  std::deque<Job> work_;
  std::vector<Done> done_;
  bool closed_ = false;
  std::vector<std::thread> threads_;
};

struct Window {
  double wall_s = 0;
  double flops = 0;
  std::vector<double> latency_ms;
  bool traced = false;
  std::vector<Span> spans;  // traced windows only
  double gflops() const { return flops / wall_s * 1e-9; }
};

class Bench {
 public:
  Bench(Workload wl, std::uint64_t seed, std::int64_t corrupt_nth)
      : wl_(std::move(wl)),
        pool_(make_pool(wl_, seed)),
        check_(pool_),
        corrupt_nth_(corrupt_nth) {}

  const Workload& workload() const { return wl_; }
  const std::vector<Entry>& pool() const { return pool_; }
  svc::QrService& service() { return *service_; }
  void stop_service() { service_.reset(); }

  /// Replaces the service with a fresh one (default ServiceConfig) and
  /// warms it up; returns the seconds from construction to the end of
  /// warm-up (thread spawn, cold plans and graphs, workspace allocation).
  double setup() {
    service_.reset();
    const auto t0 = Clock::now();
    service_ = std::make_unique<svc::QrService>();
    int left = wl_.warmup_jobs;
    drive([&] { return left-- > 0; }, nullptr);
    return seconds_since(t0);
  }

  /// One timed closed-loop window: submits until `seconds` have passed,
  /// then drains; the wall time ends when the last job comes back.
  Window window(double seconds, bool traced) {
    Window w;
    w.traced = traced;
    const auto t0 = Clock::now();
    const auto last = drive([&] { return seconds_since(t0) < seconds; }, &w);
    w.wall_s = std::chrono::duration<double>(last - t0).count();
    return w;
  }

  /// Runs one job on its own through submit(spec) -> future and waits for
  /// it; returns submit -> ready seconds. The result is checked like every
  /// other.
  template <typename Submit>
  double single(std::size_t entry, Submit submit) {
    svc::JobSpec spec = make_spec(pool_[entry], wl_);
    const auto t0 = Clock::now();
    svc::JobResult r = submit(std::move(spec)).get();
    const double s = seconds_since(t0);
    record(entry, s, std::move(r), nullptr);
    return s;
  }

  /// Counts one factorization computed outside the service (a layer
  /// replay) and checks its R.
  void count_replay(const la::Matrix<double>& a, const la::Matrix<double>& r) {
    ++attempted_;
    if (!r_is_correct(a, r)) ++failed_;
  }

  std::uint64_t attempted() const { return attempted_; }
  /// Failed operations, including those whose kept R fails its check.
  std::uint64_t failed() const { return failed_ + check_.finish(); }
  std::uint64_t divergent() const { return check_.divergent(); }

 private:
  /// Closed loop on the current service: keeps wl_.in_flight jobs
  /// outstanding, cycling through the pool, until more() says stop; then
  /// drains. Returns when the last job came back.
  template <typename More>
  Clock::time_point drive(More more, Window* w) {
    Waiters waiters(wl_.in_flight);
    std::vector<Waiters::Done> done;
    int outstanding = 0;
    bool open = true;
    Clock::time_point last = Clock::now();
    auto refill = [&] {
      while (open && outstanding < wl_.in_flight) {
        if (!more()) {
          open = false;
          break;
        }
        const std::size_t entry = next_++ % pool_.size();
        svc::JobSpec spec = make_spec(pool_[entry], wl_);
        const auto t = Clock::now();
        waiters.hand({entry, t, service_->submit(std::move(spec))});
        ++outstanding;
      }
    };
    for (refill(); outstanding > 0;) {
      waiters.take(done);
      outstanding -= static_cast<int>(done.size());
      refill();  // keep the service busy while the results are checked
      for (Waiters::Done& d : done) {
        last = std::max(last, d.ready);
        record(d.entry, std::chrono::duration<double>(d.ready - d.submitted)
                            .count(),
               std::move(d.result), w);
      }
      done.clear();
    }
    return last;
  }

  void record(std::size_t entry, double latency_s, svc::JobResult r,
              Window* w) {
    ++attempted_;
    const Entry& e = pool_[entry];
    const bool batched = !e.batch.empty();
    bool ok = r.status == svc::JobStatus::kOk &&
              (!batched || r.problems_ok == r.problems);
    if (ok) {
      std::vector<la::Matrix<double>> rs;
      if (batched)
        rs = std::move(r.batch_r);
      else
        rs.push_back(std::move(r.r));
      if (!rs.empty() && rs.front().rows() > 0 &&
          static_cast<std::int64_t>(++ok_jobs_) == corrupt_nth_)
        rs.front()(0, 0) += 1.0;  // self-test: a deliberately wrong R
      ok = check_.add(entry, std::move(rs));
    }
    if (!ok) ++failed_;
    if (w == nullptr) return;
    w->latency_ms.push_back(latency_s * 1e3);
    if (ok) w->flops += e.flops;
    if (w->traced)
      w->spans.push_back({e.kind, r.queue_s, r.exec_s, r.total_s});
  }

  Workload wl_;
  std::vector<Entry> pool_;
  OutputCheck check_;
  std::int64_t corrupt_nth_;
  std::unique_ptr<svc::QrService> service_;
  std::size_t next_ = 0;  // next pool entry to submit
  std::uint64_t attempted_ = 0, failed_ = 0, ok_jobs_ = 0;
};

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    TQR_REQUIRE(std::isfinite(m.value), "metric " + m.name + " is not finite");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

// ------------------------------------------------------ end-to-end run

struct Tail {
  double value_ms;
  int percentile;
  std::size_t beyond;  // samples above the percentile
};

/// The highest whole percentile (nearest rank) that leaves at least ten
/// samples above it; none below p50.
std::optional<Tail> tail_latency(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const std::size_t n = ms.size();
  for (int p = 99; p >= 50; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    if (rank == 0) break;
    if (n - rank >= 10) return Tail{ms[rank - 1], p, n - rank};
  }
  return std::nullopt;
}

std::vector<Metric> end_to_end(Bench& bench, double seconds) {
  const Workload& wl = bench.workload();
  std::vector<double> setups;
  for (int i = 0; i < wl.setups; ++i) setups.push_back(bench.setup());
  const Window w = bench.window(seconds, false);
  bench.stop_service();

  const double p50 = median(w.latency_ms);
  const std::optional<Tail> tail = tail_latency(w.latency_ms);
  // Tail guard: a tail below the median means too few samples.
  if (!tail || tail->value_ms < p50)
    throw Error("latency tail undefined: " +
                std::to_string(w.latency_ms.size()) +
                " samples leave no percentile >= p50 with 10 samples above "
                "it; lengthen --seconds");
  std::printf("window: %zu jobs in %.3f s\n", w.latency_ms.size(), w.wall_s);
  std::printf("latency_tail_ms is p%d: %zu samples, %zu above it\n",
              tail->percentile, w.latency_ms.size(), tail->beyond);
  std::printf("setup_s is the median of %d set-ups of %d warm-up jobs:",
              wl.setups, wl.warmup_jobs);
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  return {{"gflops", w.gflops(), "GFLOP/s"},
          {"latency_p50_ms", p50, "ms"},
          {"latency_tail_ms", tail->value_ms, "ms"},
          {"setup_s", median(setups), "s"},
          {"rss_mb", peak_rss_mb(), "MB"}};
}

// ----------------------------------------------------------- traced run

constexpr dag::Op kQrOps[] = {dag::Op::kGeqrt, dag::Op::kUnmqr,
                              dag::Op::kTsqrt, dag::Op::kTsmqr,
                              dag::Op::kTtqrt, dag::Op::kTtmqr};
constexpr int kNumQrOps = 6;
// Replays index per-op totals by the Op value.
static_assert(static_cast<int>(dag::Op::kTtmqr) == kNumQrOps - 1);

const char* op_key(dag::Op op) {
  switch (op) {
    case dag::Op::kGeqrt: return "geqrt";
    case dag::Op::kUnmqr: return "unmqr";
    case dag::Op::kTsqrt: return "tsqrt";
    case dag::Op::kTsmqr: return "tsmqr";
    case dag::Op::kTtqrt: return "ttqrt";
    case dag::Op::kTtmqr: return "ttmqr";
    default: return "?";
  }
}

double op_flops(dag::Op op, la::index_t b) {
  switch (op) {
    case dag::Op::kGeqrt: return la::flops_geqrt(b);
    case dag::Op::kUnmqr: return la::flops_unmqr(b);
    case dag::Op::kTsqrt: return la::flops_tsqrt(b);
    case dag::Op::kTsmqr: return la::flops_tsmqr(b);
    case dag::Op::kTtqrt: return la::flops_ttqrt(b);
    case dag::Op::kTtmqr: return la::flops_ttmqr(b);
    default: return 0;
  }
}

/// Fresh tile storage for one factorization of the padded input.
struct Tiles {
  la::TiledMatrix<double> a, tg, te;
  Tiles(const la::Matrix<double>& padded, la::index_t b)
      : a(la::TiledMatrix<double>::from_dense(padded, b)),
        tg(padded.rows(), padded.cols(), b),
        te(padded.rows(), padded.cols(), b) {}
  /// Leading n x n R (the identity pad keeps it equal to R of the input).
  la::Matrix<double> r(la::index_t n) const {
    la::Matrix<double> out(n, n);
    for (la::index_t j = 0; j < n; ++j)
      for (la::index_t i = 0; i <= j; ++i) out(i, j) = a.at(i, j);
    return out;
  }
};

/// Per-op kernel time of one sequential replay in graph order.
struct Replay {
  double wall_s = 0;
  double busy_s[kNumQrOps] = {};
  double flops[kNumQrOps] = {};
  int calls[kNumQrOps] = {};
};

/// The representative job as every layer sees it.
struct Job {
  const la::Matrix<double>& a;
  la::Matrix<double> padded;
  la::index_t b;
};

std::vector<Replay> replay_sequential(Bench& bench, const Job& job,
                                      const dag::TaskGraph& graph,
                                      la::index_t ib) {
  std::vector<Replay> reps;
  repeat(
      [&] {
        Tiles t(job.padded, job.b);
        Replay rep;
        const auto t0 = Clock::now();
        for (const dag::Task& task : graph.tasks()) {
          const auto s = Clock::now();
          core::execute_task<double>(task, t.a, t.tg, t.te, ib);
          const int o = static_cast<int>(task.op);
          rep.busy_s[o] += seconds_since(s);
          rep.flops[o] += op_flops(task.op, job.b);
          ++rep.calls[o];
        }
        rep.wall_s = seconds_since(t0);
        bench.count_replay(job.a, t.r(job.a.cols()));
        reps.push_back(rep);
      },
      3, 0.3, 50);
  return reps;
}

double gemm_packed_gflops(la::index_t b, std::uint64_t seed) {
  const la::Matrix<double> x = la::Matrix<double>::random(b, b, seed);
  const la::Matrix<double> y = la::Matrix<double>::random(b, b, seed + 1);
  la::Matrix<double> z(b, b);
  const double flops = 2.0 * b * b * b;
  const int calls = std::max(1, static_cast<int>(2e8 / flops));
  const std::vector<double> s = repeat(
      [&] {
        for (int c = 0; c < calls; ++c)
          la::mk::gemm_packed<double>(la::Trans::kNoTrans, la::Trans::kNoTrans,
                                      1.0, x.view(), y.view(), 0.0, z.view());
      },
      5, 0.3, 1000);
  return flops * calls / median(s) * 1e-9;
}

void add(std::vector<Metric>& m, std::string name, double value,
         std::string unit) {
  m.push_back({std::move(name), value, std::move(unit)});
}

std::vector<Metric> traced(Bench& bench, double seconds, std::uint64_t seed) {
  const Workload& wl = bench.workload();
  const std::vector<Entry>& pool = bench.pool();
  std::size_t rep_entry = 0;
  while (pool[rep_entry].kind != 0) ++rep_entry;
  const JobKind& kind = wl.kinds[0];
  const la::index_t b = kind.tile;
  const svc::ServiceConfig defaults;
  const dag::Elimination elim = svc::JobSpec{}.elim;
  const la::index_t ib = defaults.inner_block;
  const Job job{pool[rep_entry].a,
                la::pad_to_tiles<double>(pool[rep_entry].a.view(), b), b};
  const std::int32_t mt = job.padded.rows() / b, nt = job.padded.cols() / b;
  const int workers =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // --- svc: the workload untraced, then traced; then the job on its own.
  bench.setup();
  const Window plain = bench.window(seconds / 2, false);
  const Window spans = bench.window(seconds / 2, true);
  const double overhead = (plain.gflops() - spans.gflops()) / plain.gflops();
  std::vector<double> queue, exec, other;
  for (const Span& s : spans.spans) {
    if (s.kind != 0) continue;
    queue.push_back(s.queue_s * 1e3);
    exec.push_back(s.exec_s * 1e3);
    other.push_back((s.total_s - s.queue_s - s.exec_s) * 1e3);
  }
  TQR_REQUIRE(!exec.empty(), "traced window ran no representative job");
  const sim::Platform platform = bench.service().platform();
  const obs::Registry::Snapshot snap = bench.service().metrics();
  const double hit_rate = snap.gauges.at("plan_cache.hit_rate");
  const double ws_alloc =
      static_cast<double>(snap.counters.at("workspace.allocated"));
  const double ws_reused =
      static_cast<double>(snap.counters.at("workspace.reused"));

  // --- cluster: the same job through a one-node cluster, alternating with
  // the bare service so both see the same machine state.
  std::vector<double> svc_total, cl_total;
  {
    cluster::ClusterConfig cc;
    cc.nodes = 1;
    cluster::Cluster cl(cc);
    auto via_service = [&](svc::JobSpec spec) {
      return bench.service().submit(std::move(spec));
    };
    auto via_cluster = [&](svc::JobSpec spec) {
      return cl.submit(std::move(spec)).future;
    };
    bench.single(rep_entry, via_cluster);  // cold plan and workspace
    const auto t0 = Clock::now();
    while (svc_total.size() < 5 ||
           (seconds_since(t0) < 1.0 && svc_total.size() < 200)) {
      svc_total.push_back(bench.single(rep_entry, via_service) * 1e3);
      cl_total.push_back(bench.single(rep_entry, via_cluster) * 1e3);
    }
  }
  bench.stop_service();

  // --- dag
  const std::vector<double> build_s = repeat(
      [&] { dag::build_tiled_qr_graph(mt, nt, elim); }, 5, 0.1, 10000);
  const dag::TaskGraph graph = dag::build_tiled_qr_graph(mt, nt, elim);

  // --- core: plan on the service platform, exactly as the service builds it.
  core::PlanConfig pcfg;
  pcfg.tile_size = b;
  pcfg.element_bytes = sizeof(double);
  pcfg.elim = elim;
  pcfg.inner_block = ib;
  const std::vector<double> plan_s = repeat(
      [&] { core::Plan(platform, mt, nt, pcfg); }, 5, 0.1, 10000);
  const core::Plan plan(platform, mt, nt, pcfg);

  // --- la: every call of a sequential replay timed. Ops the default
  // elimination tree never calls are timed on the other flat tree's graph.
  const std::vector<Replay> seq = replay_sequential(bench, job, graph, ib);
  const dag::Elimination other_elim =
      dag::uses_tt_kernels(elim) ? dag::Elimination::kTs : dag::Elimination::kTt;
  const std::vector<Replay> alt = replay_sequential(
      bench, job, dag::build_tiled_qr_graph(mt, nt, other_elim), ib);
  std::vector<double> seq_wall;
  for (const Replay& r : seq) seq_wall.push_back(r.wall_s);
  const double seq_ms = median(seq_wall) * 1e3;
  const double gemm_gflops = gemm_packed_gflops(b, derive_seed(seed, 7, 7));

  // --- runtime: one device group of `workers` threads, kernels timed.
  runtime::ExecCounters counters;
  runtime::DagExecutor::Options opt;
  opt.num_devices = 1;
  opt.threads_per_device = {workers};
  opt.counters = &counters;
  std::vector<double> makespan, busy, steals, parks;
  {
    runtime::DagExecutor exec_engine(opt);
    const auto t0 = Clock::now();
    while (makespan.size() < 5 ||
           (seconds_since(t0) < 0.5 && makespan.size() < 200)) {
      Tiles t(job.padded, b);
      std::atomic<std::int64_t> busy_ns{0};
      const std::uint64_t s0 = counters.steals.load();
      const std::uint64_t p0 = counters.parks.load();
      makespan.push_back(exec_engine.execute(
          graph, [](dag::task_id, const dag::Task&) { return 0; },
          [&](dag::task_id, const dag::Task& task, int) {
            const auto s = Clock::now();
            core::execute_task<double>(task, t.a, t.tg, t.te, ib);
            busy_ns.fetch_add(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - s)
                    .count(),
                std::memory_order_relaxed);
          }));
      busy.push_back(static_cast<double>(busy_ns.load()) * 1e-9);
      steals.push_back(static_cast<double>(counters.steals.load() - s0));
      parks.push_back(static_cast<double>(counters.parks.load() - p0));
      bench.count_replay(job.a, t.r(job.a.cols()));
    }
  }
  const double makespan_ms = median(makespan) * 1e3;
  const double busy_ms = median(busy) * 1e3;

  // --- core.batched: the small_mixed batch shape (64 problems of 32x32),
  // taken from the pool when the workload has it.
  std::vector<la::Matrix<double>> problems;
  for (const Entry& e : pool)
    if (!e.batch.empty() && e.batch.front().rows() == 32) {
      problems = e.batch;
      break;
    }
  if (problems.empty())
    for (int p = 0; p < 64; ++p)
      problems.push_back(input({32, 32, 32, 64, 1}, seed, 1u << 20, p));
  std::optional<core::BatchedQr<double>> batched;
  const std::vector<double> batch_s = repeat(
      [&] { batched = core::BatchedQr<double>::factor(problems); }, 5, 0.3,
      100000);
  for (la::index_t p = 0; p < batched->problems(); ++p)
    bench.count_replay(problems[static_cast<std::size_t>(p)], batched->r(p));

  // --- report
  std::printf("trace overhead: untraced %.4f GFLOP/s, traced %.4f GFLOP/s, "
              "relative difference %+.2f%%\n",
              plain.gflops(), spans.gflops(), overhead * 100.0);
  std::printf("representative job: %dx%d tile %d, %s elimination, %d "
              "workers\n",
              kind.rows, kind.cols, b, dag::elimination_name(elim), workers);
  std::vector<Metric> m;
  for (dag::Op op : kQrOps) {
    const int o = static_cast<int>(op);
    const std::vector<Replay>& src = seq.front().calls[o] > 0 ? seq : alt;
    std::vector<double> op_busy;
    for (const Replay& r : src) op_busy.push_back(r.busy_s[o]);
    const double busy_s = median(op_busy);
    const std::string key = std::string("la.") + op_key(op);
    add(m, key + ".busy_ms", busy_s * 1e3, "ms");
    add(m, key + ".gflops", src.front().flops[o] / busy_s * 1e-9, "GFLOP/s");
  }
  add(m, "la.gemm_packed.gflops", gemm_gflops, "GFLOP/s");
  add(m, "dag.tasks", static_cast<double>(graph.size()), "count");
  add(m, "dag.edges", static_cast<double>(graph.edge_count()), "count");
  add(m, "dag.build_ms", median(build_s) * 1e3, "ms");
  add(m, "core.plan_ms", median(plan_s) * 1e3, "ms");
  add(m, "core.plan.devices", static_cast<double>(plan.participants().size()),
      "count");
  add(m, "core.seq_ms", seq_ms, "ms");
  add(m, "core.batched.factor_ms", median(batch_s) * 1e3, "ms");
  add(m, "core.batched.problems_per_s",
      static_cast<double>(problems.size()) / median(batch_s), "1/s");
  add(m, "runtime.makespan_ms", makespan_ms, "ms");
  add(m, "runtime.busy_ms", busy_ms, "ms");
  add(m, "runtime.idle_ms", workers * makespan_ms - busy_ms, "ms");
  add(m, "runtime.efficiency", busy_ms / (workers * makespan_ms), "ratio");
  add(m, "runtime.speedup", seq_ms / makespan_ms, "ratio");
  add(m, "runtime.steals", median(steals), "count");
  add(m, "runtime.parks", median(parks), "count");
  const double exec_ms = median(exec);
  add(m, "svc.queue_ms", median(queue), "ms");
  add(m, "svc.exec_ms", exec_ms, "ms");
  add(m, "svc.other_ms", median(other), "ms");
  add(m, "svc.exec_vs_direct", exec_ms / makespan_ms, "ratio");
  add(m, "svc.plan_cache.hit_rate", hit_rate, "ratio");
  add(m, "svc.workspace.reuse_rate", ws_reused / (ws_alloc + ws_reused),
      "ratio");
  add(m, "svc.roofline_frac", plain.gflops() / (workers * gemm_gflops),
      "ratio");
  const double cl_ms = median(cl_total);
  add(m, "cluster.total_ms", cl_ms, "ms");
  add(m, "cluster.overhead_ms", cl_ms - median(svc_total), "ms");
  return m;
}

int run(int argc, char** argv) {
  Cli cli;
  cli.flag("workload", "large_square | tall_skinny | small_mixed")
      .flag("seed", "seed the inputs are generated from", "1")
      .flag("seconds", "length of the timed window", "10")
      .flag("trace", "0: end-to-end metrics, 1: per-layer metrics", "0")
      .flag("tiny", "shrink every shape (self-test)")
      .flag("corrupt", "corrupt the R of the N-th ok job (self-test)", "0");
  if (!cli.parse(argc, argv)) return 0;
  const bool tiny = cli.get_bool("tiny", false);
  const Workload wl = find_workload(cli.get_string("workload", ""), tiny);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10);
  const std::int64_t trace = cli.get_int("trace", 0);
  TQR_REQUIRE(seconds > 0 && seconds <= 120, "--seconds must be in (0, 120]");
  TQR_REQUIRE(trace == 0 || trace == 1, "--trace must be 0 or 1");

  std::printf("workload %s: %s; seed %llu; %u hardware threads\n",
              wl.name.c_str(), describe(wl).c_str(),
              static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency());
  Bench bench(wl, seed, cli.get_int("corrupt", 0));
  const std::vector<Metric> metrics =
      trace ? traced(bench, seconds, seed) : end_to_end(bench, seconds);

  const std::uint64_t failed = bench.failed();
  std::string layer;
  for (const Metric& m : metrics) {
    if (trace) {
      const std::string l = m.name.substr(0, m.name.find('.'));
      if (l != layer) std::printf("[%s] %s\n", l.c_str(), wl.name.c_str());
      layer = l;
    }
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed (%llu R factors "
              "checked on their own)\n",
              static_cast<unsigned long long>(bench.attempted()),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(bench.divergent()));
  print_result(bench.attempted(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tqr::perfbench

int main(int argc, char** argv) {
  try {
    return tqr::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

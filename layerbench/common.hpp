// Shared plumbing of the layer-attributed benchmark: arguments, the
// result record every workload fills, sample statistics, the
// benchmark-owned span recorder, and the cut oracle.
//
// Spans are recorded only by this benchmark's own code, around its
// calls into each library layer's public functions; nothing under src/
// is instrumented. Where a layer's internal calls cannot be wrapped
// from outside (Wishbone::compile profiles, pins, formulates and
// solves internally), the benchmark replays those public calls on the
// same inputs right after the wrapped call and records them as its
// children, so a span's self time is its duration minus the durations
// of its (nested or replayed) children.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ilp/branch_and_bound.hpp"
#include "partition/partitioner.hpp"
#include "partition/problem.hpp"
#include "partition/rate_search.hpp"

namespace layerbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double now_s();

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint32_t seed = 7;
  double seconds = 12.0;
  bool trace = false;
  std::string repo_root = ".";  ///< where bench/results/ lives
  std::string out_dir = ".";    ///< where the span file is written
  /// compile_catalog: write the run's outcomes here instead of checking
  /// them against expected/ (to re-record after an intended change).
  std::string record_expected;
};

/// The default seed: the EEG trace seed of apps::EegConfig{}, under
/// which the Fig. 6 reference snapshot and expected/ were recorded.
inline constexpr std::uint32_t kDefaultSeed = 7;

/// What one run reports: operations attempted and failed (a run is
/// correct when none failed) plus named metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics) {
      if (m.first == name) {
        m.second = {value, unit};
        return;
      }
    }
    metrics.push_back({name, {value, unit}});
  }

  /// Counts one failed operation; the first few reasons go to stderr.
  void fail(const std::string& why) {
    ++failed;
    if (failed <= 8) std::fprintf(stderr, "layerbench: FAILED: %s\n", why.c_str());
  }
};

// ------------------------------------------------------------ statistics

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double percentile(std::vector<double> xs, double p);
inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0);
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Moves the calling thread to the next CPU of the process's original
/// affinity set, round robin. On a shared host each core runs at the
/// speed its hardware siblings leave it, and that changes by up to ~1.7x
/// from core to core and second to second; a single-threaded workload
/// that stays wherever the scheduler put it measures one core's luck.
/// Rotating its unit operations over every core makes each run sample
/// the same mix of cores.
void rotate_cpu();
/// Number of CPUs rotate_cpu() cycles through (1 when it cannot pin).
std::size_t rotation_cpus();
/// Lets the calling thread run on every CPU of the process's original
/// affinity set again, undoing rotate_cpu().
void unpin_cpu();

/// Runs `setup` `times` times and returns the median wall seconds; the
/// last call's state is what the workload then measures. With `rotate`
/// each call runs on the next CPU (see rotate_cpu) and the caller is
/// unpinned afterwards. A set-up that starts threads must not rotate:
/// a thread inherits its creator's affinity, so it would stay pinned.
template <typename F>
double timed_setup(int times, F&& setup, bool rotate = true) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) {
    if (rotate) rotate_cpu();
    const Clock::time_point t0 = Clock::now();
    setup();
    walls.push_back(seconds_between(t0, Clock::now()));
  }
  if (rotate) unpin_cpu();
  return median(walls);
}

/// Reports the end-to-end metrics every workload shares: the median
/// and tail of its unit operation, its throughput (operations completed
/// per second of the whole timed loop, computed by the caller), set-up
/// and memory, plus the sample count behind the median and tail as
/// obs.op_samples. `tail_p` is fixed per workload (so it cannot flip
/// between runs with the sample count): the highest percentile that
/// keeps at least ten samples beyond it at the workload's planned
/// sample count, or a lower one when a run holds too few operations for
/// any percentile to do so (README.md lists these departures).
/// With `windows` > 1 the samples (in time order) are cut into that many
/// consecutive windows and each statistic is the median of the
/// windows' values, so a burst of host noise moves one window only.
void report_end_to_end(Result& res, const char* op,
                       const std::vector<double>& op_us, double tail_p,
                       double ops_per_s, double setup_s, std::size_t windows = 1);

// ----------------------------------------------------------------- spans

struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;   ///< index of the parent span, -1 = root
  std::uint64_t request = 0;  ///< spans of one operation share this id
};

/// In-memory span recorder; written to disk once, at exit. Disabled
/// (the untraced run) it records nothing and begin() returns -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  std::int64_t begin(const char* name, std::int64_t parent = -1,
                     std::uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now_s(), 0.0, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void end(std::int64_t id) { end_at(id, now_s()); }
  void end_at(std::int64_t id, double t) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = t;
  }
  /// Records an already-timed interval.
  std::int64_t add(const char* name, double start_s, double end_s,
                   std::int64_t parent = -1, std::uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, start_s, end_s, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// Times `body` as a span and returns its result.
  template <typename F>
  auto wrap(const char* name, std::int64_t parent, std::uint64_t request,
            F&& body) {
    const std::int64_t id = begin(name, parent, request);
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      end(id);
    } else {
      auto out = body();
      end(id);
      return out;
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (seconds) of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self times (seconds) of every span called `name`: its duration
  /// minus the summed durations of its children.
  [[nodiscard]] std::vector<double> self_times(const std::string& name) const;

  /// Writes every span as one JSON object per line. Returns false on
  /// an I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Times `body` once with the steady clock; returns seconds.
template <typename F>
double time_call(F&& body) {
  const Clock::time_point t0 = Clock::now();
  body();
  return seconds_between(t0, Clock::now());
}

/// Solver work counters summed over a traced run's solves, read from
/// the results the library calls already return.
struct IlpTotals {
  double nodes = 0, iterations = 0, refactorizations = 0, eta_updates = 0,
         phase1 = 0, dual = 0, fallbacks = 0, primal_pivots = 0,
         dual_pivots = 0, rc_fixings = 0;

  void add(const wishbone::ilp::MipResult& m);
  /// A rate search's totals across all its probes (no pivot counts).
  void add(const wishbone::partition::RateSearchResult& s);
  /// Sets the ilp.* count metrics.
  void report(Result& res) const;
};

// ---------------------------------------------------------------- oracle

/// Re-checks a partition result against the problem it claims to
/// solve: one side per vertex, pins hold, every budget is met, and the
/// objective recomputed from the sides matches the reported one.
/// Returns an empty string when it holds, else the reason.
std::string check_cut(const wishbone::partition::PartitionProblem& p,
                      const wishbone::partition::PartitionResult& r);

/// Relative-or-absolute closeness used by every objective comparison.
inline bool close(double a, double b, double rel = 1e-6) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Reads the numeric array stored under `key` in a flat JSON file (the
/// bench/results snapshots). Empty when the file or key is missing.
std::vector<double> read_json_array(const std::string& path,
                                    const std::string& key);

// ------------------------------------------------------------- workloads

void run_fig6_sweep(const Args& args, Result& res, Tracer& tr);
void run_compile_catalog(const Args& args, Result& res, Tracer& tr);
void run_serve_drift(const Args& args, Result& res, Tracer& tr);
void run_stream(const Args& args, Result& res, Tracer& tr);

}  // namespace layerbench

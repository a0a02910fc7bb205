// Steady-state allocation tests: once the executor's buffer pool has
// warmed up, streaming events through a fully-local pipeline must not
// touch the heap at all. Measured with the counting global operator
// new (util/alloc_count.hpp) by comparing two runs of different length:
// any fixed per-run overhead (the sources vector, the empty result map)
// cancels out, so the difference isolates per-event allocations.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <random>
#include <vector>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "graph/frame.hpp"
#include "graph/graph.hpp"
#include "ilp/simplex.hpp"
#include "lp_generators.hpp"
#include "runtime/executor.hpp"
#include "util/alloc_count.hpp"

namespace wishbone {
namespace {

using apps::EegConfig;
using graph::Frame;
using graph::OperatorId;
using graph::Side;
using runtime::PartitionedExecutor;

/// Allocations attributable to streaming `extra` additional events:
/// runs the executor for `base` events, then `base + extra`, and
/// returns the difference in heap allocation counts between the two
/// runs. Zero means the steady state never allocates.
std::size_t per_event_allocs(
    PartitionedExecutor& ex,
    const std::map<OperatorId, std::vector<Frame>>& traces,
    std::size_t base, std::size_t extra) {
  const std::size_t a0 = util::allocation_count();
  ex.run(traces, base);
  const std::size_t a1 = util::allocation_count();
  ex.run(traces, base + extra);
  const std::size_t a2 = util::allocation_count();
  const std::size_t short_run = a1 - a0;
  const std::size_t long_run = a2 - a1;
  return long_run > short_run ? long_run - short_run : 0;
}

TEST(AllocFree, EegSteadyStateMakesZeroAllocationsPerEvent) {
  EegConfig cfg;
  cfg.channels = 3;          // full wavelet cascade, smaller fan-in
  cfg.window_samples = 256;  // keep the test fast; depth unchanged
  apps::EegApp app = apps::build_eeg_app(cfg);
  const auto traces = apps::eeg_traces(app, 130);

  // All operators on the node: no cut edges, so nothing marshals.
  PartitionedExecutor ex(app.g,
                         std::vector<Side>(app.g.num_operators(),
                                           Side::kNode));
  ex.set_collect_sink_output(false);

  // Warm up pools, FIFOs, and plan caches (join operators reach their
  // steady ring occupancy only after the cascade's pipeline fills).
  ex.run(traces, 30);

  EXPECT_EQ(per_event_allocs(ex, traces, 20, 80), 0u);
}

TEST(AllocFree, SpeechSteadyStateMakesZeroAllocationsPerEvent) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 130);

  PartitionedExecutor ex(app.g,
                         std::vector<Side>(app.g.num_operators(),
                                           Side::kNode));
  ex.set_collect_sink_output(false);

  // First run populates the FFT/DCT plan caches and the buffer pool.
  ex.run(traces, 30);

  EXPECT_EQ(per_event_allocs(ex, traces, 20, 80), 0u);
}

// The LP solver's steady state: warm re-solves after bound edits —
// branch and bound's node loop — allocate nothing but the solution
// vector each optimal LpSolution hands back by value, even as the eta
// file fills and the basis is refactorized again and again. The
// workspaces sized by fill-in and eta nonzeros keep their high-water
// mark; on this LP the first ~70 re-solves still raise it, so those
// run as the warm-up.
TEST(AllocFree, WarmLpResolvesAllocateOnlyTheirSolutionVectors) {
  const ilp::LinearProgram lp =
      ilp::testgen::gen_partition_shaped(7, /*integral=*/true, /*n=*/60);
  ilp::SimplexOptions opts;
  opts.engine = ilp::BasisEngineKind::kLu;
  opts.refactor_interval = 8;  // refactorize many times in the sequence
  ilp::SimplexState state(lp, opts);
  ASSERT_EQ(state.solve().status, ilp::SolveStatus::kOptimal);

  std::mt19937 rng(11);
  std::size_t iterations = 0, optimal = 0;
  const auto resolve_after_edit = [&] {
    const int v = static_cast<int>(rng() % lp.num_variables());
    const double side = static_cast<double>(rng() % 2);
    state.set_bounds(v, side, side);  // branch: fix one indicator
    const ilp::LpSolution r = state.solve();
    iterations += r.iterations;
    if (r.status == ilp::SolveStatus::kOptimal) ++optimal;
    state.set_bounds(v, 0.0, 1.0);  // back to the parent
  };
  for (int s = 0; s < 100; ++s) resolve_after_edit();  // warm-up

  iterations = optimal = 0;
  const std::size_t refactor0 = state.basis_stats().refactorizations;
  const std::uint64_t a0 = util::allocation_count();
  for (int s = 0; s < 300; ++s) resolve_after_edit();
  const std::uint64_t allocs = util::allocation_count() - a0;
  EXPECT_GT(iterations, 300u);
  EXPECT_GT(state.basis_stats().refactorizations, refactor0 + 10);
  EXPECT_EQ(allocs, optimal) << "beyond one solution vector per optimal "
                                "solve, the re-solves allocated";
}

/// Collecting sink output allocates (by design); streaming mode is the
/// allocation-free path. Guard that the flag actually switches modes.
TEST(AllocFree, CollectingSinkOutputStillWorks) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 10);
  PartitionedExecutor ex(app.g,
                         std::vector<Side>(app.g.num_operators(),
                                           Side::kNode));
  auto out = ex.run(traces, 10);
  ASSERT_EQ(out.count(app.sink), 1u);
  EXPECT_EQ(out[app.sink].size(), 10u);

  ex.set_collect_sink_output(false);
  auto out2 = ex.run(traces, 10);
  EXPECT_TRUE(out2.empty());
}

}  // namespace
}  // namespace wishbone

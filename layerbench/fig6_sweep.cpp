// fig6_sweep: the Fig. 6 solver sweep on the full 22-channel EEG
// application (1412 operators), with bench/fig6_solver_cdf.cpp's
// protocol — a 16-point linear rate sweep from "everything fits" to
// "nothing fits", CPU-only knapsack objective (alpha = 0, beta = 1)
// with the network, RAM and ROM budgets lifted — at a fixed 400-node
// branch-and-bound budget, no wall-clock cap, one B&B thread. Every
// other solver option is the library default.
//
// The unit operation is one rate point (one solve_partition call); a
// run makes whole sweeps, usually one. It reports the median point, the
// p75 point (16 points leave no percentile with ten beyond it, so the
// tail has four), and points per second of the whole timed loop, which
// is 16 over ROADMAP's sweep_s. ilp does almost all the work; serve and
// runtime do none.
#include <memory>

#include "apps/eeg.hpp"
#include "common.hpp"
#include "graph/pinning.hpp"
#include "partition/formulation.hpp"
#include "partition/preprocess.hpp"
#include "profile/platform.hpp"
#include "profile/profiler.hpp"
#include "util/alloc_count.hpp"

namespace layerbench {

using namespace wishbone;

namespace {

constexpr std::size_t kPoints = 16;
constexpr std::size_t kNodeBudget = 400;
constexpr const char* kReference =
    "/bench/results/BENCH_fig6_pr2_nodebudget_lu.json";

struct Sweep {
  apps::EegApp app;
  profile::ProfileData pd;
  graph::PinAnalysis pins;
  profile::PlatformModel plat;
  std::vector<partition::PartitionProblem> problems;
};

partition::PartitionProblem point_problem(const Sweep& s, std::size_t i) {
  const double mult =
      0.05 + 30.0 * static_cast<double>(i) / static_cast<double>(kPoints);
  partition::PartitionProblem p = partition::make_problem(
      s.app.g, s.pins, s.pd, s.plat, s.app.full_rate_events_per_sec() * mult);
  p.net_budget = 1e18;
  p.ram_budget = partition::kNoResourceBudget;
  p.rom_budget = partition::kNoResourceBudget;
  return p;
}

std::unique_ptr<Sweep> make_sweep(std::uint32_t seed) {
  apps::EegConfig cfg;
  cfg.trace_seed = seed;
  auto s = std::make_unique<Sweep>(
      Sweep{apps::build_eeg_app(cfg), {}, {}, profile::tmote_sky(), {}});
  profile::Profiler prof(s->app.g);
  s->pd = prof.run(apps::eeg_traces(s->app, 3), 3);
  s->app.g.reset_state();
  s->pins = graph::analyze_pins(s->app.g, graph::Mode::kPermissive);
  for (std::size_t i = 0; i < kPoints; ++i) {
    s->problems.push_back(point_problem(*s, i));
  }
  return s;
}

bool proved(const ilp::MipResult& m) {
  return m.status == ilp::SolveStatus::kOptimal ||
         m.status == ilp::SolveStatus::kInfeasible;
}

}  // namespace

void run_fig6_sweep(const Args& args, Result& res, Tracer& tr) {
  std::unique_ptr<Sweep> sweep;
  const double setup_s =
      timed_setup(32, [&] { sweep = make_sweep(args.seed); });
  std::printf("fig6_sweep: %zu operators, %zu points, %zu-node budget\n",
              sweep->app.g.num_operators(), kPoints, kNodeBudget);

  partition::PartitionOptions opts;
  opts.mip.max_nodes = kNodeBudget;

  std::vector<double> ref_obj, ref_proved;
  if (args.seed == kDefaultSeed) {
    ref_obj = read_json_array(args.repo_root + kReference, "objectives");
    ref_proved = read_json_array(args.repo_root + kReference, "proved");
    if (ref_obj.size() != kPoints || ref_proved.size() != kPoints) {
      res.fail(std::string("reference snapshot missing or malformed: ") +
               kReference);
    }
  }

  std::vector<double> first_obj(kPoints, 0.0), first_proved(kPoints, 0.0);
  std::vector<double> point_us;                 // untraced points
  std::vector<double> untraced_s, traced_s;     // wall of each sweep
  std::vector<double> verts_after, discover_s;
  IlpTotals ilp_tot;
  double censored = 0, allocs = 0;  // traced sweep
  // Whole sweeps only: at least one, and another only while one more of
  // average length fits in the run. A trace run makes one untraced and
  // one traced sweep, to price the tracing.
  const double t_start = now_s();
  for (std::size_t passes = 0;;) {
    const bool traced = tr.enabled() && passes == 1;
    const double sweep_start = now_s();
    for (std::size_t i = 0; i < kPoints; ++i) {
      const std::uint64_t req = passes * kPoints + i + 1;
      ++res.attempted;
      rotate_cpu();
      std::int64_t point = -1;
      partition::PartitionProblem replayed;
      const partition::PartitionProblem* prob = &sweep->problems[i];
      if (traced) {
        point = tr.begin("fig6.point", -1, req);
        replayed = tr.wrap("partition.make_problem", point, req,
                           [&] { return point_problem(*sweep, i); });
        prob = &replayed;
      }
      const std::uint64_t a0 = util::allocation_count();
      const std::int64_t solve =
          traced ? tr.begin("partition.solve_partition", point, req) : -1;
      const double t0 = now_s();
      const partition::PartitionResult r = partition::solve_partition(*prob, opts);
      const double dt = now_s() - t0;
      tr.end(solve);
      const std::uint64_t a1 = util::allocation_count();
      if (!traced) point_us.push_back(dt * 1e6);
      if (traced) {
        partition::PreprocessStats stats;
        const partition::PartitionProblem work =
            tr.wrap("partition.preprocess", solve, req,
                    [&] { return partition::preprocess(*prob, &stats); });
        tr.wrap("partition.build_ilp", solve, req, [&] {
          return partition::build_ilp(work, partition::Formulation::kRestricted);
        });
        verts_after.push_back(static_cast<double>(stats.vertices_after));
        tr.end(point);
        ilp_tot.add(r.solver);
        allocs += static_cast<double>(a1 - a0);
        if (!proved(r.solver)) censored += 1;
        if (r.solver.has_incumbent) discover_s.push_back(r.solver.time_to_best_incumbent);
      }

      if (r.solver.has_incumbent) {
        if (const std::string why = check_cut(*prob, r); !why.empty()) {
          res.fail("fig6 point " + std::to_string(i) + ": " + why);
          continue;
        }
      }
      const double obj = r.solver.has_incumbent ? r.solver.objective : -1.0;
      const double pr = proved(r.solver) ? 1.0 : 0.0;
      if (passes == 0) {
        first_obj[i] = obj;
        first_proved[i] = pr;
      } else if (obj != first_obj[i] || pr != first_proved[i]) {
        res.fail("fig6 point " + std::to_string(i) +
                 " changed between passes of one run");
        continue;
      }
      if (ref_obj.size() == kPoints &&
          (!close(obj, ref_obj[i], 1e-9) || pr != ref_proved[i])) {
        res.fail("fig6 point " + std::to_string(i) + ": objective " +
                 std::to_string(obj) + " proved " + std::to_string(pr) +
                 " vs reference " + std::to_string(ref_obj[i]) + " proved " +
                 std::to_string(ref_proved[i]));
      }
    }
    (traced ? traced_s : untraced_s).push_back(now_s() - sweep_start);
    ++passes;
    const double elapsed = now_s() - t_start;
    if (tr.enabled() ? passes == 2
                     : elapsed + elapsed / static_cast<double>(passes) >
                           args.seconds) {
      std::printf("fig6_sweep: %zu pass(es)\n", passes);
      break;
    }
  }

  double wall_s = 0;
  for (double w : untraced_s) wall_s += w;
  report_end_to_end(res, "fig6 point", point_us, 75.0,
                    static_cast<double>(point_us.size()) / wall_s, setup_s);
  if (!tr.enabled()) return;

  // Layer attribution. ilp time is solve_partition's self time: the
  // call minus its replayed preprocess and build_ilp children.
  double ilp_s = 0;
  for (double s : tr.self_times("partition.solve_partition")) ilp_s += s;
  const double iters = std::max(1.0, ilp_tot.iterations);
  ilp_tot.report(res);
  res.set("ilp.us_per_iteration", ilp_s * 1e6 / iters, "us");
  res.set("ilp.allocs_per_iteration", allocs / iters, "count");
  res.set("ilp.discover_s_p50", median(discover_s), "s");
  res.set("ilp.proofs_censored", censored, "count");
  res.set("partition.make_problem_ms",
          median(tr.durations("partition.make_problem")) * 1e3, "ms");
  res.set("partition.preprocess_ms",
          median(tr.durations("partition.preprocess")) * 1e3, "ms");
  res.set("partition.build_ilp_ms",
          median(tr.durations("partition.build_ilp")) * 1e3, "ms");
  res.set("partition.vertices_after_preprocess", median(verts_after),
          "count");
  // The traced sweep's wall includes its spans and replayed calls.
  res.set("obs.trace_overhead_share",
          median(traced_s) / median(untraced_s) - 1.0, "ratio");
}

}  // namespace layerbench

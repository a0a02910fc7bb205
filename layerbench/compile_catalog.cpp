// compile_catalog: the developer's path, core::Wishbone::compile, for
// the speech and EEG applications across the 7-platform catalog, at
// the native rate and overload multiples, with a 100-node
// branch-and-bound budget per solve. Every other compile, solver and
// rate-search option is the library default.
//
// A compile is profile, pin analysis, problem, solve, §4.3 rate search
// when the rate does not fit, and DOT. Most compiles are root-only, so
// the median compile (core.compile_ms_p50, traced run) measures the
// front end and the cold root LP; the catalog total is dominated by the
// rate-search probe chains of the overloaded small platforms. The unit
// operation is one pass over the catalog: single compiles spread from
// 0.4 ms to 2 s in clusters, so their median jumps between clusters
// with host noise, while the pass total is steady. A run holds three or
// four passes, so its tail is the slowest pass, and its throughput is
// compiles per second of the whole timed loop.
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "common.hpp"
#include "core/wishbone.hpp"
#include "graph/dot.hpp"
#include "graph/pinning.hpp"
#include "ilp/branch_and_bound.hpp"
#include "partition/formulation.hpp"
#include "partition/preprocess.hpp"
#include "partition/rate_search.hpp"
#include "profile/platform.hpp"
#include "util/alloc_count.hpp"

namespace layerbench {

using namespace wishbone;

namespace {

constexpr std::size_t kNodeBudget = 100;
constexpr std::size_t kSpeechFrames = 120;
constexpr std::size_t kEegWindows = 6;
constexpr const char* kExpected = "/layerbench/expected/compile_catalog.tsv";

struct App {
  std::string name;
  graph::Graph* g = nullptr;
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  std::size_t events = 0;
  double native_rate = 0.0;
  std::vector<double> rate_multiples;
};

struct Catalog {
  apps::SpeechApp speech;
  apps::EegApp eeg;
  std::vector<App> apps;
  std::vector<profile::PlatformModel> platforms;
};

std::unique_ptr<Catalog> make_catalog(std::uint32_t seed) {
  apps::EegConfig cfg;
  cfg.trace_seed = seed;
  auto c = std::make_unique<Catalog>(
      Catalog{apps::build_speech_app(), apps::build_eeg_app(cfg), {},
              profile::all_platforms()});
  c->apps.push_back(App{"speech", &c->speech.g,
                        apps::speech_traces(c->speech, kSpeechFrames, seed),
                        kSpeechFrames, apps::SpeechApp::kFullRateEventsPerSec,
                        {1.0, 16.0}});
  c->apps.push_back(App{"eeg", &c->eeg.g, apps::eeg_traces(c->eeg, kEegWindows),
                        kEegWindows, c->eeg.full_rate_events_per_sec(),
                        {1.0, 4.0, 16.0}});
  return c;
}

/// One compile's checkable outcome, as recorded in expected/.
struct Outcome {
  std::string key;  ///< "app platform multiple"
  int feasible_at_requested = 0;
  double partition_rate = 0.0;
  double objective = 0.0;
};

std::map<std::string, Outcome> read_expected(const std::string& path) {
  std::map<std::string, Outcome> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string app, plat, mult;
    Outcome o;
    ls >> app >> plat >> mult >> o.feasible_at_requested >> o.partition_rate >>
        o.objective;
    o.key = app + " " + plat + " " + mult;
    out[o.key] = o;
  }
  return out;
}

/// Checks one compile report: the cut against the problem it was solved
/// for, and the feasibility verdict against the requested rate.
std::string check_report(const App& app, const profile::PlatformModel& plat,
                         double rate, const core::CompileReport& rep) {
  if (rep.dot.empty()) return "empty DOT output";
  if (!rep.partition.feasible) {
    return rep.feasible_at_requested_rate ? "feasible verdict without a cut"
                                          : std::string();
  }
  if (rep.partition_rate > rate * (1.0 + 1e-12)) {
    return "cut solved above the requested rate";
  }
  const graph::PinAnalysis pins =
      graph::analyze_pins(*app.g, graph::Mode::kPermissive);
  const partition::PartitionProblem p = partition::make_problem(
      *app.g, pins, rep.profile, plat, rep.partition_rate);
  return check_cut(p, rep.partition);
}

/// What the replayed calls report.
struct Replay {
  double vertices_after = 0;
  partition::RateSearchResult search;
  ilp::MipResult mip;
  bool searched = false;
};

/// Replays the layer calls compile made, on the same inputs, as
/// children of the compile span `parent` (see common.hpp).
Replay replay_layers(const App& app, const profile::PlatformModel& plat,
                     double rate, const core::CompileOptions& copts,
                     const core::CompileReport& rep, Tracer& tr,
                     std::int64_t parent, std::uint64_t req) {
  Replay out;
  graph::Graph& g = *app.g;
  const profile::ProfileData pd = tr.wrap("profile.run", parent, req, [&] {
    profile::Profiler prof(g);
    profile::ProfileData d = prof.run(app.traces, app.events);
    g.reset_state();
    return d;
  });
  const graph::PinAnalysis pins = tr.wrap("graph.analyze_pins", parent, req, [&] {
    return graph::analyze_pins(g, copts.mode);
  });
  const partition::PartitionProblem prob =
      tr.wrap("partition.make_problem", parent, req, [&] {
        return partition::make_problem(g, pins, pd, plat, rate);
      });
  const std::int64_t solve = tr.begin("partition.solve_partition", parent, req);
  const partition::PartitionResult r =
      partition::solve_partition(prob, copts.partition);
  tr.end(solve);
  out.mip = r.solver;
  out.vertices_after = static_cast<double>(r.prep.vertices_after);
  const partition::PartitionProblem work = tr.wrap(
      "partition.preprocess", solve, req, [&] { return partition::preprocess(prob); });
  const ilp::LinearProgram model = tr.wrap("partition.build_ilp", solve, req, [&] {
    return partition::build_ilp(work, copts.partition.formulation);
  });
  // The cold root LP on its own: a one-node search, outside the tree.
  ilp::MipOptions root = copts.partition.mip;
  root.max_nodes = 1;
  tr.wrap("ilp.root_lp", -1, req, [&] { return ilp::BranchAndBound{}.solve(model, root); });

  if (!rep.feasible_at_requested_rate && copts.search_rate_on_overload) {
    partition::RateSearchOptions rs;
    rs.partition = copts.partition;
    rs.min_rate = rate / 4096.0;
    rs.max_rate = rate;
    rs.rel_tol = copts.rate_search_rel_tol;
    const std::int64_t search =
        tr.begin("partition.max_sustainable_rate", parent, req);
    // One problem_at call opens each probe; probes are timed from one
    // call to the next (the last one to the end of the search).
    double probe_start = -1.0;
    const auto problem_at = [&](double at) {
      const double t = now_s();
      if (probe_start >= 0.0) tr.add("partition.probe", probe_start, t, search, req);
      probe_start = t;
      return partition::make_problem(g, pins, pd, plat, at);
    };
    out.search = partition::max_sustainable_rate(problem_at, rs);
    if (probe_start >= 0.0) tr.add("partition.probe", probe_start, now_s(), search, req);
    tr.end(search);
    out.searched = true;
  }

  tr.wrap("graph.to_dot", parent, req, [&] {
    graph::DotOptions dot;
    dot.heat = pd.heat(plat);
    if (rep.partition.feasible && rep.partition.sides.size() == g.num_operators()) {
      dot.assignment = rep.partition.sides;
    }
    std::vector<std::string> labels;
    labels.reserve(g.num_edges());
    for (std::size_t ei = 0; ei < g.num_edges(); ++ei) {
      std::ostringstream l;
      l << pd.bandwidth(ei, rep.partition_rate > 0 ? rep.partition_rate : rate)
        << " B/s";
      labels.push_back(l.str());
    }
    dot.edge_labels = std::move(labels);
    dot.graph_name = "wishbone_" + plat.name;
    return graph::to_dot(g, dot);
  });
  return out;
}

}  // namespace

void run_compile_catalog(const Args& args, Result& res, Tracer& tr) {
  std::unique_ptr<Catalog> cat;
  const double setup_s =
      timed_setup(32, [&] { cat = make_catalog(args.seed); });

  core::CompileOptions copts;
  copts.partition.mip.max_nodes = kNodeBudget;

  const std::string expected_path = args.repo_root + kExpected;
  std::map<std::string, Outcome> expected;
  std::ofstream record;
  if (!args.record_expected.empty()) {
    record.open(args.record_expected);
    record << "# Expected compile_catalog outcomes at the default seed ("
           << kDefaultSeed << "), " << kNodeBudget << "-node budget.\n"
           << "# app platform rate_multiple feasible_at_requested "
              "partition_rate objective\n";
  } else if (args.seed == kDefaultSeed) {
    expected = read_expected(expected_path);
    if (expected.empty()) res.fail("expected outcomes missing: " + expected_path);
  }

  std::vector<double> pass_us;  // compile time of each untraced pass
  std::vector<double> compile_us, verts;  // traced pass
  IlpTotals ilp_tot;
  double rate_probes = 0, inherited = 0, rejected = 0;
  std::map<std::string, Outcome> first;
  std::vector<double> untraced_wall, traced_wall;  // per pass, with checks
  std::size_t untraced_ops = 0;
  const double t_start = now_s();
  // Whole catalog passes, as fig6_sweep does; a trace run makes one
  // untraced and one traced pass.
  for (std::size_t pass = 0;; ++pass) {
    const bool traced = tr.enabled() && pass == 1;
    double pass_s = 0.0;
    const double pass_start = now_s();
    std::uint64_t req = 0;
    for (const App& app : cat->apps) {
      for (const profile::PlatformModel& plat : cat->platforms) {
        for (double mult : app.rate_multiples) {
          ++req;
          ++res.attempted;
          const double rate = app.native_rate * mult;
          std::ostringstream key;
          key << app.name << " " << plat.name << " " << mult;
          rotate_cpu();
          core::Wishbone wb(*app.g, plat, copts);
          const std::int64_t span =
              traced ? tr.begin("core.compile", -1, req) : -1;
          const double t0 = now_s();
          const core::CompileReport rep = wb.compile(app.traces, app.events, rate);
          const double dt = now_s() - t0;
          tr.end(span);
          pass_s += dt;

          if (traced) {
            compile_us.push_back(dt * 1e6);
            const Replay rp =
                replay_layers(app, plat, rate, copts, rep, tr, span, req);
            verts.push_back(rp.vertices_after);
            ilp_tot.add(rp.mip);
            if (rp.searched) {
              const partition::RateSearchResult& s = rp.search;
              if (!close(s.max_rate, rep.max_sustainable_rate.value_or(-1.0), 1e-12)) {
                res.fail(key.str() + ": replayed rate search disagrees with compile");
              }
              ilp_tot.add(s);
              rate_probes += static_cast<double>(s.partitions_solved);
              inherited += static_cast<double>(s.probes_with_inherited_basis);
              rejected += static_cast<double>(s.probes_with_rejected_basis);
            }
          }

          if (const std::string why = check_report(app, plat, rate, rep);
              !why.empty()) {
            res.fail(key.str() + ": " + why);
            continue;
          }
          Outcome o{key.str(), rep.feasible_at_requested_rate ? 1 : 0,
                    rep.partition.feasible ? rep.partition_rate : 0.0,
                    rep.partition.feasible ? rep.partition.objective : -1.0};
          if (pass == 0) {
            first[o.key] = o;
            if (record.is_open()) {
              char line[256];
              std::snprintf(line, sizeof line, "%s %d %.17g %.17g\n",
                            o.key.c_str(), o.feasible_at_requested,
                            o.partition_rate, o.objective);
              record << line;
            }
          } else if (first[o.key].objective != o.objective ||
                     first[o.key].partition_rate != o.partition_rate) {
            res.fail(o.key + ": outcome changed between passes of one run");
            continue;
          }
          if (!expected.empty()) {
            const auto it = expected.find(o.key);
            if (it == expected.end()) {
              res.fail(o.key + ": no expected outcome");
            } else if (it->second.feasible_at_requested != o.feasible_at_requested ||
                       !close(it->second.partition_rate, o.partition_rate, 1e-9) ||
                       !close(it->second.objective, o.objective, 1e-6)) {
              res.fail(o.key + ": outcome differs from expected");
            }
          }
        }
      }
    }
    (traced ? traced_wall : untraced_wall).push_back(now_s() - pass_start);
    if (!traced) {
      pass_us.push_back(pass_s * 1e6);
      untraced_ops += static_cast<std::size_t>(req);
    }
    const double elapsed = now_s() - t_start;
    const double passes = static_cast<double>(pass + 1);
    if (tr.enabled() ? pass == 1 : elapsed + elapsed / passes > args.seconds) {
      std::printf("compile_catalog: %zu pass(es) of %llu compiles\n", pass + 1,
                  static_cast<unsigned long long>(req));
      break;
    }
  }
  if (record.is_open()) {
    record.close();
    std::printf("recorded %s\n", args.record_expected.c_str());
  }

  double wall_s = 0;
  for (double w : untraced_wall) wall_s += w;
  report_end_to_end(res, "catalog pass", pass_us, 100.0,
                    static_cast<double>(untraced_ops) / wall_s, setup_s);
  if (!tr.enabled()) return;

  const double ms = 1e3;
  res.set("core.compile_ms_p50", median(compile_us) / ms, "ms");
  res.set("core.self_ms", median(tr.self_times("core.compile")) * ms, "ms");
  res.set("profile.run_ms", median(tr.durations("profile.run")) * ms, "ms");
  res.set("graph.analyze_pins_ms", median(tr.durations("graph.analyze_pins")) * ms, "ms");
  res.set("graph.to_dot_ms", median(tr.durations("graph.to_dot")) * ms, "ms");
  res.set("partition.make_problem_ms",
          median(tr.durations("partition.make_problem")) * ms, "ms");
  res.set("partition.preprocess_ms", median(tr.durations("partition.preprocess")) * ms, "ms");
  res.set("partition.build_ilp_ms", median(tr.durations("partition.build_ilp")) * ms, "ms");
  res.set("partition.vertices_after_preprocess", median(verts), "count");
  res.set("partition.rate_probes", rate_probes, "count");
  res.set("partition.probe_s_p50", median(tr.durations("partition.probe")), "s");
  res.set("partition.inherited_basis_share",
          rate_probes > 0 ? inherited / rate_probes : 0.0, "ratio");
  res.set("partition.rejected_basis_probes", rejected, "count");
  res.set("ilp.root_lp_ms", median(tr.durations("ilp.root_lp")) * ms, "ms");
  ilp_tot.report(res);
  // The traced pass's wall includes its spans and replayed calls.
  res.set("obs.trace_overhead_share",
          median(traced_wall) / median(untraced_wall) - 1.0, "ratio");
}

}  // namespace layerbench

#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>
#include <sstream>

namespace layerbench {

using namespace wishbone;

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return seconds_between(t0, Clock::now());
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

namespace {

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

std::size_t rotation_cpus() { return std::max<std::size_t>(1, allowed_cpus().size()); }

void rotate_cpu() {
  const std::vector<int>& cpus = allowed_cpus();
  thread_local std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // best effort: stays put on failure
}

void unpin_cpu() {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : cpus) CPU_SET(c, &all);
  sched_setaffinity(0, sizeof all, &all);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_end_to_end(Result& res, const char* op, const std::vector<double>& op_us,
                       double tail_p, double ops_per_s, double setup_s,
                       std::size_t windows) {
  const std::size_t n = op_us.size();
  windows = std::clamp<std::size_t>(windows, 1, std::max<std::size_t>(n, 1));
  std::vector<double> p50s, tails;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::vector<double> chunk(op_us.begin() + static_cast<long>(w * n / windows),
                                    op_us.begin() + static_cast<long>((w + 1) * n / windows));
    p50s.push_back(median(chunk));
    tails.push_back(percentile(chunk, tail_p));
  }
  const double p50 = median(p50s);
  const double tail = median(tails);
  std::printf("%s: n=%zu in %zu window(s)  p50=%.3f us  p%g=%.3f us  %.3f ops/s  "
              "setup %.4f s\n",
              op, n, windows, p50, tail_p, tail, ops_per_s, setup_s);
  res.set("setup_s", setup_s, "s");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.set("op_p50_us", p50, "us");
  res.set("op_tail_us", tail, "us");
  res.set("ops_per_s", ops_per_s, "1/s");
  res.set("obs.op_samples", static_cast<double>(n), "count");
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

std::vector<double> Tracer::self_times(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(spans_[i].end_s - spans_[i].start_s - child[i]);
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name, s.start_s * 1e6, s.end_s * 1e6,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void IlpTotals::add(const ilp::MipResult& m) {
  nodes += static_cast<double>(m.nodes_explored);
  iterations += static_cast<double>(m.lp_iterations);
  refactorizations += static_cast<double>(m.basis_refactorizations);
  eta_updates += static_cast<double>(m.eta_updates);
  phase1 += static_cast<double>(m.phase1_reentries);
  dual += static_cast<double>(m.dual_reentries);
  fallbacks += static_cast<double>(m.phase1_fallbacks);
  primal_pivots += static_cast<double>(m.primal_pivots);
  dual_pivots += static_cast<double>(m.dual_pivots);
  rc_fixings += static_cast<double>(m.vars_fixed_by_reduced_cost);
}

void IlpTotals::add(const partition::RateSearchResult& s) {
  nodes += static_cast<double>(s.total_bnb_nodes);
  iterations += static_cast<double>(s.total_lp_iterations);
  refactorizations += static_cast<double>(s.total_basis_refactorizations);
  eta_updates += static_cast<double>(s.total_eta_updates);
  phase1 += static_cast<double>(s.total_phase1_reentries);
  dual += static_cast<double>(s.total_dual_reentries);
  fallbacks += static_cast<double>(s.total_phase1_fallbacks);
}

void IlpTotals::report(Result& res) const {
  res.set("ilp.bnb_nodes", nodes, "count");
  res.set("ilp.lp_iterations", iterations, "count");
  res.set("ilp.refactorizations", refactorizations, "count");
  res.set("ilp.eta_updates", eta_updates, "count");
  res.set("ilp.reentries_phase1", phase1, "count");
  res.set("ilp.reentries_dual", dual, "count");
  res.set("ilp.phase1_fallbacks", fallbacks, "count");
  res.set("ilp.pivots_primal", primal_pivots, "count");
  res.set("ilp.pivots_dual", dual_pivots, "count");
  res.set("ilp.rc_fixings", rc_fixings, "count");
}

std::string check_cut(const partition::PartitionProblem& p,
                      const partition::PartitionResult& r) {
  if (!r.feasible) return "result is infeasible";
  if (r.sides.size() != p.num_vertices()) {
    return "cut has " + std::to_string(r.sides.size()) + " sides for " +
           std::to_string(p.num_vertices()) + " vertices";
  }
  const partition::AssignmentEval ev = partition::evaluate_assignment(p, r.sides);
  if (!ev.respects_pins) return "cut violates a pin";
  if (!ev.feasible(p)) {
    std::ostringstream why;
    why << "cut exceeds a budget (cpu " << ev.cpu << "/" << p.cpu_budget
        << ", net " << ev.net << "/" << p.net_budget << ")";
    return why.str();
  }
  const double obj = partition::objective_of(p, ev);
  if (!close(obj, r.objective)) {
    std::ostringstream why;
    why << "objective recomputed from the sides " << obj
        << " != reported " << r.objective;
    return why.str();
  }
  if (!close(r.solver.objective, r.objective)) {
    std::ostringstream why;
    why << "solver objective " << r.solver.objective
        << " != objective of the decoded cut " << r.objective;
    return why.str();
  }
  return {};
}

std::vector<double> read_json_array(const std::string& path,
                                    const std::string& key) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::size_t at = text.find("\"" + key + "\"");
  if (at == std::string::npos) return {};
  const std::size_t open = text.find('[', at);
  const std::size_t close_at = text.find(']', open);
  if (open == std::string::npos || close_at == std::string::npos) return {};
  std::vector<double> out;
  std::stringstream items(text.substr(open + 1, close_at - open - 1));
  std::string item;
  while (std::getline(items, item, ',')) out.push_back(std::stod(item));
  return out;
}

}  // namespace layerbench

// serve_drift: an open-loop arrival schedule into a default
// serve::PartitionServer (2 solver workers), from one generator thread
// that also collects the answers.
//
// Inputs: bench/serve_fleet.cpp's fleet model -- its 4 application
// shapes (layered sensing DAGs of ~24 vertices, the size class of the
// paper's problems after preprocessing), its 3 platform ids and its
// initial per-device scales in [0.9, 1.1] -- with 512 devices whose
// scales, drift and arrival times are drawn from the workload seed.
// serve_fleet drifts a device by rescaling its whole profile, which
// revisits a bounded set of cache cells until every request hits; here
// every request instead random-walks each movable vertex's log CPU cost
// of the sending device (per-vertex drift, as measured profiles move),
// so devices keep entering cells nobody has solved. The step size,
// kDriftSigma, is set so that ~5% of requests re-solve (warm-started
// from the cached donor basis), the share the benchmark's design
// targets; the traced run reports it as serve.stale_share. The
// cache-fill pass (every device's initial profile, closed loop) is part
// of set-up; 512 devices keep it near 20 ms so it can be repeated for
// a median.
//
// Arrivals are Poisson at 4000 requests/s: a 25 s run holds ~100
// windows of 1000 requests, each with 10 samples beyond its p99. At ~5% re-solves of ~0.3 ms on 2
// workers the solvers are ~3% busy, so the workload measures an
// unloaded server. Twice the rate leaves the outstanding peak,
// coalescing and tail where they are and only evicts more cache cells
// (README.md has the numbers), and one generator thread cannot send
// fast enough to queue the server: at 10x its own send lag p99 reaches
// ~0.35 ms, at 30x it falls behind.
//
// The unit operation is one request, timed from its scheduled send
// time to the moment its answer is observed, so a stall also charges
// the requests queued behind it. Hits dominate the median, the small
// warm re-solves dominate p99.
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <random>

#include "common.hpp"
#include "partition/partitioner.hpp"
#include "serve/graph_hash.hpp"
#include "serve/server.hpp"
#include "serve/solve_cache.hpp"
#include "util/alloc_count.hpp"

namespace layerbench {

using namespace wishbone;

namespace {

constexpr std::size_t kShapes = 4;
constexpr std::size_t kDevices = 512;
constexpr double kRate = 4000.0;  ///< requests/s
/// Per-request random-walk step of each movable vertex's log CPU cost.
constexpr double kDriftSigma = 6.5e-4;
constexpr std::size_t kDirectChecks = 16;  ///< solved responses re-solved
constexpr std::size_t kHitReplays = 2000;  ///< hits replayed for layer times
constexpr const char* kPlatforms[] = {"tmote_sky", "imote2", "phone"};

/// bench/serve_fleet.cpp's shape_problem, copied because it is local
/// to that program. The shapes are fixed across seeds, so every seed's
/// fleet asks for problems of the same difficulty; the seed drives who
/// sends what when.
partition::PartitionProblem make_shape(std::size_t shape) {
  std::mt19937 rng(0xf1ee7u + static_cast<std::uint32_t>(shape));
  std::uniform_real_distribution<double> cpu(0.02, 0.12);
  std::uniform_real_distribution<double> bw(5.0, 120.0);
  partition::PartitionProblem p;
  const auto add = [&](partition::Requirement req, double c) {
    partition::ProblemVertex v;
    v.name = "v" + std::to_string(p.vertices.size());
    v.req = req;
    v.cpu = c;
    p.vertices.push_back(std::move(v));
    return p.vertices.size() - 1;
  };
  const std::size_t width = 3 + shape % 2;
  const std::size_t layers = 5 + shape / 2;
  std::vector<std::size_t> prev;
  for (std::size_t i = 0; i < width; ++i) {
    prev.push_back(add(partition::Requirement::kNode, 0.0));
  }
  for (std::size_t l = 0; l < layers; ++l) {
    std::vector<std::size_t> cur;
    for (std::size_t i = 0; i < width; ++i) {
      const std::size_t v = add(partition::Requirement::kMovable, cpu(rng));
      p.edges.push_back({prev[rng() % prev.size()], v, bw(rng)});
      cur.push_back(v);
    }
    prev = std::move(cur);
  }
  const std::size_t sink = add(partition::Requirement::kServer, 0.0);
  for (std::size_t u : prev) p.edges.push_back({u, sink, bw(rng)});
  p.cpu_budget = 0.7;
  p.net_budget = 1e9;
  p.alpha = 0.1;
  p.beta = 1.0;
  p.check();
  return p;
}

struct Device {
  std::size_t shape = 0;
  std::size_t platform = 0;
  std::vector<double> log_cpu;  ///< drift of each vertex's log CPU cost
};

/// The generated inputs: shapes, devices, and the arrival schedule.
struct Fleet {
  std::vector<partition::PartitionProblem> shapes;
  std::vector<std::uint64_t> shape_hashes;
  std::vector<Device> devices;
  std::vector<double> due_s;            ///< offsets from the loop start
  std::vector<std::uint32_t> device_of; ///< sender of each request
  std::mt19937 drift_rng;
};

std::unique_ptr<Fleet> make_fleet(std::uint32_t seed, double seconds) {
  auto f = std::make_unique<Fleet>();
  f->drift_rng.seed(seed ^ 0x5eedu);
  for (std::size_t s = 0; s < kShapes; ++s) {
    f->shapes.push_back(make_shape(s));
    f->shape_hashes.push_back(serve::canonical_problem_hash(f->shapes.back()));
  }
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> init(0.9, 1.1);
  for (std::size_t d = 0; d < kDevices; ++d) {
    Device dev;
    dev.shape = d % kShapes;
    dev.platform = (d / kShapes) % std::size(kPlatforms);
    // One scale per device (its event rate), shared by every vertex.
    const double scale = init(rng);
    dev.log_cpu.assign(f->shapes[dev.shape].num_vertices(), std::log(scale));
    f->devices.push_back(std::move(dev));
  }
  std::exponential_distribution<double> gap(kRate);
  std::uniform_int_distribution<std::uint32_t> who(0, kDevices - 1);
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    f->due_s.push_back(t);
    f->device_of.push_back(who(rng));
  }
  return f;
}

serve::SolveRequest request_for(const Fleet& f, const Device& dev) {
  serve::SolveRequest req;
  req.problem = f.shapes[dev.shape];
  for (std::size_t v = 0; v < req.problem.num_vertices(); ++v) {
    req.problem.vertices[v].cpu *= std::exp(dev.log_cpu[v]);
  }
  req.platform_id = kPlatforms[dev.platform];
  req.graph_hash = f.shape_hashes[dev.shape];
  return req;
}

void drift(Fleet& f, Device& dev) {
  std::normal_distribution<double> step(0.0, kDriftSigma);
  const auto& vs = f.shapes[dev.shape].vertices;
  for (std::size_t v = 0; v < vs.size(); ++v) {
    if (vs[v].req == partition::Requirement::kMovable) {
      dev.log_cpu[v] += step(f.drift_rng);
    }
  }
}

/// One request's timeline (seconds on the now_s() clock) and outcome.
struct Record {
  double due = 0, sent = 0, returned = 0, done = 0;
  serve::ResponseSource source = serve::ResponseSource::kSolved;
  double solve_s = 0;
};

struct Pending {
  std::size_t index = 0;
  std::future<serve::SolveResponse> fut;
  partition::PartitionProblem problem;
};

/// Checks one response against the request's own problem: every
/// answer must be a cut of the right shape honouring the pins; a
/// response this request solved must also meet the budgets with the
/// objective it reports. Hits and coalesced answers were solved for a
/// neighbouring profile in the same cell, so their budgets may differ
/// by the quantization step.
std::string check_response(const partition::PartitionProblem& p,
                           const serve::SolveResponse& resp) {
  if (resp.source == serve::ResponseSource::kShutdown) return "shut down";
  if (resp.source == serve::ResponseSource::kExpired) return "expired";
  if (resp.result == nullptr) return "null result";
  if (resp.source == serve::ResponseSource::kSolved) return check_cut(p, *resp.result);
  if (!resp.result->feasible) return "cached result is infeasible";
  if (resp.result->sides.size() != p.num_vertices()) return "cached cut has the wrong size";
  if (!partition::evaluate_assignment(p, resp.result->sides).respects_pins) {
    return "cached cut violates a pin";
  }
  return {};
}

/// Fills a fresh server with every device's initial profile.
std::unique_ptr<serve::PartitionServer> fill_server(const Fleet& f, Result& res) {
  auto server = std::make_unique<serve::PartitionServer>();
  std::vector<std::future<serve::SolveResponse>> futs;
  std::vector<partition::PartitionProblem> probs;
  for (const Device& dev : f.devices) {
    serve::SolveRequest req = request_for(f, dev);
    probs.push_back(req.problem);
    futs.push_back(server->submit(std::move(req)));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    if (const std::string why = check_response(probs[i], futs[i].get()); !why.empty()) {
      res.fail("cache fill: " + why);
    }
  }
  return server;
}

}  // namespace

void run_serve_drift(const Args& args, Result& res, Tracer& tr) {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<serve::PartitionServer> server;
  // No CPU rotation: the server's workers would inherit the pin.
  const double setup_s = timed_setup(
      32,
      [&] {
        server.reset();
        fleet = make_fleet(args.seed, args.seconds);
        server = fill_server(*fleet, res);
      },
      /*rotate=*/false);
  const std::size_t n = fleet->due_s.size();
  std::printf("serve: %zu requests over %.1f s at %.0f/s, %zu devices\n", n,
              args.seconds, kRate, kDevices);

  // A trace run times the first half of the schedule untraced and the
  // second half with spans on, to price the tracing.
  const std::size_t traced_from = tr.enabled() ? n / 2 : n;
  std::vector<Record> rec(n);

  // Answers not yet observed. The generator collects them itself while
  // it spins to each send time, so a solved request's latency holds the
  // wake-up of the worker that solves it and no other thread's.
  std::vector<Pending> pending;
  struct Sampled {
    std::size_t index;
    partition::PartitionProblem problem;
    std::shared_ptr<const partition::PartitionResult> served;
  };
  std::vector<Sampled> direct_sample;
  std::mt19937 pick(args.seed ^ 0xc0ffeeu);
  const auto collect = [&] {
    for (std::size_t k = 0; k < pending.size();) {
      Pending& p = pending[k];
      if (p.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      Record& r = rec[p.index];
      r.done = now_s();
      const serve::SolveResponse resp = p.fut.get();
      r.source = resp.source;
      r.solve_s = resp.solve_s;
      if (const std::string why = check_response(p.problem, resp); !why.empty()) {
        res.fail("request " + std::to_string(p.index) + ": " + why);
      } else if (resp.source == serve::ResponseSource::kSolved &&
                 direct_sample.size() < kDirectChecks && pick() % 8 == 0) {
        direct_sample.push_back({p.index, std::move(p.problem), resp.result});
      }
      p = std::move(pending.back());
      pending.pop_back();
    }
  };

  // Hits sampled for the layer replays (traced half only).
  struct HitSample {
    std::size_t index;
    serve::SolveRequest req;
    std::shared_ptr<const partition::PartitionResult> result;
  };
  std::vector<HitSample> hit_sample;
  std::vector<std::int64_t> span_of(n, -1);
  serve::ServerStats mid = server->stats();
  std::size_t outstanding_peak = 0;
  std::mt19937 hit_pick(args.seed ^ 0x417u);
  // The spinning generator would otherwise stay on whichever core the
  // scheduler gave it for the whole run; it moves to the next core
  // every quarter second instead (see rotate_cpu), so the windows'
  // hits are served from every core in turn.
  double next_rotation = 0.0;
  const double t0 = now_s() + 0.001;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == traced_from) mid = server->stats();
    if (fleet->due_s[i] >= next_rotation) {
      rotate_cpu();
      next_rotation += 0.25;
    }
    const bool traced = i >= traced_from;
    Device& dev = fleet->devices[fleet->device_of[i]];
    drift(*fleet, dev);
    serve::SolveRequest req = request_for(*fleet, dev);
    partition::PartitionProblem problem = req.problem;
    std::optional<serve::SolveRequest> replay;
    if (traced && hit_sample.size() < kHitReplays && hit_pick() % 16 == 0) replay = req;
    const double due = t0 + fleet->due_s[i];
    // Spin to the scheduled send time: a generator that sleeps between
    // requests pays the host's wake-up latency on the send and arrives
    // at each hit with cold caches, both of which swing run to run.
    while (now_s() < due) collect();
    Record& r = rec[i];
    r.due = due;
    if (traced) span_of[i] = tr.add("serve.request", due, due, -1, i + 1);
    const std::int64_t sub = traced ? tr.begin("serve.submit", span_of[i], i + 1) : -1;
    r.sent = now_s();
    std::future<serve::SolveResponse> fut = server->submit(std::move(req));
    r.returned = now_s();
    tr.end(sub);
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      r.done = r.returned;
      const serve::SolveResponse resp = fut.get();
      r.source = resp.source;
      if (const std::string why = check_response(problem, resp); !why.empty()) {
        res.fail("request " + std::to_string(i) + ": " + why);
      } else if (replay && resp.source == serve::ResponseSource::kCacheHit) {
        hit_sample.push_back({i, std::move(*replay), resp.result});
      }
    } else {
      pending.push_back(Pending{i, std::move(fut), std::move(problem)});
    }
    outstanding_peak = std::max(outstanding_peak, pending.size());
  }
  while (!pending.empty()) collect();
  unpin_cpu();
  double last_done = t0;
  for (const Record& r : rec) last_done = std::max(last_done, r.done);
  const double loop_s = last_done - t0;
  const serve::ServerStats after = server->stats();
  res.attempted += n;

  // Direct-solve oracle: a seeded sample of solved responses must match
  // solve_partition of the same problem under the server's options.
  for (const Sampled& s : direct_sample) {
    ++res.attempted;
    const partition::PartitionResult direct =
        partition::solve_partition(s.problem, serve::ServeOptions{}.partition);
    if (const std::string why = check_cut(s.problem, direct); !why.empty()) {
      res.fail("direct solve of request " + std::to_string(s.index) + ": " + why);
    } else if (!close(direct.objective, s.served->objective)) {
      res.fail("request " + std::to_string(s.index) + ": served objective " +
               std::to_string(s.served->objective) + " != direct " +
               std::to_string(direct.objective));
    }
  }

  std::vector<double> op_us, untraced_us, hit_us, hit_submit_us, solved_us,
      solve_us, wait_us, lag_us;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = rec[i];
    const double us = (r.done - r.due) * 1e6;
    if (i < traced_from) {
      untraced_us.push_back(us);
      if (tr.enabled()) continue;
    }
    tr.end_at(span_of[i], r.done);
    op_us.push_back(us);
    lag_us.push_back((r.sent - r.due) * 1e6);
    if (r.source == serve::ResponseSource::kCacheHit) {
      hit_us.push_back(us);
      hit_submit_us.push_back((r.returned - r.sent) * 1e6);
    } else if (r.source == serve::ResponseSource::kSolved) {
      solved_us.push_back(us);
      solve_us.push_back(r.solve_s * 1e6);
      wait_us.push_back((r.done - r.returned - r.solve_s) * 1e6);
    }
  }
  std::printf("serve: %zu hits, %zu solved, %zu direct checks, outstanding peak %zu\n",
              hit_us.size(), solved_us.size(), direct_sample.size(),
              outstanding_peak);
  // Windows of >= 1000 requests (~0.25 s): each window's p99 keeps >= 10
  // samples beyond it, and the median over ~100 windows leaves out the
  // host's stalls, which charge every request queued behind them.
  // Throughput is the answers achieved per
  // second from the loop's start to the last answer; in an open loop it
  // stays at the offered rate until the server falls behind.
  report_end_to_end(res, "serve request", op_us, 99.0,
                    static_cast<double>(n) / loop_s, setup_s, op_us.size() / 1000);
  if (!tr.enabled()) return;

  // Hit-path breakdown: replay the hit's key derivation, the problem
  // hash a client without a graph hash would pay, and the LRU lookup
  // (on a mirror cache holding the sampled entries), under the span of
  // the request they came from. A synchronous re-submit of the same
  // request counts the hit path's heap allocations.
  serve::SolveCache mirror(serve::ServeOptions{}.cache_capacity);
  std::vector<serve::CacheKey> keys;
  for (const HitSample& h : hit_sample) {
    keys.push_back(tr.wrap("serve.key_for", span_of[h.index], h.index + 1,
                           [&] { return server->key_for(h.req); }));
    tr.wrap("serve.problem_hash", span_of[h.index], h.index + 1,
            [&] { return serve::canonical_problem_hash(h.req.problem); });
    mirror.insert(keys.back(), h.result);
  }
  double allocs = 0, alloc_hits = 0;
  for (std::size_t k = 0; k < hit_sample.size(); ++k) {
    const HitSample& h = hit_sample[k];
    serve::CacheOutcome outcome = serve::CacheOutcome::kMiss;
    tr.wrap("serve.cache_lookup", span_of[h.index], h.index + 1,
            [&] { return mirror.lookup(keys[k], &outcome); });
    const std::uint64_t a0 = util::allocation_count();
    const serve::SolveResponse again = server->submit(h.req).get();
    const std::uint64_t a1 = util::allocation_count();
    if (again.source == serve::ResponseSource::kCacheHit) {
      allocs += static_cast<double>(a1 - a0);
      alloc_hits += 1;
    }
  }

  const auto share = [](std::size_t part, std::size_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
  };
  const std::size_t requests = after.requests - mid.requests;
  const std::size_t solves = after.solves - mid.solves;
  const double key_us = median(tr.durations("serve.key_for")) * 1e6;
  const double lookup_us = median(tr.durations("serve.cache_lookup")) * 1e6;
  res.set("serve.hit_share", share(after.cache_hits - mid.cache_hits, requests), "ratio");
  res.set("serve.hit_p50_us", median(hit_us), "us");
  res.set("serve.hit_submit_us", median(hit_submit_us), "us");
  res.set("serve.problem_hash_us", median(tr.durations("serve.problem_hash")) * 1e6, "us");
  res.set("serve.key_for_us", key_us, "us");
  res.set("serve.cache_lookup_us", lookup_us, "us");
  res.set("serve.hit_residual_us", median(hit_submit_us) - key_us - lookup_us, "us");
  res.set("serve.allocs_per_hit", alloc_hits > 0 ? allocs / alloc_hits : 0.0, "count");
  res.set("serve.solved_p50_us", median(solved_us), "us");
  res.set("serve.solve_us_p50", median(solve_us), "us");
  res.set("serve.warm_basis_share",
          share(after.warm_basis_used - mid.warm_basis_used, solves), "ratio");
  res.set("serve.warm_basis_rejected",
          static_cast<double>(after.warm_basis_rejected - mid.warm_basis_rejected),
          "count");
  res.set("serve.queue_wait_us_p99", percentile(wait_us, 99.0), "us");
  res.set("serve.outstanding_peak", static_cast<double>(outstanding_peak), "count");
  res.set("serve.coalesced_share", share(after.coalesced - mid.coalesced, requests),
          "ratio");
  res.set("serve.stale_share",
          share(after.stale_resolves - mid.stale_resolves, requests), "ratio");
  res.set("serve.evictions",
          static_cast<double>(after.cache.evictions - mid.cache.evictions), "count");
  res.set("serve.generator_lag_us_p99", percentile(lag_us, 99.0), "us");
  res.set("obs.trace_overhead_share", median(op_us) / median(untraced_us) - 1.0,
          "ratio");
}

}  // namespace layerbench

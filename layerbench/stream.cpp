// stream_cut: the streaming executor (runtime::PartitionedExecutor,
// sink collection off) on the EEG seizure detector (1412 operators,
// 22 x 512-sample windows per event) and on the speech MFCC pipeline
// (200-sample frames), each split at the cut
// core::Wishbone::partition_only returns for the app's native rate on
// the TMote Sky (100-node budget per solve, as in compile_catalog).
// Both sides of that cut are non-empty, so every event runs the
// marshal, packetize and unmarshal path for the cut edges.
//
// Events run in timed windows of repeated PartitionedExecutor::run
// calls over a short trace (16 EEG windows, 256 speech frames) that
// stays cache-resident, so the measurement tracks the executor rather
// than the memory bandwidth the host's other tenants leave. The unit
// operation is one round: a 256-event EEG window plus a 16384-event
// speech window (~60 ms each) on every CPU in turn. A run reports the
// median round, so host noise in a few rounds does not move it, the p70
// round (a 25 s run holds ~45 rounds: ~13 beyond p70), and rounds per second
// of the whole timed loop, executor construction included. The traced
// run reports each app's events/s. runtime, dsp and marshalling do all
// the work; ilp and serve do none.
//
// Every window gets a fresh executor. A long-lived executor with a cut
// grows without bound: each unmarshalled frame's storage is released
// into the buffer pool with no matching acquire, so the pool keeps one
// more buffer per cut frame (~44 KB per EEG event). A fresh executor
// per window bounds the run's memory to one window's growth; the
// traced run still measures the growth per event
// (runtime.<app>.pool_growth_bytes_per_event) and the allocations it
// costs (runtime.<app>.allocs_per_event).
#include <malloc.h>

#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "common.hpp"
#include "core/wishbone.hpp"
#include "dsp/dct.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/mel.hpp"
#include "dsp/wavelet.hpp"
#include "profile/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/marshal.hpp"
#include "util/alloc_count.hpp"

namespace layerbench {

using namespace wishbone;

namespace {

using Traces = std::map<graph::OperatorId, std::vector<graph::Frame>>;

constexpr std::size_t kEegTrace = 16;        ///< events per run() call
constexpr std::size_t kSpeechTrace = 256;
/// run() calls per timed window: ~60 ms of work for either app.
constexpr std::size_t kEegRunsPerWindow = 16;
constexpr std::size_t kSpeechRunsPerWindow = 64;
constexpr std::size_t kWarmEvents = 8;       ///< per fresh executor
constexpr std::size_t kNodeBudget = 100;

struct Pipeline {
  apps::EegApp eeg;
  apps::SpeechApp speech;
  graph::Graph* g = nullptr;
  graph::OperatorId sink = 0;
  Traces traces;             ///< one frame per event, cycled
  std::size_t trace_len = 0;
  std::size_t runs_per_window = 0;
  std::size_t window = 0;    ///< events per timed window
  std::vector<graph::Side> cut;
  /// EEG only: the SVM's bias. Its 66 features are non-negative band
  /// energies with unit weights and a bias of -800 each (SvmOp in the
  /// EEG app), so margin - svm_bias is the sum of the features.
  double svm_bias = 0.0;
};

std::unique_ptr<Pipeline> make_pipeline(bool eeg, std::uint32_t seed) {
  auto p = std::make_unique<Pipeline>();
  profile::ProfileData pd;
  double rate = 0.0;
  if (eeg) {
    apps::EegConfig cfg;
    cfg.trace_seed = seed;
    p->eeg = apps::build_eeg_app(cfg);
    p->g = &p->eeg.g;
    p->sink = p->eeg.sink;
    p->trace_len = kEegTrace;
    p->runs_per_window = kEegRunsPerWindow;
    p->traces = apps::eeg_traces(p->eeg, kEegTrace);
    profile::Profiler prof(*p->g);
    pd = prof.run(apps::eeg_traces(p->eeg, 6), 6);
    rate = p->eeg.full_rate_events_per_sec();
    p->svm_bias = -800.0 * static_cast<double>(cfg.channels * cfg.energy_bands);
  } else {
    p->speech = apps::build_speech_app();
    p->g = &p->speech.g;
    p->sink = p->speech.sink;
    p->trace_len = kSpeechTrace;
    p->runs_per_window = kSpeechRunsPerWindow;
    p->traces = apps::speech_traces(p->speech, kSpeechTrace, seed);
    profile::Profiler prof(*p->g);
    pd = prof.run(apps::speech_traces(p->speech, 120, seed), 120);
    rate = apps::SpeechApp::kFullRateEventsPerSec;
  }
  p->window = p->trace_len * p->runs_per_window;
  p->g->reset_state();
  core::CompileOptions opts;
  opts.partition.mip.max_nodes = kNodeBudget;
  const core::Wishbone wb(*p->g, profile::tmote_sky(), opts);
  const core::CompileReport rep = wb.partition_only(pd, rate);
  if (!rep.partition.feasible) {
    throw std::runtime_error("partition_only found no cut for the stream");
  }
  p->cut = rep.partition.sides;
  return p;
}

/// Runs one timed window's worth of events through `ex`.
void run_window(runtime::PartitionedExecutor& ex, const Pipeline& p) {
  for (std::size_t r = 0; r < p.runs_per_window; ++r) ex.run(p.traces, p.trace_len);
}

/// Whether `got` agrees with `want` within the tolerance
/// tests/test_executor.cpp allows for int16 quantization on the wire,
/// |a - b| <= 0.05 + 0.02 |scale|, where `scale` is the magnitude the
/// error grows with: `want` itself for a sample the wire carried.
bool within_quantization(double want, double got, double scale) {
  return std::fabs(want - got) <= 0.05 + 0.02 * std::fabs(scale);
}

/// Checks the EEG sink frames {declared, run length, SVM margin} of one
/// run. Quantization shifts the margin by a share of the feature sum
/// (margin - svm_bias), not of the margin: near the decision boundary
/// the margin is small while its error is not. So `got`'s margin must
/// agree with `want`'s within the quantization tolerance of the feature
/// sum, and each run's declarations must be the ones the detector gives
/// on that run's own margins (three consecutive positive windows). The
/// declarations thus agree wherever the margins' signs do, and a window
/// may flip only when quantization moves its margin across zero.
void check_eeg_frames(const std::vector<graph::Frame>& want,
                      const std::vector<graph::Frame>& got, double svm_bias,
                      Result& res) {
  const auto consistent = [](const std::vector<graph::Frame>& frames) {
    std::size_t run = 0;
    bool fired = false;
    for (const graph::Frame& f : frames) {
      bool declared = false;
      if (f[2] > 0.0f) {
        ++run;
        declared = run >= 3 && !fired;
        fired = fired || declared;
      } else {
        run = 0;
        fired = false;
      }
      if (f[0] != (declared ? 1.0f : 0.0f) || f[1] != static_cast<float>(run)) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < want.size(); ++i) {
    res.attempted += 1;
    if (want[i].size() != 3 || got[i].size() != 3) {
      res.fail("EEG sink frame " + std::to_string(i) + " is not {declared, run, margin}");
      return;
    }
    if (!within_quantization(want[i][2], got[i][2], want[i][2] - svm_bias)) {
      res.fail("cut sink frame " + std::to_string(i) + ": SVM margin " +
               std::to_string(got[i][2]) + ", all-on-node " + std::to_string(want[i][2]));
    }
  }
  if (!consistent(want)) res.fail("all-on-node declarations disagree with its margins");
  if (!consistent(got)) res.fail("cut declarations disagree with its margins");
}

/// The repartitioning-correctness oracle: the cut program's sink output
/// equals the all-on-node program's, frame for frame, over the trace.
/// Equal means bit-identical, except that a cut edge carrying a stream
/// the app encodes as int16 quantizes its fractional samples on the
/// wire. A speech sink frame must then agree sample by sample within
/// the quantization tolerance; for EEG (whose filter outputs are such
/// streams) check_eeg_frames bounds what quantization does to the sink.
/// Returns the share of bit-identical sink frames.
double verify_cut(Pipeline& p, Result& res) {
  p.g->reset_state();
  runtime::PartitionedExecutor all_node(
      *p.g, std::vector<graph::Side>(p.g->num_operators(), graph::Side::kNode));
  const auto want = all_node.run(p.traces, p.trace_len);
  p.g->reset_state();
  runtime::PartitionedExecutor split(*p.g, p.cut);
  const auto got = split.run(p.traces, p.trace_len);
  p.g->reset_state();
  const std::vector<graph::Frame>& a = want.at(p.sink);
  const std::vector<graph::Frame>& b = got.at(p.sink);
  if (a.size() != b.size() || a.empty()) {
    res.fail("cut run produced " + std::to_string(b.size()) +
             " sink frames, all-on-node " + std::to_string(a.size()));
    return 0.0;
  }
  if (split.stats().cut_frames == 0) res.fail("the cut carries no frames");
  std::size_t exact = 0;
  for (std::size_t i = 0; i < a.size(); ++i) exact += a[i].samples() == b[i].samples() ? 1 : 0;
  if (p.svm_bias != 0.0) {
    check_eeg_frames(a, b, p.svm_bias, res);
  } else {
    for (std::size_t i = 0; i < a.size(); ++i) {
      res.attempted += 1;
      bool within = a[i].size() == b[i].size();
      for (std::size_t k = 0; within && k < a[i].size(); ++k) {
        within = within_quantization(a[i][k], b[i][k], a[i][k]);
      }
      if (!within) res.fail("cut sink frame " + std::to_string(i) + " differs");
    }
  }
  return static_cast<double>(exact) / static_cast<double>(a.size());
}

/// Bytes of heap currently allocated (not merely resident).
double heap_in_use_bytes() { return static_cast<double>(mallinfo2().uordblks); }

/// ns per sample of `body` (which processes `samples` samples), as the
/// median of 5 trials of >= 10 ms each.
template <typename F>
double kernel_ns_per_sample(std::size_t samples, F&& body) {
  std::size_t reps = 1;
  while (time_call([&] { for (std::size_t i = 0; i < reps; ++i) body(); }) < 0.01) {
    reps *= 2;
  }
  std::vector<double> trials;
  for (int t = 0; t < 5; ++t) {
    trials.push_back(time_call([&] { for (std::size_t i = 0; i < reps; ++i) body(); }));
  }
  return median(trials) * 1e9 / static_cast<double>(reps * samples);
}

volatile float g_sink = 0.0f;  ///< keeps kernel results observable

/// Times each DSP kernel the two pipelines use, at their frame sizes.
void measure_kernels(Result& res, Tracer& tr) {
  std::vector<float> frame(512), out(512);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<float>(i % 17) * 0.25f - 2.0f;
  }
  const auto kernel = [&](const char* span, const char* metric,
                          std::size_t samples, auto&& body) {
    const std::int64_t id = tr.begin(span);
    res.set(metric, kernel_ns_per_sample(samples, body), "ns");
    tr.end(id);
  };
  dsp::PolyphaseStage stage(dsp::lowpass_polyphase());
  kernel("dsp.wavelet", "dsp.wavelet_ns_per_sample", 512, [&] {
    const std::size_t n = stage.process_into(dsp::SignalView(frame), dsp::MutSignalView(out));
    g_sink = g_sink + out[n - 1];
  });
  dsp::FirFilter fir(std::vector<float>{0.23f, 0.71f, 0.63f, -0.03f});
  kernel("dsp.fir", "dsp.fir_ns_per_sample", 512, [&] {
    fir.process_into(dsp::SignalView(frame), dsp::MutSignalView(out));
    g_sink = g_sink + out[0];
  });
  dsp::SpectrumScratch scratch;
  std::vector<float> fft_in(frame.begin(), frame.begin() + 256), spec(129);
  kernel("dsp.fft", "dsp.fft_ns_per_sample", 256, [&] {
    dsp::power_spectrum_into(dsp::SignalView(fft_in), dsp::MutSignalView(spec), scratch);
    g_sink = g_sink + spec[0];
  });
  dsp::MelFilterbank bank(32, 129, 8000.0);
  std::vector<float> mel(32);
  kernel("dsp.mel", "dsp.mel_ns_per_sample", 129, [&] {
    bank.apply_into(dsp::SignalView(spec), dsp::MutSignalView(mel));
    g_sink = g_sink + mel[0];
  });
  std::vector<float> cep(13);
  kernel("dsp.dct", "dsp.dct_ns_per_sample", 32, [&] {
    dsp::dct_ii_into(dsp::SignalView(mel), dsp::MutSignalView(cep));
    g_sink = g_sink + cep[0];
  });
}

}  // namespace

void run_stream(const Args& args, Result& res, Tracer& tr) {
  std::unique_ptr<Pipeline> pipes[2];  // EEG, speech
  const double setup_s = timed_setup(8, [&] {
    pipes[0] = make_pipeline(/*eeg=*/true, args.seed);
    pipes[1] = make_pipeline(/*eeg=*/false, args.seed);
  });
  const char* const names[2] = {"eeg", "speech"};
  double exact_share[2];
  for (int a = 0; a < 2; ++a) {
    const Pipeline& p = *pipes[a];
    std::size_t on_node = 0;
    for (graph::Side s : p.cut) on_node += s == graph::Side::kNode ? 1 : 0;
    std::printf("stream_cut %s: %zu operators, %zu on the node, %zu events/window\n",
                names[a], p.g->num_operators(), on_node, p.window);
    exact_share[a] = verify_cut(*pipes[a], res);
  }

  // One sample is one round: an EEG window and a speech window on each
  // CPU in turn (see rotate_cpu), so every sample averages over the
  // host's cores. A trace run alternates untraced rounds with rounds
  // that have a span and counters around every window, so the host's
  // drift over the run does not read as tracing overhead.
  struct Counters {
    std::vector<double> event_us;  ///< per-event time of each window
    double events = 0, allocs = 0, cut_frames = 0, cut_bytes = 0, cut_messages = 0;
  } count[2];
  const double t_start = now_s();
  std::vector<double> round_us;                     // untraced, windows only
  std::vector<double> untraced_wall, traced_wall;   // whole rounds
  while (now_s() - t_start < args.seconds) {
    const double round_start = now_s();
    const bool traced = tr.enabled() && untraced_wall.size() > traced_wall.size();
    const std::uint64_t round = traced_wall.size() + 1;
    const std::int64_t round_span = traced ? tr.begin("stream.round", -1, round) : -1;
    double round_s = 0.0;
    for (std::size_t c = 0; c < rotation_cpus(); ++c) {
      rotate_cpu();
      for (int a = 0; a < 2; ++a) {
        Pipeline& p = *pipes[a];
        runtime::PartitionedExecutor ex(*p.g, p.cut);
        ex.set_collect_sink_output(false);
        ex.run(p.traces, kWarmEvents);  // fill the fresh pool
        const runtime::ExecStats s0 = ex.stats();
        const std::int64_t id = traced ? tr.begin("runtime.run", round_span, round) : -1;
        const std::uint64_t a0 = util::allocation_count();
        const double dt = time_call([&] { run_window(ex, p); });
        const std::uint64_t a1 = util::allocation_count();
        tr.end(id);
        round_s += dt;
        res.attempted += p.window;
        if (!traced) continue;
        const runtime::ExecStats& s1 = ex.stats();
        Counters& k = count[a];
        k.event_us.push_back(dt * 1e6 / static_cast<double>(p.window));
        k.events += static_cast<double>(p.window);
        k.allocs += static_cast<double>(a1 - a0);
        k.cut_frames += static_cast<double>(s1.cut_frames - s0.cut_frames);
        k.cut_bytes += static_cast<double>(s1.cut_payload_bytes - s0.cut_payload_bytes);
        k.cut_messages += static_cast<double>(s1.cut_messages - s0.cut_messages);
      }
    }
    tr.end(round_span);
    (traced ? traced_wall : untraced_wall).push_back(now_s() - round_start);
    if (!traced) round_us.push_back(round_s * 1e6);
  }
  double wall_s = 0;
  for (double w : untraced_wall) wall_s += w;
  report_end_to_end(res, "stream round", round_us, 70.0,
                    static_cast<double>(round_us.size()) / wall_s, setup_s);
  if (!tr.enabled()) return;

  for (int a = 0; a < 2; ++a) {
    Pipeline& p = *pipes[a];
    const Counters& k = count[a];
    const std::string pre = std::string("runtime.") + names[a] + ".";
    const double ev = std::max(1.0, k.events);
    res.set(pre + "events_per_s", 1e6 / median(k.event_us), "1/s");
    res.set(pre + "cut_frames_per_event", k.cut_frames / ev, "count");
    res.set(pre + "cut_bytes_per_event", k.cut_bytes / ev, "B");
    res.set(pre + "cut_messages_per_event", k.cut_messages / ev, "count");
    res.set(pre + "allocs_per_event", k.allocs / ev, "count");
    res.set(pre + "cut_exact_frame_share", exact_share[a], "ratio");

    // Memory a long-lived executor keeps per event (see the header).
    {
      runtime::PartitionedExecutor ex(*p.g, p.cut);
      ex.set_collect_sink_output(false);
      ex.run(p.traces, kWarmEvents);
      const double before = heap_in_use_bytes();
      tr.wrap("runtime.run_long_lived", -1, 0, [&] {
        for (int w = 0; w < 4; ++w) run_window(ex, p);
      });
      res.set(pre + "pool_growth_bytes_per_event",
              (heap_in_use_bytes() - before) / static_cast<double>(4 * p.window), "B");
    }

    // Marshal round trip of a cut-sized float frame.
    const std::size_t frame_bytes = std::max<std::size_t>(
        4, static_cast<std::size_t>(k.cut_bytes / std::max(1.0, k.cut_frames)));
    const graph::Frame f(std::vector<float>(frame_bytes / 4, 0.5f),
                         graph::Encoding::kFloat32);
    const std::int64_t m = tr.begin("runtime.marshal");
    res.set(pre + "marshal_ns_per_byte", kernel_ns_per_sample(frame_bytes, [&] {
              const graph::Frame back = runtime::unmarshal(runtime::marshal(f));
              g_sink = g_sink + back[0];
            }),
            "ns");
    tr.end(m);

    // The same graph all on the node: what the cut costs per event.
    std::vector<double> node_us;
    for (std::size_t w = 0; w < 2 * rotation_cpus(); ++w) {
      rotate_cpu();
      runtime::PartitionedExecutor node(
          *p.g, std::vector<graph::Side>(p.g->num_operators(), graph::Side::kNode));
      node.set_collect_sink_output(false);
      node.run(p.traces, kWarmEvents);
      tr.wrap("runtime.run_all_on_node", -1, 0, [&] {
        node_us.push_back(time_call([&] { run_window(node, p); }) * 1e6 /
                          static_cast<double>(p.window));
      });
    }
    res.set(pre + "cut_overhead_share", median(k.event_us) / median(node_us) - 1.0,
            "ratio");
  }
  measure_kernels(res, tr);
  res.set("obs.trace_overhead_share",
          median(traced_wall) / median(untraced_wall) - 1.0, "ratio");
}

}  // namespace layerbench

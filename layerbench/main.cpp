// layerbench: the layer-attributed benchmark of the four end-to-end
// Wishbone paths. See README.md for the workloads, the metrics and
// the layer each per-layer metric attributes.
//
// Usage: layerbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                   [--repo-root DIR] [--out-dir DIR]
//                   [--record-expected FILE]
//
// Prints human-readable progress, then as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 1 it also writes the run's spans (one JSON object per line)
// to DIR/spans_<workload>_<seed>.jsonl.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using namespace layerbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "layerbench: %s\nusage: layerbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--repo-root DIR] "
               "[--out-dir DIR] [--record-expected FILE]\n"
               "workloads: fig6_sweep compile_catalog serve_drift "
               "stream_cut\n",
               why);
  return 2;
}

void print_result(const Result& res) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  const char* sep = "";
  for (const auto& [name, m] : res.metrics) {
    // JSON has no NaN or infinity; a non-finite value is a bug the
    // wrapper reports, so it is printed as null rather than hidden.
    if (std::isfinite(m.first)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  name.c_str(), m.first, m.second.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}", sep,
                  name.c_str(), m.second.c_str());
    }
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      const unsigned long long s = std::strtoull(v, &end, 10);
      if (*end != '\0' || s > 0xffffffffULL) return usage("bad --seed");
      args.seed = static_cast<std::uint32_t>(s);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 3600.0) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      args.trace = v[0] == '1';
    } else if (flag == "--repo-root") {
      args.repo_root = v;
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else if (flag == "--record-expected") {
      args.record_expected = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  Result res;
  Tracer tr(args.trace);
  now_s();  // start the span clock
  try {
    if (args.workload == "fig6_sweep") {
      run_fig6_sweep(args, res, tr);
    } else if (args.workload == "compile_catalog") {
      run_compile_catalog(args, res, tr);
    } else if (args.workload == "serve_drift") {
      run_serve_drift(args, res, tr);
    } else if (args.workload == "stream_cut") {
      run_stream(args, res, tr);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layerbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  if (tr.enabled()) {
    const std::string path = args.out_dir + "/spans_" + args.workload + "_" +
                             std::to_string(args.seed) + ".jsonl";
    if (!tr.write(path)) {
      std::fprintf(stderr, "layerbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", tr.spans().size(), path.c_str());
  }
  print_result(res);
  return 0;
}

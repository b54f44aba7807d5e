// Repository benchmark entry point.
//
//   perfbench --workload <solve_large|serve_mix|sim_gpu> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// Untraced (--trace 0): sets the workload up seven times (setup_s is the
// median; the first set-up is timed from process start), measures for
// --seconds and prints the end-to-end metrics.  Traced (--trace 1): measures
// half the time untraced, then switches on the program's own collection
// (prof::enable_collection) and the benchmark's spans, measures the other
// half, and prints every per-layer metric plus the trace overhead; the spans
// are written to --spans.  The last stdout line is the JSON result; the
// exit code is nonzero when any answer was wrong.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/jacc.hpp"
#include "prof/prof.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median.
constexpr int setup_repeats = 7;

bool parse(int argc, char** argv, run_args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty() && a.seconds > 0.0;
}

std::unique_ptr<workload> make(const run_args& a) {
  if (a.workload == "solve_large") {
    return make_solve_large(a);
  }
  if (a.workload == "serve_mix") {
    return make_serve_mix(a);
  }
  if (a.workload == "sim_gpu") {
    return make_sim_gpu(a);
  }
  return nullptr;
}

/// Lower-is-better change of the traced figure over the untraced one.
double overhead(double untraced, double traced) {
  return untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
}

} // namespace

int main(int argc, char** argv) {
  mark_process_start();
  run_args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <solve_large|serve_mix|sim_gpu> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  // Pin the configuration: every worker the machine has, and no profiling
  // in timed runs (the traced phase switches collection on explicitly).
  const std::string nproc = std::to_string(std::thread::hardware_concurrency());
  setenv("JACC_NUM_THREADS", nproc.c_str(), 1);
  unsetenv("JACC_PROFILE");
  unsetenv("JACC_TRACE_FILE");
  unsetenv("JACC_TOOLS_LIBS");

  auto w = make(args);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  jacc::initialize();
  print_configuration();

  result res;
  try {
    std::vector<double> setups;
    std::printf("setup s:");
    for (int k = 0; k < setup_repeats; ++k) {
      const std::uint64_t t0 = k == 0 ? process_start_ns() : now_ns();
      w->setup(res);
      setups.push_back(seconds_between(t0, now_ns()));
      std::printf(" %.3f", setups.back());
    }
    std::printf("\n");

    if (!args.trace) {
      const e2e e = w->measure(args.seconds, res);
      res.metric("setup_s", median(setups), "s");
      res.metric("peak_rss_mb", peak_rss_mib(), "MiB");
      res.metric("cg_solve_ms", e.cg_solve_ms, "ms");
      res.metric("lbm_mlups", e.lbm_mlups, "Mupdates/s");
      res.metric("op_p50_ms", e.op_p50_ms, "ms");
      res.metric("ops_per_s", e.ops_per_s, "ops/s");
    } else {
      const e2e plain = w->measure(args.seconds / 2.0, res);
      const std::uint64_t regions0 = pool_regions();
      jaccx::prof::enable_collection();
      span_log::get().enable(true);
      const e2e traced = w->measure(args.seconds / 2.0, res);
      span_log::get().enable(false);

      layer_sheet sheet;
      fill_common_layers(
          sheet, w->ops(),
          stream_triad_gbps(std::thread::hardware_concurrency(),
                            std::size_t{1} << 24, 3),
          regions0);
      w->layers(sheet, res);
      sheet.set("prof.trace_overhead_frac",
                overhead(plain.op_p50_ms, traced.op_p50_ms));
      sheet.set("prof.spans", static_cast<double>(span_log::get().size()));
      std::printf("per-layer (traced phase; mem.stream_gbps is a plain triad "
                  "over 3 x 128 MiB, kernel GB/s computed from launch "
                  "hints):\n");
      for (const layer_def& d : layer_catalogue()) {
        result::info(d.name, sheet.get(d.name), d.unit);
      }
      sheet.emit(res);
      if (!args.spans_path.empty()) {
        if (!span_log::get().write(args.spans_path)) {
          res.failed(1, "could not write spans to " + args.spans_path);
        } else {
          std::printf("spans: %zu written to %s\n", span_log::get().size(),
                      args.spans_path.c_str());
        }
      }
    }
  } catch (const std::exception& e) {
    res.failed(1, std::string("exception: ") + e.what());
  }
  w.reset();
  jacc::finalize();
  // The profiler's exit hook finalizes again after static destructors have
  // run, and with collection on it would publish roofline rates into the
  // already-destroyed achieved-rate registry; drop the sink first.
  jaccx::prof::register_rate_sink({});
  res.print_json();
  return res.correct() ? 0 : 1;
}

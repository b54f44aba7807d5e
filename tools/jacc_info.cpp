// jacc_info: prints the configured backend, the preference-resolution
// chain, the resolved runtime tuning state, and the device-model table —
// the "what am I running on?" CLI.
#include <cstdio>
#include <string>

#include "core/auto_backend.hpp"
#include "core/jacc.hpp"
#include "mem/pool.hpp"
#include "prof/prof.hpp"
#include "sim/device_model.hpp"
#include "support/env.hpp"
#include "threadpool/thread_pool.hpp"

namespace {

/// Prints one env var plus the value the runtime resolved from it.
void print_tuning(const char* var, const std::string& resolved) {
  const auto v = jaccx::get_env(var);
  std::printf("  %-17s : %-14s -> %s\n", var, v ? v->c_str() : "(unset)",
              resolved.c_str());
}

void print_runtime_tuning() {
  std::printf("runtime tuning\n");

  // initialize() has already rejected malformed pool settings, so the
  // default pool reports the values every threads launch runs with.
  const auto& threads = jaccx::pool::default_pool();
  const unsigned width = threads.size();
  print_tuning("JACC_NUM_THREADS",
               "pool width " + std::to_string(width) +
                   (jaccx::get_env("JACC_NUM_THREADS")
                        ? ""
                        : " (hardware concurrency)"));
  std::printf("  %-17s : %-14s -> spin %ld us before futex park\n",
              "spin budget", "(derived)", threads.spin_budget_us());

  const auto sc = threads.current_schedule();
  print_tuning("JACC_SCHEDULE",
               sc.kind == jaccx::pool::schedule_kind::static_chunks
                   ? "static"
                   : (sc.grain > 0
                          ? "dynamic, grain " + std::to_string(sc.grain)
                          : "dynamic, auto grain"));

  std::string prof = "off";
  if (const auto spec = jaccx::get_env("JACC_PROFILE")) {
    if (const auto bits = jaccx::prof::parse_mode_spec(*spec)) {
      prof.clear();
      if ((*bits & jaccx::prof::mode_summary) != 0) {
        prof = "summary";
      }
      if ((*bits & jaccx::prof::mode_trace) != 0) {
        prof += prof.empty() ? "trace" : "+trace";
      }
      if ((*bits & jaccx::prof::mode_roofline) != 0) {
        prof += prof.empty() ? "roofline" : "+roofline";
      }
      if (prof.empty()) {
        prof = (*bits & jaccx::prof::mode_collect) != 0 ? "collect" : "off";
      }
    } else {
      prof = "unparseable; off";
    }
  }
  print_tuning("JACC_PROFILE", prof);

  const auto trace = jaccx::get_env("JACC_TRACE_FILE");
  print_tuning("JACC_TRACE_FILE",
               trace ? *trace : std::string("jacc_trace.json when tracing"));

  // initialize() already installed the env+TOML resolution, so mode() is
  // the authoritative answer here.
  std::string pool = std::string(jaccx::mem::to_string(jaccx::mem::mode()));
  if (pool == "bucket") {
    pool += " (caching allocator + persistent reduce workspaces)";
  } else {
    pool += " (seed-fidelity passthrough)";
  }
  print_tuning("JACC_MEM_POOL", pool);

  // The lane policy applied to the pool's width, without starting the lane
  // threads.
  const int lanes = jacc::resolve_queue_lanes(width);
  std::string qcfg = std::to_string(lanes) + " async lane(s)";
  if (lanes > 1) {
    qcfg += ", " + std::to_string(width / static_cast<unsigned>(lanes) > 0
                                      ? width / static_cast<unsigned>(lanes)
                                      : 1) +
            " worker(s) each";
  } else {
    qcfg += " (queued work degrades to synchronous)";
  }
  if (!jaccx::get_env("JACC_QUEUES")) {
    qcfg += lanes > 1 ? " (width heuristic)" : "";
  }
  print_tuning("JACC_QUEUES", qcfg);
  std::printf("\n");
}

void print_mem_pools() {
  const auto rows = jaccx::mem::stats();
  if (rows.empty()) {
    return;
  }
  std::printf("memory pools (this process)\n");
  std::printf("  %-8s %8s %8s %12s %12s %12s\n", "pool", "hits", "misses",
              "cached KiB", "wspace KiB", "hi-water KiB");
  for (const auto& r : rows) {
    std::printf("  %-8s %8llu %8llu %12.1f %12.1f %12.1f\n", r.label.c_str(),
                static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.misses),
                static_cast<double>(r.bytes_cached) / 1024.0,
                static_cast<double>(r.workspace_bytes) / 1024.0,
                static_cast<double>(r.high_water_bytes) / 1024.0);
  }
  std::printf("\n");
}

} // namespace

int main() {
  jacc::initialize();
  std::printf("JACC-CXX backend resolution\n");
  if (const auto env = jaccx::get_env("JACC_BACKEND")) {
    std::printf("  JACC_BACKEND          : %s (wins)\n", env->c_str());
  } else {
    std::printf("  JACC_BACKEND          : (unset)\n");
  }
  if (const auto p = jaccx::get_env("JACC_PREFERENCES_FILE")) {
    std::printf("  JACC_PREFERENCES_FILE : %s\n", p->c_str());
  } else {
    std::printf("  JACC_PREFERENCES_FILE : (unset; ./LocalPreferences.toml)\n");
  }
  std::printf("  resolved backend      : %s\n\n",
              std::string(jacc::to_string(jacc::current_backend())).c_str());

  print_runtime_tuning();
  print_mem_pools();

  std::printf("%-9s %-5s %6s %9s %9s %9s %8s %8s\n", "model", "kind",
              "units", "dram GB/s", "cache MiB", "flop GF/s", "launch",
              "xfer lat");
  for (const auto& name : jaccx::sim::builtin_model_names()) {
    const auto& m = jaccx::sim::builtin_model(name);
    std::printf("%-9s %-5s %6d %9.0f %9zu %9.0f %6.1fus %6.1fus\n",
                m.name.c_str(),
                m.kind == jaccx::sim::device_kind::cpu ? "cpu" : "gpu",
                m.parallel_units, m.dram_bw_gbps, m.cache_bytes >> 20,
                m.flops_gflops, m.launch_overhead_us, m.xfer_latency_us);
  }

  // The same ceilings JACC_PROFILE=roofline places kernels against: sim
  // models via jaccx::sim::model_peak_rates, the host ("serial"/"threads")
  // via its configured default.  Ridge = GF/s / GB/s, the arithmetic
  // intensity where a kernel stops being memory-bound.
  std::printf("\nroofline ceilings (JACC_PROFILE=roofline)\n");
  std::printf("  %-9s %10s %10s %10s\n", "target", "peak GB/s", "peak GF/s",
              "ridge f/B");
  const auto host = jaccx::prof::host_roof();
  std::printf("  %-9s %10.0f %10.0f %10.2f  (host: serial/threads, "
              "configured default)\n", "host", host.gbps, host.gflops,
              host.gbps > 0.0 ? host.gflops / host.gbps : 0.0);
  for (const auto& name : jaccx::sim::builtin_model_names()) {
    if (const auto peak = jaccx::sim::model_peak_rates(name)) {
      std::printf("  %-9s %10.0f %10.0f %10.2f\n", name.c_str(),
                  peak->dram_gbps, peak->gflops,
                  peak->dram_gbps > 0.0 ? peak->gflops / peak->dram_gbps
                                        : 0.0);
    }
  }

  std::printf("\ntransparent selection on an MI100 node (sKokkos-style):\n");
  const auto show = [](const char* what, const jacc::workload& w) {
    std::printf("  %-34s -> %s\n", what,
                std::string(jacc::to_string(jacc::auto_select_node(
                                jacc::backend::hip_mi100, w)))
                    .c_str());
  };
  show("DOT, 4K elements",
       {.indices = 4096, .bytes_per_index = 16, .flops_per_index = 2,
        .is_reduce = true});
  show("DOT, 4M elements",
       {.indices = 1 << 22, .bytes_per_index = 16, .flops_per_index = 2,
        .is_reduce = true});
  show("AXPY, 4M elements",
       {.indices = 1 << 22, .bytes_per_index = 16, .flops_per_index = 2});
  return 0;
}

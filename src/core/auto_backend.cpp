#include "core/auto_backend.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>

#include "prof/prof.hpp"
#include "sim/device.hpp"
#include "sim/work_tally.hpp"

namespace jacc {
namespace {

/// Assembles the model inputs for one launch of `w` on model `m`.
double one_launch_us(const jaccx::sim::device_model& m, const workload& w,
                     bool via_jacc) {
  jaccx::sim::work_tally t;
  t.indices = static_cast<std::uint64_t>(w.indices);
  t.dram_bytes = static_cast<std::uint64_t>(
      w.bytes_per_index * static_cast<double>(w.indices));
  t.flops = static_cast<std::uint64_t>(
      w.flops_per_index * static_cast<double>(w.indices));
  const std::int64_t block =
      m.kind == jaccx::sim::device_kind::gpu
          ? (w.indices < m.max_threads_per_block ? std::int64_t{1}
                                                 : m.max_threads_per_block)
          : 1;
  t.blocks = m.kind == jaccx::sim::device_kind::gpu
                 ? static_cast<std::uint64_t>(
                       (w.indices + block - 1) / (block > 0 ? block : 1))
                 : static_cast<std::uint64_t>(m.parallel_units);
  jaccx::sim::launch_flavor f;
  f.via_jacc = via_jacc;
  f.is_reduce = w.is_reduce;
  double us = jaccx::sim::kernel_cost_us(m, t, f);
  if (w.is_reduce && m.kind == jaccx::sim::device_kind::gpu) {
    // The GPU reduction's fixed structure: two zero-fill kernels, the
    // second (partials) kernel, two scratch allocations, and the scalar
    // result transfer (see parallel_reduce.hpp).
    jaccx::sim::work_tally t2;
    us += 3.0 * jaccx::sim::kernel_cost_us(m, t2, f);
    us += 2.0 * m.alloc_overhead_us;
    us += jaccx::sim::transfer_cost_us(m, sizeof(double));
  }
  return us;
}

const jaccx::sim::device_model& model_for(backend b) {
  switch (b) {
  case backend::cuda_a100: return jaccx::sim::builtin_model("a100");
  case backend::hip_mi100: return jaccx::sim::builtin_model("mi100");
  case backend::oneapi_max1550: return jaccx::sim::builtin_model("max1550");
  default: return jaccx::sim::builtin_model("rome64");
  }
}

} // namespace

double predict_us(backend b, const workload& w) {
  const auto& m = model_for(b);
  if (b == backend::serial) {
    // One core, no fork/join: scale the parallel estimate back up.
    auto single = m;
    single.parallel_units = 1;
    single.launch_overhead_us = 0.1;
    return w.launches * one_launch_us(single, w, true);
  }
  return w.launches * one_launch_us(m, w, true);
}

std::vector<backend> auto_candidates() {
  return {backend::cpu_rome, backend::cuda_a100, backend::hip_mi100,
          backend::oneapi_max1550};
}

backend auto_select(const workload& w) {
  backend best = backend::cpu_rome;
  double best_us = std::numeric_limits<double>::infinity();
  for (backend b : auto_candidates()) {
    const double us = predict_us(b, w);
    if (us < best_us) {
      best_us = us;
      best = b;
    }
  }
  return best;
}

backend auto_select_node(backend gpu, const workload& w) {
  if (is_simulated(gpu) && gpu != backend::cpu_rome) {
    const double gpu_us = predict_us(gpu, w);
    const double cpu_us = predict_us(backend::cpu_rome, w);
    return gpu_us <= cpu_us ? gpu : backend::cpu_rome;
  }
  jaccx::throw_usage_error("auto_select_node expects a simulated GPU backend");
}

backend use_auto_backend(const workload& w) {
  const backend b = auto_select(w);
  set_backend(b);
  return b;
}

// --- measured achieved-rate feedback ----------------------------------------

namespace {

// Immortal: prof's atexit finalize publishes roofline feedback into the
// registry, and that can run after function-local statics are destroyed.
std::mutex& rates_mutex() {
  static auto* m = new std::mutex;
  return *m;
}

std::map<std::string, achieved_rate, std::less<>>& rates_map() {
  static auto* r = new std::map<std::string, achieved_rate, std::less<>>;
  return *r;
}

/// EWMA weight for new observations: heavy enough that a device slowing
/// down mid-run shifts its rate within a couple of launches, light enough
/// that one noisy sample does not whipsaw the shard boundaries.
constexpr double rate_alpha = 0.5;

} // namespace

void note_achieved_rate(std::string_view target, double gbps, double gflops) {
  if (gbps <= 0.0 && gflops <= 0.0) {
    return;
  }
  const std::lock_guard<std::mutex> lock(rates_mutex());
  auto& map = rates_map();
  auto it = map.find(target);
  if (it == map.end()) {
    it = map.emplace(std::string(target), achieved_rate{}).first;
  }
  achieved_rate& e = it->second;
  // Blend per component: an unhinted launch reports one rate as zero, which
  // must not decay the other component's history.
  if (gbps > 0.0) {
    e.gbps = e.gbps > 0.0 ? rate_alpha * gbps + (1.0 - rate_alpha) * e.gbps
                          : gbps;
  }
  if (gflops > 0.0) {
    e.gflops = e.gflops > 0.0
                   ? rate_alpha * gflops + (1.0 - rate_alpha) * e.gflops
                   : gflops;
  }
  ++e.samples;
}

achieved_rate achieved(std::string_view target) {
  const std::lock_guard<std::mutex> lock(rates_mutex());
  const auto& map = rates_map();
  const auto it = map.find(target);
  return it != map.end() ? it->second : achieved_rate{};
}

void clear_achieved_rates() {
  const std::lock_guard<std::mutex> lock(rates_mutex());
  rates_map().clear();
}

std::string target_for(backend b) {
  switch (b) {
  case backend::serial: return "serial";
  case backend::threads: return "threads";
  default: return model_for(b).name;
  }
}

double predict_us_measured(backend b, const workload& w) {
  const achieved_rate r = achieved(target_for(b));
  if (r.samples == 0) {
    return predict_us(b, w);
  }
  const auto& m = model_for(b);
  const double total_bytes =
      w.bytes_per_index * static_cast<double>(w.indices);
  const double total_flops =
      w.flops_per_index * static_cast<double>(w.indices);
  // GB/s == bytes/us * 1e-3, so us == bytes / (GB/s * 1e3); the slower of
  // the two measured rates bounds the kernel (roofline max rule).
  double body_us = 0.0;
  bool placed = false;
  if (total_bytes > 0.0 && r.gbps > 0.0) {
    body_us = std::max(body_us, total_bytes / (r.gbps * 1e3));
    placed = true;
  }
  if (total_flops > 0.0 && r.gflops > 0.0) {
    body_us = std::max(body_us, total_flops / (r.gflops * 1e3));
    placed = true;
  }
  if (!placed) {
    return predict_us(b, w); // measured rates say nothing about this kernel
  }
  // Fixed costs stay modeled: measurement covers the streaming body only.
  double fixed_us = b == backend::serial ? 0.1 : m.launch_overhead_us;
  if (w.is_reduce && m.kind == jaccx::sim::device_kind::gpu) {
    fixed_us += 3.0 * m.launch_overhead_us; // fills + partials kernels
    fixed_us += 2.0 * m.alloc_overhead_us;
    fixed_us += jaccx::sim::transfer_cost_us(m, sizeof(double));
  }
  return w.launches * (body_us + fixed_us);
}

backend auto_select_measured(const workload& w) {
  backend best = backend::cpu_rome;
  double best_us = std::numeric_limits<double>::infinity();
  for (backend b : auto_candidates()) {
    const double us = predict_us_measured(b, w);
    if (us < best_us) {
      best_us = us;
      best = b;
    }
  }
  return best;
}

void install_rate_feedback() {
  jaccx::prof::register_rate_sink(
      [](std::string_view target, std::string_view, double gbps,
         double gflops) { note_achieved_rate(target, gbps, gflops); });
}

} // namespace jacc

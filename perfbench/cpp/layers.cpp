#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/jacc.hpp"
#include "mem/pool.hpp"
#include "prof/prof.hpp"
#include "threadpool/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<layer_def>& layer_catalogue() {
  static const std::vector<layer_def> defs = {
      {"threadpool.regions", "count"},
      {"threadpool.busy_frac", "ratio"},
      {"threadpool.spin_us", "us"},
      {"threadpool.park_us", "us"},
      {"threadpool.parks", "count"},
      {"core.launches_per_op", "count"},
      {"core.empty_launch_us", "us"},
      {"core.kernel_gbps.tridiag_matvec", "GB/s"},
      {"core.kernel_gbps.csr_spmv", "GB/s"},
      {"core.kernel_gbps.lbm", "GB/s"},
      {"core.kernel_gbps.dot", "GB/s"},
      {"core.pct_of_stream", "%"},
      {"core.graph_replay_us", "us"},
      {"core.future_wait_p50_us", "us"},
      {"mem.hit_ratio", "ratio"},
      {"mem.misses", "count"},
      {"mem.high_water_mb", "MiB"},
      {"mem.cached_mb", "MiB"},
      {"mem.alloc_retries", "count"},
      {"mem.stream_gbps", "GB/s"},
      {"sim.launches", "count"},
      {"sim.dram_bytes", "B"},
      {"sim.cache_hit_ratio", "ratio"},
      {"sim.h2d_bytes", "B"},
      {"sim.d2h_bytes", "B"},
      {"sim.kernel_us", "us"},
      {"sim.xfer_us", "us"},
      {"sim.dot_us", "us"},
      {"sim.host_ns_per_index", "ns"},
      {"sim.cg_iter_us", "us"},
      {"sim.lbm_step_us", "us"},
      {"sim.cg4_iter_us", "us"},
      {"shard.halo_bytes", "B"},
      {"shard.imbalance", "ratio"},
      {"cg.iterations", "count"},
      {"cg.iterations_hpccg", "count"},
      {"cg.iterations_sim", "count"},
      {"cg.iter_s", "s"},
      {"cg.raw_serial_s", "s"},
      {"lbm.step_s", "s"},
      {"lbm.bytes_per_site", "B"},
      {"serve.job_p50_ms", "ms"},
      {"serve.job_p99_ms", "ms"},
      {"serve.job_samples", "count"},
      {"serve.capacity_jobs_s", "jobs/s"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.run_p50_ms.cg", "ms"},
      {"serve.run_p50_ms.cg_graph", "ms"},
      {"serve.run_p50_ms.lbm", "ms"},
      {"serve.run_p50_ms.blas", "ms"},
      {"serve.p99_ratio", "ratio"},
      {"serve.deferred", "count"},
      {"serve.rejected", "count"},
      {"serve.backlog_max", "count"},
      {"serve.gen_late_ms", "ms"},
      {"prof.trace_overhead_frac", "ratio"},
      {"prof.spans", "count"},
  };
  return defs;
}

layer_sheet::layer_sheet() {
  for (const layer_def& d : layer_catalogue()) {
    values_[d.name] = 0.0;
  }
}

void layer_sheet::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("unknown per-layer metric " + name);
  }
  it->second = value;
}

double layer_sheet::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void layer_sheet::emit(result& r) const {
  for (const layer_def& d : layer_catalogue()) {
    r.metric(d.name, values_.at(d.name), d.unit);
  }
}

std::uint64_t pool_regions() {
  std::uint64_t n = 0;
  for (const auto& p : jaccx::prof::aggregate_pools()) {
    n += p.regions;
  }
  return n;
}

double empty_launch_us() {
  const jacc::scoped_backend sb(jacc::backend::threads);
  const auto n =
      static_cast<jacc::index_t>(jaccx::pool::default_pool().size());
  const auto noop = [](jacc::index_t) {};
  for (int i = 0; i < 100; ++i) {
    jacc::parallel_for(n, noop);
  }
  std::vector<double> batches;
  for (int b = 0; b < 21; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < 200; ++i) {
      jacc::parallel_for(n, noop);
    }
    batches.push_back(seconds_between(t0, now_ns()) * 1e6 / 200.0);
  }
  return median(batches);
}

namespace {

bool is_host(const std::string& backend) {
  return backend == "threads" || backend == "serial";
}

/// Hinted GB/s over the host rows whose name contains `key` (exact match
/// when `exact`).
double kernel_gbps(const std::vector<jaccx::prof::kernel_stats>& rows,
                   const std::string& key, bool exact) {
  double bytes = 0.0;
  double us = 0.0;
  for (const auto& k : rows) {
    const bool hit = exact ? k.name == key
                           : k.name.find(key) != std::string::npos;
    if (hit && is_host(k.backend) && k.gbytes_per_s > 0.0) {
      bytes += k.gbytes_per_s * k.total_us * 1e3;
      us += k.total_us;
    }
  }
  return us > 0.0 ? bytes / (us * 1e3) : 0.0;
}

} // namespace

void fill_common_layers(layer_sheet& s, double ops, double stream_gbps,
                        std::uint64_t regions_before) {
  // threadpool: busy/spin/park time only advances while collecting.
  double busy = 0.0, spin = 0.0, park = 0.0, parks = 0.0;
  for (const auto& p : jaccx::prof::aggregate_pools()) {
    for (const auto& w : p.workers) {
      busy += static_cast<double>(w.busy_ns);
      spin += static_cast<double>(w.spin_ns);
      park += static_cast<double>(w.park_ns);
      parks += static_cast<double>(w.parks);
    }
  }
  s.set("threadpool.regions",
        static_cast<double>(pool_regions() - regions_before));
  s.set("threadpool.busy_frac",
        busy + spin + park > 0.0 ? busy / (busy + spin + park) : 0.0);
  s.set("threadpool.spin_us", spin * 1e-3);
  s.set("threadpool.park_us", park * 1e-3);
  s.set("threadpool.parks", parks);

  // core: launches, hinted kernel bandwidth (computed from launch hints).
  const auto rows = jaccx::prof::aggregate_kernels();
  double launches = 0.0;
  const jaccx::prof::kernel_stats* top = nullptr;
  for (const auto& k : rows) {
    launches += static_cast<double>(k.count);
    if (is_host(k.backend) && k.gbytes_per_s > 0.0 &&
        (top == nullptr || k.total_us > top->total_us)) {
      top = &k;
    }
  }
  s.set("core.launches_per_op", ops > 0.0 ? launches / ops : 0.0);
  s.set("core.kernel_gbps.tridiag_matvec",
        kernel_gbps(rows, "tridiag_matvec", false));
  s.set("core.kernel_gbps.csr_spmv", kernel_gbps(rows, "csr_spmv", false));
  s.set("core.kernel_gbps.lbm", kernel_gbps(rows, "jacc.lbm", true));
  s.set("core.kernel_gbps.dot", kernel_gbps(rows, "dot", false));
  if (top != nullptr && stream_gbps > 0.0) {
    s.set("core.pct_of_stream", 100.0 * top->gbytes_per_s / stream_gbps);
    std::printf("  core.pct_of_stream uses kernel %s (%s)\n", top->name.c_str(),
                top->backend.c_str());
  }
  const auto async = jaccx::prof::aggregate_async();
  if (async.graph_replays > 0) {
    s.set("core.graph_replay_us",
          async.graph_replay_us / static_cast<double>(async.graph_replays));
  }
  // future-wait p50 as the upper edge of the histogram bucket holding the
  // median wait (bucket 0: < 1 us; bucket k: [2^(k-1), 2^k) us).
  const auto hist = jaccx::prof::future_wait_histogram();
  std::uint64_t total = 0;
  for (const auto c : hist) {
    total += c;
  }
  if (total > 0) {
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < hist.size(); ++k) {
      acc += hist[k];
      if (2 * acc >= total) {
        s.set("core.future_wait_p50_us", std::ldexp(1.0, static_cast<int>(k)));
        break;
      }
    }
  }

  // mem: the caching pool's counters over every backing store.
  double hits = 0.0, misses = 0.0, high = 0.0, cached = 0.0;
  for (const auto& m : jaccx::mem::stats()) {
    hits += static_cast<double>(m.hits);
    misses += static_cast<double>(m.misses);
    high += static_cast<double>(m.high_water_bytes);
    cached += static_cast<double>(m.bytes_cached);
  }
  s.set("mem.hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  s.set("mem.misses", misses);
  s.set("mem.high_water_mb", high / 1048576.0);
  s.set("mem.cached_mb", cached / 1048576.0);
  s.set("mem.alloc_retries",
        static_cast<double>(jaccx::mem::alloc_retries()));
  s.set("mem.stream_gbps", stream_gbps);
  s.set("core.empty_launch_us", empty_launch_us());
}

} // namespace perfbench

// The three benchmark workloads and the per-layer metric sheet they fill.
//
// Every workload has the same shape, driven by main.cpp:
//   setup()            construction, allocation, upload and warm-up; timed
//                      seven times per run for setup_s
//   measure(seconds)   the timed loop; returns the end-to-end figures and
//                      checks every answer it produces
//   layers(sheet)      after a traced measure: per-layer figures
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct run_args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

/// End-to-end figures every workload reports (the metric meaning per
/// workload is documented in perfbench/README.md).
struct e2e {
  double cg_solve_ms = 0.0;
  double lbm_mlups = 0.0;
  double op_p50_ms = 0.0;
  double ops_per_s = 0.0;
};

/// Every per-layer metric with its unit, in BENCHMARK.json order.  A traced
/// run prints all of them; a layer the workload leaves idle reads 0.
struct layer_def {
  const char* name;
  const char* unit;
};
const std::vector<layer_def>& layer_catalogue();

class layer_sheet {
public:
  layer_sheet();
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  void emit(result& r) const;

private:
  std::map<std::string, double> values_;
};

/// Layer figures read from the program's own aggregates after a traced
/// phase: thread pools, the memory pool, per-kernel hinted bandwidth, graph
/// replays and future waits.  `ops` normalizes core.launches_per_op.
void fill_common_layers(layer_sheet& s, double ops, double stream_gbps,
                        std::uint64_t regions_before);

/// Regions run so far across every thread pool (prof::aggregate_pools).
std::uint64_t pool_regions();

/// Median wall time of a no-op parallel_for at n = pool width on threads.
double empty_launch_us();

class workload {
public:
  virtual ~workload() = default;
  virtual void setup(result& r) = 0;
  virtual e2e measure(double seconds, result& r) = 0;
  /// Operations of the last measure() (the core.launches_per_op base).
  virtual double ops() const = 0;
  virtual void layers(layer_sheet& s, result& r) = 0;
};

std::unique_ptr<workload> make_solve_large(const run_args& a);
std::unique_ptr<workload> make_serve_mix(const run_args& a);
std::unique_ptr<workload> make_sim_gpu(const run_args& a);

} // namespace perfbench

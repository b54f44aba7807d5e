// jacc::device_set — N simulated GPUs of one model acting as a single
// execution scope for the auto-sharding layer (docs/SHARDING.md).
//
// The OpenACC JACC work performs kernel-level multi-GPU parallelization
// automatically; this is that idea on the simulator.  A device_set owns N
// instances of one GPU model plus the shard decomposition state: per-device
// weights, the cached chunk boundaries they imply, and the measured
// throughput that re-derives the weights between launches.  Installing a
// device_set_scope makes every synchronous 1/2/3-D parallel_for /
// parallel_reduce inside it execute sharded across the set — kernels keep
// their GLOBAL indices; the runtime applies the decomposition.  Each
// device keeps its own clock; sync() is the aligning barrier.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/launch_desc.hpp"
#include "sim/stream.hpp"
#include "threadpool/partition.hpp"

namespace jacc {

class device_set {
public:
  /// `be` must be one of the simulated GPU back ends; `devices` >= 1.
  device_set(backend be, int devices);

  device_set(const device_set&) = delete;
  device_set& operator=(const device_set&) = delete;

  int devices() const { return static_cast<int>(devs_.size()); }
  backend target() const { return be_; }
  jaccx::sim::device& dev(int d) const {
    JACCX_ASSERT(d >= 0 && d < devices());
    return *devs_[static_cast<std::size_t>(d)];
  }
  /// "a100" for cuda_a100, etc.
  const std::string& model() const { return model_; }
  /// The achieved-rate registry name of device d: "<model>#<d>".
  std::string instance_target(int d) const;

  /// Wall clock of the set: the furthest-ahead device.
  double now_us() const;
  /// Barrier: folds every shard stream into its device clock, then aligns
  /// every device clock to now_us() and returns it.
  double sync();
  /// Rewinds all device clocks/logs (benchmarks).  Shard streams are
  /// discarded and recreated lazily at the new time origin.  Measured rates
  /// and weights survive — they describe the hardware, not the run.
  void reset_clocks();
  /// Shard d's queue: an independent sim stream ("<model>.shard<d>" in the
  /// Chrome trace) created on first use.
  jaccx::sim::stream& shard_stream(int d);

  // --- decomposition --------------------------------------------------------

  /// Chunk boundaries over a slow extent of `n` under the current weights:
  /// devices()+1 monotone values, bounds[d]..bounds[d+1] owned by device d.
  /// Cached per extent until the weights change.
  const std::vector<index_t>& bounds(index_t n);

  /// Device d's owned slow-index range of an extent-n decomposition.
  jaccx::pool::range chunk(index_t n, int d);

  /// Bumps every time the decomposition changes (rebalance, set_weights);
  /// sharded arrays compare this against the plan they were built under.
  std::uint64_t plan_generation() const { return generation_; }

  /// Current per-device weights (size devices(), sum > 0).
  const std::vector<double>& weights() const { return weights_; }
  /// Pins an explicit decomposition and disables measured auto-rebalance
  /// (the escape hatch; also how the bench computes its "ideal" plan).
  /// `{1, 0, ...}` is the single-device plan: every other shard is empty.
  void set_weights(std::vector<double> w);

  // --- measured rebalance ---------------------------------------------------

  /// Artificially slows device d: every subsequent launch on it is charged
  /// `factor`x its modeled time ("shard.slow" in the trace).  The skew knob
  /// for rebalance tests and the bench's degraded-device scenario.
  void set_slowdown(int d, double factor);
  double slowdown(int d) const {
    JACCX_ASSERT(d >= 0 && d < devices());
    return slowdown_[static_cast<std::size_t>(d)];
  }

  /// Records one per-device launch observation: smoothed items/us feeds the
  /// rebalancer; when `h` carries bytes/flops estimates the achieved GB/s /
  /// GF/s are published to the prof rate sink under instance_target(d).
  /// Returns the elapsed time after any slowdown inflation.
  double note_launch(int d, double elapsed_us, index_t items, const hints& h);

  /// Smoothed measured throughput of device d in items/us (0 = never
  /// measured since the last clear).
  double rate(int d) const {
    JACCX_ASSERT(d >= 0 && d < devices());
    return rate_[static_cast<std::size_t>(d)];
  }

  /// Re-derives the weights from the measured rates when every device has
  /// been observed and the current plan's worst relative deviation from the
  /// rate-proportional plan exceeds 0.2.  Returns true when the plan
  /// changed.  The launch path calls this after every sharded launch;
  /// manual set_weights disables it.
  bool maybe_rebalance();

  /// Drops measured rates (bench phase boundaries).
  void clear_rates();

private:
  backend be_;
  std::string model_;
  std::vector<jaccx::sim::device*> devs_;
  std::vector<std::unique_ptr<jaccx::sim::stream>> streams_; // lazily
  bool manual_weights_ = false;
  std::uint64_t generation_ = 0;
  std::vector<double> weights_;
  std::vector<double> rate_;     ///< EWMA items/us per device
  std::vector<double> slowdown_; ///< >= 1.0
  std::map<index_t, std::vector<index_t>> bounds_cache_;
};

namespace detail {

/// The device_set installed by the innermost live device_set_scope on this
/// thread (nullptr outside any scope).  The synchronous launch front ends
/// check this exactly like active_queue().
device_set* active_shard_set();

} // namespace detail

/// RAII scope routing synchronous launches through the sharding layer.
class device_set_scope {
public:
  explicit device_set_scope(device_set& ds);
  ~device_set_scope();
  device_set_scope(const device_set_scope&) = delete;
  device_set_scope& operator=(const device_set_scope&) = delete;

private:
  device_set* prev_;
};

} // namespace jacc

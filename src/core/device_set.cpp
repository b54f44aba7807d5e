#include "core/device_set.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "prof/prof.hpp"
#include "support/error.hpp"

namespace jacc {
namespace {

std::string model_of(backend be) {
  switch (be) {
  case backend::cuda_a100: return "a100";
  case backend::hip_mi100: return "mi100";
  case backend::oneapi_max1550: return "max1550";
  default:
    jaccx::throw_usage_error(
        "jacc::device_set targets the simulated GPU back ends "
        "(cuda_a100, hip_mi100, oneapi_max1550)");
  }
}

/// Relative deviation between the current plan and the rate-proportional
/// plan past which maybe_rebalance() re-shards (larger = stickier plans).
constexpr double rebalance_threshold = 0.2;

/// EWMA weight for per-launch throughput observations; matches the
/// auto_backend registry's smoothing so the two views agree.
constexpr double rate_alpha = 0.5;

thread_local device_set* t_active_shard_set = nullptr;

} // namespace

device_set::device_set(backend be, int devices) : be_(be) {
  if (devices < 1) {
    jaccx::throw_usage_error("jacc::device_set needs at least one device");
  }
  model_ = model_of(be);
  devs_.reserve(static_cast<std::size_t>(devices));
  for (int d = 0; d < devices; ++d) {
    devs_.push_back(&jaccx::sim::get_device_instance(model_, d));
  }
  const auto n = static_cast<std::size_t>(devices);
  weights_.assign(n, 1.0);
  rate_.assign(n, 0.0);
  slowdown_.assign(n, 1.0);
}

std::string device_set::instance_target(int d) const {
  JACCX_ASSERT(d >= 0 && d < devices());
  return model_ + "#" + std::to_string(d);
}

double device_set::now_us() const {
  double t = 0.0;
  for (const auto* d : devs_) {
    t = std::max(t, d->tl().now_us());
  }
  return t;
}

double device_set::sync() {
  for (std::size_t d = 0; d < streams_.size(); ++d) {
    if (streams_[d] != nullptr) {
      jaccx::sim::join(*devs_[d], {streams_[d].get()});
    }
  }
  const double t = now_us();
  for (auto* d : devs_) {
    const double behind = t - d->tl().now_us();
    if (behind > 0.0) {
      d->tl().record("shard.sync", jaccx::sim::event_kind::kernel, behind);
    }
  }
  return t;
}

void device_set::reset_clocks() {
  streams_.clear(); // recreated lazily at the new time origin
  for (auto* d : devs_) {
    d->reset_clock();
    d->cache().reset();
  }
}

jaccx::sim::stream& device_set::shard_stream(int d) {
  JACCX_ASSERT(d >= 0 && d < devices());
  if (streams_.size() != devs_.size()) {
    streams_.resize(devs_.size());
  }
  auto& s = streams_[static_cast<std::size_t>(d)];
  if (s == nullptr) {
    auto& dev = *devs_[static_cast<std::size_t>(d)];
    s = std::make_unique<jaccx::sim::stream>(
        dev, dev.model().name + ".shard" + std::to_string(d));
  }
  return *s;
}

const std::vector<index_t>& device_set::bounds(index_t n) {
  JACCX_ASSERT(n >= 0);
  auto it = bounds_cache_.find(n);
  if (it == bounds_cache_.end()) {
    it = bounds_cache_.emplace(n, jaccx::pool::weighted_bounds(n, weights_))
             .first;
  }
  return it->second;
}

jaccx::pool::range device_set::chunk(index_t n, int d) {
  JACCX_ASSERT(d >= 0 && d < devices());
  const auto& b = bounds(n);
  return {b[static_cast<std::size_t>(d)], b[static_cast<std::size_t>(d) + 1]};
}

void device_set::set_weights(std::vector<double> w) {
  if (static_cast<int>(w.size()) != devices()) {
    jaccx::throw_usage_error("set_weights needs one weight per device");
  }
  double total = 0.0;
  for (double x : w) {
    if (x < 0.0) {
      jaccx::throw_usage_error("shard weights must be non-negative");
    }
    total += x;
  }
  if (!(total > 0.0)) {
    jaccx::throw_usage_error("shard weights must not all be zero");
  }
  weights_ = std::move(w);
  manual_weights_ = true;
  bounds_cache_.clear();
  ++generation_;
}

void device_set::set_slowdown(int d, double factor) {
  JACCX_ASSERT(d >= 0 && d < devices());
  if (!(factor >= 1.0)) {
    jaccx::throw_usage_error("slowdown factor must be >= 1.0");
  }
  slowdown_[static_cast<std::size_t>(d)] = factor;
}

double device_set::note_launch(int d, double elapsed_us, index_t items,
                               const hints& h) {
  JACCX_ASSERT(d >= 0 && d < devices());
  const auto di = static_cast<std::size_t>(d);
  const double f = slowdown_[di];
  if (f > 1.0 && elapsed_us > 0.0) {
    // The degraded device really is slower: charge the extra time on its
    // clock so wall time, traces, and the measured rate all agree.
    const double extra = (f - 1.0) * elapsed_us;
    devs_[di]->tl().record("shard.slow", jaccx::sim::event_kind::kernel,
                           extra);
    elapsed_us += extra;
  }
  if (elapsed_us > 0.0 && items > 0) {
    const double observed = static_cast<double>(items) / elapsed_us;
    rate_[di] = rate_[di] > 0.0
                    ? rate_alpha * observed + (1.0 - rate_alpha) * rate_[di]
                    : observed;
    // Publish achieved rates for the measured placement policies whenever
    // the launch was hinted.  bytes/us * 1e-3 == GB/s.
    const double gbps =
        h.bytes_per_index * static_cast<double>(items) / elapsed_us * 1e-3;
    const double gflops =
        h.flops_per_index * static_cast<double>(items) / elapsed_us * 1e-3;
    if (gbps > 0.0 || gflops > 0.0) {
      jaccx::prof::note_rate(instance_target(d), h.name, gbps, gflops);
    }
  }
  return elapsed_us;
}

bool device_set::maybe_rebalance() {
  if (manual_weights_ || devices() < 2) {
    return false;
  }
  double rate_total = 0.0;
  double weight_total = 0.0;
  for (int d = 0; d < devices(); ++d) {
    const auto di = static_cast<std::size_t>(d);
    if (rate_[di] <= 0.0) {
      return false; // not every device measured yet
    }
    rate_total += rate_[di];
    weight_total += weights_[di];
  }
  double worst = 0.0;
  for (int d = 0; d < devices(); ++d) {
    const auto di = static_cast<std::size_t>(d);
    const double wf = weights_[di] / weight_total;
    const double rf = rate_[di] / rate_total;
    worst = std::max(worst, std::abs(wf - rf) / rf);
  }
  if (worst <= rebalance_threshold) {
    return false;
  }
  for (int d = 0; d < devices(); ++d) {
    const auto di = static_cast<std::size_t>(d);
    weights_[di] = rate_[di] / rate_total;
  }
  bounds_cache_.clear();
  ++generation_;
  return true;
}

void device_set::clear_rates() {
  std::fill(rate_.begin(), rate_.end(), 0.0);
}

namespace detail {

device_set* active_shard_set() { return t_active_shard_set; }

} // namespace detail

device_set_scope::device_set_scope(device_set& ds)
    : prev_(t_active_shard_set) {
  t_active_shard_set = &ds;
}

device_set_scope::~device_set_scope() { t_active_shard_set = prev_; }

} // namespace jacc

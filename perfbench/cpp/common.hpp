// Shared helpers of the repository benchmark: the percentile rule, the
// seeded open-loop job generator, the in-memory span recorder, the metric
// sink that prints the final JSON line, and small host probes (peak RSS,
// resolved configuration).  Everything here is benchmark-side code that only
// calls the program's public API; tests/helpers_test.cpp covers the pure
// parts (percentile rule, generator determinism, span self time).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- time ---------------------------------------------------------------------

using clock_type = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary process-wide origin.
std::uint64_t now_ns();

inline double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

/// Steady-clock time at which main() started (the set-up origin).
std::uint64_t process_start_ns();
void mark_process_start();

// --- percentiles ----------------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending), p in (0, 100].
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Median of an unsorted sample (the mean of the two middle values for an
/// even count); 0 for an empty sample.
double median(std::vector<double> v);

/// A timing summary under the benchmark's reporting rule: the median plus
/// the highest percentile of {99.9, 99, 95, 90, 75} that still has at least
/// ten samples beyond it, and the sample count.  `tail_pct` is 0 when fewer
/// than 40 samples exist (not even p75 has ten beyond).
struct summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};

summary summarize(std::vector<double> v);

/// The highest ladder percentile with at least `min_beyond` samples strictly
/// above its rank for a sample of `count` values (0 when none qualifies).
double highest_supported_percentile(std::size_t count,
                                    std::size_t min_beyond = 10);

// --- seeded open-loop generator ---------------------------------------------------

enum class job_kind : int { cg = 0, cg_graph = 1, lbm = 2, blas = 3 };
inline constexpr int job_kinds = 4;
const char* to_string(job_kind k);

/// One scheduled arrival of the serve_mix open-loop phase.
struct job_spec {
  std::uint64_t id = 0;
  double arrival_s = 0.0; ///< offset from the start of the phase
  job_kind kind = job_kind::cg;
  int size = 0;        ///< cg: n; lbm: lattice edge; blas: vector length
  int tenant = 0;
  std::uint64_t seed = 0; ///< per-job input seed
};

struct mix_params {
  double rate_per_s = 100.0; ///< Poisson arrival rate
  double duration_s = 1.0;   ///< arrivals are generated on [0, duration)
  int tenants = 8;
};

/// The job mix, stratified: every block of `mix_block_jobs` consecutive jobs
/// holds exactly `kind_counts` jobs of each kind (cg, cg_graph, lbm, blas =
/// 35/25/15/25%), spread evenly over the kind's sizes, in a seeded order.
/// Exact proportions keep the latency median from moving with the mix a
/// seed happens to draw.  Sizes are a small fixed set so graph replays can
/// be captured once per size.
inline constexpr int mix_block_jobs = 120;
inline constexpr int kind_counts[job_kinds] = {42, 30, 18, 30};
inline constexpr int cg_sizes[] = {4096, 8192, 16384};
inline constexpr int lbm_sizes[] = {64, 96, 128};
inline constexpr int blas_sizes[] = {4096, 16384};

/// Draws the whole open-loop schedule from `seed` alone: exponential
/// inter-arrival gaps at `rate_per_s`, then for each arrival a kind and
/// size from the stratified mix, a tenant and a per-job input seed.
std::vector<job_spec> make_schedule(std::uint64_t seed, const mix_params& p);

/// The i-th job of the closed-loop phase: the same mix without arrival
/// times (the closed loop submits on completion).
job_spec closed_loop_job(std::uint64_t seed, std::uint64_t index, int tenants);

// --- spans --------------------------------------------------------------------------

struct span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0; ///< 0 = root
  std::uint64_t job = 0;    ///< 0 = not part of a serve job
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (each child clipped to the parent).  Returns a
/// vector parallel to `spans`.
std::vector<std::uint64_t> self_times(const std::vector<span>& spans);

/// Process-wide span store.  Off unless enabled (the traced run); when off,
/// every call is a single relaxed check.
class span_log {
public:
  static span_log& get();

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread, parented to `parent`, or to the
  /// thread's innermost open span when `parent` is 0.  Returns its id (0
  /// when disabled).
  std::uint64_t open(std::string name, std::uint64_t job = 0,
                     std::uint64_t parent = 0);
  void close(std::uint64_t id);

  /// Records a span with explicit times and parent (end 0 = still open;
  /// set_end finishes it).
  std::uint64_t add(std::string name, std::uint64_t parent, std::uint64_t job,
                    std::uint64_t start_ns, std::uint64_t end_ns);
  void set_end(std::uint64_t id, std::uint64_t end_ns);

  std::size_t size() const;

  /// Writes every span with its self time as a JSON array.
  bool write(const std::string& path) const;

private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<span> spans_; ///< span id k lives at spans_[k - 1]
};

/// RAII span around one call into a layer.
class scoped_span {
public:
  explicit scoped_span(const char* name, std::uint64_t job = 0,
                       std::uint64_t parent = 0)
      : id_(span_log::get().enabled() ? span_log::get().open(name, job, parent)
                                      : 0) {}
  ~scoped_span() {
    if (id_ != 0) {
      span_log::get().close(id_);
    }
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  std::uint64_t id() const { return id_; }

private:
  std::uint64_t id_;
};

// --- results ------------------------------------------------------------------------

/// Collects the run's metrics and the correctness tally, and prints the
/// final JSON line.
class result {
public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts one checked operation; `ok == false` also prints `what`.
  void check(bool ok, const std::string& what);
  void failed(std::uint64_t n, const std::string& what);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// Informational report line ("name = value unit"), printed immediately.
  static void info(const std::string& name, double value,
                   const std::string& unit, const std::string& note = "");

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void print_json() const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- host probes --------------------------------------------------------------------

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();

/// Prints the resolved configuration: JACC_* knobs, nproc, cache sizes.
void print_configuration();

/// Plain-C++ STREAM triad on `threads` std::threads over three arrays of
/// `elems` doubles; returns the best of `reps` sweeps in GB/s (24 computed
/// bytes per element).
double stream_triad_gbps(unsigned threads, std::size_t elems, int reps);

/// Minimal deterministic generator (splitmix64) for per-job inputs.
struct splitmix {
  std::uint64_t s;
  explicit splitmix(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

} // namespace perfbench

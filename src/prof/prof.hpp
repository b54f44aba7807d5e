// jaccx::prof — a KokkosP-style profiling layer for the JACC front end.
//
// The paper's central claim (Sec. V) is that the portable layer adds
// near-zero overhead over device-specific code.  This subsystem makes that
// claim observable from the inside without recompiling user code, the way
// Kokkos Tools does for Kokkos:
//
//   * a hook registry (begin/end_parallel_for, begin/end_parallel_reduce,
//     alloc/free/copy, region_push/pop) invoked from the core dispatch and
//     jacc::array, carrying the launch hints (name, flops, bytes);
//   * per-thread lock-free event rings (see ring.hpp) plus fork/join pool
//     counters (busy vs spin vs park time, chunks claimed);
//   * an aggregator producing the per-kernel stats table printed at
//     jacc::finalize() under JACC_PROFILE=summary, and a unified
//     Chrome-trace JSON (JACC_PROFILE=trace + JACC_TRACE_FILE=...) merging
//     real wall-clock events with every simulated device's timeline so one
//     Perfetto view shows both worlds.
//
// Cost contract: everything is compiled in but branch-gated.  With
// JACC_PROFILE unset and no tool registered, an instrumented site costs one
// relaxed atomic load and a predictable not-taken branch — no allocation,
// no time read (verified by bench/abl_dispatch_overhead and
// tests/prof_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "prof/ring.hpp"

namespace jaccx::prof {

// --- mode / gating ----------------------------------------------------------

/// Bit flags resolved from JACC_PROFILE (or set_mode).  `collect` fills the
/// event rings; `summary`, `trace`, and `roofline` imply collect and choose
/// what finalize() does with the data.
inline constexpr unsigned mode_off = 0u;
inline constexpr unsigned mode_collect = 1u;
inline constexpr unsigned mode_summary = 2u;
inline constexpr unsigned mode_trace = 4u;
inline constexpr unsigned mode_roofline = 8u;

/// Parses a JACC_PROFILE spec: "off", "summary", "trace", "roofline",
/// "collect", or a comma list ("summary,trace").  Returns nullopt for
/// unknown values.
std::optional<unsigned> parse_mode_spec(std::string_view spec);

namespace detail {
extern std::atomic<unsigned> g_mode;
extern std::atomic<bool> g_enabled;
} // namespace detail

/// True when any instrumentation consumer exists (collection mode on or an
/// external tool registered).  This is THE hot-path gate: one relaxed load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

inline unsigned mode() {
  return detail::g_mode.load(std::memory_order_relaxed);
}
inline bool collecting() { return (mode() & mode_collect) != 0; }
inline bool trace_enabled() { return (mode() & mode_trace) != 0; }
inline bool roofline_enabled() { return (mode() & mode_roofline) != 0; }

/// Installs a mode programmatically (tests, benches).  `trace_path` is only
/// consulted when `bits` includes mode_trace; empty keeps the current path.
void set_mode(unsigned bits, std::string_view trace_path = {});

/// ORs mode_collect into the current mode (benches force collection so the
/// per-kernel JSON is populated regardless of JACC_PROFILE).
void enable_collection();

std::string trace_path();

// --- tool hook registry (KokkosP analogue) ----------------------------------

/// Metadata handed to kernel hooks: the dispatch-site hints plus the
/// resolved backend and the iteration count.
struct kernel_info {
  std::string_view name;
  construct kind = construct::parallel_for;
  std::uint64_t indices = 0;
  double flops_per_index = 0.0;
  double bytes_per_index = 0.0;
  std::string_view backend;
};

/// External tool callbacks.  Null members are skipped.  Mirrors KokkosP:
/// begin hooks receive a kernel id that the matching end hook repeats.
struct callbacks {
  void* user = nullptr;
  void (*begin_parallel_for)(void* user, const kernel_info&,
                             std::uint64_t kid) = nullptr;
  void (*end_parallel_for)(void* user, std::uint64_t kid) = nullptr;
  void (*begin_parallel_reduce)(void* user, const kernel_info&,
                                std::uint64_t kid) = nullptr;
  void (*end_parallel_reduce)(void* user, std::uint64_t kid) = nullptr;
  void (*alloc)(void* user, std::string_view name,
                std::uint64_t bytes) = nullptr;
  void (*free_)(void* user, std::uint64_t bytes) = nullptr;
  void (*copy)(void* user, std::string_view name, bool to_device,
               std::uint64_t bytes) = nullptr;
  void (*region_push)(void* user, std::string_view name) = nullptr;
  void (*region_pop)(void* user) = nullptr;
};

/// Registers a tool; returns its id.  Registration flips enabled() on.
std::uint64_t register_callbacks(const callbacks& cb);
void unregister_callbacks(std::uint64_t id);

// --- instrumentation entry points (cold paths, called only when enabled) ---

std::uint64_t now_ns();

// `cold` keeps the never-taken call blocks out of the dispatch hot path's
// register allocation and code layout (part of the disabled-cost contract).
[[gnu::cold]] std::uint64_t begin_kernel(const kernel_info& info);
[[gnu::cold]] void end_kernel(std::uint64_t kid, construct kind);

void region_push(std::string_view name);
void region_pop();

void note_alloc(std::string_view name, std::uint64_t bytes);
void note_free(std::uint64_t bytes);
void note_copy(std::string_view name, bool to_device, std::uint64_t bytes);

/// Names the calling thread's event ring in trace output ("pool.worker.3").
void label_this_thread(std::string_view label);

/// Fork/join pool worker slice (busy with chunk count, or park).
void emit_pool_slice(construct kind, unsigned worker, std::uint64_t t0_ns,
                     std::uint64_t t1_ns, std::uint64_t chunks);

/// Tee for one simulated-timeline event; called by sim::timeline::record
/// when trace or roofline mode is on so bench-time logging toggles and
/// clock resets cannot lose the events the user asked to export (roofline
/// needs the modeled DRAM/flop tallies at simulated time — host wall-clock
/// rates are meaningless for the sim backends).
void note_sim_event(std::string_view device_label, std::string_view name,
                    std::string_view category, double ts_us, double dur_us,
                    std::uint64_t dram_bytes, std::uint64_t cache_bytes,
                    std::uint64_t flops, std::uint64_t indices);

// --- async-substrate instrumentation (queues, graphs, futures, dist) --------

/// Mints a process-unique flow id linking one queue submission to the lane
/// task that executes it (Chrome-trace flow events).
std::uint64_t next_flow_id();

/// Instant on the submitting thread: work entered `queue_id`'s deque (or
/// degraded to an inline run).  `flow_id` 0 means no matching task span.
void note_queue_submit(std::uint64_t queue_id, std::uint64_t flow_id);

/// Span on the lane dispatcher thread: one task of `queue_id` executed on
/// `lane` between t0 and t1.
void note_queue_task(std::uint64_t queue_id, std::uint64_t flow_id,
                     unsigned lane, std::uint64_t t0_ns, std::uint64_t t1_ns);

/// Span: one graph::launch replay of `nodes` nodes (`kernels` of them
/// kernel nodes).
void note_graph_replay(std::uint64_t nodes, std::uint64_t kernels,
                       std::uint64_t t0_ns, std::uint64_t t1_ns);

/// Span: the host blocked in future::get between t0 and t1 (t0 == t1 for a
/// ready future).  Also folded into the wait-latency histogram.
void note_future_wait(std::uint64_t t0_ns, std::uint64_t t1_ns);

/// Instant: `bytes` of dist payload charged to the wire under `name`
/// (per charged transfer; an exchange's two directions share one charge).
void note_comm(std::string_view name, std::uint64_t bytes);

/// Future-wait latency histogram: bucket 0 counts waits under 1 us, bucket
/// k >= 1 counts waits in [2^(k-1), 2^k) us; the last bucket is open-ended.
inline constexpr std::size_t future_wait_buckets = 20;
std::vector<std::uint64_t> future_wait_histogram();

// --- RAII helpers used by the dispatch layer --------------------------------

/// Brackets one parallel_for / parallel_reduce.  Disabled cost: one relaxed
/// load in the constructor and a predictable branch in each of ctor/dtor.
class kernel_scope {
public:
  kernel_scope(construct kind, std::string_view name, std::uint64_t indices,
               double flops_per_index, double bytes_per_index,
               std::string_view backend)
      : armed_(enabled()), kind_(kind) {
    if (armed_) [[unlikely]] {
      kid_ = begin_kernel(kernel_info{name, kind, indices, flops_per_index,
                                      bytes_per_index, backend});
    }
  }
  ~kernel_scope() {
    if (armed_) [[unlikely]] {
      end_kernel(kid_, kind_);
    }
  }
  kernel_scope(const kernel_scope&) = delete;
  kernel_scope& operator=(const kernel_scope&) = delete;

private:
  bool armed_;
  construct kind_;
  std::uint64_t kid_; // only written/read when armed_; no eager zeroing
};

/// Brackets one graph::launch replay; same disabled-cost shape as
/// kernel_scope (one relaxed load + predictable branch per end).
class graph_replay_scope {
public:
  graph_replay_scope(std::uint64_t nodes, std::uint64_t kernels)
      : armed_(enabled()), nodes_(nodes), kernels_(kernels) {
    if (armed_) [[unlikely]] {
      t0_ = now_ns();
    }
  }
  ~graph_replay_scope() {
    if (armed_) [[unlikely]] {
      note_graph_replay(nodes_, kernels_, t0_, now_ns());
    }
  }
  graph_replay_scope(const graph_replay_scope&) = delete;
  graph_replay_scope& operator=(const graph_replay_scope&) = delete;

private:
  bool armed_;
  std::uint64_t nodes_;
  std::uint64_t kernels_;
  std::uint64_t t0_; // only written/read when armed_
};

/// User-facing named region (nests).
class scoped_region {
public:
  explicit scoped_region(std::string_view name) : armed_(enabled()) {
    if (armed_) [[unlikely]] {
      region_push(name);
    }
  }
  ~scoped_region() {
    if (armed_) [[unlikely]] {
      region_pop();
    }
  }
  scoped_region(const scoped_region&) = delete;
  scoped_region& operator=(const scoped_region&) = delete;

private:
  bool armed_;
};

// --- pool statistics --------------------------------------------------------

struct pool_worker_stat {
  unsigned worker = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t spin_ns = 0;
  std::uint64_t park_ns = 0;
  std::uint64_t parks = 0;
  std::uint64_t chunks = 0;
  std::uint64_t regions = 0;
};

struct pool_stats {
  std::string label = "pool"; ///< "pool" (default) or "queue.lane<N>"
  unsigned width = 0;
  std::string schedule;
  std::uint64_t regions = 0; ///< barrier regions run (sub-width ones inline)
  std::vector<pool_worker_stat> workers;
};

/// A thread pool registers a stats fetcher at construction and unregisters
/// at destruction; unregistering freezes a final snapshot so a pool that
/// dies before finalize() still appears in the report.
void register_pool(const void* owner, std::function<pool_stats()> fetch);
void unregister_pool(const void* owner);

// --- memory-pool statistics -------------------------------------------------

/// Counters for one jaccx::mem caching pool: one row per backing store
/// ("host" plus each simulated device by model name).  Hit/miss count
/// free-list lookups; bytes_cached is parked on free lists right now;
/// high_water_bytes is the peak of live + cached + workspace bytes.
struct mem_pool_stats {
  std::string label;
  std::string mode; ///< resolved JACC_MEM_POOL mode ("bucket" / "none")
  std::uint64_t hits = 0;
  std::uint64_t stalls = 0; ///< hits reusing another queue's released block
  std::uint64_t misses = 0;
  std::uint64_t bytes_cached = 0;
  std::uint64_t bytes_live = 0;
  std::uint64_t high_water_bytes = 0;
  std::uint64_t workspace_bytes = 0; ///< persistent reduction workspaces
  std::uint64_t live_blocks = 0;
};

/// The mem subsystem registers one process-wide fetcher (an empty function
/// clears it); prof stays independent of the allocator layer the same way
/// register_pool keeps it independent of the thread pool.
void register_mem_pool_source(std::function<std::vector<mem_pool_stats>()> fetch);

/// Current mem-pool rows (fetched now, outside the profiler lock); empty
/// when no source is registered or no pool has been touched.
std::vector<mem_pool_stats> aggregate_mem_pools();

// --- queue statistics -------------------------------------------------------

/// Counters for one jacc::queue: operations enqueued, async lane traffic,
/// and the furthest simulated stream clock the queue reached.
struct queue_stats {
  std::uint64_t id = 0;
  std::string label; ///< "default" or "q<id>"
  std::uint64_t launches = 0;    ///< parallel_for / parallel_reduce enqueues
  std::uint64_t copies = 0;      ///< queued jacc::array copies
  std::uint64_t async_tasks = 0; ///< operations routed through a threads lane
  std::uint64_t waits = 0;       ///< queue.wait(event) dependencies
  std::uint64_t syncs = 0;       ///< queue.synchronize() calls
  int lane = -1;                 ///< threads lane the queue is pinned to
  double sim_us = 0.0;           ///< furthest simulated stream clock reached
};

/// The queue subsystem registers one process-wide fetcher, mirroring
/// register_mem_pool_source (an empty function clears it).
void register_queue_source(std::function<std::vector<queue_stats>()> fetch);

/// Current per-queue rows (fetched now, outside the profiler lock); empty
/// when no source is registered or no queue has done work.
std::vector<queue_stats> aggregate_queues();

// --- serving statistics -----------------------------------------------------

/// Per-tenant counters from a jaccx::serve scheduler (docs/SERVING.md):
/// admission outcomes plus queue-wait latency quantiles measured from
/// submission to the instant a slot picks the job up.
struct serve_tenant_stats {
  std::string name;
  double weight = 1.0;
  int priority = 1; ///< serve::priority as an int (0 low .. 2 high)
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;          ///< parked by admission control
  std::uint64_t deferred_admitted = 0; ///< deferred, later admitted
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0; ///< job body threw
  double wait_p50_us = 0.0;
  double wait_p99_us = 0.0;
  double busy_us = 0.0; ///< Σ job execution wall time
};

/// Utilization of one scheduler slot (its queue / lane share).
struct serve_slot_stats {
  int slot = 0;
  std::uint64_t jobs = 0;
  double busy_us = 0.0;
};

/// One scheduler's aggregate view; uptime_us normalizes slot busy time
/// into utilization.
struct serve_stats {
  std::vector<serve_tenant_stats> tenants;
  std::vector<serve_slot_stats> slots;
  double uptime_us = 0.0;
};

/// The serve subsystem registers one process-wide fetcher, mirroring
/// register_mem_pool_source (an empty function clears it).
void register_serve_source(std::function<serve_stats()> fetch);

/// Current serving rows (fetched now, outside the profiler lock); empty
/// when no scheduler is live.
serve_stats aggregate_serve();

// --- roofline ---------------------------------------------------------------

/// Roofline ceilings for one execution target: peak DRAM bandwidth and peak
/// double-precision rate.
struct roof_rates {
  double gbps = 0.0;
  double gflops = 0.0;
};

/// The sim layer registers a resolver mapping a device-model name
/// ("a100"...) to its peak rates (an empty function clears it); prof stays
/// independent of the model tables the same way register_pool keeps it
/// independent of the thread pool.
void register_roof_source(
    std::function<std::optional<roof_rates>(std::string_view)> fetch);

/// Peak rates for one device-model name via the registered source; nullopt
/// for unknown names or when no source is registered.
std::optional<roof_rates> model_roof(std::string_view model);

/// The host (serial/threads) ceilings used for roofline placement: a
/// conservative configured estimate (DRAM 16 GB/s, 2 GF/s per hardware
/// thread).  set_host_roof overrides it (benches that measured a STREAM
/// figure).
roof_rates host_roof();
void set_host_roof(roof_rates r);

/// One (kernel, target) roofline placement.  Host targets ("serial",
/// "threads") are built from the ring aggregates' launch hints and real
/// wall-clock; simulated targets (model names) from the teed sim events'
/// modeled DRAM/flop tallies at simulated time.
struct roofline_stats {
  std::string name;       ///< kernel name
  std::string target;     ///< "serial", "threads", or a sim model name
  bool simulated = false;
  std::uint64_t count = 0;
  double time_us = 0.0;
  double flops = 0.0;
  double bytes = 0.0;              ///< DRAM bytes (hinted or modeled)
  double intensity = 0.0;          ///< arithmetic intensity, flop / DRAM byte
  roof_rates peak;                 ///< ceilings for `target`
  double ridge = 0.0;              ///< peak.gflops / peak.gbps
  double achieved_gbps = 0.0;
  double achieved_gflops = 0.0;
  double attainable_gflops = 0.0;  ///< min(peak.gflops, intensity*peak.gbps)
  double pct_of_roof = 0.0;        ///< achieved as % of its roof
  bool memory_bound = true;        ///< intensity < ridge
};

/// Roofline rows for everything recorded so far, sorted by target then
/// descending time.  Unhinted host kernels (no flops/bytes) are dropped.
std::vector<roofline_stats> aggregate_roofline();

/// The JACC_PROFILE=roofline report.
std::string roofline_text();

// --- achieved-rate feedback -------------------------------------------------

/// Consumer of achieved-rate observations: (target, kernel, GB/s, GF/s).
/// Targets are execution-target names as roofline rows use them ("serial",
/// "threads", a sim model "a100") plus per-instance forms ("a100#2") from
/// the sharding layer.  auto_backend registers the process-wide consumer
/// (install_rate_feedback); an empty function clears it.  prof stays
/// independent of the selection layer the same way register_mem_pool_source
/// keeps it independent of the allocator.
using rate_sink = std::function<void(
    std::string_view target, std::string_view kernel, double gbps,
    double gflops)>;
void register_rate_sink(rate_sink sink);

/// Forwards one observation to the registered sink (no-op without one).
/// jacc::device_set calls this after every per-shard launch; nothing is
/// recorded in the profiler itself.
void note_rate(std::string_view target, std::string_view kernel, double gbps,
               double gflops);

/// Pushes every current roofline row's achieved rates into the sink
/// (target = the row's target).  finalize() calls this, so any profiled run
/// feeds the measured placement policies without bench cooperation.
void publish_roofline_feedback();

// --- async-substrate aggregation --------------------------------------------

struct lane_util {
  std::string label; ///< "queue.task.lane<N>"
  std::uint64_t tasks = 0;
  double busy_us = 0.0;
};

struct comm_stat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Folded async-substrate counters (exact across ring overflow).
struct async_stats {
  std::uint64_t queue_submits = 0;
  std::uint64_t queue_tasks = 0;
  double queue_task_us = 0.0;
  std::vector<lane_util> lanes;
  std::uint64_t graph_replays = 0;
  std::uint64_t graph_nodes = 0;   ///< Σ nodes over all replays
  std::uint64_t graph_kernels = 0; ///< Σ kernel nodes over all replays
  double graph_replay_us = 0.0;
  std::uint64_t future_waits = 0;
  double future_wait_us = 0.0;
  std::vector<comm_stat> comms;
};

async_stats aggregate_async();

// --- aggregation / output ---------------------------------------------------

struct kernel_stats {
  std::string name;
  construct kind = construct::parallel_for;
  std::string backend;
  std::uint64_t count = 0;
  std::uint64_t units = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  double gflops_per_s = 0.0; ///< from the flops_per_index hints; 0 if unhinted
  double gbytes_per_s = 0.0; ///< from the bytes_per_index hints; 0 if unhinted
};

struct memory_stats {
  std::uint64_t allocs = 0, alloc_bytes = 0;
  std::uint64_t frees = 0, free_bytes = 0;
  std::uint64_t h2d_copies = 0, h2d_bytes = 0;
  std::uint64_t d2h_copies = 0, d2h_bytes = 0;
};

/// Per-kernel/region rows folded across every thread ring (exact even past
/// ring capacity), sorted by total time descending.
std::vector<kernel_stats> aggregate_kernels();
memory_stats aggregate_memory();
/// Live pools (fetched now) plus frozen snapshots, zero-region ones dropped.
std::vector<pool_stats> aggregate_pools();

/// The JACC_PROFILE=summary report.
std::string summary_text();

/// The unified Chrome-trace JSON: host rings as pid 1 (one tid per thread),
/// each simulated device as its own pid, Perfetto/about:tracing loadable.
/// Queue submissions and their lane tasks are linked with flow events.
std::string chrome_trace_json();

/// Expands "%p" in a JACC_TRACE_FILE path to the current pid, so parallel
/// ctest invocations with trace mode on don't clobber each other's JSON.
std::string expand_trace_path(std::string_view path);

/// Acts on the current mode: prints the summary (stdout) and/or writes the
/// trace file.  Idempotent until new events arrive; called by
/// jacc::finalize() and from an atexit hook when JACC_PROFILE requested
/// output, so programs that never call finalize still get their report.
void finalize();

/// Test support: drops all collected events, sim tees, and frozen pool
/// snapshots.  Must be called while no kernels are in flight.
void reset();

/// Test support: number of thread rings ever created (the disabled path
/// must never create one) and events evicted from trace windows.
std::size_t debug_ring_count();
std::uint64_t debug_trace_dropped();

} // namespace jaccx::prof

#include "prof/prof.hpp"

#include "prof/internal.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>

#include "support/env.hpp"

namespace jaccx::prof {

namespace detail {
std::atomic<unsigned> g_mode{mode_off};
std::atomic<bool> g_enabled{false};
} // namespace detail

const char* to_string(construct c) {
  switch (c) {
  case construct::parallel_for:
    return "parallel_for";
  case construct::parallel_reduce:
    return "parallel_reduce";
  case construct::region:
    return "region";
  case construct::pool_busy:
    return "pool.busy";
  case construct::pool_park:
    return "pool.park";
  case construct::alloc:
    return "alloc";
  case construct::free_:
    return "free";
  case construct::copy_h2d:
    return "copy.h2d";
  case construct::copy_d2h:
    return "copy.d2h";
  case construct::queue_submit:
    return "queue.submit";
  case construct::queue_task:
    return "queue.task";
  case construct::graph_replay:
    return "graph.replay";
  case construct::future_wait:
    return "future.wait";
  case construct::comm:
    return "comm";
  }
  return "?";
}

namespace {

/// One simulated-timeline event teed from sim::timeline::record.
struct sim_event {
  std::string device;
  std::string name;
  std::string category;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t dram_bytes = 0, cache_bytes = 0, flops = 0, indices = 0;
};

struct registered_tool {
  std::uint64_t id = 0;
  callbacks cb;
};

/// Process-wide profiler state.  Intentionally leaked: pool workers may
/// emit their final accounting during static destruction, and an atexit
/// finalize() runs after other static destructors — both need this alive.
struct state_t {
  std::mutex mu;

  /// Interned kernel/region names.  node-based container: element
  /// addresses are stable, so records hold plain `const std::string*`.
  std::unordered_set<std::string> names;

  std::vector<event_ring*> rings; ///< leaked, one per emitting thread
  std::vector<sim_event> sim_events;

  std::shared_ptr<const std::vector<registered_tool>> tools =
      std::make_shared<const std::vector<registered_tool>>();
  std::uint64_t next_tool_id = 1;

  struct pool_entry {
    const void* owner = nullptr;
    std::function<pool_stats()> fetch;
  };
  std::vector<pool_entry> pools;
  std::vector<pool_stats> frozen_pools;

  std::function<std::vector<mem_pool_stats>()> mem_pool_source;
  std::function<std::vector<queue_stats>()> queue_source;
  std::function<serve_stats()> serve_source;
  std::function<std::optional<roof_rates>(std::string_view)> roof_source;

  /// Host roofline ceilings; the configured default on first read,
  /// overridable via set_host_roof.
  bool host_roof_set = false;
  roof_rates host_roof;

  std::string trace_path;

  /// finalize() idempotence: the event signature last acted upon.
  std::uint64_t last_report_signature = ~std::uint64_t{0};

  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

state_t& st() {
  static state_t* s = new state_t();
  return *s;
}

void refresh_enabled_locked(state_t& s) {
  const bool on = detail::g_mode.load(std::memory_order_relaxed) != mode_off ||
                  !s.tools->empty();
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::shared_ptr<const std::vector<registered_tool>> tool_snapshot() {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.tools;
}

const std::string* intern(std::string_view name) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  return &*s.names.emplace(name).first;
}

/// The calling thread's ring, created (and leaked) on first use.
event_ring& my_ring() {
  thread_local event_ring* ring = nullptr;
  if (ring == nullptr) {
    state_t& s = st();
    std::lock_guard<std::mutex> lock(s.mu);
    const unsigned tid = static_cast<unsigned>(s.rings.size());
    ring = new event_ring(tid, tid == 0 ? "main"
                                        : "thread." + std::to_string(tid));
    s.rings.push_back(ring);
  }
  return *ring;
}

/// Per-thread stack of in-flight kernels/regions; begin/end pair LIFO on
/// the launching thread because the constructs are synchronous.
struct inflight {
  const std::string* name = nullptr;
  construct kind = construct::parallel_for;
  std::uint64_t units = 0;
  double flops_per_index = 0.0;
  double bytes_per_index = 0.0;
  std::string_view backend;
  std::uint64_t t0_ns = 0;
  std::uint64_t kid = 0;
};

std::vector<inflight>& my_stack() {
  thread_local std::vector<inflight> stack;
  return stack;
}

std::atomic<std::uint64_t> g_next_kid{1};
std::atomic<std::uint64_t> g_next_flow{1};

/// Future-wait latency histogram (lock-free: get() may run on any thread).
std::array<std::atomic<std::uint64_t>, future_wait_buckets> g_wait_hist{};

std::size_t wait_bucket(std::uint64_t wait_ns) {
  std::uint64_t us = wait_ns / 1000;
  std::size_t b = 0;
  while (us != 0 && b + 1 < future_wait_buckets) {
    us >>= 1;
    ++b;
  }
  return b;
}

/// Registered during static initialization, i.e. before main() and before
/// any function-local static (default_pool, sim devices) is constructed —
/// so it runs after their destructors, once every producer is gone.
struct env_init {
  env_init() {
    if (const auto spec = get_env("JACC_PROFILE")) {
      if (const auto bits = parse_mode_spec(*spec)) {
        unsigned m = *bits;
        if (m != mode_off) {
          m |= mode_collect;
        }
        detail::g_mode.store(m, std::memory_order_relaxed);
        detail::g_enabled.store(m != mode_off, std::memory_order_relaxed);
      }
    }
    if (const auto path = get_env("JACC_TRACE_FILE")) {
      st().trace_path = *path;
    }
    std::atexit([] { finalize(); });
  }
};
env_init g_env_init;

} // namespace

std::optional<unsigned> parse_mode_spec(std::string_view spec) {
  unsigned bits = mode_off;
  while (!spec.empty()) {
    const auto comma = spec.find(',');
    const std::string_view word = spec.substr(0, comma);
    if (word == "off" || word == "0" || word.empty()) {
      // no-op
    } else if (word == "collect" || word == "1" || word == "on") {
      bits |= mode_collect;
    } else if (word == "summary") {
      bits |= mode_summary | mode_collect;
    } else if (word == "trace") {
      bits |= mode_trace | mode_collect;
    } else if (word == "roofline") {
      bits |= mode_roofline | mode_collect;
    } else {
      return std::nullopt;
    }
    if (comma == std::string_view::npos) {
      break;
    }
    spec.remove_prefix(comma + 1);
  }
  return bits;
}

void set_mode(unsigned bits, std::string_view trace_path) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  detail::g_mode.store(bits, std::memory_order_relaxed);
  if (!trace_path.empty()) {
    s.trace_path = std::string(trace_path);
  }
  s.last_report_signature = ~std::uint64_t{0};
  refresh_enabled_locked(s);
}

void enable_collection() {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  detail::g_mode.fetch_or(mode_collect, std::memory_order_relaxed);
  refresh_enabled_locked(s);
}

std::string trace_path() {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.trace_path;
}

std::uint64_t register_callbacks(const callbacks& cb) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  auto next = std::make_shared<std::vector<registered_tool>>(*s.tools);
  const std::uint64_t id = s.next_tool_id++;
  next->push_back(registered_tool{id, cb});
  s.tools = std::move(next);
  refresh_enabled_locked(s);
  return id;
}

void unregister_callbacks(std::uint64_t id) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  auto next = std::make_shared<std::vector<registered_tool>>(*s.tools);
  std::erase_if(*next, [id](const registered_tool& t) { return t.id == id; });
  s.tools = std::move(next);
  refresh_enabled_locked(s);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - st().epoch)
          .count());
}

std::uint64_t begin_kernel(const kernel_info& info) {
  const std::uint64_t kid =
      g_next_kid.fetch_add(1, std::memory_order_relaxed);
  const auto tools = tool_snapshot();
  for (const auto& t : *tools) {
    if (info.kind == construct::parallel_reduce) {
      if (t.cb.begin_parallel_reduce != nullptr) {
        t.cb.begin_parallel_reduce(t.cb.user, info, kid);
      }
    } else if (t.cb.begin_parallel_for != nullptr) {
      t.cb.begin_parallel_for(t.cb.user, info, kid);
    }
  }
  if (collecting()) {
    // Intern the backend name too: to_string(backend) is inline, so the
    // literal's address may differ per TU — aggregation keys on pointer
    // identity and needs one canonical copy.
    my_stack().push_back(inflight{intern(info.name), info.kind, info.indices,
                                  info.flops_per_index, info.bytes_per_index,
                                  std::string_view(*intern(info.backend)),
                                  now_ns(), kid});
  }
  return kid;
}

void end_kernel(std::uint64_t kid, construct kind) {
  if (collecting()) {
    auto& stack = my_stack();
    // Match by id from the top: set_mode mid-flight can leave unmatched
    // frames below, which are dropped rather than mispaired.
    while (!stack.empty()) {
      const inflight f = stack.back();
      stack.pop_back();
      if (f.kid != kid) {
        continue;
      }
      record r;
      r.name = f.name;
      r.kind = f.kind;
      r.backend = f.backend;
      r.t0_ns = f.t0_ns;
      r.t1_ns = now_ns();
      r.units = f.units;
      r.flops_per_index = f.flops_per_index;
      r.bytes_per_index = f.bytes_per_index;
      my_ring().push(r);
      break;
    }
  }
  const auto tools = tool_snapshot();
  for (const auto& t : *tools) {
    if (kind == construct::parallel_reduce) {
      if (t.cb.end_parallel_reduce != nullptr) {
        t.cb.end_parallel_reduce(t.cb.user, kid);
      }
    } else if (t.cb.end_parallel_for != nullptr) {
      t.cb.end_parallel_for(t.cb.user, kid);
    }
  }
}

void region_push(std::string_view name) {
  const auto tools = tool_snapshot();
  for (const auto& t : *tools) {
    if (t.cb.region_push != nullptr) {
      t.cb.region_push(t.cb.user, name);
    }
  }
  if (collecting()) {
    my_stack().push_back(
        inflight{intern(name), construct::region, 0, 0.0, 0.0, {}, now_ns(),
                 g_next_kid.fetch_add(1, std::memory_order_relaxed)});
  }
}

void region_pop() {
  if (collecting()) {
    auto& stack = my_stack();
    if (!stack.empty()) {
      const inflight f = stack.back();
      stack.pop_back();
      record r;
      r.name = f.name;
      r.kind = construct::region;
      r.t0_ns = f.t0_ns;
      r.t1_ns = now_ns();
      my_ring().push(r);
    }
  }
  const auto tools = tool_snapshot();
  for (const auto& t : *tools) {
    if (t.cb.region_pop != nullptr) {
      t.cb.region_pop(t.cb.user);
    }
  }
}

namespace {

void note_memory(construct kind, std::string_view name, std::uint64_t bytes) {
  if (!collecting()) {
    return;
  }
  record r;
  r.name = intern(name);
  r.kind = kind;
  r.t0_ns = r.t1_ns = now_ns();
  r.units = bytes;
  my_ring().push(r);
}

} // namespace

void note_alloc(std::string_view name, std::uint64_t bytes) {
  const auto tools = tool_snapshot();
  for (const auto& t : *tools) {
    if (t.cb.alloc != nullptr) {
      t.cb.alloc(t.cb.user, name, bytes);
    }
  }
  note_memory(construct::alloc, name, bytes);
}

void note_free(std::uint64_t bytes) {
  const auto tools = tool_snapshot();
  for (const auto& t : *tools) {
    if (t.cb.free_ != nullptr) {
      t.cb.free_(t.cb.user, bytes);
    }
  }
  note_memory(construct::free_, "device.free", bytes);
}

void note_copy(std::string_view name, bool to_device, std::uint64_t bytes) {
  const auto tools = tool_snapshot();
  for (const auto& t : *tools) {
    if (t.cb.copy != nullptr) {
      t.cb.copy(t.cb.user, name, to_device, bytes);
    }
  }
  note_memory(to_device ? construct::copy_h2d : construct::copy_d2h, name,
              bytes);
}

void label_this_thread(std::string_view label) {
  my_ring().set_label(std::string(label));
}

void emit_pool_slice(construct kind, unsigned worker, std::uint64_t t0_ns,
                     std::uint64_t t1_ns, std::uint64_t chunks) {
  if (!collecting()) {
    return;
  }
  record r;
  r.name = intern(to_string(kind));
  r.kind = kind;
  r.worker = static_cast<std::uint16_t>(worker);
  r.t0_ns = t0_ns;
  r.t1_ns = t1_ns;
  r.units = chunks;
  my_ring().push(r);
}

void note_sim_event(std::string_view device_label, std::string_view name,
                    std::string_view category, double ts_us, double dur_us,
                    std::uint64_t dram_bytes, std::uint64_t cache_bytes,
                    std::uint64_t flops, std::uint64_t indices) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  sim_event ev;
  ev.device = std::string(device_label);
  ev.name = std::string(name);
  ev.category = std::string(category);
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.dram_bytes = dram_bytes;
  ev.cache_bytes = cache_bytes;
  ev.flops = flops;
  ev.indices = indices;
  s.sim_events.push_back(std::move(ev));
}

std::uint64_t next_flow_id() {
  return g_next_flow.fetch_add(1, std::memory_order_relaxed);
}

void note_queue_submit(std::uint64_t queue_id, std::uint64_t flow_id) {
  if (!collecting()) {
    return;
  }
  record r;
  r.name = intern("queue.submit");
  r.kind = construct::queue_submit;
  r.t0_ns = r.t1_ns = now_ns();
  r.units = queue_id;
  r.aux = flow_id;
  my_ring().push(r);
}

void note_queue_task(std::uint64_t queue_id, std::uint64_t flow_id,
                     unsigned lane, std::uint64_t t0_ns, std::uint64_t t1_ns) {
  if (!collecting()) {
    return;
  }
  record r;
  // The lane index lives in the interned name so the fold keys produce one
  // per-lane utilization row for free (worker carries it for trace args).
  r.name = intern("queue.task.lane" + std::to_string(lane));
  r.kind = construct::queue_task;
  r.worker = static_cast<std::uint16_t>(lane);
  r.t0_ns = t0_ns;
  r.t1_ns = t1_ns;
  r.units = queue_id;
  r.aux = flow_id;
  my_ring().push(r);
}

void note_graph_replay(std::uint64_t nodes, std::uint64_t kernels,
                       std::uint64_t t0_ns, std::uint64_t t1_ns) {
  if (!collecting()) {
    return;
  }
  record r;
  r.name = intern("graph.replay");
  r.kind = construct::graph_replay;
  r.t0_ns = t0_ns;
  r.t1_ns = t1_ns;
  r.units = nodes;
  r.aux = kernels;
  my_ring().push(r);
}

void note_future_wait(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  if (!collecting()) {
    return;
  }
  g_wait_hist[wait_bucket(t1_ns - t0_ns)].fetch_add(
      1, std::memory_order_relaxed);
  record r;
  r.name = intern("future.wait");
  r.kind = construct::future_wait;
  r.t0_ns = t0_ns;
  r.t1_ns = t1_ns;
  my_ring().push(r);
}

void note_comm(std::string_view name, std::uint64_t bytes) {
  if (!collecting()) {
    return;
  }
  record r;
  r.name = intern(name);
  r.kind = construct::comm;
  r.t0_ns = r.t1_ns = now_ns();
  r.units = bytes;
  my_ring().push(r);
}

std::vector<std::uint64_t> future_wait_histogram() {
  std::vector<std::uint64_t> out(future_wait_buckets, 0);
  for (std::size_t i = 0; i < future_wait_buckets; ++i) {
    out[i] = g_wait_hist[i].load(std::memory_order_relaxed);
  }
  return out;
}

void register_roof_source(
    std::function<std::optional<roof_rates>(std::string_view)> fetch) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  s.roof_source = std::move(fetch);
}

std::optional<roof_rates> model_roof(std::string_view model) {
  state_t& s = st();
  std::function<std::optional<roof_rates>(std::string_view)> fetch;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    fetch = s.roof_source;
  }
  return fetch ? fetch(model) : std::nullopt;
}

roof_rates host_roof() {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.host_roof_set) {
    roof_rates r;
    // Configured defaults: a conservative DDR4 stream figure and 2 GF/s
    // per hardware thread.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    r.gbps = 16.0;
    r.gflops = 2.0 * static_cast<double>(hw);
    s.host_roof = r;
    s.host_roof_set = true;
  }
  return s.host_roof;
}

void set_host_roof(roof_rates r) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  s.host_roof = r;
  s.host_roof_set = true;
}

void register_pool(const void* owner, std::function<pool_stats()> fetch) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  s.pools.push_back(state_t::pool_entry{owner, std::move(fetch)});
}

void unregister_pool(const void* owner) {
  state_t& s = st();
  std::function<pool_stats()> fetch;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto it = s.pools.begin(); it != s.pools.end(); ++it) {
      if (it->owner == owner) {
        fetch = std::move(it->fetch);
        s.pools.erase(it);
        break;
      }
    }
  }
  if (fetch) {
    pool_stats snap = fetch(); // outside the lock: fetch may touch the pool
    std::lock_guard<std::mutex> lock(s.mu);
    s.frozen_pools.push_back(std::move(snap));
  }
}

void register_mem_pool_source(
    std::function<std::vector<mem_pool_stats>()> fetch) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  s.mem_pool_source = std::move(fetch);
}

std::vector<mem_pool_stats> aggregate_mem_pools() {
  state_t& s = st();
  std::function<std::vector<mem_pool_stats>()> fetch;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    fetch = s.mem_pool_source;
  }
  // Outside the lock: the fetcher takes the allocator's own mutex, and the
  // allocator charges devices (which can tee back into prof) under it.
  return fetch ? fetch() : std::vector<mem_pool_stats>{};
}

void register_queue_source(std::function<std::vector<queue_stats>()> fetch) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  s.queue_source = std::move(fetch);
}

std::vector<queue_stats> aggregate_queues() {
  state_t& s = st();
  std::function<std::vector<queue_stats>()> fetch;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    fetch = s.queue_source;
  }
  // Outside the lock: the fetcher takes the queue registry's own mutexes.
  return fetch ? fetch() : std::vector<queue_stats>{};
}

void register_serve_source(std::function<serve_stats()> fetch) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  s.serve_source = std::move(fetch);
}

serve_stats aggregate_serve() {
  state_t& s = st();
  std::function<serve_stats()> fetch;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    fetch = s.serve_source;
  }
  // Outside the lock: the fetcher takes the scheduler's own mutex.
  return fetch ? fetch() : serve_stats{};
}

void reset() {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  for (event_ring* ring : s.rings) {
    ring->clear();
  }
  s.sim_events.clear();
  s.frozen_pools.clear();
  s.last_report_signature = ~std::uint64_t{0};
  for (auto& b : g_wait_hist) {
    b.store(0, std::memory_order_relaxed);
  }
}

std::size_t debug_ring_count() {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.rings.size();
}

std::uint64_t debug_trace_dropped() {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  std::uint64_t dropped = 0;
  for (const event_ring* ring : s.rings) {
    dropped += ring->dropped_from_trace();
  }
  return dropped;
}

// Internal bridge used by report.cpp (same TU-family, not public API).
namespace internal {

std::vector<event_ring*> ring_snapshot() {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.rings;
}

std::vector<sim_event_view> sim_snapshot() {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<sim_event_view> out;
  out.reserve(s.sim_events.size());
  for (const sim_event& ev : s.sim_events) {
    out.push_back(sim_event_view{ev.device, ev.name, ev.category, ev.ts_us,
                                 ev.dur_us, ev.dram_bytes, ev.cache_bytes,
                                 ev.flops, ev.indices});
  }
  return out;
}

std::vector<pool_stats> pool_snapshot() {
  state_t& s = st();
  std::vector<std::function<pool_stats()>> fetchers;
  std::vector<pool_stats> out;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    out = s.frozen_pools;
    fetchers.reserve(s.pools.size());
    for (const auto& p : s.pools) {
      fetchers.push_back(p.fetch);
    }
  }
  for (const auto& fetch : fetchers) {
    out.push_back(fetch());
  }
  return out;
}

bool report_signature_changed(std::uint64_t sig) {
  state_t& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.last_report_signature == sig) {
    return false;
  }
  s.last_report_signature = sig;
  return true;
}

} // namespace internal

} // namespace jaccx::prof

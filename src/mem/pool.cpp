#include "mem/pool.hpp"
#include "mem/workspace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <utility>

#include "sim/device.hpp"
#include "support/env.hpp"
#include "support/error.hpp"

namespace jaccx::mem {
namespace {

constexpr std::size_t host_align = 64;    // matches jaccx::aligned_buffer
constexpr std::size_t device_align = 256; // matches the device arena

std::size_t round_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

void* host_alloc(std::size_t bytes) {
  void* p = std::aligned_alloc(host_align, round_up(bytes, host_align));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

std::atomic<std::uint64_t> g_alloc_retries{0};

/// Memory-pressure subscribers (admission control).  Guarded by their own
/// mutex, never invoked with any pool lock held.
struct pressure_registry {
  std::mutex mu;
  std::uint64_t next_token = 1;
  std::map<std::uint64_t, std::function<void()>> callbacks;
};

pressure_registry& pressure_reg() {
  static pressure_registry* r = new pressure_registry();
  return *r;
}

/// Fires every registered pressure callback.  Must be called with NO pool
/// lock held: subscribers are allowed to call back into the pool.
void notify_pressure() {
  std::vector<std::function<void()>> fns;
  {
    pressure_registry& r = pressure_reg();
    const std::lock_guard lock(r.mu);
    fns.reserve(r.callbacks.size());
    for (const auto& [token, fn] : r.callbacks) {
      fns.push_back(fn);
    }
  }
  for (const auto& fn : fns) {
    fn();
  }
}

/// One parked free-list block, tagged with the queue that released it and
/// that queue's simulated clock at release time (stream-ordered reuse).
struct cached_block {
  void* ptr = nullptr;
  std::uint64_t queue = 0;
  double released_us = 0.0;
  /// Monotonic release order across ALL pools — the oldest-first eviction
  /// key for trim().  Never consulted by acquire's pick logic.
  std::uint64_t stamp = 0;
};

/// Counters + free lists for one backing store.  All fields are guarded by
/// state_t::mu; `dev == nullptr` is the shared host pool.
struct backing_pool {
  sim::device* dev = nullptr;
  /// Cached blocks keyed by backing size (power-of-two buckets and
  /// exact-size large blocks share one map — the key IS the size class).
  std::map<std::size_t, std::vector<cached_block>> free_lists;
  std::uint64_t hits = 0;
  std::uint64_t stalls = 0; ///< hits served from another queue's releases
  std::uint64_t misses = 0;
  std::uint64_t bytes_cached = 0;
  std::uint64_t bytes_live = 0;
  std::uint64_t live_blocks = 0;
  std::uint64_t workspace_bytes = 0;
  std::uint64_t high_water = 0;

  bool touched() const {
    return hits + misses + live_blocks + workspace_bytes + high_water != 0;
  }
  void bump_high_water() {
    high_water = std::max(high_water, bytes_live + bytes_cached + workspace_bytes);
  }
};

struct workspace_entry {
  void* partials = nullptr;
  std::size_t partial_bytes = 0;
  void* result = nullptr;
  std::size_t result_bytes = 0;
};

/// One parked host reduction scratch slab (workspace.hpp lease pool).
struct scratch_slab {
  void* ptr = nullptr;
  std::size_t capacity = 0;
};

struct state_t {
  std::mutex mu;
  backing_pool host;
  std::map<sim::device*, backing_pool> device_pools;
  std::map<std::pair<sim::device*, std::size_t>, workspace_entry> workspaces;
  std::uint64_t next_stamp = 0; ///< LRU clock for cached_block::stamp

  /// Parked host reduction scratch slabs (guarded by mu, held only for the
  /// park/unpark instants — leased slabs are owned by their lease, so
  /// concurrent reductions never serialize on a shared buffer).
  std::vector<scratch_slab> scratch_free;
  /// Capacity across parked AND leased slabs (mirrors host.workspace_bytes).
  std::size_t scratch_total = 0;

  state_t() {
    prof::register_mem_pool_source([] { return stats(); });
  }
};

// Leaked (never destroyed): release() runs from array destructors that may
// outlive any static destruction order.
state_t& st() {
  static state_t* s = new state_t();
  return *s;
}

backing_pool& pool_for_locked(state_t& s, sim::device* dev) {
  if (dev == nullptr) {
    return s.host;
  }
  backing_pool& p = s.device_pools[dev];
  p.dev = dev;
  return p;
}

std::atomic<int> g_mode{-1}; // -1: not yet resolved

pool_mode resolve_env_mode() {
  if (const auto env = get_env("JACC_MEM_POOL")) {
    if (const auto m = parse_mode(*env)) {
      return *m;
    }
    // Lazy path stays non-throwing (it runs inside allocation calls);
    // jacc::initialize() rejects unknown values loudly.
  }
  return pool_mode::bucket;
}

std::uint64_t total_cached_locked(state_t& s) {
  std::uint64_t n = s.host.bytes_cached;
  for (const auto& [dev, p] : s.device_pools) {
    n += p.bytes_cached;
  }
  return n;
}

/// Frees the single oldest-released cached block across every pool back to
/// its backing store.  Returns the bytes it occupied (0 when nothing is
/// cached anywhere).
std::uint64_t evict_oldest_locked(state_t& s) {
  backing_pool* best_pool = nullptr;
  std::size_t best_size = 0;
  std::size_t best_idx = 0;
  std::uint64_t best_stamp = 0;
  const auto scan = [&](backing_pool& p) {
    for (auto& [size, list] : p.free_lists) {
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (best_pool == nullptr || list[i].stamp < best_stamp) {
          best_pool = &p;
          best_size = size;
          best_idx = i;
          best_stamp = list[i].stamp;
        }
      }
    }
  };
  scan(s.host);
  for (auto& [dev, p] : s.device_pools) {
    scan(p);
  }
  if (best_pool == nullptr) {
    return 0;
  }
  auto& list = best_pool->free_lists[best_size];
  const cached_block cb = list[best_idx];
  list.erase(list.begin() + static_cast<std::ptrdiff_t>(best_idx));
  if (list.empty()) {
    best_pool->free_lists.erase(best_size);
  }
  if (best_pool->dev != nullptr) {
    best_pool->dev->charge_free(best_size);
    best_pool->dev->arena_release();
  } else {
    std::free(cb.ptr);
  }
  best_pool->bytes_cached -= best_size;
  return best_size;
}

void trim_locked(state_t& s, std::uint64_t target) {
  while (total_cached_locked(s) > target) {
    if (evict_oldest_locked(s) == 0) {
      break;
    }
  }
}

/// Runs `attempt` once; on std::bad_alloc, empties every free list back to
/// the backing stores (cached device blocks drop their arena live-refs, so
/// a fully-parked arena rewinds) and retries exactly once.  The second
/// failure propagates.  Caller holds s.mu and must set `pressured` so the
/// pressure callbacks fire after the lock is dropped.
template <typename F>
auto alloc_with_retry_locked(state_t& s, bool& pressured, F&& attempt) {
  try {
    return attempt();
  } catch (const std::bad_alloc&) {
    trim_locked(s, 0);
    g_alloc_retries.fetch_add(1, std::memory_order_relaxed);
    pressured = true;
    return attempt();
  }
}

void drain_locked(state_t& s) {
  const auto drain_pool = [](backing_pool& p) {
    for (auto& [size, list] : p.free_lists) {
      for (const cached_block& cb : list) {
        if (p.dev != nullptr) {
          p.dev->charge_free(size);
          p.dev->arena_release();
        } else {
          std::free(cb.ptr);
        }
      }
      p.bytes_cached -= size * list.size();
    }
    p.free_lists.clear();
    JACCX_ASSERT(p.bytes_cached == 0);
  };
  drain_pool(s.host);
  for (auto& [dev, p] : s.device_pools) {
    drain_pool(p);
  }
  for (auto& [key, ws] : s.workspaces) {
    sim::device* dev = key.first;
    backing_pool& p = pool_for_locked(s, dev);
    if (ws.partials != nullptr) {
      dev->charge_free(ws.partial_bytes);
      dev->arena_release();
      p.workspace_bytes -= ws.partial_bytes;
    }
    if (ws.result != nullptr) {
      dev->charge_free(ws.result_bytes);
      dev->arena_release();
      p.workspace_bytes -= ws.result_bytes;
    }
  }
  s.workspaces.clear();
  // Parked scratch slabs are freed; leased slabs stay with their lease (a
  // lease returning after drain re-parks its slab, caught by the next
  // drain), so their capacity stays counted.
  for (const scratch_slab& slab : s.scratch_free) {
    std::free(slab.ptr);
    JACCX_ASSERT(s.scratch_total >= slab.capacity);
    s.scratch_total -= slab.capacity;
  }
  s.scratch_free.clear();
  s.host.workspace_bytes = s.scratch_total;
}

} // namespace

std::optional<pool_mode> parse_mode(std::string_view spec) {
  if (spec == "bucket" || spec == "pool" || spec == "on") {
    return pool_mode::bucket;
  }
  if (spec == "none" || spec == "off") {
    return pool_mode::none;
  }
  return std::nullopt;
}

pool_mode mode() {
  int m = g_mode.load(std::memory_order_acquire);
  if (m < 0) {
    int expected = -1;
    g_mode.compare_exchange_strong(expected,
                                   static_cast<int>(resolve_env_mode()),
                                   std::memory_order_acq_rel);
    m = g_mode.load(std::memory_order_acquire);
  }
  return static_cast<pool_mode>(m);
}

void set_mode(pool_mode m) {
  const int prev = g_mode.exchange(static_cast<int>(m),
                                   std::memory_order_acq_rel);
  if (prev != static_cast<int>(m)) {
    drain();
  }
}

void set_default_mode(pool_mode m) {
  // No drain needed on success: an unresolved mode means no allocation has
  // gone through the pool yet (mode() resolves on first acquire).
  int expected = -1;
  g_mode.compare_exchange_strong(expected, static_cast<int>(m),
                                 std::memory_order_acq_rel);
}

std::size_t bucket_bytes(std::size_t bytes) {
  if (bytes <= min_bucket_bytes) {
    return min_bucket_bytes;
  }
  if (bytes <= max_pow2_bucket_bytes) {
    return std::bit_ceil(bytes);
  }
  return round_up(bytes, device_align);
}

block acquire(sim::device* dev, std::size_t bytes, std::string_view name,
              queue_ctx qc) {
  block b;
  b.dev = dev;
  if (mode() == pool_mode::none || bytes == 0) {
    // Seed-exact passthrough (also the zero-byte degenerate case in
    // bucket mode: the arena still hands out a distinct address, matching
    // the seed, and a null host pointer stays null).  Exhaustion still
    // gets the trim-once-and-retry treatment: the success path is
    // bit-identical to the seed, only the failure path changes.
    b.bytes = bytes;
    const auto with_retry = [](auto&& attempt) {
      try {
        return attempt();
      } catch (const std::bad_alloc&) {
        trim(0);
        g_alloc_retries.fetch_add(1, std::memory_order_relaxed);
        auto* p = attempt();
        notify_pressure();
        return p;
      }
    };
    if (dev != nullptr) {
      b.ptr = with_retry([&] { return dev->arena_allocate(bytes); });
      dev->charge_alloc(bytes, name);
    } else if (bytes != 0) {
      b.ptr = with_retry([&] { return host_alloc(bytes); });
    }
    if (b.ptr != nullptr || dev != nullptr) {
      state_t& s = st();
      const std::lock_guard lock(s.mu);
      backing_pool& p = pool_for_locked(s, dev);
      p.bytes_live += bytes;
      ++p.live_blocks;
      p.bump_high_water();
    }
    return b;
  }

  const std::size_t rounded = bucket_bytes(bytes);
  b.bytes = rounded;
  b.pooled = true;
  bool pressured = false;
  state_t& s = st();
  std::unique_lock lock(s.mu);
  backing_pool& p = pool_for_locked(s, dev);
  if (const auto it = p.free_lists.find(rounded);
      it != p.free_lists.end() && !it->second.empty()) {
    // Stream-ordered preference: newest block released on the SAME queue
    // first (no synchronization implied).  With only the default queue in
    // play every entry matches and this is exactly the old LIFO pop_back.
    auto& list = it->second;
    auto pick = list.end();
    for (auto e = list.rbegin(); e != list.rend(); ++e) {
      if (e->queue == qc.queue) {
        pick = std::prev(e.base());
        break;
      }
    }
    if (pick == list.end()) {
      // Cross-queue reuse: take the newest block and surface the implied
      // sync — the consumer cannot touch it before the release instant.
      pick = std::prev(list.end());
      if (pick->released_us > qc.now_us) {
        b.stall_us = pick->released_us;
        ++p.stalls;
      }
    }
    b.ptr = pick->ptr;
    list.erase(pick);
    b.from_cache = true;
    ++p.hits;
    p.bytes_cached -= rounded;
  } else {
    // Miss: the backing store is charged for the full size class, exactly
    // as a caching allocator requests rounded blocks from the driver.  On
    // exhaustion the free lists are trimmed to zero and the allocation
    // retried once before std::bad_alloc reaches the caller.
    b.ptr = alloc_with_retry_locked(s, pressured, [&] {
      return dev != nullptr ? dev->arena_allocate(rounded)
                            : host_alloc(rounded);
    });
    if (dev != nullptr) {
      dev->charge_alloc(rounded, name);
    }
    ++p.misses;
  }
  p.bytes_live += rounded;
  ++p.live_blocks;
  p.bump_high_water();
  if (pressured) {
    lock.unlock();
    notify_pressure();
  }
  return b;
}

void release(block& b, queue_ctx qc) noexcept {
  if (b.ptr == nullptr && b.dev == nullptr) {
    b = block{};
    return;
  }
  state_t& s = st();
  const std::lock_guard lock(s.mu);
  backing_pool& p = pool_for_locked(s, b.dev);
  if (b.pooled && mode() == pool_mode::bucket) {
    p.free_lists[b.bytes].push_back({b.ptr, qc.queue, qc.now_us,
                                     ++s.next_stamp});
    p.bytes_cached += b.bytes;
  } else if (b.dev != nullptr) {
    // Unpooled (none mode / zero-byte) or pooled-but-mode-switched blocks
    // go straight back; either way the charge matches what acquire took.
    b.dev->charge_free(b.bytes);
    b.dev->arena_release();
  } else {
    std::free(b.ptr);
  }
  JACCX_ASSERT(p.live_blocks > 0 && p.bytes_live >= b.bytes);
  p.bytes_live -= b.bytes;
  --p.live_blocks;
  b = block{};
}

void trim(std::size_t target_bytes) {
  state_t& s = st();
  const std::lock_guard lock(s.mu);
  trim_locked(s, target_bytes);
}

void drain() {
  state_t& s = st();
  // One lock suffices for the scratch slabs too: a concurrent lease owns
  // its slab outright (it is off the free list), so drain can only free
  // parked storage.
  const std::lock_guard lock(s.mu);
  drain_locked(s);
}

std::uint64_t alloc_retries() {
  return g_alloc_retries.load(std::memory_order_relaxed);
}

std::uint64_t add_pressure_callback(std::function<void()> fn) {
  pressure_registry& r = pressure_reg();
  const std::lock_guard lock(r.mu);
  const std::uint64_t token = r.next_token++;
  r.callbacks.emplace(token, std::move(fn));
  return token;
}

void remove_pressure_callback(std::uint64_t token) {
  pressure_registry& r = pressure_reg();
  const std::lock_guard lock(r.mu);
  r.callbacks.erase(token);
}

std::uint64_t live_blocks() {
  state_t& s = st();
  const std::lock_guard lock(s.mu);
  std::uint64_t n = s.host.live_blocks;
  for (const auto& [dev, p] : s.device_pools) {
    n += p.live_blocks;
  }
  return n;
}

std::uint64_t cached_bytes() {
  state_t& s = st();
  const std::lock_guard lock(s.mu);
  std::uint64_t n = s.host.bytes_cached;
  for (const auto& [dev, p] : s.device_pools) {
    n += p.bytes_cached;
  }
  return n;
}

std::uint64_t live_bytes() {
  state_t& s = st();
  const std::lock_guard lock(s.mu);
  std::uint64_t n = s.host.bytes_live;
  for (const auto& [dev, p] : s.device_pools) {
    n += p.bytes_live;
  }
  return n;
}

std::uint64_t host_scratch_bytes() {
  state_t& s = st();
  const std::lock_guard lock(s.mu);
  return s.scratch_total;
}

std::vector<prof::mem_pool_stats> stats() {
  state_t& s = st();
  const std::lock_guard lock(s.mu);
  std::vector<prof::mem_pool_stats> out;
  const auto row = [&out](const backing_pool& p, std::string label) {
    if (!p.touched()) {
      return;
    }
    prof::mem_pool_stats r;
    r.label = std::move(label);
    r.mode = std::string(to_string(mode()));
    r.hits = p.hits;
    r.stalls = p.stalls;
    r.misses = p.misses;
    r.bytes_cached = p.bytes_cached;
    r.bytes_live = p.bytes_live;
    r.high_water_bytes = p.high_water;
    r.workspace_bytes = p.workspace_bytes;
    r.live_blocks = p.live_blocks;
    out.push_back(std::move(r));
  };
  row(s.host, "host");
  for (const auto& [dev, p] : s.device_pools) {
    row(p, dev->model().name);
  }
  return out;
}

// --- persistent reduction workspaces (workspace.hpp) ------------------------

reduce_workspace device_reduce_workspace(sim::device& dev,
                                         std::size_t elem_size,
                                         std::int64_t min_elems) {
  JACCX_ASSERT(elem_size > 0 && min_elems >= 0);
  state_t& s = st();
  bool pressured = false;
  std::unique_lock lock(s.mu);
  backing_pool& p = pool_for_locked(s, &dev);
  workspace_entry& ws = s.workspaces[{&dev, elem_size}];
  const std::size_t need = static_cast<std::size_t>(min_elems) * elem_size;
  if (ws.partial_bytes < need) {
    std::size_t grown = std::max({need, ws.partial_bytes * 2,
                                  std::size_t{4096}});
    grown = round_up(grown, device_align);
    if (ws.partials != nullptr) {
      dev.charge_free(ws.partial_bytes);
      dev.arena_release();
      p.workspace_bytes -= ws.partial_bytes;
      // The entry must not dangle if the growth allocation below throws
      // even after the trim-and-retry.
      ws.partials = nullptr;
      ws.partial_bytes = 0;
    }
    ws.partials = alloc_with_retry_locked(
        s, pressured, [&] { return dev.arena_allocate(grown); });
    dev.charge_alloc(grown, "jacc.reduce.workspace");
    // Zero the whole buffer once at growth: the reduce kernel overwrites
    // [0, blocks) each call, so everything past any call's write extent
    // stays zero from here on (the invariant replacing per-call zeros).
    std::memset(ws.partials, 0, grown);
    ws.partial_bytes = grown;
    p.workspace_bytes += grown;
  }
  if (ws.result == nullptr) {
    ws.result = alloc_with_retry_locked(
        s, pressured, [&] { return dev.arena_allocate(elem_size); });
    dev.charge_alloc(elem_size, "jacc.reduce.result");
    std::memset(ws.result, 0, elem_size);
    ws.result_bytes = elem_size;
    p.workspace_bytes += elem_size;
  }
  p.bump_high_water();
  const reduce_workspace out{ws.partials, ws.result,
                             static_cast<std::int64_t>(ws.partial_bytes /
                                                       elem_size)};
  if (pressured) {
    lock.unlock();
    notify_pressure();
  }
  return out;
}

host_scratch_lease::host_scratch_lease(std::size_t bytes) {
  state_t& s = st();
  bool pressured = false;
  {
    std::unique_lock lock(s.mu);
    // Best fit: the smallest parked slab that covers the request, so one
    // big early reduction does not pin every later small one to an
    // oversized slab while fresh ones get allocated anyway.
    std::size_t best = s.scratch_free.size();
    for (std::size_t i = 0; i < s.scratch_free.size(); ++i) {
      if (s.scratch_free[i].capacity >= bytes &&
          (best == s.scratch_free.size() ||
           s.scratch_free[i].capacity < s.scratch_free[best].capacity)) {
        best = i;
      }
    }
    if (best != s.scratch_free.size()) {
      data_ = s.scratch_free[best].ptr;
      capacity_ = s.scratch_free[best].capacity;
      s.scratch_free.erase(s.scratch_free.begin() +
                           static_cast<std::ptrdiff_t>(best));
    } else {
      const std::size_t grown = round_up(std::max<std::size_t>(bytes, 1),
                                         host_align);
      data_ = alloc_with_retry_locked(s, pressured,
                                      [&] { return host_alloc(grown); });
      capacity_ = grown;
      s.scratch_total += grown;
      s.host.workspace_bytes = s.scratch_total;
      s.host.bump_high_water();
    }
  }
  if (pressured) {
    notify_pressure();
  }
}

host_scratch_lease::~host_scratch_lease() {
  state_t& s = st();
  const std::lock_guard lock(s.mu);
  s.scratch_free.push_back({data_, capacity_});
}

} // namespace jaccx::mem

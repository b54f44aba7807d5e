// jaccx::mem — a backend-aware caching allocator for the JACC front end.
//
// The paper's evaluation (Figs. 8/9) shows DOT trailing AXPY on every GPU
// because each parallel_reduce materializes fresh scratch (CUDA.zeros for
// partials + result: an allocation plus two fill kernels per call).  Real
// vendor runtimes — and CUDA.jl itself — hide that churn behind a
// stream-ordered caching allocator.  This subsystem supplies the analogue:
//
//   * size-bucketed free lists (power-of-two buckets >= 256 B, exact-size
//     list for large blocks) layered over BOTH backing stores — aligned
//     host memory for the serial/threads back ends and the per-device bump
//     arena for simulated devices — one pool per backing store, so a block
//     cached under cuda_a100 can never satisfy a threads allocation;
//   * persistent per-(device, element-size) reduction workspaces and a
//     persistent host slot array for the threads reduction (workspace.hpp).
//
// Mode selection: JACC_MEM_POOL=bucket|none (default bucket), read by
// jacc::initialize() alongside the backend preference (env beats the
// LocalPreferences.toml key `JACC.mem_pool`).  `none` is the
// paper-fidelity mode: every acquire/release degrades to exactly the seed
// allocation path (same arena calls, same sizes, same charge order), so
// the arena's deterministic-address guarantee and the measured small-size
// reduction overhead are preserved bit for bit.
//
// Charging model under `bucket`: a pool miss charges the device for the
// rounded bucket size; a hit charges nothing (the memory never went back
// to the "driver"); a pooled release charges nothing (the device still
// holds the bytes — they show up as bytes_cached until drain() returns
// them with charge_free).  Cached device blocks keep the arena's live
// count up, so the arena cannot rewind underneath a cached address.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "prof/prof.hpp"

namespace jaccx::sim {
class device;
}

namespace jaccx::mem {

enum class pool_mode {
  bucket, ///< caching free lists + persistent workspaces (the default)
  none,   ///< paper-fidelity passthrough: every call hits the backing store
};

constexpr std::string_view to_string(pool_mode m) {
  return m == pool_mode::bucket ? "bucket" : "none";
}

/// Parses a JACC_MEM_POOL spec; nullopt for unknown values.
std::optional<pool_mode> parse_mode(std::string_view spec);

/// The active mode.  Resolved lazily from JACC_MEM_POOL on first use;
/// jacc::initialize() installs the full env+TOML resolution explicitly.
pool_mode mode();
inline bool pooling() { return mode() == pool_mode::bucket; }

/// Installs a mode.  Switching modes drains every free list first so no
/// cached block can outlive the policy that created it.
void set_mode(pool_mode m);

/// Installs `m` only when no mode has been resolved yet.  Used by the lazy
/// backend-initialization path, so an explicit earlier set_mode (a test's
/// scoped_mode pin) is not clobbered by the first current_backend() call.
void set_default_mode(pool_mode m);

/// Smallest bucket (and host bucket alignment floor).
inline constexpr std::size_t min_bucket_bytes = 256;
/// Buckets are powers of two up to this; larger requests use an exact-size
/// large-block list (rounded to the 256-B device-arena granularity).
inline constexpr std::size_t max_pow2_bucket_bytes = std::size_t{64} << 20;

/// The backing size class a `bucket`-mode request of `bytes` maps to.
std::size_t bucket_bytes(std::size_t bytes);

/// Stream-ordering context for an acquire/release (CUDA.jl pool design:
/// the pool records the releasing stream so reuse on the SAME stream needs
/// no synchronization, while reuse on another stream implies one).  The
/// default-constructed value — queue 0 at time 0 — is the synchronous
/// model and reproduces the pre-queue pool behavior exactly.
struct queue_ctx {
  std::uint64_t queue = 0; ///< jacc::queue id (0 = default/sync)
  double now_us = 0.0;     ///< the queue's simulated clock at the call
};

/// One allocation handed out by acquire().  Value type; the pool is the
/// owner of the storage, the block is the claim ticket.
struct block {
  void* ptr = nullptr;
  std::size_t bytes = 0; ///< backing size: bucket-rounded when pooled
  sim::device* dev = nullptr; ///< nullptr = host (serial/threads) pool
  bool pooled = false;        ///< acquired through a free list
  bool from_cache = false;    ///< satisfied without touching the backing store
  /// When the block was reused across queues: the releasing queue's clock
  /// at release time.  The consumer must not use the storage before this
  /// simulated instant (jacc::detail::note_pool_stall applies the charge).
  double stall_us = 0.0;
  explicit operator bool() const { return ptr != nullptr; }
};

/// Acquires storage for `bytes` from the pool backing `dev` (nullptr =
/// host).  Under `none`, this is the exact seed path: arena_allocate +
/// charge_alloc(bytes, name) on a device, 64-B-aligned host memory (null
/// for zero bytes) otherwise.  Under `bucket`, the free list is consulted
/// first — preferring blocks released on qc.queue (no sync needed), then
/// any block (stall_us reports the implied cross-queue sync) — and a miss
/// allocates and charges the rounded bucket size.
block acquire(sim::device* dev, std::size_t bytes, std::string_view name,
              queue_ctx qc = {});

/// Returns a block to the free list, tagged with the releasing queue and
/// its clock (no device charge); unpooled blocks release to the backing
/// store exactly as the seed did.  Resets `b` to empty; empty blocks are a
/// no-op.
void release(block& b, queue_ctx qc = {}) noexcept;

/// Evicts oldest-released cached blocks until the total parked bytes is
/// <= target_bytes.  trim(0) empties every free list — like drain() for
/// the caches, but workspaces and live blocks stay put.  Long-running
/// servers call this from admission control under memory pressure.
void trim(std::size_t target_bytes);

/// Times a backing-store allocation failed, was answered by trimming every
/// free list to zero, and was retried.  Every allocation site (bucket
/// misses, workspace growth, scratch slabs, seed-path none-mode allocs)
/// retries exactly once after a trim; only the second failure propagates
/// std::bad_alloc to the caller.
std::uint64_t alloc_retries();

/// Registers a callback fired (outside every pool lock) whenever an
/// allocation hit backing-store exhaustion and forced a trim-to-zero —
/// the memory-pressure signal admission control subscribes to.  Returns a
/// token for remove_pressure_callback; callbacks may call back into the
/// pool but must not block on work that itself allocates.
std::uint64_t add_pressure_callback(std::function<void()> fn);
void remove_pressure_callback(std::uint64_t token);

/// Frees every cached free-list block and persistent workspace back to the
/// backing stores (device blocks charge_free + arena_release).  Live
/// (acquired, unreleased) blocks are untouched.  Called by
/// jacc::finalize() and on mode switches.
void drain();

/// Outstanding acquired-but-unreleased blocks across all pools (both
/// modes).  jacc::finalize() asserts this is zero after draining.
std::uint64_t live_blocks();

/// Bytes currently parked on free lists across all pools.
std::uint64_t cached_bytes();

/// Bytes in acquired-but-unreleased blocks across all pools.  Admission
/// control budgets against live_bytes() + cached_bytes().
std::uint64_t live_bytes();

/// Bytes held by the persistent host reduction scratch slabs, parked and
/// leased (workspace.hpp).
std::uint64_t host_scratch_bytes();

/// Per-pool counters in prof's reporting shape: one row per touched
/// backing store ("host" plus each simulated device by model name).  Also
/// registered with prof as the mem-pool source, so JACC_PROFILE=summary
/// and bench_session JSON pick the rows up without prof depending on mem.
std::vector<prof::mem_pool_stats> stats();

/// RAII mode pin for tests that assert seed-exact charging (`none`) or
/// pool behavior (`bucket`) regardless of the environment.
class scoped_mode {
public:
  explicit scoped_mode(pool_mode m) : prev_(mode()) { set_mode(m); }
  ~scoped_mode() { set_mode(prev_); }
  scoped_mode(const scoped_mode&) = delete;
  scoped_mode& operator=(const scoped_mode&) = delete;

private:
  pool_mode prev_;
};

} // namespace jaccx::mem

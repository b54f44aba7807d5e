// jacc::parallel_reduce — the paper's second construct (Sec. III, Fig. 2).
//
//   res = jacc::parallel_reduce(n, f, args...)            sum of f(i, args...)
//   res = jacc::parallel_reduce(dims2{M,N}, f, args...)   sum of f(i, j, ...)
//   res = jacc::parallel_reduce(dims3{M,N,K}, f, args...) sum of f(i, j, k, ...)
//
// plus 1D min/max variants (a JACC.jl extension).  The result is returned
// on the host; under simulated GPU back ends that implies the same
// two-kernel shared-memory tree reduction + scalar D2H transfer the
// paper's Fig. 3 shows — which is exactly why DOT trails AXPY on every GPU
// in Figs. 8/9.
//
// Every form, queued or not, takes parallel_for's pipeline: one front door
// (detail::launch_reduce) picks queue, shard or in-place execution once,
// and one executor (detail::execute_reduce) holds the back-end switch.
//
// Under JACC_MEM_POOL=none the GPU path allocates its partials/result
// buffers per call, as both JACC.jl and the paper's hand-written comparator
// do (CUDA.zeros in Fig. 3); that allocation traffic is part of the
// measured small-size overhead.  Under the default bucket mode the scratch
// persists per (device, element size) — no per-call allocation, and the
// two zero-fill kernels are skipped (see mem/workspace.hpp).
#pragma once

#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>

#include "core/parallel_for.hpp"
#include "mem/pool.hpp"
#include "mem/workspace.hpp"

namespace jacc {

/// Built-in reduction operators.  A reducer supplies an identity and a
/// binary combine; both are used on every backend so results agree across
/// targets (up to floating-point association order).
struct plus_reducer {
  template <class R>
  static constexpr R identity() {
    return R{};
  }
  template <class R>
  R operator()(R a, R b) const {
    return a + b;
  }
};

struct min_reducer {
  template <class R>
  static constexpr R identity() {
    return std::numeric_limits<R>::max();
  }
  template <class R>
  R operator()(R a, R b) const {
    return b < a ? b : a;
  }
};

struct max_reducer {
  template <class R>
  static constexpr R identity() {
    return std::numeric_limits<R>::lowest();
  }
  template <class R>
  R operator()(R a, R b) const {
    return a < b ? b : a;
  }
};

namespace detail {

/// Number of lanes per block in the generic GPU reduction: 512, the same
/// fixed power-of-two JACC.jl and the paper's Fig. 3 native code use; the
/// tree loop below requires the power of two.
inline constexpr std::int64_t reduce_block = 512;

/// Zero-fill kernel standing in for CUDA.zeros / AMDGPU.zeros /
/// oneAPI.zeros: real work on real devices, so it is charged as a kernel.
template <class R>
void fill_zero_sim(jaccx::sim::device& dev, jaccx::sim::device_span<R> s) {
  jaccx::sim::launch_config cfg;
  const std::int64_t n = s.size();
  const std::int64_t maxt = dev.model().max_threads_per_block;
  const std::int64_t threads = n < maxt ? (n > 0 ? n : 1) : maxt;
  cfg.block = jaccx::sim::dim3{threads};
  cfg.grid = jaccx::sim::dim3{jaccx::sim::ceil_div(n > 0 ? n : 1, threads)};
  cfg.name = "jacc.zeros";
  cfg.flavor.via_jacc = true;
  jaccx::sim::launch(dev, cfg, [s, n](jaccx::sim::kernel_ctx& ctx) {
    const index_t i = ctx.global_x();
    if (i < n) {
      s[i] = R{};
    }
  });
}

/// Two-kernel shared-memory tree reduction on a simulated GPU.  `eval(idx)`
/// produces the element value for linear index idx in [0, n).
template <class R, class Op, class Eval>
R reduce_sim_gpu(jaccx::sim::device& dev, const hints& h, index_t n, Op op,
                 const Eval& eval) {
  const std::int64_t blocks = jaccx::sim::ceil_div(n, reduce_block);
  const bool pooled = jaccx::mem::pooling();
  jaccx::sim::device_buffer<R> partials;
  jaccx::sim::device_buffer<R> result;
  jaccx::sim::device_span<R> ps;
  jaccx::sim::device_span<R> rs;
  if (pooled) {
    // Persistent workspace: no per-call allocation, and no fill kernels —
    // the first kernel overwrites every partial slot it owns and the
    // combine kernel reads only those; the tail was zeroed at growth.
    const auto ws =
        jaccx::mem::device_reduce_workspace(dev, sizeof(R), blocks);
    ps = jaccx::sim::device_span<R>(static_cast<R*>(ws.partials), blocks,
                                    &dev);
    rs = jaccx::sim::device_span<R>(static_cast<R*>(ws.result), 1, &dev);
  } else {
    partials =
        jaccx::sim::device_buffer<R>(dev, blocks, "jacc.reduce.partials");
    result = jaccx::sim::device_buffer<R>(dev, 1, "jacc.reduce.result");
    ps = partials.span();
    rs = result.span();
    // JACC.jl materializes its scratch with <vendor>.zeros, paying two fill
    // kernels per reduction just like the hand-written Fig. 3 code.
    fill_zero_sim(dev, ps);
    fill_zero_sim(dev, rs);
  }

  jaccx::sim::launch_config cfg;
  cfg.grid = jaccx::sim::dim3{blocks};
  cfg.block = jaccx::sim::dim3{reduce_block};
  cfg.shmem_bytes = static_cast<std::size_t>(reduce_block) * sizeof(R);
  cfg.name = h.name;
  cfg.flavor.via_jacc = true;
  cfg.flavor.is_reduce = true;
  cfg.flops_per_index = h.flops_per_index;

  jaccx::sim::launch_cooperative(dev, cfg, [&](jaccx::sim::kernel_ctx& ctx) {
    R* sh = ctx.shared_mem<R>();
    const std::int64_t ti = ctx.thread_idx.x;
    const index_t i = ctx.global_x();
    sh[ti] = i < n ? eval(i) : Op::template identity<R>();
    ctx.sync_threads();
    for (std::int64_t s = reduce_block / 2; s > 0; s >>= 1) {
      if (ti < s) {
        sh[ti] = op(sh[ti], sh[ti + s]);
      }
      ctx.sync_threads();
    }
    if (ti == 0) {
      ps[ctx.block_idx.x] = sh[0];
    }
  });

  jaccx::sim::launch_config cfg2 = cfg;
  cfg2.grid = jaccx::sim::dim3{1};
  cfg2.flops_per_index = 0.0;
  jaccx::sim::launch_cooperative(dev, cfg2, [&](jaccx::sim::kernel_ctx& ctx) {
    R* sh = ctx.shared_mem<R>();
    const std::int64_t ti = ctx.thread_idx.x;
    R v = Op::template identity<R>();
    for (std::int64_t k = ti; k < blocks; k += reduce_block) {
      v = op(v, static_cast<R>(ps[k]));
    }
    sh[ti] = v;
    ctx.sync_threads();
    for (std::int64_t s = reduce_block / 2; s > 0; s >>= 1) {
      if (ti < s) {
        sh[ti] = op(sh[ti], sh[ti + s]);
      }
      ctx.sync_threads();
    }
    if (ti == 0) {
      rs[0] = sh[0];
    }
  });

  R out{};
  if (pooled) {
    std::memcpy(&out, rs.data(), sizeof(R));
    dev.charge_d2h(sizeof(R), "jacc.reduce.d2h");
  } else {
    result.copy_to_host(&out, "jacc.reduce.d2h");
  }
  return out;
}

/// Threads reduction: one cache-line-padded partial per worker, each chunk
/// of the flattened index space folded into its worker's slot with the
/// row-stepped chunk walk.  Under dynamic scheduling a worker receives
/// several chunks, so each chunk folds into the slot rather than
/// overwriting it; the slot stays worker-private either way.  Under
/// JACC_MEM_POOL=bucket the slot array is the persistent mem scratch
/// (leased for the whole reduction); under none it is the seed's per-call
/// vector.
template <int Rank, class R, class Op, class K>
R reduce_threads(jaccx::pool::thread_pool& pool, const launch_desc& d, Op op,
                 const K& kern) {
  static_assert(sizeof(R) <= jaccx::cache_line_bytes);
  const unsigned width = pool.size();
  struct alignas(jaccx::cache_line_bytes) slot_t {
    R value;
  };
  std::vector<slot_t> partials;
  slot_t* slots = nullptr;
  std::optional<jaccx::mem::host_scratch_lease> lease;
  if (jaccx::mem::pooling()) {
    lease.emplace(std::size_t{width} * sizeof(slot_t));
    slots = static_cast<slot_t*>(lease->data());
  } else {
    partials.resize(width);
    slots = partials.data();
  }
  for (unsigned w = 0; w < width; ++w) {
    slots[w].value = Op::template identity<R>();
  }
  pool.parallel_chunks(d.count(),
                       [&](unsigned worker, jaccx::pool::range chunk) {
    R acc = slots[worker].value;
    walk_chunk<Rank>(chunk, d, [&](index_t i, index_t j, index_t k) {
      acc = op(acc, kern(i, j, k));
    });
    slots[worker].value = acc;
  });
  R out = Op::template identity<R>();
  for (unsigned w = 0; w < width; ++w) {
    out = op(out, slots[w].value);
  }
  return out;
}

/// The kernel over the linearized index space (i fastest, then j, then k,
/// the mapping parallel_for's GPU launches use): the simulated reductions'
/// view, so simulated-GPU lanes access column-major arrays coalesced.
template <int Rank, class K>
auto linearized(const launch_desc& d, const K& kern) {
  return [&d, &kern](index_t idx) {
    if constexpr (Rank == 1) {
      return kern(idx, 0, 0);
    } else if constexpr (Rank == 2) {
      return kern(idx % d.rows, idx / d.rows, 0);
    } else {
      return kern(idx % d.rows, (idx / d.rows) % d.cols,
                  idx / (d.rows * d.cols));
    }
  };
}

template <class K>
using reduce_value_t =
    std::remove_cvref_t<decltype(std::declval<const K&>()(0, 0, 0))>;

/// The in-place reduction executor: the one back-end switch.  The real CPU
/// back ends walk the index space row-stepped (serial as a plain
/// column-major loop nest, threads chunk by chunk); simulated back ends
/// reduce the linearized space.  Visit order is i fastest either way, so
/// sums associate identically.  `pl` overrides the worker pool on the
/// threads backend (queue lanes); null = default pool.
template <int Rank, class Op, class K>
auto execute_reduce(backend b, jaccx::pool::thread_pool* pl,
                    const launch_desc& d, Op op, const K& kern) {
  using R = reduce_value_t<K>;
  static_assert(std::is_arithmetic_v<R>,
                "parallel_reduce kernels must return an arithmetic value");
  if (d.count() == 0) {
    return Op::template identity<R>();
  }
  const jaccx::prof::kernel_scope prof_scope(
      jaccx::prof::construct::parallel_reduce, d.h.name,
      static_cast<std::uint64_t>(d.count()), d.h.flops_per_index,
      d.h.bytes_per_index, to_string(b));
  switch (b) {
  case backend::serial: {
    R acc = Op::template identity<R>();
    walk_serial(d, [&](index_t i, index_t j, index_t k) {
      acc = op(acc, kern(i, j, k));
    });
    return acc;
  }
  case backend::threads:
    return reduce_threads<Rank, R>(
        pl != nullptr ? *pl : jaccx::pool::default_pool(), d, op, kern);
  case backend::cpu_rome: {
    auto cfg = cpu_config(d.h);
    cfg.flavor.is_reduce = true;
    const auto at = linearized<Rank>(d, kern);
    R acc = Op::template identity<R>();
    jaccx::sim::cpu_parallel_range(*backend_device(b), cfg, d.count(),
                                   [&](index_t i) { acc = op(acc, at(i)); });
    return acc;
  }
  case backend::cuda_a100:
  case backend::hip_mi100:
  case backend::oneapi_max1550:
    return reduce_sim_gpu<R>(*backend_device(b), d.h, d.count(), op,
                             linearized<Rank>(d, kern));
  }
  return Op::template identity<R>();
}

/// Sharded reduction (device_set_scope): each device tree-reduces its
/// owned chunk of the slowest dimension with the single-device engine
/// (reduce_sim_gpu), and the partials combine on the host in device order
/// starting from the identity.
template <int Rank, class Op, class K, class... Args>
auto shard_reduce(device_set& ds, const launch_desc& d, Op op, const K& kern,
                  Args&... args) {
  using R = reduce_value_t<K>;
  R total = Op::template identity<R>();
  if (d.count() == 0) {
    return total;
  }
  shard_launch<Rank>(
      ds, jaccx::prof::construct::parallel_reduce, d,
      [&](jaccx::sim::device& dev, const launch_desc& local, index_t off) {
        const auto shifted = shift_slow<Rank>(off, kern);
        total = op(total, reduce_sim_gpu<R>(dev, d.h, local.count(), op,
                                            linearized<Rank>(local, shifted)));
      },
      args...);
  return total;
}

/// The one parallel_reduce front door; see launch_for for the routes and
/// for `q`.  With `Blocking` the value comes back on the host (the
/// synchronous and host-blocking forms); without it, as a future (the
/// queue member).  A queued reduction fills its future's pooled slot from
/// whichever branch enqueue_common takes.
template <int Rank, class Op, bool Blocking, class F, class... Args>
auto launch_reduce(queue* q, const launch_desc& d, F&& f, Args&&... args) {
  using R = reduce_value_t<decltype(bind_kernel<Rank>(f, args...))>;
  if (q == nullptr) {
    q = active_queue();
  }
  JACCX_ASSERT(d.rows >= 0 && d.cols >= 0 && d.depth >= 0);
  if (q != nullptr && !q->is_default()) {
    if (Blocking && queue_capturing(*q)) [[unlikely]] {
      // The value does not exist at record time, so returning it here would
      // silently hand back zero.  Capturable form: q.parallel_reduce(...)
      // futures, read via future::then or after a replay.
      jaccx::throw_usage_error(
          "host-blocking parallel_reduce is not capturable; use the "
          "future-returning queue::parallel_reduce inside graph capture");
    }
    const backend b = current_backend();
    auto fs = std::make_shared<future_state<R>>();
    fs->e = enqueue_common(
        *q, b, /*is_copy=*/false, d.h.name,
        [b, fs, run = own_launch<Rank>(d, std::forward<F>(f),
                                       std::forward<Args>(args)...)](
            jaccx::pool::thread_pool* pl) mutable {
          run([&](const launch_desc& desc, const auto& kern) {
            *fs->value() = execute_reduce<Rank>(b, pl, desc, Op{}, kern);
          });
        });
    auto fut = future_access<R>::make(std::move(fs));
    if constexpr (Blocking) {
      return fut.get();
    } else {
      return fut;
    }
  }
  const auto kern = bind_kernel<Rank>(f, args...);
  device_set* ds = q == nullptr ? active_shard_set() : nullptr;
  const R value =
      ds != nullptr
          ? shard_reduce<Rank>(*ds, d, Op{}, kern, args...)
          : execute_reduce<Rank>(current_backend(), nullptr, d, Op{}, kern);
  if constexpr (Blocking) {
    return value;
  } else {
    return make_ready_future<R>(value);
  }
}

} // namespace detail

// --- queue members: non-blocking (future-returning) reductions --------------
// The member forms are the primitive: they return a jacc::future<R> whose
// event orders later work (q.wait(f)) and whose slot carries the value
// (f.get()).  On simulated back ends the value is final at enqueue and the
// charges (kernels + scalar D2H) land on the queue's stream; on threads
// async lanes the host genuinely continues while the lane computes.  The
// free parallel_reduce(q, ...) overloads below are these calls plus .get().

template <class F, class... Args>
auto queue::parallel_reduce(const hints& h, index_t n, F&& f, Args&&... args) {
  return detail::launch_reduce<1, plus_reducer, false>(
      this, detail::launch_desc::d1(h, n), std::forward<F>(f),
      std::forward<Args>(args)...);
}

template <class F, class... Args>
  requires std::invocable<F&, index_t, Args&...>
auto queue::parallel_reduce(index_t n, F&& f, Args&&... args) {
  return parallel_reduce(hints{.name = "jacc.parallel_reduce"}, n,
                         std::forward<F>(f), std::forward<Args>(args)...);
}

template <class F, class... Args>
auto queue::parallel_reduce(const hints& h, dims2 d, F&& f, Args&&... args) {
  return detail::launch_reduce<2, plus_reducer, false>(
      this, detail::launch_desc::d2(h, d), std::forward<F>(f),
      std::forward<Args>(args)...);
}

template <class F, class... Args>
  requires std::invocable<F&, index_t, index_t, Args&...>
auto queue::parallel_reduce(dims2 d, F&& f, Args&&... args) {
  return parallel_reduce(hints{.name = "jacc.parallel_reduce2d"}, d,
                         std::forward<F>(f), std::forward<Args>(args)...);
}

template <class F, class... Args>
auto queue::parallel_reduce(const hints& h, dims3 d, F&& f, Args&&... args) {
  return detail::launch_reduce<3, plus_reducer, false>(
      this, detail::launch_desc::d3(h, d), std::forward<F>(f),
      std::forward<Args>(args)...);
}

template <class F, class... Args>
  requires std::invocable<F&, index_t, index_t, index_t, Args&...>
auto queue::parallel_reduce(dims3 d, F&& f, Args&&... args) {
  return parallel_reduce(hints{.name = "jacc.parallel_reduce3d"}, d,
                         std::forward<F>(f), std::forward<Args>(args)...);
}

// --- queued overloads (host-blocking forms) ---------------------------------
// Queue-ordered but host-blocking: the member future plus an immediate
// .get().  Kept because "run after this queue's pipeline and hand me the
// number" is the common closing step; counters and charges are identical to
// the future form.  Not capturable: they throw inside graph capture.

/// 1D sum-reduction on a queue, with hints.
template <class F, class... Args>
auto parallel_reduce(queue& q, const hints& h, index_t n, F&& f,
                     Args&&... args) {
  return detail::launch_reduce<1, plus_reducer, true>(
      &q, detail::launch_desc::d1(h, n), std::forward<F>(f),
      std::forward<Args>(args)...);
}

/// 1D sum-reduction on a queue.
template <class F, class... Args>
  requires std::invocable<F&, index_t, Args&...>
auto parallel_reduce(queue& q, index_t n, F&& f, Args&&... args) {
  return parallel_reduce(q, hints{.name = "jacc.parallel_reduce"}, n,
                         std::forward<F>(f), std::forward<Args>(args)...);
}

/// 2D sum-reduction on a queue, with hints.
template <class F, class... Args>
auto parallel_reduce(queue& q, const hints& h, dims2 d, F&& f,
                     Args&&... args) {
  return detail::launch_reduce<2, plus_reducer, true>(
      &q, detail::launch_desc::d2(h, d), std::forward<F>(f),
      std::forward<Args>(args)...);
}

/// 2D sum-reduction on a queue.
template <class F, class... Args>
  requires std::invocable<F&, index_t, index_t, Args&...>
auto parallel_reduce(queue& q, dims2 d, F&& f, Args&&... args) {
  return parallel_reduce(q, hints{.name = "jacc.parallel_reduce2d"}, d,
                         std::forward<F>(f), std::forward<Args>(args)...);
}

/// 3D sum-reduction on a queue, with hints.
template <class F, class... Args>
auto parallel_reduce(queue& q, const hints& h, dims3 d, F&& f,
                     Args&&... args) {
  return detail::launch_reduce<3, plus_reducer, true>(
      &q, detail::launch_desc::d3(h, d), std::forward<F>(f),
      std::forward<Args>(args)...);
}

/// 3D sum-reduction on a queue.
template <class F, class... Args>
  requires std::invocable<F&, index_t, index_t, index_t, Args&...>
auto parallel_reduce(queue& q, dims3 d, F&& f, Args&&... args) {
  return parallel_reduce(q, hints{.name = "jacc.parallel_reduce3d"}, d,
                         std::forward<F>(f), std::forward<Args>(args)...);
}

// --- synchronous overloads (the paper's API) --------------------------------
// Inside a queue_scope these route to the scope's queue, inside a
// device_set_scope to the shard engine; otherwise they run in place.

/// 1D sum-reduction with hints: returns sum over i of f(i, args...).
template <class F, class... Args>
auto parallel_reduce(const hints& h, index_t n, F&& f, Args&&... args) {
  return detail::launch_reduce<1, plus_reducer, true>(
      nullptr, detail::launch_desc::d1(h, n), std::forward<F>(f),
      std::forward<Args>(args)...);
}

/// 1D sum-reduction: `res = JACC.parallel_reduce(SIZE, dot, dx, dy)`.
template <class F, class... Args>
  requires std::invocable<F&, index_t, Args&...>
auto parallel_reduce(index_t n, F&& f, Args&&... args) {
  return parallel_reduce(hints{.name = "jacc.parallel_reduce"}, n,
                         std::forward<F>(f), std::forward<Args>(args)...);
}

/// 1D min/max reductions (JACC.jl extension).
template <class F, class... Args>
auto parallel_reduce_min(index_t n, F&& f, Args&&... args) {
  return detail::launch_reduce<1, min_reducer, true>(
      nullptr,
      detail::launch_desc::d1(hints{.name = "jacc.parallel_reduce_min"}, n),
      std::forward<F>(f), std::forward<Args>(args)...);
}

template <class F, class... Args>
auto parallel_reduce_max(index_t n, F&& f, Args&&... args) {
  return detail::launch_reduce<1, max_reducer, true>(
      nullptr,
      detail::launch_desc::d1(hints{.name = "jacc.parallel_reduce_max"}, n),
      std::forward<F>(f), std::forward<Args>(args)...);
}

/// 2D sum-reduction with hints: sum over (i, j) of f(i, j, args...).
template <class F, class... Args>
auto parallel_reduce(const hints& h, dims2 d, F&& f, Args&&... args) {
  return detail::launch_reduce<2, plus_reducer, true>(
      nullptr, detail::launch_desc::d2(h, d), std::forward<F>(f),
      std::forward<Args>(args)...);
}

/// 2D sum-reduction: `res = JACC.parallel_reduce((M, N), dot, dx, dy)`.
template <class F, class... Args>
  requires std::invocable<F&, index_t, index_t, Args&...>
auto parallel_reduce(dims2 d, F&& f, Args&&... args) {
  return parallel_reduce(hints{.name = "jacc.parallel_reduce2d"}, d,
                         std::forward<F>(f), std::forward<Args>(args)...);
}

/// 3D sum-reduction with hints: sum over (i, j, k) of f(i, j, k, args...).
template <class F, class... Args>
auto parallel_reduce(const hints& h, dims3 d, F&& f, Args&&... args) {
  return detail::launch_reduce<3, plus_reducer, true>(
      nullptr, detail::launch_desc::d3(h, d), std::forward<F>(f),
      std::forward<Args>(args)...);
}

/// 3D sum-reduction: `res = jacc::parallel_reduce({M, N, K}, f, args...)`.
template <class F, class... Args>
  requires std::invocable<F&, index_t, index_t, index_t, Args&...>
auto parallel_reduce(dims3 d, F&& f, Args&&... args) {
  return parallel_reduce(hints{.name = "jacc.parallel_reduce3d"}, d,
                         std::forward<F>(f), std::forward<Args>(args)...);
}

} // namespace jacc

// jacc::parallel_for — the paper's primary construct (Sec. III, Fig. 2).
//
// Canonical forms (each also takes a leading `jacc::hints`):
//
//   jacc::parallel_for(n, f, args...)            calls f(i, args...)
//   jacc::parallel_for(dims2{M, N}, f, args...)  calls f(i, j, args...)
//   jacc::parallel_for(dims3{M,N,K}, f, args...) calls f(i, j, k, args...)
//   jacc::parallel_for(q, ..., f, args...)       enqueues on jacc::queue q
//                                                and returns a jacc::event
//
// Indices are 0-based (Julia's are 1-based; everything else matches the
// paper).  The kernel function is defined separately and passed with its
// parameters, exactly as JACC prescribes.  Synchronous calls are the
// paper's model: each completes before returning.  Queue calls are the
// stream-ordered extension (queue.hpp); on the default queue they are
// exactly the synchronous calls.
//
// One launch pipeline serves every overload.  Each public signature fills a
// detail::launch_desc and calls detail::launch_for<Rank>, which picks the
// route once:
//   an explicit user queue or an active queue_scope -> enqueue_common
//       (graph capture, simulated stream, async lane or degraded sync)
//   otherwise an active device_set_scope            -> the shard engine
//   otherwise                                       -> execute_for<Rank>,
//       in place with full reference semantics.
// The kernel travels as a rank-normalized callable k(i, j, k) (unused
// indices are 0), so execute_for holds the one back-end switch for all
// three ranks.
//
// Back-end mapping (paper Sec. IV):
//   serial/threads      coarse chunks; 2D/3D decompose over the slowest
//                       (column-major) dimension while it covers the pool
//                       width, else tile the flattened iteration space
//   cpu_rome            same structure on the simulated Rome cost model
//   GPU back ends       fine-grained: 1 thread per index; 1D blocks of up to
//                       max_block_dim_x, 2D blocks of 16x16, 3D of 8x8x4,
//                       with thread x mapped to the fastest index for
//                       coalescing
#pragma once

#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/array.hpp"
#include "core/backend.hpp"
#include "core/launch_desc.hpp"
#include "core/queue.hpp"
#include "core/shard.hpp"
#include "prof/prof.hpp"
#include "sim/launch.hpp"
#include "threadpool/thread_pool.hpp"

namespace jacc {
namespace detail {

/// How a queued launch captures its trailing kernel arguments: copyable
/// types (scalars, views, jacc::array2d/3d shells) are copied into the
/// task; move-only lvalues (jacc::array) are held by reference and must
/// outlive completion — the natural contract for device data that the
/// queue's synchronize point already guards.  Rvalues are moved in.
template <class A>
using async_arg_t = std::conditional_t<
    std::is_lvalue_reference_v<A> &&
        !std::is_copy_constructible_v<std::remove_cvref_t<A>>,
    std::remove_reference_t<A>&, std::remove_cvref_t<A>>;

/// The kernel as a rank-normalized callable: k(i, j, k) calls f with the
/// first Rank indices, then the trailing arguments.  Every execution body
/// takes this form, so one body serves all three ranks.
template <int Rank, class F, class... Args>
auto bind_kernel(F& f, Args&... args) {
  return [&f, &args...](index_t i, [[maybe_unused]] index_t j,
                        [[maybe_unused]] index_t k) {
    if constexpr (Rank == 1) {
      return f(i, args...);
    } else if constexpr (Rank == 2) {
      return f(i, j, args...);
    } else {
      return f(i, j, k, args...);
    }
  };
}

/// Simulated-GPU geometry: one thread per index.  1D blocks take up to
/// max_threads_per_block threads, 2D blocks are 16x16 (paper Fig. 6:
/// numThreads = 16 per dimension), 3D blocks 8x8x4.
template <int Rank>
jaccx::sim::launch_config gpu_config(const jaccx::sim::device& dev,
                                     const launch_desc& d) {
  const std::int64_t tile[3] = {
      Rank == 1 ? dev.model().max_threads_per_block : Rank == 2 ? 16 : 8,
      Rank == 2 ? 16 : 8, 4};
  const index_t extent[3] = {d.rows, d.cols, d.depth};
  std::int64_t block[3];
  std::int64_t grid[3];
  for (int a = 0; a < 3; ++a) {
    const std::int64_t e = extent[a] > 0 ? extent[a] : 1;
    block[a] = a >= Rank ? 1 : e < tile[a] ? e : tile[a];
    grid[a] = jaccx::sim::ceil_div(e, block[a]);
  }
  jaccx::sim::launch_config cfg;
  cfg.block = jaccx::sim::dim3{block[0], block[1], block[2]};
  cfg.grid = jaccx::sim::dim3{grid[0], grid[1], grid[2]};
  cfg.name = d.h.name;
  cfg.flavor.via_jacc = true;
  cfg.flops_per_index = d.h.flops_per_index;
  return cfg;
}

inline jaccx::sim::cpu_region_config cpu_config(const hints& h) {
  jaccx::sim::cpu_region_config cfg;
  cfg.name = h.name;
  cfg.flavor.via_jacc = true;
  cfg.flops_per_index = h.flops_per_index;
  return cfg;
}

/// Serial walk of the whole index space, column-major (i fastest).
template <class K>
void walk_serial(const launch_desc& d, const K& visit) {
  for (index_t k = 0; k < d.depth; ++k) {
    for (index_t j = 0; j < d.cols; ++j) {
      for (index_t i = 0; i < d.rows; ++i) {
        visit(i, j, k);
      }
    }
  }
}

/// Walks the flattened chunk `r` (i fastest) of d's index space: a plain
/// loop in 1D, one div/mod per chunk instead of per index otherwise.
template <int Rank, class K>
void walk_chunk(jaccx::pool::range r, const launch_desc& d, const K& visit) {
  if constexpr (Rank == 1) {
    for (index_t i = r.begin; i < r.end; ++i) {
      visit(i, 0, 0);
    }
  } else {
    jaccx::pool::walk_flat_3d(r, d.rows, d.cols, visit);
  }
}

/// Threads-backend decomposition: coarse chunks with contiguous i inside
/// each worker (paper Sec. IV).  3D launches split depth planes while depth
/// covers the pool width; then the flattened (j, k) columns are split while
/// they cover it; narrower shapes tile the fully flattened space, so a
/// 1'000'000 x 2 grid still feeds every worker rather than at most two.
template <int Rank, class K>
void threads_for(jaccx::pool::thread_pool& pool, const launch_desc& d,
                 const K& kern) {
  const auto width = static_cast<index_t>(pool.size());
  const auto column = [&](index_t j, index_t k) {
    for (index_t i = 0; i < d.rows; ++i) {
      kern(i, j, k);
    }
  };
  if (Rank == 3 && d.depth >= width) {
    pool.parallel_for_index(d.depth, [&](index_t k) {
      for (index_t j = 0; j < d.cols; ++j) {
        column(j, k);
      }
    });
  } else if (Rank > 1 && d.cols * d.depth >= width) {
    pool.parallel_chunks(d.cols * d.depth,
                         [&](unsigned, jaccx::pool::range r) {
      jaccx::pool::walk_flat_2d(r, d.cols, column);
    });
  } else {
    pool.parallel_chunks(d.count(), [&](unsigned, jaccx::pool::range r) {
      walk_chunk<Rank>(r, d, kern);
    });
  }
}

/// One simulated-GPU launch over d, thread x on the fastest index for
/// coalescing.  Opens no prof scope: callers own it.
template <int Rank, class K>
void gpu_for(jaccx::sim::device& dev, const launch_desc& d, const K& kern) {
  jaccx::sim::launch(dev, gpu_config<Rank>(dev, d),
                     [&](jaccx::sim::kernel_ctx& ctx) {
    const index_t i = ctx.global_x();
    const index_t j = Rank > 1 ? ctx.global_y() : 0;
    const index_t k = Rank > 2 ? ctx.global_z() : 0;
    if (i < d.rows && j < d.cols && k < d.depth) {
      kern(i, j, k);
    }
  });
}

/// The in-place executor: the one back-end switch.  `pl` overrides the
/// worker pool on the threads backend (queue lanes hand their private pool
/// in); null means the default pool, the sync path.
template <int Rank, class K>
void execute_for(backend b, jaccx::pool::thread_pool* pl,
                 const launch_desc& d, const K& kern) {
  const jaccx::prof::kernel_scope prof_scope(
      jaccx::prof::construct::parallel_for, d.h.name,
      static_cast<std::uint64_t>(d.count()), d.h.flops_per_index,
      d.h.bytes_per_index, to_string(b));
  switch (b) {
  case backend::serial:
    walk_serial(d, kern);
    return;
  case backend::threads:
    threads_for<Rank>(pl != nullptr ? *pl : jaccx::pool::default_pool(), d,
                      kern);
    return;
  case backend::cpu_rome: {
    auto& dev = *backend_device(b);
    if constexpr (Rank == 1) {
      jaccx::sim::cpu_parallel_range(dev, cpu_config(d.h), d.rows,
                                     [&](index_t i) { kern(i, 0, 0); });
    } else if constexpr (Rank == 2) {
      jaccx::sim::cpu_parallel_range_2d(
          dev, cpu_config(d.h), d.rows, d.cols,
          [&](index_t i, index_t j) { kern(i, j, 0); });
    } else {
      jaccx::sim::cpu_parallel_range_3d(dev, cpu_config(d.h), d.rows, d.cols,
                                        d.depth, kern);
    }
    return;
  }
  case backend::cuda_a100:
  case backend::hip_mi100:
  case backend::oneapi_max1550:
    gpu_for<Rank>(*backend_device(b), d, kern);
    return;
  }
}

/// Owning form of a launch for the queue paths: the descriptor, the kernel
/// and its trailing arguments captured per async_arg_t, and the hint name
/// as an owned std::string, so a caller-provided temporary is safe even
/// when the task runs later on a lane thread.  Calling it with
/// `exec(desc, kern)` runs exec on the rebuilt descriptor and kernel.
template <int Rank, class F, class... Args>
auto own_launch(const launch_desc& d, F&& f, Args&&... args) {
  return [d, name = std::string(d.h.name),
          fn = std::decay_t<F>(std::forward<F>(f)),
          tup = std::tuple<async_arg_t<Args&&>...>(
              std::forward<Args>(args)...)](const auto& exec) mutable {
    // Re-point the descriptor's name view at the closure-owned copy on
    // every run: the closure may have been moved since capture.
    launch_desc desc = d;
    desc.h.name = name;
    std::apply([&](auto&... as) { exec(desc, bind_kernel<Rank>(fn, as...)); },
               tup);
  };
}

/// Graph capture of a parallel_for: the whole front end — capture policy,
/// hint resolution, descriptor building, name ownership — runs once, here,
/// and the recorded node body is the residue.  The serial and threads 1D
/// shapes (the dispatch-overhead benchmark's subject) get specialized
/// bodies that skip even the back-end switch on replay: a plain loop (or
/// pool fan-out) guarded by the usual one-load prof gate.  Every other
/// shape pre-bakes the in-place executor, whose sim charge path is
/// identical to eager issue.
template <int Rank, class F, class... Args>
event capture_for(queue& q, backend b, const launch_desc& d, F&& f,
                  Args&&... args) {
  std::string name(d.h.name);
  auto fn = std::decay_t<F>(std::forward<F>(f));
  std::tuple<async_arg_t<Args&&>...> tup(std::forward<Args>(args)...);
  replay_body body;
  if constexpr (Rank == 1) {
    // Kept: replay through execute_for misses abl_dispatch_overhead's 5x bar.
    if (b == backend::serial) {
      body = make_replay_body(
          [n = d.rows, hf = d.h.flops_per_index, hb = d.h.bytes_per_index,
           name, fn = std::move(fn),
           tup = std::move(tup)](jaccx::pool::thread_pool*) mutable {
            const auto run = [&] {
              std::apply(
                  [&](auto&... as) {
                    for (index_t i = 0; i < n; ++i) {
                      fn(i, as...);
                    }
                  },
                  tup);
            };
            if (jaccx::prof::enabled()) [[unlikely]] {
              const jaccx::prof::kernel_scope ks(
                  jaccx::prof::construct::parallel_for, name,
                  static_cast<std::uint64_t>(n), hf, hb,
                  to_string(backend::serial));
              run();
            } else {
              run();
            }
          });
    } else if (b == backend::threads) {
      body = make_replay_body(
          [n = d.rows, hf = d.h.flops_per_index, hb = d.h.bytes_per_index,
           name, fn = std::move(fn),
           tup = std::move(tup)](jaccx::pool::thread_pool* pl) mutable {
            auto& pool = pl != nullptr ? *pl : jaccx::pool::default_pool();
            const auto run = [&] {
              std::apply(
                  [&](auto&... as) {
                    pool.parallel_for_index(n,
                                            [&](index_t i) { fn(i, as...); });
                  },
                  tup);
            };
            if (jaccx::prof::enabled()) [[unlikely]] {
              const jaccx::prof::kernel_scope ks(
                  jaccx::prof::construct::parallel_for, name,
                  static_cast<std::uint64_t>(n), hf, hb,
                  to_string(backend::threads));
              run();
            } else {
              run();
            }
          });
    }
  }
  if (!body) {
    body = make_replay_body(
        [d, b, name, fn = std::move(fn),
         tup = std::move(tup)](jaccx::pool::thread_pool* pl) mutable {
          launch_desc desc = d;
          desc.h.name = name;
          std::apply(
              [&](auto&... as) {
                execute_for<Rank>(b, pl, desc, bind_kernel<Rank>(fn, as...));
              },
              tup);
        });
  }
  return capture_append(q, capture_kind::kernel, std::move(name),
                        std::move(body));
}

/// The one parallel_for front door: every public overload lands here with
/// its descriptor.  `q` is the explicit queue, null for the synchronous
/// forms, which then follow an active queue_scope.  The default queue runs
/// in place like a plain call, but never shards.
template <int Rank, class F, class... Args>
event launch_for(queue* q, const launch_desc& d, F&& f, Args&&... args) {
  if (q == nullptr) {
    q = active_queue();
  }
  JACCX_ASSERT(d.rows >= 0 && d.cols >= 0 && d.depth >= 0);
  if (d.count() == 0) {
    return event{};
  }
  if (q != nullptr && !q->is_default()) {
    const backend b = current_backend();
    if (queue_capturing(*q)) [[unlikely]] {
      return capture_for<Rank>(*q, b, d, std::forward<F>(f),
                               std::forward<Args>(args)...);
    }
    return enqueue_common(
        *q, b, /*is_copy=*/false, d.h.name,
        [b, run = own_launch<Rank>(d, std::forward<F>(f),
                                   std::forward<Args>(args)...)](
            jaccx::pool::thread_pool* pl) mutable {
          run([&](const launch_desc& desc, const auto& kern) {
            execute_for<Rank>(b, pl, desc, kern);
          });
        });
  }
  const auto kern = bind_kernel<Rank>(f, args...);
  if (device_set* ds = q == nullptr ? active_shard_set() : nullptr;
      ds != nullptr) [[unlikely]] {
    shard_launch<Rank>(
        *ds, jaccx::prof::construct::parallel_for, d,
        [&](jaccx::sim::device& dev, const launch_desc& local, index_t off) {
          gpu_for<Rank>(dev, local, shift_slow<Rank>(off, kern));
        },
        args...);
    return event{};
  }
  execute_for<Rank>(current_backend(), nullptr, d, kern);
  return event{};
}

} // namespace detail

// --- queued overloads: enqueue on `q`, return a jacc::event -----------------

/// 1D parallel_for on a queue, with accounting hints.
template <class F, class... Args>
event parallel_for(queue& q, const hints& h, index_t n, F&& f,
                   Args&&... args) {
  return detail::launch_for<1>(&q, detail::launch_desc::d1(h, n),
                               std::forward<F>(f),
                               std::forward<Args>(args)...);
}

/// 1D parallel_for on a queue: f(i, args...) for i in [0, n).
template <class F, class... Args>
  requires std::invocable<F&, index_t, Args&...>
event parallel_for(queue& q, index_t n, F&& f, Args&&... args) {
  return parallel_for(q, hints{}, n, std::forward<F>(f),
                      std::forward<Args>(args)...);
}

/// 2D parallel_for on a queue, with hints.
template <class F, class... Args>
event parallel_for(queue& q, const hints& h, dims2 d, F&& f, Args&&... args) {
  return detail::launch_for<2>(&q, detail::launch_desc::d2(h, d),
                               std::forward<F>(f),
                               std::forward<Args>(args)...);
}

/// 2D parallel_for on a queue.
template <class F, class... Args>
  requires std::invocable<F&, index_t, index_t, Args&...>
event parallel_for(queue& q, dims2 d, F&& f, Args&&... args) {
  return parallel_for(q, hints{}, d, std::forward<F>(f),
                      std::forward<Args>(args)...);
}

/// 3D parallel_for on a queue, with hints.
template <class F, class... Args>
event parallel_for(queue& q, const hints& h, dims3 d, F&& f, Args&&... args) {
  return detail::launch_for<3>(&q, detail::launch_desc::d3(h, d),
                               std::forward<F>(f),
                               std::forward<Args>(args)...);
}

/// 3D parallel_for on a queue.
template <class F, class... Args>
  requires std::invocable<F&, index_t, index_t, index_t, Args&...>
event parallel_for(queue& q, dims3 d, F&& f, Args&&... args) {
  return parallel_for(q, hints{}, d, std::forward<F>(f),
                      std::forward<Args>(args)...);
}

// --- synchronous overloads (the paper's API) --------------------------------
// Inside a queue_scope these route to the scope's queue, inside a
// device_set_scope to the shard engine; otherwise they run in place.

/// 1D parallel_for with accounting hints.
template <class F, class... Args>
void parallel_for(const hints& h, index_t n, F&& f, Args&&... args) {
  detail::launch_for<1>(nullptr, detail::launch_desc::d1(h, n),
                        std::forward<F>(f), std::forward<Args>(args)...);
}

/// 1D parallel_for: f(i, args...) for i in [0, n).
template <class F, class... Args>
  requires std::invocable<F&, index_t, Args&...>
void parallel_for(index_t n, F&& f, Args&&... args) {
  parallel_for(hints{}, n, std::forward<F>(f), std::forward<Args>(args)...);
}

/// 2D parallel_for with hints: f(i, j, args...) over rows x cols.
template <class F, class... Args>
void parallel_for(const hints& h, dims2 d, F&& f, Args&&... args) {
  detail::launch_for<2>(nullptr, detail::launch_desc::d2(h, d),
                        std::forward<F>(f), std::forward<Args>(args)...);
}

/// 2D parallel_for: f(i, j, args...); i is the fast (column-major) index.
template <class F, class... Args>
  requires std::invocable<F&, index_t, index_t, Args&...>
void parallel_for(dims2 d, F&& f, Args&&... args) {
  parallel_for(hints{}, d, std::forward<F>(f), std::forward<Args>(args)...);
}

/// 3D parallel_for with hints: f(i, j, k, args...).
template <class F, class... Args>
void parallel_for(const hints& h, dims3 d, F&& f, Args&&... args) {
  detail::launch_for<3>(nullptr, detail::launch_desc::d3(h, d),
                        std::forward<F>(f), std::forward<Args>(args)...);
}

/// 3D parallel_for: f(i, j, k, args...).
template <class F, class... Args>
  requires std::invocable<F&, index_t, index_t, index_t, Args&...>
void parallel_for(dims3 d, F&& f, Args&&... args) {
  parallel_for(hints{}, d, std::forward<F>(f), std::forward<Args>(args)...);
}

} // namespace jacc

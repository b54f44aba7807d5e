// jacc::scratch — pool-backed temporary storage whose acquire/release can
// be *captured* into a jacc::graph (the carried ROADMAP extension from the
// graph PR: scratch-allocating DAGs replay allocation-free).
//
//   q.begin_capture();
//   jacc::scratch<double> tmp(q, n);         // records a mem_acquire node
//   jacc::parallel_for(q, h, n, k, tmp.view(), ...);
//   tmp.release();                           // records a mem_release node
//   jacc::graph g = q.end_capture();
//
// At capture time nothing is allocated: the acquire node's replay body
// draws from jaccx::mem under the replaying queue's context, and the
// release node parks the block back, so the second replay onward is served
// entirely from the stream-ordered cache (pool miss count stays flat —
// pinned by Fusion.ScratchReplayHitsPoolOnly).  capture_finish throws
// jaccx::usage_error when acquires and releases don't balance inside one
// capture, since an unbalanced graph would leak a block per replay.
//
// Outside a capture the same object is an ordinary eager pool allocation
// (acquired in the constructor, released in release()/the destructor).
#pragma once

#include <memory>

#include "core/array.hpp"
#include "core/backend.hpp"
#include "core/queue.hpp"
#include "mem/pool.hpp"
#include "support/error.hpp"

namespace jacc {
namespace detail {

/// Shared between the owning jacc::scratch, its views, and the recorded
/// acquire/release bodies: replays rebind `blk` in place, so views made at
/// capture time see the storage of the current replay.
template <class T>
struct scratch_cell {
  jaccx::mem::block blk;
  jaccx::sim::device* dev = nullptr;
  index_t count = 0;
};

} // namespace detail

/// Copyable, capture-safe handle kernels index into.  Element access is
/// tracked exactly like jacc::array's, so simulated cache charges match a
/// real array of the same size.
template <class T>
class scratch_view {
public:
  explicit scratch_view(std::shared_ptr<detail::scratch_cell<T>> cell)
      : cell_(std::move(cell)) {}

  detail::element_ref<T> operator[](index_t i) const {
    JACCX_ASSERT(cell_->blk.ptr != nullptr && i >= 0 && i < cell_->count);
    return detail::element_ref<T>(static_cast<T*>(cell_->blk.ptr) + i,
                                  cell_->dev);
  }
  index_t size() const { return cell_->count; }

private:
  std::shared_ptr<detail::scratch_cell<T>> cell_;
};

template <class T>
class scratch {
public:
  /// Capturing `q`: records a mem_acquire node, nothing allocated now.
  /// Otherwise: an eager pool acquire on the current backend.
  scratch(queue& q, index_t n)
      : q_(q), cell_(std::make_shared<detail::scratch_cell<T>>()) {
    JACCX_ASSERT(n >= 0);
    cell_->dev = backend_device(current_backend());
    cell_->count = n;
    if (detail::queue_capturing(q_)) {
      captured_ = true;
      detail::capture_append(
          q_, detail::capture_kind::mem_acquire, "jacc.scratch.acquire",
          detail::make_replay_body(
              [cell = cell_](jaccx::pool::thread_pool*) {
                const std::size_t bytes =
                    static_cast<std::size_t>(cell->count) * sizeof(T);
                cell->blk = jaccx::mem::acquire(cell->dev, bytes,
                                                "jacc.scratch",
                                                detail::alloc_ctx(cell->dev));
                if (cell->blk.stall_us > 0.0) {
                  detail::note_pool_stall(cell->dev, cell->blk.stall_us);
                }
              }));
    } else {
      acquire_now();
    }
  }

  /// Eager scratch bound to the default queue (no capture possible).
  explicit scratch(index_t n) : scratch(queue::default_queue(), n) {}

  scratch(const scratch&) = delete;
  scratch& operator=(const scratch&) = delete;

  ~scratch() { release(); }

  scratch_view<T> view() const { return scratch_view<T>(cell_); }
  index_t size() const { return cell_->count; }

  /// Ends the scratch lifetime: records the mem_release node while the
  /// capture is still recording, or releases the eager block.  Idempotent.
  /// A captured scratch destroyed after its capture already ended records
  /// nothing — capture_finish's balance check has already accepted or
  /// rejected the graph.
  void release() {
    if (released_) {
      return;
    }
    released_ = true;
    if (captured_) {
      if (detail::queue_capturing(q_)) {
        detail::capture_append(
            q_, detail::capture_kind::mem_release, "jacc.scratch.release",
            detail::make_replay_body([cell = cell_](jaccx::pool::thread_pool*) {
              jaccx::mem::release(cell->blk, detail::release_ctx(cell->dev));
            }));
      }
      return;
    }
    jaccx::mem::release(cell_->blk, detail::release_ctx(cell_->dev));
  }

private:
  void acquire_now() {
    const std::size_t bytes =
        static_cast<std::size_t>(cell_->count) * sizeof(T);
    cell_->blk = jaccx::mem::acquire(cell_->dev, bytes, "jacc.scratch",
                                     detail::alloc_ctx(cell_->dev));
    if (cell_->blk.stall_us > 0.0) {
      detail::note_pool_stall(cell_->dev, cell_->blk.stall_us);
    }
  }

  queue q_;
  std::shared_ptr<detail::scratch_cell<T>> cell_;
  bool captured_ = false;
  bool released_ = false;
};

} // namespace jacc

// Launch descriptors shared by every jacc dispatch front end.
//
// Every public parallel_for / parallel_reduce overload (1D/2D/3D, hinted or
// not, synchronous, queued, host-blocking or future-returning) only fills
// one detail::launch_desc — an iteration range, its rank, and the
// accounting hints — and hands it to the single launch pipeline in
// parallel_for.hpp / parallel_reduce.hpp.  The queue, graph and shard
// layers receive the same descriptor, so a new hint or rank touches this
// struct and that one pipeline, not each overload.
#pragma once

#include <string_view>

#include "support/span2d.hpp"

namespace jacc {

using jaccx::index_t;

/// Optional accounting hints: a kernel name for traces, a flops-per-index
/// estimate for the simulator's roofline term, and a bytes-per-index
/// estimate for profiler bandwidth columns.  Purely observational — they
/// never change results.
struct hints {
  std::string_view name = "jacc.parallel_for";
  double flops_per_index = 0.0;
  double bytes_per_index = 0.0;
  /// Inert: no layer reads it.  It marked launches for a graph-level chain
  /// fuser that no longer exists and is kept only so existing designated
  /// initializers still compile.
  bool elementwise = false;
  /// Stencil reach along the slowest (partitioned) dimension: the kernel at
  /// index i may read array elements up to `stencil_radius` slow-dimension
  /// units away.  Under a device_set scope the auto-sharding layer infers
  /// the halo width from this and exchanges ghost cells before the launch;
  /// single-device execution ignores it entirely.
  index_t stencil_radius = 0;

  /// `hints::stencil(r)` — the shorthand the sharding layer documents for
  /// marking a radius-r stencil launch.
  static hints stencil(index_t r) {
    return hints{.name = "jacc.stencil", .stencil_radius = r};
  }
  /// Copy of these hints with a stencil radius attached (for call sites
  /// that already carry a name and accounting estimates).
  hints with_stencil(index_t r) const {
    hints h = *this;
    h.stencil_radius = r;
    return h;
  }
};

struct dims2 {
  index_t rows = 0; ///< M: the fast, column-major index (i)
  index_t cols = 0; ///< N: the slow index (j)
};

struct dims3 {
  index_t rows = 0;
  index_t cols = 0;
  index_t depth = 0;
};

namespace detail {

/// The one internal launch shape every public overload lowers to.  Unused
/// trailing dimensions are 1 so count() is always the product; the rank
/// travels as the pipeline's Rank template parameter.
struct launch_desc {
  hints h;
  index_t rows = 0;
  index_t cols = 1;
  index_t depth = 1;

  index_t count() const { return rows * cols * depth; }

  static launch_desc d1(const hints& h, index_t n) {
    return launch_desc{h, n, 1, 1};
  }
  static launch_desc d2(const hints& h, dims2 d) {
    return launch_desc{h, d.rows, d.cols, 1};
  }
  static launch_desc d3(const hints& h, dims3 d) {
    return launch_desc{h, d.rows, d.cols, d.depth};
  }
};

} // namespace detail
} // namespace jacc

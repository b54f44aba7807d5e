// Kernel-fusion accounting shared by the expression layer (core/expr.hpp).
//
// Fusion happens in one place: jacc::expr collapses an elementwise
// statement chain, optionally ending in a dot, into ONE launch at the call
// site; cg_solve always takes that path (docs/FUSION.md).  This header
// holds the fused launch's hint model.
#pragma once

#include <string_view>
#include <vector>

namespace jacc {

/// The fusion the library applies: expression-layer fusion, always on.
/// A read-only report for run banners, not a setting.
enum class fuse_mode { expr };

constexpr fuse_mode fuse() { return fuse_mode::expr; }
constexpr std::string_view to_string(fuse_mode) { return "expr"; }

namespace detail {

/// One array touched by a fused kernel: its footprint pointer (the host
/// mirror address identifies the array uniquely regardless of backend),
/// the element width, and the access mode.  The fused hint model charges
/// each distinct array once per direction, so a vector read by two fused
/// operands counts 8 bytes, not 16 (MODEL.md, "Fused charges").
struct fuse_footprint {
  const void* ptr = nullptr;
  double elem_bytes = 0.0;
  bool read = false;
  bool write = false;
};

/// Deduplicated bytes-per-index over a fused footprint set: each distinct
/// array pointer is charged elem_bytes once per direction it is accessed
/// (read and write count separately, matching the eager hint convention
/// where an RW vector contributes 16 bytes).
double fused_hint_bytes(const std::vector<fuse_footprint>& fps);

} // namespace detail
} // namespace jacc

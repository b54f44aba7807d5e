#include "core/fuse.hpp"

namespace jacc {
namespace detail {

double fused_hint_bytes(const std::vector<fuse_footprint>& fps) {
  double bytes = 0.0;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    // First occurrence of this pointer owns the charge; later mentions of
    // the same array only widen the direction set.
    bool first = true;
    for (std::size_t j = 0; j < i; ++j) {
      if (fps[j].ptr == fps[i].ptr) {
        first = false;
        break;
      }
    }
    if (!first) {
      continue;
    }
    bool r = false;
    bool w = false;
    for (std::size_t j = i; j < fps.size(); ++j) {
      if (fps[j].ptr == fps[i].ptr) {
        r = r || fps[j].read;
        w = w || fps[j].write;
      }
    }
    bytes += fps[i].elem_bytes * ((r ? 1.0 : 0.0) + (w ? 1.0 : 0.0));
  }
  return bytes;
}

} // namespace detail
} // namespace jacc

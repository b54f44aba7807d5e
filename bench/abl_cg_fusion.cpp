// Ablation: expression-layer fusion on the CG BLAS chain (docs/FUSION.md).
//
// Runs one Fig. 12 iteration per arch in both forms — paper_iteration (the
// listing's 12 launches) and paper_iteration_fused — and splits the
// simulated DRAM traffic the cache model charged into the matvec and the
// BLAS chain (every kernel named "cg.*"; the matvec is
// "jacc.tridiag_matvec").  The fused chain re-groups the listing's 12
// operations into 5 launches, so each vector is streamed once per group
// instead of once per operation — the measured chain traffic must drop
// ≥1.5× on the simulated devices, and this binary exits nonzero if it
// does not.  The threads rows report the real wall-clock effect of the
// same regrouping.  Roofline rows for the fused kernels (higher
// arithmetic intensity at the same traffic) land in BENCH_cg_fusion.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "fig_common.hpp"

namespace {

using namespace jaccx::bench;

struct chain_stats {
  double chain_dram = 0.0; ///< bytes charged to "cg.*" kernels
  double total_dram = 0.0; ///< bytes charged to every kernel event
  double iter_us = 0.0;    ///< simulated time of the whole iteration
};

using iteration_fn = void (*)(jaccx::cg::paper_state&);

/// One warmed `iteration` on `a`, with the event log capturing per-kernel
/// DRAM tallies.
chain_stats measure_sim(const arch& a, iteration_fn iteration, index_t n) {
  const jacc::scoped_backend sb(a.be);
  auto& dev = dev_of(a);
  jaccx::cg::paper_state st(n);
  dev.tl().set_logging(false);
  dev.cache().reset();
  iteration(st); // warm-up: steady-state modeled cache
  dev.reset_clock();
  dev.tl().set_logging(true);
  const double t0 = dev.tl().now_us();
  iteration(st);
  const double t1 = dev.tl().now_us();
  chain_stats out;
  out.iter_us = t1 - t0;
  for (const auto& e : dev.tl().events()) {
    if (e.kind != jaccx::sim::event_kind::kernel) {
      continue;
    }
    const double bytes = static_cast<double>(e.tally.dram_bytes);
    out.total_dram += bytes;
    if (e.name.rfind("cg.", 0) == 0) {
      out.chain_dram += bytes;
    }
  }
  dev.reset_clock();
  return out;
}

/// Real wall-clock per paper iteration on the threads backend.
double measure_threads_us(iteration_fn iteration, index_t n, int reps) {
  const jacc::scoped_backend sb(jacc::backend::threads);
  jaccx::cg::paper_state st(n);
  iteration(st); // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    iteration(st);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() /
         static_cast<double>(reps);
}

} // namespace

int main() {
  // Populate roofline rows in BENCH_cg_fusion.json even when the user did
  // not ask for a profile (bench_session only forces collection).
  if (std::getenv("JACC_PROFILE") == nullptr) {
    jaccx::prof::set_mode(jaccx::prof::mode_collect |
                          jaccx::prof::mode_roofline);
  }
  const bench_session session("cg_fusion");

  // 32 MiB per vector: one chain group's working set far exceeds even the
  // a100's 40 MiB modeled cache, so every sweep streams from DRAM.
  const index_t n = index_t{1} << 22;
  bool ok = true;

  std::puts("=== CG BLAS-chain fusion ablation: paper_iteration vs "
            "paper_iteration_fused ===");
  std::printf("%-8s %14s %14s %7s %14s %14s\n", "arch", "chain eager B",
              "chain fused B", "ratio", "iter eager B", "iter fused B");
  for (const auto& a : all_archs) {
    if (a.be != jacc::backend::hip_mi100 &&
        a.be != jacc::backend::cuda_a100) {
      continue; // one small-cache and one large-cache testbed suffice
    }
    const chain_stats eager = measure_sim(a, jaccx::cg::paper_iteration, n);
    const chain_stats fused =
        measure_sim(a, jaccx::cg::paper_iteration_fused, n);
    const double ratio = fused.chain_dram > 0.0
                             ? eager.chain_dram / fused.chain_dram
                             : 0.0;
    std::printf("%-8s %14.0f %14.0f %6.2fx %14.0f %14.0f\n", a.name,
                eager.chain_dram, fused.chain_dram, ratio, eager.total_dram,
                fused.total_dram);
    if (fused.chain_dram * 1.5 > eager.chain_dram) {
      std::fprintf(stderr,
                   "FAIL: %s fused BLAS chain charged %.0f DRAM bytes, "
                   "needs <= %.0f (1/1.5 of the %.0f eager bytes)\n",
                   a.name, fused.chain_dram, eager.chain_dram / 1.5,
                   eager.chain_dram);
      ok = false;
    }
  }

  const index_t n_threads = index_t{1} << 20;
  const int reps = 5;
  const double wall_eager =
      measure_threads_us(jaccx::cg::paper_iteration, n_threads, reps);
  const double wall_fused =
      measure_threads_us(jaccx::cg::paper_iteration_fused, n_threads, reps);
  std::printf("\nthreads  n=%lld: eager %9.1f us/iter, fused %9.1f us/iter "
              "-> %.2fx\n",
              static_cast<long long>(n_threads), wall_eager, wall_fused,
              wall_eager / wall_fused);

  if (!ok) {
    return 1;
  }
  std::puts("\nOK: fused chain DRAM traffic >= 1.5x below eager on all "
            "measured sim archs");
  return 0;
}

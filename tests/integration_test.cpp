// Integration tests spanning modules: full JACC workflows on simulated
// devices, checking both results and the *shape* of the charged timeline.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "blas/jacc_blas.hpp"
#include "blas/native_gpu.hpp"
#include "cg/solver.hpp"
#include "core/jacc.hpp"
#include "lbm/simulation.hpp"

namespace {

using jacc::backend;
using jacc::index_t;

double sim_time(backend b) {
  return jacc::backend_device(b)->tl().now_us();
}

void reset_device(backend b) {
  auto* dev = jacc::backend_device(b);
  dev->reset_clock();
  dev->cache().reset();
}

TEST(Integration, FullAxpyDotWorkflowOnGpu) {
  // The asserted timeline shape (per-call reduce scratch + zero fills) is
  // the paper-fidelity JACC_MEM_POOL=none contract.
  const jaccx::mem::scoped_mode fidelity(jaccx::mem::pool_mode::none);
  jacc::scoped_backend sb(backend::cuda_a100);
  reset_device(backend::cuda_a100);

  const index_t n = 1 << 16;
  std::vector<double> xs(static_cast<std::size_t>(n), 1.0);
  std::vector<double> ys(static_cast<std::size_t>(n), 2.0);
  jacc::array<double> x(xs), y(ys); // charged H2D
  jaccx::blas::jacc_axpy(n, 2.5, x, y);
  const double dot = jaccx::blas::jacc_dot(n, x, y);
  EXPECT_DOUBLE_EQ(dot, 6.0 * 2.0 * static_cast<double>(n));

  const auto& tl = jacc::backend_device(backend::cuda_a100)->tl();
  int kernels = 0;
  int h2d = 0;
  int d2h = 0;
  for (const auto& e : tl.events()) {
    kernels += e.kind == jaccx::sim::event_kind::kernel;
    h2d += e.kind == jaccx::sim::event_kind::transfer_h2d;
    d2h += e.kind == jaccx::sim::event_kind::transfer_d2h;
  }
  EXPECT_EQ(h2d, 2);     // two array uploads
  EXPECT_EQ(kernels, 5); // axpy + 2 zero-fills + two-phase reduce
  EXPECT_EQ(d2h, 1);     // scalar result
}

TEST(Integration, DotCostsMoreThanAxpyOnEveryGpu) {
  // Paper Sec. V-A1: DOT trails AXPY on all GPUs because of the two-kernel
  // reduction and the scalar transfer.
  for (backend b : {backend::cuda_a100, backend::hip_mi100,
                    backend::oneapi_max1550}) {
    jacc::scoped_backend sb(b);
    const index_t n = 1 << 18;
    std::vector<double> xs(static_cast<std::size_t>(n), 1.0);
    jacc::array<double> x(xs), y(xs);

    reset_device(b);
    jaccx::blas::jacc_axpy(n, 2.0, x, y);
    const double axpy_t = sim_time(b);

    reset_device(b);
    jaccx::blas::jacc_dot(n, x, y);
    const double dot_t = sim_time(b);

    EXPECT_GT(dot_t, axpy_t) << jacc::to_string(b);
  }
}

TEST(Integration, LbmChargesOneKernelPerStep) {
  jacc::scoped_backend sb(backend::hip_mi100);
  jaccx::lbm::simulation sim(jaccx::lbm::params{.size = 24, .tau = 0.8});
  reset_device(backend::hip_mi100);
  sim.run(3);
  const auto& tl = jacc::backend_device(backend::hip_mi100)->tl();
  int kernels = 0;
  for (const auto& e : tl.events()) {
    kernels += e.kind == jaccx::sim::event_kind::kernel;
  }
  EXPECT_EQ(kernels, 3) << "single fused kernel per LBM step (Fig. 10)";
}

TEST(Integration, CgIterationLaunchCountMatchesFig12) {
  // Fig. 12's 27-launch iteration counts the per-reduce zero fills: pin
  // the paper-fidelity allocation mode.
  const jaccx::mem::scoped_mode fidelity(jaccx::mem::pool_mode::none);
  jacc::scoped_backend sb(backend::cuda_a100);
  jaccx::cg::paper_state st(1 << 12);
  reset_device(backend::cuda_a100);
  jaccx::cg::paper_iteration(st);
  const auto& tl = jacc::backend_device(backend::cuda_a100)->tl();
  int kernels = 0;
  int d2h = 0;
  for (const auto& e : tl.events()) {
    kernels += e.kind == jaccx::sim::event_kind::kernel;
    d2h += e.kind == jaccx::sim::event_kind::transfer_d2h;
  }
  // 1 matvec + 3 axpy + 3 copies + 5 dots * (2 fills + 2 kernels) = 27
  // kernels, one D2H per dot.
  EXPECT_EQ(kernels, 27);
  EXPECT_EQ(d2h, 5);
}

TEST(Integration, SameSourceRunsOnAllSixBackends) {
  // The paper's headline: one JACC source, every target.  Run an identical
  // mini-pipeline everywhere and compare results.
  const index_t n = 4096;
  std::vector<double> base(static_cast<std::size_t>(n));
  std::iota(base.begin(), base.end(), 0.0);

  double expect = 0.0;
  bool first = true;
  for (backend b : jacc::all_backends) {
    jacc::scoped_backend sb(b);
    jacc::array<double> x(base);
    jacc::array<double> y(std::vector<double>(static_cast<std::size_t>(n),
                                              1.0));
    jaccx::blas::jacc_axpy(n, 0.5, x, y);
    const double got = jaccx::blas::jacc_dot(n, x, y);
    if (first) {
      expect = got;
      first = false;
    } else {
      EXPECT_NEAR(got, expect, 1e-9 * std::abs(expect))
          << jacc::to_string(b);
    }
  }
}

TEST(Integration, WarmCacheSecondPassIsCheaper) {
  // Temporal locality must be visible end-to-end through jacc::array.
  jacc::scoped_backend sb(backend::cuda_a100);
  const index_t n = 1 << 14; // 128 KiB per array, far below the 40 MiB L2
  std::vector<double> xs(static_cast<std::size_t>(n), 1.0);
  jacc::array<double> x(xs), y(xs);

  reset_device(backend::cuda_a100);
  jaccx::blas::jacc_axpy(n, 2.0, x, y);
  const double cold = sim_time(backend::cuda_a100);

  const double t0 = sim_time(backend::cuda_a100);
  jaccx::blas::jacc_axpy(n, 2.0, x, y);
  const double warm = sim_time(backend::cuda_a100) - t0;
  EXPECT_LT(warm, cold);
}

TEST(Integration, ChromeTraceExportsRealWorkflow) {
  jacc::scoped_backend sb(backend::oneapi_max1550);
  reset_device(backend::oneapi_max1550);
  jacc::array<double> x(std::vector<double>(256, 1.0));
  jaccx::blas::jacc_dot(256, x, x);
  const auto json =
      jacc::backend_device(backend::oneapi_max1550)->tl().to_chrome_trace();
  EXPECT_NE(json.find("jacc.dot"), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"d2h\""), std::string::npos);
}

} // namespace

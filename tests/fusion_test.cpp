// Tests for expression-layer fusion (docs/FUSION.md) and the satellites
// that landed with it: jacc::expr evaluation must be bit-exact against the
// eager kernel sequence on serial and simulated backends (NEAR across
// threads lane counts), paper_iteration must keep the seed's simulated
// charges bit for bit, paper_iteration_fused must match it while charging
// less DRAM, captured jacc::scratch must replay allocation-free, and
// mem::trim must evict oldest-first while an untrimmed pool keeps every
// parked block.  Suite name "Fusion" keeps these runnable as a unit
// (scripts/verify.sh runs Fusion.* under TSan: fused threads launches are
// a race surface).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "blas/jacc_blas.hpp"
#include "cg/solver.hpp"
#include "core/jacc.hpp"
#include "mem/pool.hpp"
#include "sim/device.hpp"
#include "support/error.hpp"

namespace jacc {
namespace {

using jaccx::mem::pool_mode;
using jaccx::mem::scoped_mode;

void axpy_k(index_t i, double alpha, array<double>& x,
            const array<double>& y) {
  x[i] += alpha * static_cast<double>(y[i]);
}

std::vector<double> iota_vec(index_t n, double start) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = start + 0.25 * static_cast<double>(i);
  }
  return v;
}

/// CG as separate eager launches (residual, copy, then per iteration a dot,
/// two axpys, a dot and an xpay): the reference the fused cg_solve is
/// pinned against.
jaccx::cg::cg_result eager_cg(const jaccx::cg::tridiag_system& A,
                              const array<double>& b, array<double>& x,
                              const jaccx::cg::cg_options& opts) {
  using jaccx::cg::darray;
  const index_t n = A.n;
  const hints dot_h{.name = "cg.dot", .flops_per_index = 2.0,
                    .bytes_per_index = 16.0};
  const hints axpy_h{.name = "cg.axpy", .flops_per_index = 2.0,
                     .bytes_per_index = 24.0};
  darray r(uninit, n);
  darray p(uninit, n);
  darray s(uninit, n);
  A.apply(x, s);
  parallel_for(
      hints{.name = "cg.residual", .flops_per_index = 2.0,
            .bytes_per_index = 24.0},
      n,
      [](index_t i, const darray& b_, const darray& s_, darray& r_) {
        r_[i] = static_cast<double>(b_[i]) - static_cast<double>(s_[i]);
      },
      b, s, r);
  parallel_for(hints{.name = "cg.copy", .bytes_per_index = 16.0}, n,
               jaccx::cg::copy_kernel, r, p);
  const double bb = parallel_reduce(dot_h, n, jaccx::blas::dot, b, b);
  double rr = parallel_reduce(dot_h, n, jaccx::blas::dot, r, r);
  const double stop = opts.tolerance * opts.tolerance * bb;
  jaccx::cg::cg_result out;
  while (out.iterations < opts.max_iterations && rr > stop) {
    A.apply(p, s);
    const double alpha =
        rr / parallel_reduce(dot_h, n, jaccx::blas::dot, p, s);
    parallel_for(axpy_h, n, jaccx::blas::axpy, alpha, x, p);
    parallel_for(axpy_h, n, jaccx::blas::axpy, -alpha, r, s);
    const double rr_new = parallel_reduce(dot_h, n, jaccx::blas::dot, r, r);
    parallel_for(hints{.name = "cg.xpay", .flops_per_index = 2.0,
                       .bytes_per_index = 24.0},
                 n, jaccx::cg::xpay_kernel, rr_new / rr, r, p);
    rr = rr_new;
    ++out.iterations;
  }
  out.relative_residual = std::sqrt(rr / bb);
  out.converged = rr <= stop;
  return out;
}

class Fusion : public ::testing::Test {
protected:
  void SetUp() override { saved_ = current_backend(); }
  void TearDown() override { set_backend(saved_); }
  backend saved_ = backend::threads;
};

// --- expr layer: bit-exact vs the eager kernels -----------------------------

TEST_F(Fusion, ExprBlasBitExactSerial) {
  // The BLAS drivers launch their eager kernels; the same statements
  // written as expressions must produce the same bits.
  set_backend(backend::serial);
  const index_t n = 1000;
  const auto hx = iota_vec(n, 1.0);
  const auto hy = iota_vec(n, -3.5);

  array<double> xe(hx), ye(hy), xf(hx), yf(hy);
  jaccx::blas::jacc_axpy(n, 1.0 / 3.0, xe, ye);
  jaccx::blas::jacc_scal(n, 0.7, xe);
  jaccx::blas::jacc_copy(n, xe, ye);
  const double dot_e = jaccx::blas::jacc_dot(n, xe, ye);

  eval("test.axpy", n, assign(xf, ex(xf) + (1.0 / 3.0) * ex(yf)));
  eval("test.scal", n, assign(xf, ex(xf) * 0.7));
  eval("test.copy", n, assign(yf, ex(xf)));
  const double dot_f = dot("test.dot", n, ex(xf), ex(yf));

  EXPECT_EQ(dot_e, dot_f);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(xe.host_data()[i], xf.host_data()[i]) << i;
    EXPECT_EQ(ye.host_data()[i], yf.host_data()[i]) << i;
  }
}

TEST_F(Fusion, ExprBlas2dBitExactFullAndPrefix) {
  set_backend(backend::serial);
  const index_t rows = 24;
  const index_t cols = 17;
  const auto h = iota_vec(rows * cols, 2.0);

  // Full extent: a flat expression sweep covers the same elements in the
  // same canonical order (idx = j*rows + i) as the eager 2-D launch.
  array2d<double> xe(h, rows, cols), ye(h, rows, cols);
  array2d<double> xf(h, rows, cols), yf(h, rows, cols);
  jaccx::blas::jacc_axpy2d(rows, cols, -0.3, xe, ye);
  const double de = jaccx::blas::jacc_dot2d(rows, cols, xe, ye);
  eval("test.axpy2d", rows * cols, assign(xf, ex(xf) + (-0.3) * ex(yf)));
  const double df = dot("test.dot2d", rows * cols, ex(xf), ex(yf));
  EXPECT_EQ(de, df);
  for (index_t i = 0; i < rows * cols; ++i) {
    EXPECT_EQ(xe.host_data()[i], xf.host_data()[i]) << i;
  }

  // A prefix extent touches only its sub-block.
  array2d<double> pe(h, rows, cols);
  jaccx::blas::jacc_axpy2d(rows - 3, cols - 2, 2.0, pe, ye);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) {
      const index_t k = j * rows + i;
      const double expect =
          i < rows - 3 && j < cols - 2
              ? h[static_cast<std::size_t>(k)] + 2.0 * ye.host_data()[k]
              : h[static_cast<std::size_t>(k)];
      EXPECT_EQ(pe.host_data()[k], expect) << i << "," << j;
    }
  }
}

TEST_F(Fusion, ExprEvalDotMatchesUnfusedSweeps) {
  set_backend(backend::serial);
  const index_t n = 2048;
  const auto hr = iota_vec(n, 0.5);
  const auto hs = iota_vec(n, 1.5);
  const auto hx = iota_vec(n, -2.0);
  const auto hp = iota_vec(n, 3.0);
  const double alpha = 0.37;

  // Eager reference: x += alpha p; r -= alpha s; rr = r . r.
  array<double> re(hr), se(hs), xe(hx), pe(hp);
  parallel_for(n, axpy_k, alpha, xe, pe);
  parallel_for(n, axpy_k, -alpha, re, se);
  const double rr_e = parallel_reduce(
      n,
      [](index_t i, const array<double>& a, const array<double>& b) {
        return static_cast<double>(a[i]) * static_cast<double>(b[i]);
      },
      re, re);

  array<double> rf(hr), sf(hs), xf(hx), pf(hp);
  const double rr_f = eval_dot(
      "test.fused_update", n, ex(rf), ex(rf),
      assign(xf, ex(xf) + alpha * ex(pf)),
      assign(rf, ex(rf) + (-alpha) * ex(sf)));
  EXPECT_EQ(rr_e, rr_f);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(re.host_data()[i], rf.host_data()[i]) << i;
    EXPECT_EQ(xe.host_data()[i], xf.host_data()[i]) << i;
  }
}

TEST_F(Fusion, CgSolveExprBitExactSerialAndSim) {
  // cg_solve runs its vector work through the expression layer; the eager
  // kernel sequence must give the same iterates bit for bit.  On a100 the
  // working set stays cache-resident, so the kernels of both solves charge
  // only the first touch of each array: the same DRAM bytes, also bit for
  // bit.  (Allocation events are left out: the second solve's scratch
  // comes from the pool.)
  for (const backend be : {backend::serial, backend::cuda_a100}) {
    set_backend(be);
    auto& dev = jaccx::sim::get_device("a100");
    const auto solve_dram = [&](auto&& solve) {
      dev.tl().set_logging(false);
      dev.cache().reset();
      dev.reset_clock();
      dev.tl().set_logging(true);
      solve();
      std::uint64_t bytes = 0;
      for (const auto& e : dev.tl().events()) {
        if (e.kind == jaccx::sim::event_kind::kernel) {
          bytes += e.tally.dram_bytes;
        }
      }
      dev.reset_clock();
      return bytes;
    };
    const index_t n = 300;
    jaccx::cg::tridiag_system A(n);
    const std::vector<double> bh(static_cast<std::size_t>(n), 1.0);

    array<double> b1(bh), b2(bh);
    array<double> x1(n), x2(n);
    jaccx::cg::cg_result r1, r2;
    const std::uint64_t dram_eager =
        solve_dram([&] { r1 = eager_cg(A, b1, x1, {}); });
    const std::uint64_t dram_fused =
        solve_dram([&] { r2 = jaccx::cg::cg_solve(A, b2, x2, {}); });
    EXPECT_TRUE(r1.converged);
    EXPECT_EQ(r1.iterations, r2.iterations) << to_string(be);
    EXPECT_EQ(r1.relative_residual, r2.relative_residual) << to_string(be);
    for (index_t i = 0; i < n; ++i) {
      EXPECT_EQ(x1.host_data()[i], x2.host_data()[i])
          << to_string(be) << " i=" << i;
    }
    if (be == backend::cuda_a100) {
      EXPECT_GT(dram_fused, 0u);
      EXPECT_EQ(dram_eager, dram_fused);
    }
  }
}

TEST_F(Fusion, CgSolveExprThreadsNear) {
  set_backend(backend::threads);
  const index_t n = 400;
  jaccx::cg::tridiag_system A(n);
  const std::vector<double> bh(static_cast<std::size_t>(n), 1.0);

  array<double> b1(bh), b2(bh);
  array<double> x1(n), x2(n);
  const auto r1 = eager_cg(A, b1, x1, {});
  const auto r2 = jaccx::cg::cg_solve(A, b2, x2, {});
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x1.host_data()[i], x2.host_data()[i], 1e-9) << i;
  }
}

TEST_F(Fusion, PaperIterationExprBitExactSerial) {
  set_backend(backend::serial);
  const index_t n = 512;
  jaccx::cg::paper_state se(n), sf(n);
  jaccx::cg::paper_iteration(se);
  jaccx::cg::paper_iteration(se);
  jaccx::cg::paper_iteration_fused(sf);
  jaccx::cg::paper_iteration_fused(sf);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(se.r.host_data()[i], sf.r.host_data()[i]) << i;
    EXPECT_EQ(se.p.host_data()[i], sf.p.host_data()[i]) << i;
    EXPECT_EQ(se.x.host_data()[i], sf.x.host_data()[i]) << i;
    EXPECT_EQ(se.r_old.host_data()[i], sf.r_old.host_data()[i]) << i;
    EXPECT_EQ(se.r_aux.host_data()[i], sf.r_aux.host_data()[i]) << i;
  }
}

TEST_F(Fusion, ExprSimChargesLessDram) {
  // mi100: the smallest modeled cache (8 MiB), so 16 MiB vectors make
  // every sweep stream from DRAM — the same regime the bench measures at
  // n = 1<<22 (a larger cache would retain the working set between
  // kernels here and hide the chain traffic).
  set_backend(backend::hip_mi100);
  auto& dev = jaccx::sim::get_device("mi100");
  const index_t n = index_t{1} << 21;

  const auto chain_dram = [&](void (*iteration)(jaccx::cg::paper_state&)) {
    jaccx::cg::paper_state st(n);
    dev.tl().set_logging(false);
    dev.cache().reset();
    iteration(st); // warm
    dev.reset_clock();
    dev.tl().set_logging(true);
    iteration(st);
    std::uint64_t bytes = 0;
    for (const auto& e : dev.tl().events()) {
      if (e.kind == jaccx::sim::event_kind::kernel &&
          e.name.rfind("cg.", 0) == 0) {
        bytes += e.tally.dram_bytes;
      }
    }
    dev.reset_clock();
    return bytes;
  };

  const std::uint64_t eager = chain_dram(jaccx::cg::paper_iteration);
  const std::uint64_t fused = chain_dram(jaccx::cg::paper_iteration_fused);
  EXPECT_GT(eager, 0u);
  // The acceptance bar bench/abl_cg_fusion enforces per-arch.
  EXPECT_GE(static_cast<double>(eager), 1.5 * static_cast<double>(fused))
      << "eager=" << eager << " fused=" << fused;
}

// --- paper_iteration: the seed's charges, bit for bit -----------------------

TEST_F(Fusion, NoneModeMatchesSeedChargesExactly) {
  set_backend(backend::cuda_a100);
  auto& dev = jaccx::sim::get_device("a100");
  const index_t n = 4096;

  struct charge_log {
    std::vector<std::string> names;
    std::vector<std::uint64_t> dram;
    double clock_us = 0.0;
  };
  const auto run = [&](auto&& iter) {
    jaccx::cg::paper_state st(n);
    dev.tl().set_logging(false);
    dev.cache().reset();
    iter(st); // warm: pool and workspaces reach steady state
    dev.reset_clock();
    dev.tl().set_logging(true);
    iter(st);
    charge_log out;
    out.clock_us = dev.tl().now_us();
    for (const auto& e : dev.tl().events()) {
      out.names.push_back(e.name);
      out.dram.push_back(e.tally.dram_bytes);
    }
    dev.reset_clock();
    return out;
  };

  // The seed's exact Fig. 12 sequence, written out by hand.
  const auto seed = run([](jaccx::cg::paper_state& st) {
    const index_t nn = st.A.n;
    const hints dot_h{.name = "cg.dot", .flops_per_index = 2.0,
                      .bytes_per_index = 16.0};
    const hints axpy_h{.name = "cg.axpy", .flops_per_index = 2.0,
                       .bytes_per_index = 24.0};
    const hints copy_h{.name = "cg.copy", .bytes_per_index = 16.0};
    parallel_for(copy_h, nn, jaccx::cg::copy_kernel, st.r, st.r_old);
    st.A.apply(st.p, st.s);
    const double a0 =
        parallel_reduce(dot_h, nn, jaccx::blas::dot, st.r, st.r);
    const double a1 =
        parallel_reduce(dot_h, nn, jaccx::blas::dot, st.p, st.s);
    const double alpha = a0 / a1;
    parallel_for(axpy_h, nn, jaccx::blas::axpy, -alpha, st.r, st.s);
    parallel_for(axpy_h, nn, jaccx::blas::axpy, alpha, st.x, st.p);
    const double b0 =
        parallel_reduce(dot_h, nn, jaccx::blas::dot, st.r, st.r);
    const double b1 =
        parallel_reduce(dot_h, nn, jaccx::blas::dot, st.r_old, st.r_old);
    const double beta = b0 / b1;
    parallel_for(copy_h, nn, jaccx::cg::copy_kernel, st.r, st.r_aux);
    parallel_for(axpy_h, nn, jaccx::blas::axpy, beta, st.r_aux, st.p);
    parallel_for(copy_h, nn, jaccx::cg::copy_kernel, st.r_aux, st.p);
    const double cond =
        parallel_reduce(dot_h, nn, jaccx::blas::dot, st.r, st.r);
    static_cast<void>(cond);
  });

  const auto none = run(
      [](jaccx::cg::paper_state& st) { jaccx::cg::paper_iteration(st); });

  ASSERT_EQ(seed.names.size(), none.names.size());
  for (std::size_t k = 0; k < seed.names.size(); ++k) {
    EXPECT_EQ(seed.names[k], none.names[k]) << "event " << k;
    EXPECT_EQ(seed.dram[k], none.dram[k]) << "event " << k;
  }
  EXPECT_DOUBLE_EQ(seed.clock_us, none.clock_us);
}

// --- captured scratch -------------------------------------------------------

TEST_F(Fusion, ScratchEagerRoundTrip) {
  set_backend(backend::serial);
  const index_t n = 512;
  array<double> x(iota_vec(n, 1.0)), out(n);
  {
    scratch<double> tmp(n);
    parallel_for(
        n,
        [](index_t i, const array<double>& in, scratch_view<double> t) {
          t[i] = 2.0 * static_cast<double>(in[i]);
        },
        x, tmp.view());
    parallel_for(
        n,
        [](index_t i, scratch_view<double> t, array<double>& o) {
          o[i] = static_cast<double>(t[i]) + 1.0;
        },
        tmp.view(), out);
  }
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.host_data()[i], 2.0 * x.host_data()[i] + 1.0) << i;
  }
}

TEST_F(Fusion, ScratchReplayHitsPoolOnly) {
  set_backend(backend::serial);
  const scoped_mode pooled(pool_mode::bucket);
  const index_t n = 512;
  array<double> x(iota_vec(n, 1.0)), out(n);

  queue q("fuse.scratch");
  q.begin_capture();
  scratch<double> tmp(q, n);
  parallel_for(
      q, n,
      [](index_t i, const array<double>& in, scratch_view<double> t) {
        t[i] = 2.0 * static_cast<double>(in[i]);
      },
      x, tmp.view());
  parallel_for(
      q, n,
      [](index_t i, scratch_view<double> t, array<double>& o) {
        o[i] = static_cast<double>(t[i]) + 1.0;
      },
      tmp.view(), out);
  tmp.release();
  graph g = q.end_capture();
  EXPECT_EQ(g.node_count(), 4u); // acquire, kernel, kernel, release

  const auto total_misses = [] {
    std::uint64_t m = 0;
    for (const auto& s : jaccx::mem::stats()) {
      m += s.misses;
    }
    return m;
  };

  g.launch(q); // warm replay: may miss once, then parks the block
  q.synchronize();
  const std::uint64_t warm = total_misses();
  for (int rep = 0; rep < 3; ++rep) {
    g.launch(q);
    q.synchronize();
  }
  EXPECT_EQ(total_misses(), warm)
      << "warm replays must be served entirely from the pool cache";
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.host_data()[i], 2.0 * x.host_data()[i] + 1.0) << i;
  }
}

TEST_F(Fusion, ScratchUnbalancedCaptureThrows) {
  set_backend(backend::serial);
  queue q("fuse.unbalanced");
  q.begin_capture();
  scratch<double> tmp(q, 64);
  EXPECT_THROW(static_cast<void>(q.end_capture()), jaccx::usage_error);
}

// --- pool trim ---------------------------------------------------------------

TEST_F(Fusion, MemTrimEmptiesCaches) {
  const scoped_mode pooled(pool_mode::bucket);
  jaccx::mem::trim(0);
  auto a = jaccx::mem::acquire(nullptr, 1000, "t");
  auto b = jaccx::mem::acquire(nullptr, 5000, "t");
  jaccx::mem::release(a);
  jaccx::mem::release(b);
  EXPECT_GT(jaccx::mem::cached_bytes(), 0u);
  jaccx::mem::trim(0);
  EXPECT_EQ(jaccx::mem::cached_bytes(), 0u);
}

TEST_F(Fusion, MemTrimEvictsOldestReleasedFirst) {
  const scoped_mode pooled(pool_mode::bucket);
  jaccx::mem::trim(0);

  auto a = jaccx::mem::acquire(nullptr, 256, "t");  // 256-B bucket
  auto b = jaccx::mem::acquire(nullptr, 512, "t");  // 512-B bucket
  auto c = jaccx::mem::acquire(nullptr, 200, "t");  // 256-B bucket
  jaccx::mem::release(a); // parked: 256
  jaccx::mem::release(b); // parked: 768
  jaccx::mem::release(c); // parked: 1024
  EXPECT_EQ(jaccx::mem::cached_bytes(), 1024u);
  jaccx::mem::trim(768); // evicts a (oldest), not b
  EXPECT_EQ(jaccx::mem::cached_bytes(), 768u);

  auto hit512 = jaccx::mem::acquire(nullptr, 512, "t");
  EXPECT_TRUE(hit512.from_cache) << "b survived (younger than a)";
  auto hit256 = jaccx::mem::acquire(nullptr, 256, "t");
  EXPECT_TRUE(hit256.from_cache) << "c survived (youngest)";
  auto miss256 = jaccx::mem::acquire(nullptr, 256, "t");
  EXPECT_FALSE(miss256.from_cache) << "a was evicted oldest-first";
  jaccx::mem::release(hit512);
  jaccx::mem::release(hit256);
  jaccx::mem::release(miss256);
  jaccx::mem::trim(0);
}

TEST_F(Fusion, MemUncappedKeepsEveryBlock) {
  const scoped_mode pooled(pool_mode::bucket);
  jaccx::mem::trim(0);
  std::vector<jaccx::mem::block> blocks;
  for (int i = 0; i < 8; ++i) {
    blocks.push_back(jaccx::mem::acquire(nullptr, 1 << (8 + i), "t"));
  }
  for (auto& blk : blocks) {
    jaccx::mem::release(blk);
  }
  std::uint64_t expect = 0;
  for (int i = 0; i < 8; ++i) {
    expect += std::uint64_t{1} << (8 + i);
  }
  EXPECT_EQ(jaccx::mem::cached_bytes(), expect);
  jaccx::mem::trim(0);
}

} // namespace
} // namespace jacc

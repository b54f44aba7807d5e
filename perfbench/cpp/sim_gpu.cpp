// sim_gpu: the simulated-GPU path (cuda_a100 model).
//
// A fixed sequence: tridiagonal CG to tolerance, D2Q9 LBM steps, a loop of
// small-n jacc_dot calls (the paper's Fig. 8 reduction regime) and CG
// iterations over arrays placed with jacc::sharded across a 4-device
// jacc::device_set.  The simulator and the shard engine do the work here —
// the per-access cache model, fibers for reductions, the cost model, the
// arena and the vendor layers — and `threads` sits idle.  Simulated times
// repeat exactly, so charged work compares exactly; host time measures the
// simulator's own speed.  Sizes shift a little with the seed, so each seed
// has its own (repeatable) simulated figures.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "blas/jacc_blas.hpp"
#include "cg/solver.hpp"
#include "lbm/simulation.hpp"
#include "sim/device.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using jacc::index_t;
using jaccx::cg::darray;

constexpr jacc::backend target = jacc::backend::cuda_a100;
constexpr int lbm_steps = 3;
constexpr int dot_loops = 50;
constexpr int shard_devices = 4;
constexpr int shard_iters = 2;
constexpr double tol = 1e-10;
constexpr double pulse_radius = 0.05; // boundary ring ten sigma out

void tridiag_apply_host(const std::vector<double>& x, std::vector<double>& y) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 4.0 * x[i] + (i > 0 ? x[i - 1] : 0.0) + (i + 1 < n ? x[i + 1] : 0.0);
  }
}

std::vector<double> seeded(std::uint64_t seed, std::size_t n, double lo,
                           double hi) {
  splitmix rng(seed);
  std::vector<double> v(n);
  for (double& e : v) {
    e = rng.uniform(lo, hi);
  }
  return v;
}

/// Simulated-device figures of one segment, summed over timelines.
struct sim_tally {
  double launches = 0.0;
  double dram_bytes = 0.0;
  double cache_bytes = 0.0;
  double h2d_bytes = 0.0;
  double d2h_bytes = 0.0;
  double kernel_us = 0.0;
  double xfer_us = 0.0;
  double indices = 0.0;

  void add(const jaccx::sim::timeline& tl) {
    using jaccx::sim::event_kind;
    for (const auto& e : tl.events()) {
      switch (e.kind) {
      case event_kind::kernel:
        if (e.name == "stream.origin") {
          break;
        }
        launches += 1.0;
        dram_bytes += static_cast<double>(e.tally.dram_bytes);
        cache_bytes += static_cast<double>(e.tally.cache_bytes);
        indices += static_cast<double>(e.tally.indices);
        kernel_us += e.duration_us;
        break;
      case event_kind::transfer_h2d:
        h2d_bytes += static_cast<double>(e.tally.dram_bytes);
        xfer_us += e.duration_us;
        break;
      case event_kind::transfer_d2h:
        d2h_bytes += static_cast<double>(e.tally.dram_bytes);
        xfer_us += e.duration_us;
        break;
      case event_kind::alloc: break;
      }
    }
  }
  bool operator==(const sim_tally&) const = default;
};

/// The simulated figures one sequence produces; compared across sequences
/// for bit-identity.
struct sim_figures {
  double cg_iter_us = 0.0;
  double lbm_step_us = 0.0;
  double dot_us = 0.0;
  double cg4_iter_us = 0.0;
  int cg_iterations = 0;
  double halo_bytes = 0.0;
  double imbalance = 0.0;
  sim_tally tally;
  bool operator==(const sim_figures&) const = default;
};

/// y = A x for the benchmark's tridiagonal matrix with global indices:
/// the sharded matvec (radius-1 stencil, so the shard engine exchanges
/// one ghost cell per neighbour).
void shard_matvec(index_t i, const darray& x, darray& y, index_t n) {
  double v = 4.0 * static_cast<double>(x[i]);
  if (i > 0) {
    v += static_cast<double>(x[i - 1]);
  }
  if (i + 1 < n) {
    v += static_cast<double>(x[i + 1]);
  }
  y[i] = v;
}

class sim_gpu final : public workload {
public:
  explicit sim_gpu(const run_args& a)
      : args_(a), n_cg_(65536 + 64 * static_cast<index_t>(a.seed % 8)),
        lbm_edge_(258 + 2 * static_cast<index_t>(a.seed % 3)),
        dot_n_(1024 + 32 * static_cast<index_t>(a.seed % 8)),
        shard_n_(65536 + 64 * static_cast<index_t>(a.seed % 8)) {}

  void setup(result& r) override {
    jacc::set_backend(target);
    st_.reset();
    jaccx::sim::device& dev = *jacc::backend_device(target);
    dev.reset_clock();
    st_ = std::make_unique<state>(*this);
    state& st = *st_;
    // Reference: the same solve on the serial back end.
    {
      const jacc::scoped_backend sb(jacc::backend::serial);
      jaccx::cg::tridiag_system As(n_cg_);
      darray bs(st.b_host);
      darray xs(n_cg_);
      const auto res = jaccx::cg::cg_solve(As, bs, xs, {.tolerance = tol});
      r.check(res.converged, "serial reference solve converged");
      ref_iterations_ = res.iterations;
      ref_x_ = xs.to_host();
    }
    setup_tally_ = sim_tally{};
    setup_tally_.add(dev.tl());
    // Warm-up: every allocation and code path of the sequence once, so the
    // pools hand out the same blocks (and addresses) on every sequence.
    run_sequence(r, /*check=*/false, /*warm=*/true);
  }

  e2e measure(double seconds, result& r) override {
    std::vector<double> seq_s, cg_s, lbm_rate;
    const std::uint64_t t_start = now_ns();
    sequences_ = 0;
    bool identical = true;
    while (sequences_ < 3 || seconds_between(t_start, now_ns()) < seconds) {
      const sim_figures f = run_sequence(r, /*check=*/true, /*warm=*/false);
      if (sequences_ > 0) {
        identical &= f == figures_;
      }
      figures_ = f;
      seq_s.push_back(host_.seq_s);
      cg_s.push_back(host_.cg_s);
      lbm_rate.push_back(static_cast<double>(lbm_edge_ * lbm_edge_) *
                         lbm_steps / host_.lbm_s * 1e-6);
      ++sequences_;
    }
    const double elapsed = seconds_between(t_start, now_ns());
    r.check(identical, "simulated figures repeat bit-identically");
    seq_med_s_ = median(seq_s);

    std::printf("sim_gpu: %d sequences in %.2f s (n=%lld, lbm %lld^2, dot "
                "n=%lld, sharded n=%lld on %d devices)\n",
                sequences_, elapsed, static_cast<long long>(n_cg_),
                static_cast<long long>(lbm_edge_),
                static_cast<long long>(dot_n_),
                static_cast<long long>(shard_n_), shard_devices);
    result::info("sim_cg_iter_us", figures_.cg_iter_us, "sim-us", "one a100");
    result::info("sim_lbm_step_us", figures_.lbm_step_us, "sim-us");
    result::info("sim_cg4_iter_us", figures_.cg4_iter_us, "sim-us", "4 x a100");
    result::info("sim.dot_us", figures_.dot_us, "sim-us");
    result::info("sim_host_s", seq_med_s_, "s",
                 "median of " + std::to_string(seq_s.size()) + " sequences, " +
                     std::to_string(*std::min_element(seq_s.begin(), seq_s.end())) +
                     " .. " +
                     std::to_string(*std::max_element(seq_s.begin(), seq_s.end())));
    result::info("sim lbm host Mupdates/s", median(lbm_rate), "Mupdates/s",
                 std::to_string(*std::min_element(lbm_rate.begin(), lbm_rate.end())) +
                     " .. " +
                     std::to_string(*std::max_element(lbm_rate.begin(), lbm_rate.end())));
    result::info("cg.iterations_sim", figures_.cg_iterations, "count");

    e2e out;
    out.cg_solve_ms = median(cg_s) * 1e3;
    out.lbm_mlups = median(lbm_rate);
    out.op_p50_ms = seq_med_s_ * 1e3;
    out.ops_per_s = static_cast<double>(sequences_) / elapsed;
    return out;
  }

  double ops() const override {
    return static_cast<double>(sequences_) *
           (figures_.cg_iterations + lbm_steps + dot_loops + shard_iters);
  }

  void layers(layer_sheet& s, result&) override {
    const sim_figures& f = figures_;
    s.set("sim.launches", f.tally.launches);
    s.set("sim.dram_bytes", f.tally.dram_bytes);
    s.set("sim.cache_hit_ratio",
          f.tally.cache_bytes + f.tally.dram_bytes > 0.0
              ? f.tally.cache_bytes / (f.tally.cache_bytes + f.tally.dram_bytes)
              : 0.0);
    s.set("sim.h2d_bytes", f.tally.h2d_bytes + setup_tally_.h2d_bytes);
    s.set("sim.d2h_bytes", f.tally.d2h_bytes + setup_tally_.d2h_bytes);
    s.set("sim.kernel_us", f.tally.kernel_us);
    s.set("sim.xfer_us", f.tally.xfer_us);
    s.set("sim.dot_us", f.dot_us);
    s.set("sim.host_ns_per_index",
          f.tally.indices > 0.0 ? seq_med_s_ * 1e9 / f.tally.indices : 0.0);
    s.set("sim.cg_iter_us", f.cg_iter_us);
    s.set("sim.lbm_step_us", f.lbm_step_us);
    s.set("sim.cg4_iter_us", f.cg4_iter_us);
    s.set("shard.halo_bytes", f.halo_bytes);
    s.set("shard.imbalance", f.imbalance);
    s.set("cg.iterations_sim", f.cg_iterations);
  }

private:
  struct state {
    explicit state(const sim_gpu& w)
        : A(w.n_cg_),
          x_star(seeded(w.args_.seed, static_cast<std::size_t>(w.n_cg_), -1.0, 1.0)),
          b_host(host_rhs(x_star)), b(b_host), x(w.n_cg_),
          lbm(jaccx::lbm::params{.size = w.lbm_edge_}),
          dx_host(seeded(w.args_.seed + 1, static_cast<std::size_t>(w.dot_n_), 0.5, 1.0)),
          dy_host(seeded(w.args_.seed + 2, static_cast<std::size_t>(w.dot_n_), 0.5, 1.0)),
          dx(dx_host), dy(dy_host), ds(target, shard_devices),
          sb_host(seeded(w.args_.seed + 3, static_cast<std::size_t>(w.shard_n_), -1.0, 1.0)),
          sx(jacc::sharded(ds), w.shard_n_), sr(jacc::sharded(ds), sb_host),
          sp(jacc::sharded(ds), sb_host), ss(jacc::sharded(ds), w.shard_n_),
          sb(jacc::sharded(ds), sb_host),
          amplitude(splitmix(w.args_.seed + 4).uniform(0.05, 0.1)) {}

    static std::vector<double> host_rhs(const std::vector<double>& x) {
      std::vector<double> b(x.size());
      tridiag_apply_host(x, b);
      return b;
    }
    jaccx::cg::tridiag_system A;
    std::vector<double> x_star, b_host;
    darray b;
    darray x;
    jaccx::lbm::simulation lbm;
    std::vector<double> dx_host, dy_host;
    darray dx, dy;
    jacc::device_set ds;
    std::vector<double> sb_host;
    darray sx, sr, sp, ss, sb;
    double amplitude;
  };

  struct host_times {
    double seq_s = 0.0;
    double cg_s = 0.0;
    double lbm_s = 0.0;
  };

  /// One pass of the fixed sequence; every segment starts from a reset
  /// device clock and cache, so its simulated figures depend only on the
  /// sizes.  `warm` runs one step of each segment instead.
  sim_figures run_sequence(result& r, bool check, bool warm) {
    state& st = *st_;
    jaccx::sim::device& dev = *jacc::backend_device(target);
    sim_figures f;
    const std::uint64_t t_seq = now_ns();

    // Tridiagonal CG to tolerance.
    jacc::parallel_for(
        jacc::hints{.name = "perfbench.zero", .bytes_per_index = 8.0}, n_cg_,
        [](index_t i, darray& v) { v[i] = 0.0; }, st.x);
    dev.reset_clock();
    dev.cache().reset();
    std::uint64_t t0 = now_ns();
    jaccx::cg::cg_result res;
    {
      const scoped_span sp("cg.cg_solve.sim");
      res = jaccx::cg::cg_solve(st.A, st.b, st.x,
                                {.max_iterations = warm ? 1 : 500,
                                 .tolerance = tol});
    }
    host_.cg_s = seconds_between(t0, now_ns());
    f.cg_iterations = res.iterations;
    f.cg_iter_us = dev.tl().now_us() / std::max(1, res.iterations);
    f.tally.add(dev.tl());
    if (check) {
      const double* x = st.x.host_data();
      double worst = 0.0, scale = 0.0;
      bool bitwise = true;
      for (std::size_t i = 0; i < ref_x_.size(); ++i) {
        worst = std::max(worst, std::abs(x[i] - ref_x_[i]));
        scale = std::max(scale, std::abs(ref_x_[i]));
        bitwise &= x[i] == ref_x_[i];
      }
      if (!reported_bitwise_) {
        std::printf("sim cg vs serial: iterations %d vs %d, max |dx| %.3e "
                    "(%s)\n",
                    res.iterations, ref_iterations_, worst,
                    bitwise ? "bit-identical" : "not bit-identical");
        reported_bitwise_ = true;
      }
      r.check(res.converged && res.relative_residual <= tol &&
                  res.iterations == ref_iterations_ && worst <= 1e-12 * scale,
              "sim cg matches the serial back end");
    }

    // LBM pressure pulse.
    st.lbm.init_pulse(1.0, st.amplitude, pulse_radius);
    const double m0 = check ? st.lbm.total_mass() : 0.0;
    dev.reset_clock();
    dev.cache().reset();
    // Timed as one segment: the first step after the cache reset runs
    // cold and costs the simulator more host time than the next ones.
    t0 = now_ns();
    for (int s = 0; s < (warm ? 1 : lbm_steps); ++s) {
      const scoped_span sp("lbm.simulation.step.sim");
      st.lbm.step();
    }
    host_.lbm_s = seconds_between(t0, now_ns());
    f.lbm_step_us = dev.tl().now_us() / lbm_steps;
    f.tally.add(dev.tl());
    if (check) {
      const double m1 = st.lbm.total_mass();
      r.check(std::abs(m1 - m0) <= 1e-10 * std::abs(m0), "sim lbm mass drift");
    }

    // Small-n dot loop (Fig. 8 regime).
    dev.reset_clock();
    dev.cache().reset();
    double d = 0.0;
    {
      const scoped_span sp("blas.jacc_dot.sim");
      for (int k = 0; k < (warm ? 1 : dot_loops); ++k) {
        d = jaccx::blas::jacc_dot(dot_n_, st.dx, st.dy);
      }
    }
    f.dot_us = dev.tl().now_us() / dot_loops;
    f.tally.add(dev.tl());
    if (check) {
      double ref = 0.0;
      for (std::size_t i = 0; i < st.dx_host.size(); ++i) {
        ref += st.dx_host[i] * st.dy_host[i];
      }
      r.check(std::abs(d - ref) <= 1e-12 * std::abs(ref), "sim dot value");
    }

    // Sharded CG iterations on 4 devices.
    f.cg4_iter_us = sharded_iterations(r, check, warm ? 1 : shard_iters, f);
    host_.seq_s = seconds_between(t_seq, now_ns());
    return f;
  }

  double sharded_iterations(result& r, bool check, int iters, sim_figures& f) {
    state& st = *st_;
    const index_t n = shard_n_;
    const jacc::device_set_scope scope(st.ds);
    jacc::parallel_for(
        jacc::hints{.name = "perfbench.reset", .bytes_per_index = 32.0}, n,
        [](index_t i, darray& x, darray& r_, darray& p, const darray& b) {
          x[i] = 0.0;
          r_[i] = static_cast<double>(b[i]);
          p[i] = static_cast<double>(b[i]);
        },
        st.sx, st.sr, st.sp, st.sb);
    st.ds.sync();
    st.ds.reset_clocks();
    for (int d = 0; d < shard_devices; ++d) {
      st.ds.dev(d).cache().reset();
    }
    const jacc::hints dot_h{.name = "cg.dot", .flops_per_index = 2.0,
                            .bytes_per_index = 16.0};
    const jacc::hints axpy_h{.name = "cg.axpy", .flops_per_index = 2.0,
                             .bytes_per_index = 24.0};
    const jacc::hints mv_h = jacc::hints{.name = "perfbench.shard_matvec",
                                         .flops_per_index = 5.0,
                                         .bytes_per_index = 24.0}
                                 .with_stencil(1);
    const auto dot = [](index_t i, const darray& a, const darray& b) {
      return static_cast<double>(a[i]) * static_cast<double>(b[i]);
    };
    double rr = 0.0;
    {
      const scoped_span sp("shard.cg_iterations");
      rr = jacc::parallel_reduce(dot_h, n, dot, st.sr, st.sr);
      for (int it = 0; it < iters; ++it) {
        jacc::parallel_for(mv_h, n, shard_matvec, st.sp, st.ss, n);
        const double alpha = rr / jacc::parallel_reduce(dot_h, n, dot, st.sp, st.ss);
        jacc::parallel_for(axpy_h, n, jaccx::blas::axpy, alpha, st.sx, st.sp);
        jacc::parallel_for(axpy_h, n, jaccx::blas::axpy, -alpha, st.sr, st.ss);
        const double rr_new = jacc::parallel_reduce(dot_h, n, dot, st.sr, st.sr);
        const double beta = rr_new / rr;
        rr = rr_new;
        jacc::parallel_for(axpy_h, n, jaccx::cg::xpay_kernel, beta, st.sr, st.sp);
      }
    }
    const double t = st.ds.sync();
    std::vector<double> busy(shard_devices, 0.0);
    for (int d = 0; d < shard_devices; ++d) {
      sim_tally dev_tally;
      dev_tally.add(st.ds.dev(d).tl());
      dev_tally.add(st.ds.shard_stream(d).tl());
      busy[static_cast<std::size_t>(d)] = dev_tally.kernel_us;
      f.halo_bytes += dev_tally.d2h_bytes;
      f.tally.launches += dev_tally.launches;
      f.tally.dram_bytes += dev_tally.dram_bytes;
      f.tally.cache_bytes += dev_tally.cache_bytes;
      f.tally.kernel_us += dev_tally.kernel_us;
      f.tally.xfer_us += dev_tally.xfer_us;
      f.tally.indices += dev_tally.indices;
    }
    double mean = 0.0;
    for (const double b : busy) {
      mean += b / shard_devices;
    }
    f.imbalance = mean > 0.0 ? *std::max_element(busy.begin(), busy.end()) / mean
                             : 0.0;
    if (check) {
      // Host replay of the same two iterations.
      const std::size_t hn = static_cast<std::size_t>(n);
      std::vector<double> x(hn, 0.0), rv(st.sb_host), p(st.sb_host), s(hn);
      double hrr = 0.0;
      for (const double e : rv) {
        hrr += e * e;
      }
      for (int it = 0; it < iters; ++it) {
        tridiag_apply_host(p, s);
        double ps = 0.0;
        for (std::size_t i = 0; i < hn; ++i) {
          ps += p[i] * s[i];
        }
        const double alpha = hrr / ps;
        double rr_new = 0.0;
        for (std::size_t i = 0; i < hn; ++i) {
          x[i] += alpha * p[i];
          rv[i] -= alpha * s[i];
          rr_new += rv[i] * rv[i];
        }
        const double beta = rr_new / hrr;
        hrr = rr_new;
        for (std::size_t i = 0; i < hn; ++i) {
          p[i] = rv[i] + beta * p[i];
        }
      }
      const std::vector<double> got = st.sx.to_host();
      double worst = 0.0, scale = 0.0;
      for (std::size_t i = 0; i < hn; ++i) {
        worst = std::max(worst, std::abs(got[i] - x[i]));
        scale = std::max(scale, std::abs(x[i]));
      }
      r.check(worst <= 1e-12 * scale && std::abs(rr - hrr) <= 1e-10 * hrr,
              "sharded cg iterations match the host");
    }
    return t / iters;
  }

  run_args args_;
  index_t n_cg_, lbm_edge_, dot_n_, shard_n_;
  std::unique_ptr<state> st_;
  int ref_iterations_ = 0;
  std::vector<double> ref_x_;
  sim_tally setup_tally_;
  sim_figures figures_;
  host_times host_;
  int sequences_ = 0;
  double seq_med_s_ = 0.0;
  bool reported_bitwise_ = false;
};

} // namespace

std::unique_ptr<workload> make_sim_gpu(const run_args& a) {
  return std::make_unique<sim_gpu>(a);
}

} // namespace perfbench

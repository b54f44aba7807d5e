// solve_large: streaming, memory-bound solves on the threads back end.
//
// Tridiagonal CG at n = 2^22, HPCCG's 27-point CG at 64^3 and the D2Q9 LBM
// pressure pulse at 1024^2.  Every working set is far past the per-core L2;
// kernel bytes and per-element accessor cost set the time, while dispatch,
// mem, serve and sim do almost nothing.  This is where LBM memory-scheme
// and layout changes must show, and where serve/dispatch/mem changes must
// show no change.
#include <cmath>
#include <cstdio>
#include <vector>

#include "cg/solver.hpp"
#include "lbm/simulation.hpp"
#include "prof/prof.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using jacc::index_t;
using jaccx::cg::darray;

constexpr index_t cg_n = index_t{1} << 22;
constexpr index_t hpccg_edge = 64;
constexpr index_t lbm_edge = 1024;
constexpr int lbm_block_steps = 8;
constexpr double tol = 1e-10;
// Pulse radius as a share of the edge: the boundary ring sits ten standard
// deviations out, so over one block the frozen ring leaks no measurable
// mass and the drift check holds to 1e-10.
constexpr double pulse_radius = 0.05;

/// Host y = A x for the benchmark's tridiagonal matrix (4 on the diagonal,
/// 1 off it).
void tridiag_apply_host(const std::vector<double>& x, std::vector<double>& y) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    double v = 4.0 * x[i];
    if (i > 0) {
      v += x[i - 1];
    }
    if (i + 1 < n) {
      v += x[i + 1];
    }
    y[i] = v;
  }
}

double norm2(const std::vector<double>& v) {
  double s = 0.0;
  for (const double e : v) {
    s += e * e;
  }
  return std::sqrt(s);
}

/// Plain single-threaded CG on the tridiagonal system: the baseline the
/// portable solve is compared against.  Returns iterations.
int raw_serial_cg(const std::vector<double>& b, std::vector<double>& x) {
  const std::size_t n = b.size();
  std::vector<double> r(b), p(b), s(n);
  std::fill(x.begin(), x.end(), 0.0);
  double bb = 0.0;
  for (const double e : b) {
    bb += e * e;
  }
  double rr = bb;
  const double stop = tol * tol * bb;
  int it = 0;
  while (it < 500 && rr > stop) {
    tridiag_apply_host(p, s);
    double ps = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ps += p[i] * s[i];
    }
    const double alpha = rr / ps;
    double rr_new = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * s[i];
      rr_new += r[i] * r[i];
    }
    const double beta = rr_new / rr;
    rr = rr_new;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * p[i];
    }
    ++it;
  }
  return it;
}

void zero(darray& x) {
  jacc::parallel_for(
      jacc::hints{.name = "perfbench.zero", .bytes_per_index = 8.0}, x.size(),
      [](index_t i, darray& v) { v[i] = 0.0; }, x);
}

class solve_large final : public workload {
public:
  explicit solve_large(const run_args& a) : args_(a) {}

  void setup(result& r) override {
    jacc::set_backend(jacc::backend::threads);
    state_.reset();
    state_ = std::make_unique<state>(args_.seed);
    state& st = *state_;
    // Warm-up: first-touch every page and every code path once.
    zero(st.x);
    jaccx::cg::cg_solve(st.A, st.b, st.x, {.max_iterations = 2, .tolerance = tol});
    zero(st.hx);
    jaccx::cg::cg_solve(st.H, st.hb, st.hx, {.max_iterations = 2, .tolerance = tol});
    st.lbm.step();
    r.check(std::isfinite(st.lbm.total_mass()), "lbm warm-up mass");
  }

  e2e measure(double seconds, result& r) override {
    state& st = *state_;
    std::vector<double> cg_s, hpccg_s, lbm_rate, lbm_step;
    const std::uint64_t t_start = now_ns();
    rounds_ = 0;
    lbm_steps_ = 0;
    cg_iters_ = 0;
    while (rounds_ < 3 || seconds_between(t_start, now_ns()) < seconds) {
      // Tridiagonal CG from x = 0 against the seeded known solution.
      zero(st.x);
      std::uint64_t t0 = now_ns();
      jaccx::cg::cg_result res;
      {
        const scoped_span sp("cg.cg_solve");
        res = jaccx::cg::cg_solve(st.A, st.b, st.x, {.tolerance = tol});
      }
      cg_s.push_back(seconds_between(t0, now_ns()));
      cg_iterations_ = res.iterations;
      cg_iters_ += res.iterations;
      check_tridiag(res, r);

      zero(st.hx);
      t0 = now_ns();
      {
        const scoped_span sp("cg.cg_solve.hpccg");
        res = jaccx::cg::cg_solve(st.H, st.hb, st.hx, {.tolerance = tol});
      }
      hpccg_s.push_back(seconds_between(t0, now_ns()));
      hpccg_iterations_ = res.iterations;
      cg_iters_ += res.iterations;
      check_hpccg(res, r);

      // A fresh pulse per block keeps the wave far from the boundary.
      st.lbm.init_pulse(1.0, st.amplitude, pulse_radius);
      const double mass0 = st.lbm.total_mass();
      for (int s = 0; s < lbm_block_steps; ++s) {
        t0 = now_ns();
        {
          const scoped_span sp("lbm.simulation.step");
          st.lbm.step();
        }
        const double t_step = seconds_between(t0, now_ns());
        lbm_step.push_back(t_step);
        lbm_rate.push_back(static_cast<double>(lbm_edge * lbm_edge) / t_step *
                           1e-6);
      }
      lbm_steps_ += lbm_block_steps;
      const double mass = st.lbm.total_mass();
      char drift[64];
      std::snprintf(drift, sizeof drift, "lbm mass drift %.3e",
                    (mass - mass0) / mass0);
      r.check(std::abs(mass - mass0) <= 1e-10 * std::abs(mass0), drift);
      ++rounds_;
    }
    const double elapsed = seconds_between(t_start, now_ns());

    cg_med_s_ = median(cg_s);
    lbm_step_s_ = median(lbm_step);
    e2e out;
    out.cg_solve_ms = cg_med_s_ * 1e3;
    out.lbm_mlups = median(lbm_rate);
    out.op_p50_ms = median(hpccg_s) * 1e3;
    out.ops_per_s = static_cast<double>(rounds_) / elapsed;

    std::printf("solve_large: %d rounds in %.2f s\n", rounds_, elapsed);
    result::info("cg_solve_s", cg_med_s_, "s",
                 "median of " + std::to_string(cg_s.size()) + ", n=2^22");
    result::info("hpccg_solve_s", median(hpccg_s), "s",
                 "median of " + std::to_string(hpccg_s.size()) + ", 64^3");
    result::info("lbm_mlups", out.lbm_mlups, "Mupdates/s",
                 "median of " + std::to_string(lbm_rate.size()) + " steps");
    result::info("cg.iterations", cg_iterations_, "count", "tridiagonal");
    result::info("cg.iterations_hpccg", hpccg_iterations_, "count");
    return out;
  }

  double ops() const override {
    return static_cast<double>(cg_iters_ + lbm_steps_);
  }

  void layers(layer_sheet& s, result& r) override {
    state& st = *state_;
    s.set("cg.iterations", cg_iterations_);
    s.set("cg.iterations_hpccg", hpccg_iterations_);
    s.set("cg.iter_s", cg_iterations_ > 0 ? cg_med_s_ / cg_iterations_ : 0.0);
    s.set("lbm.step_s", lbm_step_s_);
    for (const auto& k : jaccx::prof::aggregate_kernels()) {
      if (k.name == "jacc.lbm" && k.units > 0 && k.gbytes_per_s > 0.0) {
        s.set("lbm.bytes_per_site", k.gbytes_per_s * k.total_us * 1e3 /
                                        static_cast<double>(k.units));
      }
    }
    std::vector<double> x(static_cast<std::size_t>(cg_n));
    const std::uint64_t t0 = now_ns();
    const int it = raw_serial_cg(st.b_host, x);
    s.set("cg.raw_serial_s", seconds_between(t0, now_ns()));
    r.check(it > 0 && it <= 500, "raw serial cg converged");
  }

private:
  static std::vector<double> seeded_solution(std::uint64_t seed) {
    splitmix rng(seed);
    std::vector<double> v(static_cast<std::size_t>(cg_n));
    for (double& e : v) {
      e = rng.uniform(-1.0, 1.0);
    }
    return v;
  }

  static std::vector<double> host_rhs(const std::vector<double>& x) {
    std::vector<double> b(x.size());
    tridiag_apply_host(x, b);
    return b;
  }

  struct state {
    explicit state(std::uint64_t seed)
        : A(cg_n), x_star(seeded_solution(seed)), b_host(host_rhs(x_star)),
          b(b_host), x(cg_n),
          H_host(jaccx::cg::make_hpccg_27pt(hpccg_edge, hpccg_edge, hpccg_edge)),
          H(H_host), hb(H_host.rhs_for_ones()), hx(H_host.rows),
          lbm(jaccx::lbm::params{.size = lbm_edge}),
          amplitude(splitmix(seed + 1).uniform(0.05, 0.1)) {
      std::printf("solve_large working sets (computed): tridiagonal CG %.0f "
                  "MiB, HPCCG %.0f MiB, LBM %.0f MiB; per-core L2 2 MiB, "
                  "L3 as reported above\n",
                  8.0 * 8.0 * static_cast<double>(cg_n) / 1048576.0,
                  (16.0 * static_cast<double>(H_host.nnz()) +
                   8.0 * static_cast<double>(H_host.rows + 1) +
                   40.0 * static_cast<double>(H_host.rows)) / 1048576.0,
                  3.0 * 9.0 * 8.0 * lbm_edge * lbm_edge / 1048576.0);
    }
    jaccx::cg::tridiag_system A;
    std::vector<double> x_star, b_host;
    darray b;
    darray x;
    jaccx::cg::csr_host H_host;
    jaccx::cg::csr_system H;
    darray hb, hx;
    jaccx::lbm::simulation lbm;
    double amplitude;
  };

  void check_tridiag(const jaccx::cg::cg_result& res, result& r) {
    state& st = *state_;
    const double* x = st.x.host_data();
    std::vector<double> xv(x, x + cg_n), ax(xv.size()), err(xv.size());
    tridiag_apply_host(xv, ax);
    for (std::size_t i = 0; i < xv.size(); ++i) {
      ax[i] -= st.b_host[i];
      err[i] = xv[i] - st.x_star[i];
    }
    const double rel_res = norm2(ax) / norm2(st.b_host);
    const double rel_err = norm2(err) / norm2(st.x_star);
    r.check(res.converged && res.relative_residual <= tol && rel_res <= 1e-9 &&
                rel_err <= 1e-9,
            "tridiagonal cg: residual " + std::to_string(rel_res) + " error " +
                std::to_string(rel_err));
  }

  void check_hpccg(const jaccx::cg::cg_result& res, result& r) {
    const double* x = state_->hx.host_data();
    double worst = 0.0;
    for (index_t i = 0; i < state_->H_host.rows; ++i) {
      worst = std::max(worst, std::abs(x[i] - 1.0));
    }
    r.check(res.converged && res.relative_residual <= tol && worst <= 1e-8,
            "hpccg: max |x - 1| = " + std::to_string(worst));
  }

  run_args args_;
  std::unique_ptr<state> state_;
  int rounds_ = 0;
  long long lbm_steps_ = 0;
  long long cg_iters_ = 0;
  int cg_iterations_ = 0;
  int hpccg_iterations_ = 0;
  double cg_med_s_ = 0.0;
  double lbm_step_s_ = 0.0;
};

} // namespace

std::unique_ptr<workload> make_solve_large(const run_args& a) {
  return std::make_unique<solve_large>(a);
}

} // namespace perfbench

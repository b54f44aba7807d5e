// serve_mix: multi-tenant serving traffic on the threads back end.
//
// One jaccx::serve::scheduler with 8 tenants (mixed weights, tenant 0 at
// high priority) receives a seeded job mix: small eager tridiagonal CG
// solves, the same solves as pre-captured graph replays submitted with
// submit(tenant, graph), small LBM runs and BLAS-1 bursts.  Thousands of
// tiny launches make per-launch cost dominate (dispatch, the pool barrier,
// lanes, graph replay, mem reuse, scheduler policy) while kernel bandwidth
// hardly matters — the opposite launch size from solve_large.
//
// Open-loop phase: one generator thread submits on a seeded Poisson
// schedule at a fixed rate; latency runs from each job's scheduled arrival
// to its completion, so a stalled generator or a growing queue shows.
// Closed-loop phase: the same mix with 2 x nproc jobs kept outstanding
// measures capacity.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "blas/jacc_blas.hpp"
#include "cg/solver.hpp"
#include "lbm/simulation.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using jacc::index_t;
using jaccx::cg::darray;

constexpr int n_tenants = 8;
constexpr double tenant_weight[n_tenants] = {1, 1, 2, 2, 1, 4, 1, 1};
/// Open-loop arrival rate: about a fifth of the closed-loop capacity
/// measured on a 4-core VM (250-390 jobs/s), so latency stays near the
/// service time even when the VM slows, and 18 s of arrivals give the
/// >= 1000 samples p99 needs.
constexpr double open_rate_per_s = 60.0;
constexpr double open_share = 0.6;   ///< of --seconds, open-loop arrivals
constexpr double closed_share = 0.3; ///< of --seconds, closed loop
constexpr int lbm_steps = 5;
constexpr int blas_reps = 8;
constexpr int graphs_per_size = 8;
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

/// True when x solves the tridiagonal system for b to the benchmark's
/// tolerance, checked on the host against the known solution too.
bool tridiag_solution_ok(const double* x, const std::vector<double>& b,
                         const std::vector<double>& x_star) {
  const std::size_t n = b.size();
  std::vector<double> xv(x, x + n), ax(n);
  tridiag_apply_host(xv, ax);
  double rr = 0.0, bb = 0.0, ee = 0.0, xx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rr += (ax[i] - b[i]) * (ax[i] - b[i]);
    bb += b[i] * b[i];
    ee += (xv[i] - x_star[i]) * (xv[i] - x_star[i]);
    xx += x_star[i] * x_star[i];
  }
  return std::sqrt(rr / bb) <= 1e-9 && std::sqrt(ee / xx) <= 1e-9;
}

/// Counts jobs in flight; the closed loop waits on it.
struct completion_counter {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t outstanding = 0;

  void start() {
    const std::lock_guard<std::mutex> lock(mu);
    ++outstanding;
  }
  void finish() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      --outstanding;
    }
    cv.notify_all();
  }
};

struct job_record {
  job_spec spec;
  std::uint64_t arrival_ns = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t pickup_ns = 0;
  std::uint64_t done_ns = 0;
  double queue_wait_us = 0.0;
  int iterations = 0;
  bool ok = false;
  std::string error;
  std::uint64_t root_span = 0;
  jaccx::serve::job_handle handle;
};

/// Set by the last node of a captured solve: completion time and residual.
struct graph_done {
  std::atomic<std::uint64_t> done_ns{0};
  double rr = 0.0;
  completion_counter* counter = nullptr;
};

/// One pre-captured tridiagonal CG solve from x = 0: zero x, r = p = b,
/// then `iterations` CG iterations with the alpha/beta plumbing as
/// future::then host nodes.  Arrays live here, at a stable address, for
/// as long as the graph can be replayed.
struct graph_instance {
  graph_instance(int size, std::uint64_t seed)
      : n(size), A(size), x_star(seeded(seed, static_cast<std::size_t>(size),
                                        -1.0, 1.0)),
        b_host(x_star.size()), b(index_t{size}), x(index_t{size}),
        r(index_t{size}), p(index_t{size}), s(index_t{size}),
        done(std::make_shared<graph_done>()) {
    tridiag_apply_host(x_star, b_host);
    std::copy(b_host.begin(), b_host.end(), b.host_data());
    for (const double e : b_host) {
      bb += e * e;
    }
  }

  void capture(int iterations, completion_counter* counter) {
    done->counter = counter;
    const jacc::hints dot_h{.name = "cg.dot", .flops_per_index = 2.0,
                            .bytes_per_index = 16.0};
    const jacc::hints axpy_h{.name = "cg.axpy", .flops_per_index = 2.0,
                             .bytes_per_index = 24.0, .elementwise = true};
    const jacc::hints xpay_h{.name = "cg.xpay", .flops_per_index = 2.0,
                             .bytes_per_index = 24.0, .elementwise = true};
    const jacc::scalar_binding<double> alpha(0.0);
    const jacc::scalar_binding<double> neg_alpha(0.0);
    const jacc::scalar_binding<double> beta(0.0);
    auto rr_cell = std::make_shared<double>(0.0);
    auto fin = done;

    jacc::queue q("perfbench.capture");
    q.begin_capture();
    {
      const jacc::queue_scope in(q);
      jacc::parallel_for(
          jacc::hints{.name = "cg.zero", .bytes_per_index = 8.0}, n,
          [](index_t i, darray& v) { v[i] = 0.0; }, x);
      jacc::parallel_for(
          jacc::hints{.name = "cg.copy", .bytes_per_index = 24.0}, n,
          [](index_t i, const darray& src, darray& d1, darray& d2) {
            d1[i] = static_cast<double>(src[i]);
            d2[i] = static_cast<double>(src[i]);
          },
          b, r, p);
    }
    q.parallel_reduce(dot_h, n, jaccx::blas::dot, r, r)
        .then(q, [rr_cell](double v) { *rr_cell = v; });
    for (int it = 0; it < iterations; ++it) {
      {
        const jacc::queue_scope in(q);
        A.apply(p, s);
      }
      q.parallel_reduce(dot_h, n, jaccx::blas::dot, p, s)
          .then(q, [alpha, neg_alpha, rr_cell](double ps) {
            const double a = ps != 0.0 ? *rr_cell / ps : 0.0;
            alpha.set(a);
            neg_alpha.set(-a);
          });
      {
        const jacc::queue_scope in(q);
        jacc::parallel_for(axpy_h, n, jaccx::blas::axpy, alpha, x, p);
        jacc::parallel_for(axpy_h, n, jaccx::blas::axpy, neg_alpha, r, s);
      }
      const bool last = it + 1 == iterations;
      q.parallel_reduce(dot_h, n, jaccx::blas::dot, r, r)
          .then(q, [beta, rr_cell, fin, last](double rr_new) {
            beta.set(*rr_cell != 0.0 ? rr_new / *rr_cell : 0.0);
            *rr_cell = rr_new;
            if (last) {
              fin->rr = rr_new;
              fin->done_ns.store(now_ns(), std::memory_order_release);
              fin->counter->finish();
            }
          });
      if (!last) {
        const jacc::queue_scope in(q);
        jacc::parallel_for(xpay_h, n, jaccx::cg::xpay_kernel, beta, r, p);
      }
    }
    g = q.end_capture();
  }

  int n;
  jaccx::cg::tridiag_system A;
  std::vector<double> x_star, b_host;
  darray b, x, r, p, s;
  double bb = 0.0;
  jacc::graph g;
  std::shared_ptr<graph_done> done;
  bool busy = false;
};

class serve_mix final : public workload {
public:
  explicit serve_mix(const run_args& a) : args_(a) {}

  ~serve_mix() override { teardown(); }

  void setup(result& r) override {
    jacc::set_backend(jacc::backend::threads);
    teardown();
    sched_ = std::make_unique<jaccx::serve::scheduler>();
    tenants_.clear();
    for (int t = 0; t < n_tenants; ++t) {
      tenants_.push_back(sched_->open_tenant(
          "tenant" + std::to_string(t), tenant_weight[t],
          t == 0 ? jaccx::serve::priority::high
                 : jaccx::serve::priority::normal));
    }
    // Capture the graph pool: per size, the iteration count of an eager
    // solve of the same system (plus one) is baked into the graph.
    graphs_.clear();
    std::uint64_t gseed = args_.seed * 1000 + 17;
    for (const int size : cg_sizes) {
      for (int k = 0; k < graphs_per_size; ++k) {
        auto gi = std::make_unique<graph_instance>(size, gseed++);
        if (k == 0) {
          darray x0(index_t{size});
          const auto res = jaccx::cg::cg_solve(gi->A, gi->b, x0, {.tolerance = tol});
          r.check(res.converged, "graph sizing solve converged");
          graph_iters_[size] = res.iterations + 1;
        }
        gi->capture(graph_iters_[size], &counter_);
        graphs_.push_back(std::move(gi));
      }
    }
    collector_stop_ = false;
    collector_ = std::thread([this] { collect(); });
    // Warm-up: one job of every kind and size, then drain.
    std::deque<job_record> warm;
    std::uint64_t id = 1;
    const auto warm_kind = [&](job_kind k, const auto& sizes) {
      for (const int size : sizes) {
        job_record& rec = warm.emplace_back();
        rec.spec = job_spec{id, 0.0, k, size,
                            static_cast<int>(id % n_tenants), id * 7919};
        ++id;
        rec.arrival_ns = now_ns();
        submit(rec);
      }
    };
    warm_kind(job_kind::cg, cg_sizes);
    warm_kind(job_kind::cg_graph, cg_sizes);
    warm_kind(job_kind::lbm, lbm_sizes);
    warm_kind(job_kind::blas, blas_sizes);
    drain(warm);
    for (const job_record& rec : warm) {
      r.check(rec.ok, std::string("warm-up job ") + to_string(rec.spec.kind) +
                          " " + rec.error);
    }
  }

  e2e measure(double seconds, result& r) override {
    // --- open loop -----------------------------------------------------------
    const mix_params mp{.rate_per_s = open_rate_per_s,
                        .duration_s = seconds * open_share,
                        .tenants = n_tenants};
    const std::vector<job_spec> sched = make_schedule(args_.seed, mp);
    std::deque<job_record> open;
    backlog_max_ = 0;
    std::vector<double> late_ms;
    const std::uint64_t t0 = now_ns() + 20'000'000; // 20 ms lead
    for (const job_spec& spec : sched) {
      job_record& rec = open.emplace_back();
      rec.spec = spec;
      rec.arrival_ns = t0 + static_cast<std::uint64_t>(spec.arrival_s * 1e9);
      std::this_thread::sleep_until(
          clock_type::time_point(std::chrono::nanoseconds(rec.arrival_ns)));
      submit(rec);
      late_ms.push_back(static_cast<double>(rec.submit_ns - rec.arrival_ns) *
                        1e-6);
    }
    drain(open);

    // --- closed loop ---------------------------------------------------------
    const std::uint64_t limit = 2u * std::thread::hardware_concurrency();
    std::deque<job_record> closed;
    const std::uint64_t c0 = now_ns();
    const std::uint64_t c_end =
        c0 + static_cast<std::uint64_t>(seconds * closed_share * 1e9);
    std::uint64_t index = 0;
    while (now_ns() < c_end) {
      {
        std::unique_lock<std::mutex> lock(counter_.mu);
        counter_.cv.wait(lock, [&] { return counter_.outstanding < limit; });
      }
      job_record& rec = closed.emplace_back();
      rec.spec = closed_loop_job(args_.seed, index++, n_tenants);
      rec.arrival_ns = now_ns();
      submit(rec);
    }
    drain(closed);
    std::uint64_t in_window = 0;
    for (const job_record& rec : closed) {
      in_window += rec.done_ns <= c_end ? 1 : 0;
    }
    capacity_ = static_cast<double>(in_window) * 1e9 /
                static_cast<double>(c_end - c0);

    // --- checks and figures ---------------------------------------------------
    std::vector<double> latency, qwait;
    std::vector<double> run_ms[job_kinds];
    std::vector<double> cg_big_ms, lbm_big_rate, lbm_step_s, cg_iters;
    for (std::deque<job_record>* phase : {&open, &closed}) {
      for (const job_record& rec : *phase) {
        r.check(rec.ok, std::string("serve job ") + to_string(rec.spec.kind) +
                            " n=" + std::to_string(rec.spec.size) + " " +
                            rec.error);
      }
    }
    for (const job_record& rec : open) {
      const double run = static_cast<double>(rec.done_ns - rec.pickup_ns) * 1e-6;
      latency.push_back(rec.ok ? static_cast<double>(rec.done_ns - rec.arrival_ns) * 1e-6
                               : INFINITY);
      qwait.push_back(rec.queue_wait_us * 1e-3);
      run_ms[static_cast<int>(rec.spec.kind)].push_back(run);
    }
    // Per-solve figures come from the closed loop, where the number of jobs
    // sharing the machine is held constant.
    for (const job_record& rec : closed) {
      const double run = static_cast<double>(rec.done_ns - rec.pickup_ns) * 1e-6;
      if (rec.spec.kind == job_kind::cg && rec.spec.size == cg_sizes[2]) {
        cg_big_ms.push_back(run);
        cg_iters.push_back(rec.iterations);
      }
      if (rec.spec.kind == job_kind::lbm && rec.spec.size == lbm_sizes[2]) {
        const double sites = static_cast<double>(rec.spec.size) * rec.spec.size;
        lbm_big_rate.push_back(sites * lbm_steps / (run * 1e-3) * 1e-6);
        lbm_step_s.push_back(run * 1e-3 / lbm_steps);
      }
    }
    jobs_ = static_cast<double>(open.size() + closed.size());
    const summary lat = summarize(latency);
    const summary qw = summarize(qwait);

    layer_.clear();
    layer_["serve.job_p50_ms"] = lat.p50;
    layer_["serve.job_p99_ms"] = percentile_of(latency, 99.0);
    layer_["serve.job_samples"] = static_cast<double>(lat.count);
    layer_["serve.capacity_jobs_s"] = capacity_;
    layer_["serve.queue_wait_p50_ms"] = qw.p50;
    layer_["serve.queue_wait_p99_ms"] = percentile_of(qwait, 99.0);
    for (int k = 0; k < job_kinds; ++k) {
      layer_[std::string("serve.run_p50_ms.") + to_string(static_cast<job_kind>(k))] =
          median(run_ms[k]);
    }
    layer_["serve.backlog_max"] = static_cast<double>(backlog_max_);
    layer_["serve.gen_late_ms"] =
        late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end());
    layer_["cg.iterations"] = median(cg_iters);
    layer_["lbm.step_s"] = median(lbm_step_s);

    std::printf("serve_mix: open loop %zu jobs at %.0f/s over %.1f s, closed "
                "loop %zu jobs with %llu outstanding\n",
                open.size(), open_rate_per_s, mp.duration_s, closed.size(),
                static_cast<unsigned long long>(limit));
    result::info("job_p50_ms", lat.p50, "ms",
                 "open loop, n=" + std::to_string(lat.count));
    result::info("job_p" + fmt_pct(lat.tail_pct) + "_ms", lat.tail, "ms",
                 "highest percentile with >= 10 samples beyond");
    for (int k = 0; k < job_kinds; ++k) {
      std::vector<double> lk;
      for (const job_record& rec : open) {
        if (static_cast<int>(rec.spec.kind) == k) {
          lk.push_back(static_cast<double>(rec.done_ns - rec.arrival_ns) * 1e-6);
        }
      }
      const summary sk = summarize(lk);
      result::info(std::string("job_ms.") + to_string(static_cast<job_kind>(k)),
                   sk.p50, "ms",
                   "p" + fmt_pct(sk.tail_pct) + " " + std::to_string(sk.tail) +
                       ", run p50 " + std::to_string(median(run_ms[k])) +
                       ", n=" + std::to_string(sk.count));
    }
    result::info("capacity_jobs_s", capacity_, "jobs/s", "closed loop");
    result::info("serve.queue_wait_p50_ms", qw.p50, "ms");
    result::info("serve.gen_late_ms", layer_["serve.gen_late_ms"], "ms", "max");
    result::info("serve.backlog_max", static_cast<double>(backlog_max_), "jobs");

    e2e out;
    out.cg_solve_ms = median(cg_big_ms);
    out.lbm_mlups = median(lbm_big_rate);
    out.op_p50_ms = lat.p50;
    out.ops_per_s = capacity_;
    return out;
  }

  double ops() const override { return jobs_; }

  void layers(layer_sheet& s, result&) override {
    for (const auto& [k, v] : layer_) {
      s.set(k, v);
    }
    const auto st = sched_->stats();
    double deferred = 0.0, rejected = 0.0, best = 0.0, worst = 0.0;
    bool first = true;
    for (const auto& t : st.tenants) {
      deferred += static_cast<double>(t.deferred);
      rejected += static_cast<double>(t.rejected);
      if (t.completed == 0) {
        continue;
      }
      best = first ? t.wait_p99_us : std::min(best, t.wait_p99_us);
      worst = std::max(worst, t.wait_p99_us);
      first = false;
    }
    s.set("serve.deferred", deferred);
    s.set("serve.rejected", rejected);
    s.set("serve.p99_ratio", best > 0.0 ? worst / best : 0.0);
  }

private:
  static double percentile_of(std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    return percentile_sorted(v, p);
  }

  static std::string fmt_pct(double p) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%g", p);
    return buf;
  }

  void teardown() {
    if (sched_) {
      sched_->drain();
    }
    {
      std::unique_lock<std::mutex> lock(graph_mu_);
      graph_cv_.wait(lock, [&] {
        return pending_graphs_.empty() && graphs_in_flight_ == 0;
      });
    }
    if (collector_.joinable()) {
      {
        const std::lock_guard<std::mutex> lock(graph_mu_);
        collector_stop_ = true;
      }
      graph_cv_.notify_all();
      collector_.join();
    }
    sched_.reset();
    graphs_.clear();
  }

  /// Submits `rec`'s job now and records its submission.
  void submit(job_record& rec) {
    const job_spec& spec = rec.spec;
    const jaccx::serve::tenant& t = tenants_[static_cast<std::size_t>(spec.tenant)];
    graph_instance* gi = nullptr;
    if (spec.kind == job_kind::cg_graph) {
      gi = acquire_graph(spec.size); // may block: counted as generator lateness
    }
    counter_.start();
    rec.submit_ns = now_ns();
    {
      const std::lock_guard<std::mutex> lock(counter_.mu);
      backlog_max_ = std::max(backlog_max_, counter_.outstanding);
    }
    span_log& log = span_log::get();
    if (log.enabled()) {
      rec.root_span = log.add("serve.job", 0, spec.id, rec.arrival_ns, 0);
    }
    const scoped_span sub("serve.scheduler.submit", spec.id, rec.root_span);
    if (gi != nullptr) {
      gi->done->done_ns.store(0, std::memory_order_relaxed);
      rec.handle = sched_->submit(t, gi->g);
      const std::lock_guard<std::mutex> lock(graph_mu_);
      pending_graphs_.push_back({&rec, gi});
      ++graphs_in_flight_;
      graph_cv_.notify_all();
      return;
    }
    rec.handle = sched_->submit(t, [this, &rec](jacc::queue& q) { run_job(rec, q); });
    if (rec.handle.status() == jaccx::serve::job_status::rejected) {
      counter_.finish(); // shed at submission: the body never runs
    }
  }

  void run_job(job_record& rec, jacc::queue& q) {
    rec.pickup_ns = now_ns();
    span_log& log = span_log::get();
    const std::uint64_t run_span =
        log.enabled() ? log.open("serve.run", rec.spec.id, rec.root_span) : 0;
    try {
      switch (rec.spec.kind) {
      case job_kind::cg: rec.ok = run_cg(rec, q); break;
      case job_kind::lbm: rec.ok = run_lbm(rec, q); break;
      case job_kind::blas: rec.ok = run_blas(rec, q); break;
      case job_kind::cg_graph: break;
      }
    } catch (const std::exception& e) {
      rec.ok = false;
      rec.error = e.what();
    }
    rec.done_ns = now_ns();
    if (run_span != 0) {
      log.close(run_span);
      log.set_end(rec.root_span, rec.done_ns);
    }
    counter_.finish();
  }

  /// Eager tridiagonal CG from x = 0 with the queue overloads — the
  /// operation sequence of cg::cg_solve (matvec, p.s dot, x and r updates,
  /// r.r dot, p update), each dot a blocking future.  Jobs use the queue
  /// API as docs/SERVING.md asks: routing the synchronous solver through a
  /// queue_scope on the threads lanes lets its last update outlive its
  /// scratch arrays.
  bool run_cg(job_record& rec, jacc::queue& q) {
    const auto n = static_cast<std::size_t>(rec.spec.size);
    const auto ni = static_cast<index_t>(n);
    const std::vector<double> x_star = seeded(rec.spec.seed, n, -1.0, 1.0);
    std::vector<double> b_host(n);
    tridiag_apply_host(x_star, b_host);
    const jaccx::cg::tridiag_system A(ni);
    const darray b(b_host);
    darray x(ni);
    darray r(jacc::uninit, ni), p(jacc::uninit, ni), s(jacc::uninit, ni);
    const jacc::hints mv_h{.name = "jacc.tridiag_matvec",
                           .flops_per_index = 5.0, .bytes_per_index = 48.0};
    const jacc::hints dot_h{.name = "cg.dot", .flops_per_index = 2.0,
                            .bytes_per_index = 16.0};
    const jacc::hints axpy_h{.name = "cg.axpy", .flops_per_index = 2.0,
                             .bytes_per_index = 24.0};
    const auto matvec = [&](const darray& in, darray& out) {
      jacc::parallel_for(q, mv_h, ni, jaccx::cg::tridiag_matvec_kernel, A.sub,
                         A.diag, A.super, in, out, ni);
    };
    const scoped_span sp("cg.eager_solve", rec.spec.id);
    matvec(x, s);
    jacc::parallel_for(
        q, jacc::hints{.name = "cg.residual", .flops_per_index = 2.0,
                       .bytes_per_index = 24.0},
        ni,
        [](index_t i, const darray& b_, const darray& s_, darray& r_) {
          r_[i] = static_cast<double>(b_[i]) - static_cast<double>(s_[i]);
        },
        b, s, r);
    jacc::parallel_for(q, jacc::hints{.name = "cg.copy", .bytes_per_index = 16.0},
                       ni, jaccx::cg::copy_kernel, r, p);
    const double bb = q.parallel_reduce(dot_h, ni, jaccx::blas::dot, b, b).get();
    double rr = q.parallel_reduce(dot_h, ni, jaccx::blas::dot, r, r).get();
    const double stop = tol * tol * bb;
    int it = 0;
    while (it < 500 && rr > stop) {
      matvec(p, s);
      const double alpha =
          rr / q.parallel_reduce(dot_h, ni, jaccx::blas::dot, p, s).get();
      jacc::parallel_for(q, axpy_h, ni, jaccx::blas::axpy, alpha, x, p);
      jacc::parallel_for(q, axpy_h, ni, jaccx::blas::axpy, -alpha, r, s);
      const double rr_new =
          q.parallel_reduce(dot_h, ni, jaccx::blas::dot, r, r).get();
      const double beta = rr_new / rr;
      rr = rr_new;
      jacc::parallel_for(q, jacc::hints{.name = "cg.xpay", .flops_per_index = 2.0,
                                        .bytes_per_index = 24.0},
                         ni, jaccx::cg::xpay_kernel, beta, r, p);
      ++it;
    }
    q.synchronize();
    rec.iterations = it;
    return rr <= stop && tridiag_solution_ok(x.host_data(), b_host, x_star);
  }

  /// D2Q9 pressure pulse over the library's lbm_kernel with the queue
  /// overloads, alternating the two lattices instead of swapping them
  /// (lbm::simulation swaps its buffers on the host right after each
  /// enqueue, which a queued launch would not see in order).
  bool run_lbm(job_record& rec, jacc::queue& q) {
    namespace lbm = jaccx::lbm;
    const index_t size = rec.spec.size;
    const index_t plane = size * size;
    const index_t cells = lbm::q * plane;
    // Uninitialized storage: zero-filling arrays this large would go
    // through the shared default pool from a serve worker thread.
    darray f(jacc::uninit, cells), fa(jacc::uninit, cells),
        fb(jacc::uninit, cells);
    const darray w(std::vector<double>(lbm::weights.begin(), lbm::weights.end()));
    const darray cx(std::vector<double>(lbm::vel_x.begin(), lbm::vel_x.end()));
    const darray cy(std::vector<double>(lbm::vel_y.begin(), lbm::vel_y.end()));
    const double amplitude = splitmix(rec.spec.seed).uniform(0.05, 0.1);
    const double c0 = static_cast<double>(size - 1) / 2.0;
    const double radius = pulse_radius * static_cast<double>(size);
    double* ha = fa.host_data();
    double* hb = fb.host_data();
    for (index_t x = 0; x < size; ++x) {
      for (index_t y = 0; y < size; ++y) {
        const double dx = static_cast<double>(x) - c0;
        const double dy = static_cast<double>(y) - c0;
        const double rho =
            1.0 + amplitude * std::exp(-(dx * dx + dy * dy) / (2.0 * radius * radius));
        for (int k = 0; k < lbm::q; ++k) {
          ha[k * plane + x * size + y] = lbm::equilibrium(k, rho, 0.0, 0.0);
          hb[k * plane + x * size + y] = ha[k * plane + x * size + y];
        }
      }
    }
    const jacc::hints mass_h{.name = "jacc.lbm.mass", .flops_per_index = 1.0,
                             .bytes_per_index = 8.0};
    const auto cell = [](index_t i, const darray& a) {
      return static_cast<double>(a[i]);
    };
    const jacc::hints step_h{.name = "jacc.lbm", .flops_per_index = lbm::site_flops,
                             .bytes_per_index = 144.0};
    const double tau = lbm::params{}.tau;
    const double m0 = q.parallel_reduce(mass_h, cells, cell, fa).get();
    for (int s = 0; s < lbm_steps; ++s) {
      const scoped_span sp("lbm.step", rec.spec.id);
      darray& from = s % 2 == 0 ? fa : fb;
      darray& to = s % 2 == 0 ? fb : fa;
      jacc::parallel_for(q, step_h, jacc::dims2{size, size}, lbm::lbm_kernel, f,
                         from, to, tau, w, cx, cy, size);
    }
    const darray& last = lbm_steps % 2 == 0 ? fa : fb;
    const double m1 = q.parallel_reduce(mass_h, cells, cell, last).get();
    q.synchronize();
    if (std::abs(m1 - m0) > 1e-10 * std::abs(m0)) {
      rec.error = "mass drift";
      return false;
    }
    return true;
  }

  /// The library's BLAS-1 routines routed to the job's queue by a
  /// queue_scope; each burst ends in a blocking dot.
  bool run_blas(job_record& rec, jacc::queue& q) {
    const auto n = static_cast<std::size_t>(rec.spec.size);
    std::vector<double> xh = seeded(rec.spec.seed, n, 0.5, 1.0);
    const std::vector<double> yh = seeded(rec.spec.seed + 1, n, 0.5, 1.0);
    darray x(xh), y(yh);
    const double alpha = 0.25;
    double d = 0.0;
    {
      const jacc::queue_scope in(q);
      for (int k = 0; k < blas_reps; ++k) {
        const scoped_span sp("blas.jacc_axpy_dot", rec.spec.id);
        jaccx::blas::jacc_axpy(static_cast<index_t>(n), alpha, x, y);
        d = jaccx::blas::jacc_dot(static_cast<index_t>(n), x, y);
      }
    }
    q.synchronize();
    double ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (int k = 0; k < blas_reps; ++k) {
        xh[i] += alpha * yh[i];
      }
      ref += xh[i] * yh[i];
    }
    const double* xd = x.host_data();
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::max(worst, std::abs(xd[i] - xh[i]) / std::abs(xh[i]));
    }
    return worst <= 1e-14 && std::abs(d - ref) <= 1e-12 * std::abs(ref);
  }

  graph_instance* acquire_graph(int size) {
    std::unique_lock<std::mutex> lock(graph_mu_);
    graph_instance* found = nullptr;
    graph_cv_.wait(lock, [&] {
      for (auto& g : graphs_) {
        if (g->n == size && !g->busy) {
          found = g.get();
          return true;
        }
      }
      return false;
    });
    found->busy = true;
    return found;
  }

  /// Collects graph jobs as they finish, in any order: checks each
  /// solution and returns the instance to the pool.  Polls, because a
  /// replay's handle turns terminal only after its last host node ran.
  void collect() {
    for (;;) {
      std::vector<std::pair<job_record*, graph_instance*>> finished;
      {
        std::unique_lock<std::mutex> lock(graph_mu_);
        graph_cv_.wait_for(lock, std::chrono::milliseconds(1));
        for (auto it = pending_graphs_.begin(); it != pending_graphs_.end();) {
          if (it->first->handle.terminal()) {
            finished.push_back(*it);
            it = pending_graphs_.erase(it);
          } else {
            ++it;
          }
        }
        if (finished.empty() && collector_stop_ && pending_graphs_.empty()) {
          return;
        }
      }
      for (auto [rec, gi] : finished) {
        finish_graph_job(*rec, *gi);
      }
    }
  }

  void finish_graph_job(job_record& rec, graph_instance& gi) {
    const bool done = rec.handle.status() == jaccx::serve::job_status::done;
    rec.queue_wait_us = rec.handle.queue_wait_us();
    rec.pickup_ns =
        rec.submit_ns + static_cast<std::uint64_t>(rec.queue_wait_us * 1e3);
    rec.done_ns = gi.done->done_ns.load(std::memory_order_acquire);
    rec.iterations = graph_iters_.at(gi.n);
    rec.ok = done && rec.done_ns != 0 && std::sqrt(gi.done->rr / gi.bb) <= tol &&
             tridiag_solution_ok(gi.x.host_data(), gi.b_host, gi.x_star);
    if (!done) {
      rec.error = rec.handle.error();
      rec.done_ns = now_ns();
      counter_.finish();
    }
    span_log& log = span_log::get();
    if (log.enabled() && rec.root_span != 0) {
      log.add("serve.queued", rec.root_span, rec.spec.id, rec.submit_ns,
              rec.pickup_ns);
      log.add("graph.launch", rec.root_span, rec.spec.id, rec.pickup_ns,
              rec.done_ns);
      log.set_end(rec.root_span, rec.done_ns);
    }
    {
      const std::lock_guard<std::mutex> lock(graph_mu_);
      gi.busy = false;
      --graphs_in_flight_;
    }
    graph_cv_.notify_all();
  }

  /// Blocks until every submitted job finished and every graph job was
  /// collected; then completes the records of callable jobs from their
  /// handles (queue wait, terminal status, the queued span).
  void drain(std::deque<job_record>& recs) {
    sched_->drain();
    {
      std::unique_lock<std::mutex> lock(graph_mu_);
      graph_cv_.wait(lock, [&] {
        return pending_graphs_.empty() && graphs_in_flight_ == 0;
      });
    }
    span_log& log = span_log::get();
    for (job_record& rec : recs) {
      if (rec.spec.kind == job_kind::cg_graph) {
        continue;
      }
      rec.queue_wait_us = rec.handle.queue_wait_us();
      if (rec.handle.status() != jaccx::serve::job_status::done) {
        rec.ok = false;
        rec.error += " status " +
                     std::to_string(static_cast<int>(rec.handle.status()));
      }
      if (log.enabled() && rec.root_span != 0) {
        log.add("serve.queued", rec.root_span, rec.spec.id, rec.submit_ns,
                rec.submit_ns +
                    static_cast<std::uint64_t>(rec.queue_wait_us * 1e3));
      }
    }
  }

  run_args args_;
  std::unique_ptr<jaccx::serve::scheduler> sched_;
  std::vector<jaccx::serve::tenant> tenants_;
  std::vector<std::unique_ptr<graph_instance>> graphs_;
  std::map<int, int> graph_iters_;
  completion_counter counter_;

  std::mutex graph_mu_; // guards busy flags, pending_graphs_, in-flight count
  std::condition_variable graph_cv_;
  std::deque<std::pair<job_record*, graph_instance*>> pending_graphs_;
  int graphs_in_flight_ = 0;
  bool collector_stop_ = false;
  std::thread collector_;

  std::uint64_t backlog_max_ = 0;
  double capacity_ = 0.0;
  double jobs_ = 0.0;
  std::map<std::string, double> layer_;
};

} // namespace

std::unique_ptr<workload> make_serve_mix(const run_args& a) {
  return std::make_unique<serve_mix>(a);
}

} // namespace perfbench

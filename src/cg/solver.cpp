#include "cg/solver.hpp"

#include <cmath>
#include <memory>

namespace jaccx::cg {
namespace {

/// CG setup shared by every CG loop: r = b - A x and p = r in
/// one sweep (the copy reads the residual just stored at the same index,
/// the same dataflow as back-to-back kernels), then bb = b . b through the
/// expression dot (docs/FUSION.md).  Returns bb; when it is 0, x = 0 is
/// exact and has been stored.
template <class Apply>
double cg_setup(index_t n, const Apply& apply, const darray& b, darray& x,
                darray& r, darray& p, darray& s) {
  apply(x, s);
  jacc::eval("cg.setup", n, jacc::assign(r, jacc::ex(b) - jacc::ex(s)),
             jacc::assign(p, jacc::ex(r)));
  const double bb = jacc::dot("cg.dot", n, jacc::ex(b), jacc::ex(b));
  if (bb == 0.0) {
    jacc::parallel_for(
        jacc::hints{.name = "cg.zero", .bytes_per_index = 8.0}, n,
        [](index_t i, darray& x_) { x_[i] = 0.0; }, x);
  }
  return bb;
}

/// The shared CG loop; Apply is `void(const darray& in, darray& out)`.
template <class Apply>
cg_result cg_loop(index_t n, const Apply& apply, const darray& b, darray& x,
                  const cg_options& opts) {
  // Iteration scratch is fully overwritten before its first read (s by
  // apply, r and p by cg.setup), so skip the zero fill; under
  // JACC_MEM_POOL=bucket the storage itself is recycled across solves.
  darray r(jacc::uninit, n);
  darray p(jacc::uninit, n);
  darray s(jacc::uninit, n);

  const double bb = cg_setup(n, apply, b, x, r, p, s);
  if (bb == 0.0) {
    return {0, 0.0, true};
  }
  double rr = jacc::dot("cg.dot", n, jacc::ex(r), jacc::ex(r));
  const double stop = opts.tolerance * opts.tolerance * bb;

  cg_result out;
  while (out.iterations < opts.max_iterations && rr > stop) {
    apply(p, s);
    const double ps = jacc::dot("cg.dot", n, jacc::ex(p), jacc::ex(s));
    const double alpha = rr / ps;
    // x += alpha p; r -= alpha s; rr = r . r in one 48 B/index launch (three
    // separate sweeps would move 24 + 24 + 16 B/index).  The dot term reads
    // the post-update r, and statement order and expression shapes match
    // the axpy kernels, so iterates equal the unfused sequence's.
    const double rr_new = jacc::eval_dot(
        "cg.fused_update", n, jacc::ex(r), jacc::ex(r),
        jacc::assign(x, jacc::ex(x) + alpha * jacc::ex(p)),
        jacc::assign(r, jacc::ex(r) + (-alpha) * jacc::ex(s)));
    const double beta = rr_new / rr;
    jacc::eval("cg.xpay", n,
               jacc::assign(p, jacc::ex(r) + beta * jacc::ex(p)));
    rr = rr_new;
    ++out.iterations;
  }
  out.relative_residual = std::sqrt(rr / bb);
  out.converged = rr <= stop;
  return out;
}

/// The pipelined loop: `qc` carries the kernels (cg_setup included), `qd`
/// the dots.  Work edges are explicit — qd.wait(qc.record()) before a dot
/// that reads what qc just wrote, qc.wait(future) before a kernel whose
/// scalar depends on a dot — and everything between the edges overlaps.
template <class Apply>
cg_result cg_loop_pipelined(index_t n, const Apply& apply, const darray& b,
                            darray& x, const cg_options& opts) {
  jacc::queue qc("cg.compute");
  jacc::queue qd("cg.dot");
  const jacc::hints dot_h{.name = "cg.dot", .flops_per_index = 2.0,
                          .bytes_per_index = 16.0};
  const jacc::hints axpy_h{.name = "cg.axpy", .flops_per_index = 2.0,
                           .bytes_per_index = 24.0};

  darray r(jacc::uninit, n);
  darray p(jacc::uninit, n);
  darray s(jacc::uninit, n);

  const double bb = [&] {
    const jacc::queue_scope in(qc);
    return cg_setup(n, apply, b, x, r, p, s);
  }();
  if (bb == 0.0) {
    qc.synchronize(); // the queued x = 0
    return {0, 0.0, true};
  }
  qd.wait(qc.record()); // r . r reads the fresh r
  auto f_rr = qd.parallel_reduce(dot_h, n, blas::dot, r, r);
  double rr = f_rr.get();
  const double stop = opts.tolerance * opts.tolerance * bb;

  cg_result out;
  while (out.iterations < opts.max_iterations && rr > stop) {
    {
      const jacc::queue_scope in(qc);
      apply(p, s);
    }
    qd.wait(qc.record()); // p . s reads the fresh s
    auto f_ps = qd.parallel_reduce(dot_h, n, blas::dot, p, s);
    const double alpha = rr / f_ps.get();
    qc.wait(f_ps); // the updates' scalar depends on the dot
    {
      // Residual update first so the rr dot can start; the independent x
      // update then runs under it.  (cg_loop orders the axpys the other
      // way; they touch disjoint vectors, so iterates are identical.)
      const jacc::queue_scope in(qc);
      jacc::parallel_for(axpy_h, n, blas::axpy, -alpha, r, s);
    }
    qd.wait(qc.record()); // r . r reads the fresh r
    auto f_rrn = qd.parallel_reduce(dot_h, n, blas::dot, r, r);
    {
      const jacc::queue_scope in(qc);
      jacc::parallel_for(axpy_h, n, blas::axpy, alpha, x, p);
    }
    const double rr_new = f_rrn.get();
    qc.wait(f_rrn); // beta dependency
    {
      const jacc::queue_scope in(qc);
      jacc::parallel_for(jacc::hints{.name = "cg.xpay",
                                     .flops_per_index = 2.0,
                                     .bytes_per_index = 24.0},
                         n, xpay_kernel, rr_new / rr, r, p);
    }
    rr = rr_new;
    ++out.iterations;
  }
  qc.synchronize();
  qd.synchronize();
  out.relative_residual = std::sqrt(rr / bb);
  out.converged = rr <= stop;
  return out;
}

/// The graph-replay loop.  Setup (residual, p, bb, rr) is cg_loop's; then
/// ONE iteration is captured — with the alpha/beta plumbing recorded as
/// future::then host nodes writing scalar_bindings the kernels read — and
/// replayed to convergence.  The captured iteration runs cg_loop's
/// operations as separate kernels (matvec, ps dot, x axpy, r axpy, rr dot,
/// p xpay); each element sees the same arithmetic as in cg_loop's fused
/// update, so iterates match bit for bit wherever the reduction tree
/// matches.
template <class Apply>
cg_result cg_loop_graphed(index_t n, const Apply& apply, const darray& b,
                          darray& x, const cg_options& opts) {
  darray r(jacc::uninit, n);
  darray p(jacc::uninit, n);
  darray s(jacc::uninit, n);

  const double bb = cg_setup(n, apply, b, x, r, p, s);
  if (bb == 0.0) {
    return {0, 0.0, true};
  }
  double rr = jacc::dot("cg.dot", n, jacc::ex(r), jacc::ex(r));
  const jacc::hints dot_h{.name = "cg.dot", .flops_per_index = 2.0,
                          .bytes_per_index = 16.0};
  const jacc::hints axpy_h{.name = "cg.axpy", .flops_per_index = 2.0,
                           .bytes_per_index = 24.0};
  const double stop = opts.tolerance * opts.tolerance * bb;

  // Capture one iteration.  The kernels read alpha/beta through
  // scalar_bindings that the dots' then-callbacks write, so a replay is
  // fully self-contained: no host round-trip inside the iteration, one
  // *rr_cell read per convergence check after synchronize.
  jacc::queue q("cg.graph");
  const jacc::scalar_binding<double> alpha(0.0);
  const jacc::scalar_binding<double> neg_alpha(0.0);
  const jacc::scalar_binding<double> beta(0.0);
  auto rr_cell = std::make_shared<double>(rr);

  q.begin_capture();
  {
    const jacc::queue_scope in(q);
    apply(p, s);
  }
  auto f_ps = q.parallel_reduce(dot_h, n, blas::dot, p, s);
  f_ps.then(q, [alpha, neg_alpha, rr_cell](double ps) {
    const double a = *rr_cell / ps;
    alpha.set(a);
    neg_alpha.set(-a);
  });
  {
    const jacc::queue_scope in(q);
    jacc::parallel_for(axpy_h, n, blas::axpy, alpha, x, p);
    jacc::parallel_for(axpy_h, n, blas::axpy, neg_alpha, r, s);
  }
  auto f_rr = q.parallel_reduce(dot_h, n, blas::dot, r, r);
  f_rr.then(q, [beta, rr_cell](double rr_new) {
    beta.set(rr_new / *rr_cell);
    *rr_cell = rr_new;
  });
  {
    const jacc::queue_scope in(q);
    jacc::parallel_for(jacc::hints{.name = "cg.xpay", .flops_per_index = 2.0,
                                   .bytes_per_index = 24.0},
                       n, xpay_kernel, beta, r, p);
  }
  jacc::graph g = q.end_capture();

  cg_result out;
  while (out.iterations < opts.max_iterations && rr > stop) {
    g.launch(q);
    q.synchronize();
    rr = *rr_cell;
    ++out.iterations;
  }
  out.relative_residual = std::sqrt(rr / bb);
  out.converged = rr <= stop;
  return out;
}

} // namespace

cg_result cg_solve(const tridiag_system& A, const darray& b, darray& x,
                   const cg_options& opts) {
  JACCX_ASSERT(b.size() == A.n && x.size() == A.n);
  return cg_loop(
      A.n, [&](const darray& in, darray& out) { A.apply(in, out); }, b, x,
      opts);
}

cg_result cg_solve(const csr_system& A, const darray& b, darray& x,
                   const cg_options& opts) {
  JACCX_ASSERT(b.size() == A.rows && x.size() == A.rows);
  return cg_loop(
      A.rows, [&](const darray& in, darray& out) { A.apply(in, out); }, b, x,
      opts);
}

cg_result cg_solve_pipelined(const tridiag_system& A, const darray& b,
                             darray& x, const cg_options& opts) {
  JACCX_ASSERT(b.size() == A.n && x.size() == A.n);
  return cg_loop_pipelined(
      A.n, [&](const darray& in, darray& out) { A.apply(in, out); }, b, x,
      opts);
}

cg_result cg_solve_pipelined(const csr_system& A, const darray& b, darray& x,
                             const cg_options& opts) {
  JACCX_ASSERT(b.size() == A.rows && x.size() == A.rows);
  return cg_loop_pipelined(
      A.rows, [&](const darray& in, darray& out) { A.apply(in, out); }, b, x,
      opts);
}

cg_result cg_solve_graphed(const tridiag_system& A, const darray& b,
                           darray& x, const cg_options& opts) {
  JACCX_ASSERT(b.size() == A.n && x.size() == A.n);
  return cg_loop_graphed(
      A.n, [&](const darray& in, darray& out) { A.apply(in, out); }, b, x,
      opts);
}

cg_result cg_solve_graphed(const csr_system& A, const darray& b, darray& x,
                           const cg_options& opts) {
  JACCX_ASSERT(b.size() == A.rows && x.size() == A.rows);
  return cg_loop_graphed(
      A.rows, [&](const darray& in, darray& out) { A.apply(in, out); }, b, x,
      opts);
}

paper_state::paper_state(index_t n)
    : A(n), r(n), p(n), s(n), x(n), r_old(n), r_aux(n) {
  double* rh = r.host_data();
  double* ph = p.host_data();
  for (index_t i = 0; i < n; ++i) {
    rh[i] = 0.5;
    ph[i] = 0.5;
  }
}

void paper_iteration(paper_state& st) {
  // One Fig. 12 iteration shows up as a single nesting region in traces,
  // bracketing its 1 matvec + 5 dots + 3 axpys + 3 copies.
  const jaccx::prof::scoped_region prof_region("cg.iteration");
  const index_t n = st.A.n;
  const jacc::hints dot_h{.name = "cg.dot", .flops_per_index = 2.0,
                          .bytes_per_index = 16.0};
  const jacc::hints axpy_h{.name = "cg.axpy", .flops_per_index = 2.0,
                           .bytes_per_index = 24.0};

  // r_old = copy(r)
  jacc::parallel_for(jacc::hints{.name = "cg.copy", .bytes_per_index = 16.0},
                     n, copy_kernel, st.r, st.r_old);
  // s = A p
  st.A.apply(st.p, st.s);
  // alpha = (r . r) / (p . s)
  const double alpha0 = jacc::parallel_reduce(dot_h, n, blas::dot, st.r, st.r);
  const double alpha1 = jacc::parallel_reduce(dot_h, n, blas::dot, st.p, st.s);
  const double alpha = alpha0 / alpha1;
  // r -= alpha s ; x += alpha p
  jacc::parallel_for(axpy_h, n, blas::axpy, -alpha, st.r, st.s);
  jacc::parallel_for(axpy_h, n, blas::axpy, alpha, st.x, st.p);
  // beta = (r . r) / (r_old . r_old)
  const double beta0 = jacc::parallel_reduce(dot_h, n, blas::dot, st.r, st.r);
  const double beta1 =
      jacc::parallel_reduce(dot_h, n, blas::dot, st.r_old, st.r_old);
  const double beta = beta0 / beta1;
  // r_aux = copy(r) ; r_aux += beta p ; p = copy(r_aux) ; cond = r . r
  // (the listing's exact sequence: 1 matvec, 5 dots, 3 axpys, 3 copies)
  jacc::parallel_for(jacc::hints{.name = "cg.copy", .bytes_per_index = 16.0},
                     n, copy_kernel, st.r, st.r_aux);
  jacc::parallel_for(axpy_h, n, blas::axpy, beta, st.r_aux, st.p);
  jacc::parallel_for(jacc::hints{.name = "cg.copy", .bytes_per_index = 16.0},
                     n, copy_kernel, st.r_aux, st.p);
  const double cond = jacc::parallel_reduce(dot_h, n, blas::dot, st.r, st.r);
  static_cast<void>(cond);
}

void paper_iteration_fused(paper_state& st) {
  const jaccx::prof::scoped_region prof_region("cg.iteration");
  const index_t n = st.A.n;
  // paper_iteration's 12 operations regrouped into 5 launches.  Each group
  // keeps the listing's per-index statement order, every expression
  // mirrors its kernel's arithmetic shape, and r . r never straddles a
  // matvec it depends on — so the iterates are bit-identical to
  // paper_iteration's.  BLAS-chain hint bytes drop from 200 to 120 per
  // index.
  // r_old = copy(r), fused with the alpha numerator r . r (legal before
  // the matvec: neither reads s).
  const double alpha0 = jacc::eval_dot("cg.fused_copy_dot", n,
                                       jacc::ex(st.r), jacc::ex(st.r),
                                       jacc::assign(st.r_old, jacc::ex(st.r)));
  // s = A p
  st.A.apply(st.p, st.s);
  const double alpha1 = jacc::dot("cg.dot", n, jacc::ex(st.p), jacc::ex(st.s));
  const double alpha = alpha0 / alpha1;
  // r -= alpha s ; x += alpha p ; beta numerator reads the fresh r.
  const double beta0 = jacc::eval_dot(
      "cg.fused_update_dot", n, jacc::ex(st.r), jacc::ex(st.r),
      jacc::assign(st.r, jacc::ex(st.r) + (-alpha) * jacc::ex(st.s)),
      jacc::assign(st.x, jacc::ex(st.x) + alpha * jacc::ex(st.p)));
  // beta denominator: r_old holds bitwise the r the alpha numerator
  // reduced, and the flat reduction order is identical, so the group-1
  // result IS dot(r_old, r_old) — no extra sweep.
  const double beta1 = alpha0;
  const double beta = beta0 / beta1;
  // r_aux = r + beta p ; p = r_aux ; cond = r . r — the first statement
  // reads the old p at each index before the second overwrites it.
  const double cond = jacc::eval_dot(
      "cg.fused_pupdate_dot", n, jacc::ex(st.r), jacc::ex(st.r),
      jacc::assign(st.r_aux, jacc::ex(st.r) + beta * jacc::ex(st.p)),
      jacc::assign(st.p, jacc::ex(st.r_aux)));
  static_cast<void>(cond);
}

} // namespace jaccx::cg

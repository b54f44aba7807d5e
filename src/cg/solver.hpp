// Plain unpreconditioned conjugate gradient over the JACC front end
// (paper Sec. V-C, Fig. 12) — the HPCCG / MiniFE solve.
//
// Entry points:
//   * cg_solve       — the mathematically correct solver (converges; used by
//                      tests and examples), built entirely from JACC
//                      constructs: a matvec parallel_for, and the dots and
//                      vector updates through the jacc::expr layer, which
//                      fuses x/r updates with the r . r dot (docs/FUSION.md).
//   * paper_iteration — performs exactly the per-iteration operation
//                      sequence of the paper's Fig. 12 listing (1 matvec,
//                      4 dots, 3 axpy-type updates, 2 copies), which is what
//                      Fig. 13 times.  Kept separate because the listing's
//                      algebra has typos (see tridiag.hpp) but its *cost
//                      structure* is what must be reproduced.
//   * paper_iteration_fused — the same operations regrouped by the
//                      expression layer into 5 launches (docs/FUSION.md);
//                      bit-identical iterates, less simulated DRAM traffic.
#pragma once

#include "blas/kernels.hpp"
#include "cg/csr.hpp"
#include "cg/tridiag.hpp"

namespace jaccx::cg {

struct cg_options {
  int max_iterations = 500;
  double tolerance = 1e-10; ///< on ||r|| / ||b||
};

struct cg_result {
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
};

/// Solves A x = b for the specialized tridiagonal system.  x holds the
/// initial guess on entry and the solution on exit.
cg_result cg_solve(const tridiag_system& A, const darray& b, darray& x,
                   const cg_options& opts = {});

/// Solves A x = b for a CSR system.
cg_result cg_solve(const csr_system& A, const darray& b, darray& x,
                   const cg_options& opts = {});

/// Pipelined cg_solve: kernels ride a compute queue while every dot product
/// is a non-blocking jacc::future on a second queue, so the reduction +
/// scalar D2H that Fig. 13 shows trailing each iteration overlaps the next
/// independent kernel (the x update runs under the rr dot's rounds).
/// Iterates are bit-identical to cg_solve on the simulated back ends (same
/// operation order on the data; only the charge structure differs); on
/// real back ends the host genuinely overlaps lane work.
cg_result cg_solve_pipelined(const tridiag_system& A, const darray& b,
                             darray& x, const cg_options& opts = {});
cg_result cg_solve_pipelined(const csr_system& A, const darray& b, darray& x,
                             const cg_options& opts = {});

/// Graph-replay cg_solve: one iteration (matvec, two dots, the scalar
/// plumbing as future::then host nodes, three vector updates) is captured
/// into a jacc::graph once, then replayed to convergence — per iteration
/// the front end does no dispatch, capture-policy, or hint-resolution work
/// at all.  The operation sequence on the data is exactly cg_solve's, so
/// iterates are bit-identical on the serial and simulated back ends (and on
/// threads with one lane); across threads async lanes the dots run on a
/// narrower pool, giving the same association-order caveat as
/// cg_solve_pipelined.
cg_result cg_solve_graphed(const tridiag_system& A, const darray& b,
                           darray& x, const cg_options& opts = {});
cg_result cg_solve_graphed(const csr_system& A, const darray& b, darray& x,
                           const cg_options& opts = {});

/// Working set for paper_iteration, initialized per the paper's listing
/// (r = p = 0.5, s = x = r_old = r_aux = 0).
struct paper_state {
  tridiag_system A;
  darray r, p, s, x, r_old, r_aux;

  explicit paper_state(index_t n);
};

/// One iteration with the Fig. 12 operation sequence (see header comment).
void paper_iteration(paper_state& st);

/// paper_iteration's operations fused into 5 launches: the fusion ablation
/// (bench/abl_cg_fusion) compares the two.
void paper_iteration_fused(paper_state& st);

} // namespace jaccx::cg
